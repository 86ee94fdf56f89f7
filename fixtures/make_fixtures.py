"""Regenerate the synthetic score fixtures in this directory.

The files are NOT real market data: one path of the built-in DGP
(dimension 5, evaluation length 223) is scored by seven synthetic
forecasters whose volatility/correlation parameters carry different levels
of multiplicative noise.  Running this script reproduces the files
byte-for-byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from copulascore.cli import SINGLE_MODEL_HEADER, _csv_text, _density_header, write_scores
from copulascore.scoring import _pit, score_arrays
from copulascore.sim_harness import (
    ContaminationSpec,
    DgpSpec,
    _rep_rng,
    simulate_path,
)

SEED = 223223
N = 223
# dimension of the per-dimension densities file; at 8 or more columns a
# pairwise block sum would differ from the left-to-right one in the last bit
DENSITY_DIM = 9

# (marginal noise half-width, correlation noise half-width) per model
MODELS = {
    "model_a": ContaminationSpec(0.0, 0.0),
    "model_b": ContaminationSpec(0.1, 0.1),
    "model_c": ContaminationSpec(0.1, 0.5),
    "model_d": ContaminationSpec(0.5, 0.1),
    "model_e": ContaminationSpec(0.5, 0.5),
    "model_f": ContaminationSpec(0.2, 0.3),
    "model_g": ContaminationSpec(0.3, 0.2),
}


def disturbances(spec, cspec, rng):
    """One forecaster's (dm, dc) over the whole window, dm then dc, each
    uniform on 1 +/- its half-width (see ``ContaminationSpec``)."""
    cspec.check_against(spec)
    dm = rng.uniform(1.0 - cspec.delta_marg, 1.0 + cspec.delta_marg, size=N)
    return dm, rng.uniform(1.0 - cspec.delta_cop, 1.0 + cspec.delta_cop, size=N)


def model_scores(spec, y, sigma, cspec, rng):
    """(marginal, copula) scores of one contaminated forecaster, one row
    per period."""
    dm, dc = disturbances(spec, cspec, rng)
    return np.column_stack(score_arrays(y, np.sqrt(dm)[:, None] * sigma, spec.rho * dc))


def density_columns(spec, y, sigma, cspec, rng):
    """One contaminated forecaster's block of the densities format: log
    predictive densities and probability transforms per dimension, then the
    log copula density, one row per period."""
    dm, dc = disturbances(spec, cspec, rng)
    sig = np.sqrt(dm)[:, None] * sigma
    z = y / sig
    logf = -(0.5 * np.log(2.0 * np.pi) + np.log(sig) + 0.5 * z**2)
    _, s_c = score_arrays(y, sig, spec.rho * dc)
    return np.column_stack([logf, _pit(z), -s_c])


def main() -> None:
    out_dir = Path(__file__).parent
    spec = DgpSpec(n=N)
    y, sigma = simulate_path(spec, seed=SEED)

    per_model = {}
    for k, (name, cspec) in enumerate(sorted(MODELS.items())):
        per_model[name] = model_scores(spec, y, sigma, cspec, _rep_rng(SEED, k + 1))

    model_dir = out_dir / "synthetic_model_scores"
    model_dir.mkdir(exist_ok=True)
    t = np.arange(1.0, N + 1)
    for name, scores in per_model.items():
        text = _csv_text(SINGLE_MODEL_HEADER, np.column_stack([t, scores]))
        (model_dir / f"{name}.csv").write_text(text, encoding="utf-8")

    # pairwise file: model_c versus model_b (differently noisy correlations)
    pair = np.stack([per_model["model_c"], per_model["model_b"]], axis=1)
    write_scores(out_dir / "synthetic_scores.csv", t, pair)

    # densities file: the model_c and model_b contamination on a wider path
    dspec = DgpSpec(n=N, dim=DENSITY_DIM)
    y, sigma = simulate_path(dspec, seed=SEED)
    blocks = [
        density_columns(dspec, y, sigma, MODELS[name], _rep_rng(SEED, len(MODELS) + m))
        for m, name in enumerate(("model_c", "model_b"), start=1)
    ]
    rows = np.column_stack([t, *blocks])
    text = _csv_text(_density_header(DENSITY_DIM), rows)
    (out_dir / "synthetic_densities.csv").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
