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

from copulascore.cli import SINGLE_MODEL_HEADER, ScoresFile, _csv_text, write_scores
from copulascore.scoring import score_arrays
from copulascore.sim_harness import (
    ContaminationSpec,
    DgpSpec,
    _draw_contamination,
    _rep_rng,
    simulate_path,
)

SEED = 223223
N = 223

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


def model_scores(spec, y, sigma, cspec, rng):
    """(marginal, copula) scores per period of one contaminated forecaster."""
    cspec.check_against(spec)
    dm, dc = _draw_contamination(cspec, N, rng)
    return score_arrays(y, np.sqrt(dm)[:, None] * sigma, spec.rho * dc)


def main() -> None:
    out_dir = Path(__file__).parent
    spec = DgpSpec(n=N)
    y, sigma = simulate_path(spec, seed=SEED)

    per_model = {}
    for k, (name, cspec) in enumerate(sorted(MODELS.items())):
        per_model[name] = model_scores(spec, y, sigma, cspec, _rep_rng(SEED, k + 1))

    model_dir = out_dir / "synthetic_model_scores"
    model_dir.mkdir(exist_ok=True)
    t = range(1, N + 1)
    for name, (sm, sc) in per_model.items():
        text = _csv_text(SINGLE_MODEL_HEADER, zip(t, sm, sc))
        (model_dir / f"{name}.csv").write_text(text, encoding="utf-8")

    # pairwise file: model_c versus model_b (differently noisy correlations)
    pair = ScoresFile(np.arange(1.0, N + 1), *per_model["model_c"], *per_model["model_b"])
    write_scores(out_dir / "synthetic_scores.csv", pair)


if __name__ == "__main__":
    main()
