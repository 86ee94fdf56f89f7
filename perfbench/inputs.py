"""Seeded input generators for the workloads that read external inputs.

Everything here uses numpy and this file only, never ``copulascore``: a
refactor of the package's own simulation code must not change what two
commits under comparison receive.  The same seed gives byte-identical
files, and every generator returns the sha256 digest of what it wrote.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# compare-matrix: models x periods of single-model score files.
MATRIX_MODELS = 20
MATRIX_PERIODS = 2500
# score-pairs: forecasters x periods x dimensions.
PAIRS_MODELS = 8
PAIRS_PERIODS = 1500
PAIRS_DIM = 5

# GARCH(1,1) with equicorrelated Gaussian innovations, the process the
# paper's study uses (omega0, alpha0, beta0, rho).
_GARCH = (0.001, 0.1, 0.5, 0.5)
_BURN_IN = 500


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _ar1(rng: np.random.Generator, phi: float, shape: tuple[int, ...]) -> np.ndarray:
    """Stationary AR(1) noise along the last axis, unit innovation scale."""
    e = rng.standard_normal(shape)
    out = np.empty(shape)
    out[..., 0] = e[..., 0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, shape[-1]):
        out[..., t] = phi * out[..., t - 1] + e[..., t]
    return out


def matrix_scores(seed: int, models: int = MATRIX_MODELS, periods: int = MATRIX_PERIODS):
    """Per-model (marginal, copula) score series, shape (models, periods) each.

    Models share a common score path (the observations are common) and add
    serially correlated idiosyncratic noise whose copula part is correlated
    with the marginal part.  Model means sit on a small grid, so pairs in
    the same marginal group can only differ at the copula step and the
    matrix holds all three labels.
    """
    rng = _rng(seed, 1)
    common_m = -9.0 + 0.8 * _ar1(rng, 0.3, (periods,))
    common_c = -0.3 + 0.4 * _ar1(rng, 0.3, (periods,))
    noise_m = _ar1(rng, 0.2, (models, periods))
    noise_c = 0.5 * noise_m + 0.8 * _ar1(rng, 0.2, (models, periods))
    k = np.arange(models)
    mu_m = 0.06 * (k % 3)
    mu_c = 0.05 * ((k // 3) % 3)
    return common_m + mu_m[:, None] + noise_m, common_c + mu_c[:, None] + noise_c


def write_matrix_inputs(directory: Path, seed: int) -> str:
    """Write ``model_XX.csv`` files (header ``t,s_marg,s_cop``); return the
    digest of all file contents in name order."""
    directory.mkdir(parents=True, exist_ok=True)
    s_marg, s_cop = matrix_scores(seed)
    digest = hashlib.sha256()
    for k in range(s_marg.shape[0]):
        lines = ["t,s_marg,s_cop"]
        lines += [
            f"{t + 1},{_fmt(m)},{_fmt(c)}"
            for t, (m, c) in enumerate(zip(s_marg[k].tolist(), s_cop[k].tolist()))
        ]
        text = ("\n".join(lines) + "\n").encode("utf-8")
        (directory / f"model_{k:02d}.csv").write_bytes(text)
        digest.update(text)
    return digest.hexdigest()


def _garch_path(rng: np.random.Generator, periods: int, dim: int):
    """Observations and true conditional standard deviations, (periods, dim)."""
    omega0, alpha0, beta0, rho = _GARCH
    corr = np.full((dim, dim), rho) + (1.0 - rho) * np.eye(dim)
    eps = rng.standard_normal((_BURN_IN + periods, dim)) @ np.linalg.cholesky(corr).T
    y = np.empty_like(eps)
    sigma2 = np.empty_like(eps)
    s2 = np.full(dim, omega0 / (1.0 - alpha0 - beta0))
    for t in range(eps.shape[0]):
        sigma2[t] = s2
        y[t] = np.sqrt(s2) * eps[t]
        s2 = omega0 + alpha0 * y[t] ** 2 + beta0 * s2
    return y[_BURN_IN:], np.sqrt(sigma2[_BURN_IN:])


def pair_inputs(
    seed: int, models: int = PAIRS_MODELS, periods: int = PAIRS_PERIODS, dim: int = PAIRS_DIM
):
    """Observations ``y`` (periods, dim) and each forecaster's Gaussian
    marginal scales ``sigma`` (models, periods, dim) and equicorrelation
    ``rho`` (models, periods), with per-period multiplicative parameter
    noise of model-specific width."""
    rng = _rng(seed, 2)
    y, sigma_true = _garch_path(rng, periods, dim)
    rho0 = _GARCH[3]
    w_marg = np.linspace(0.0, 0.5, models)
    w_cop = np.linspace(0.5, 0.0, models)
    dm = rng.uniform(1.0 - w_marg[:, None], 1.0 + w_marg[:, None], (models, periods))
    dc = rng.uniform(1.0 - w_cop[:, None], 1.0 + w_cop[:, None], (models, periods))
    sigma = np.sqrt(dm)[:, :, None] * sigma_true[None, :, :]
    return y, sigma, rho0 * dc


def write_pair_inputs(path: Path, seed: int) -> str:
    """Write the score-pairs inputs as an uncompressed ``.npz``; return the
    digest of the arrays' bytes."""
    y, sigma, rho = pair_inputs(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, y=y, sigma=sigma, rho=rho)
    digest = hashlib.sha256()
    for a in (y, sigma, rho):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()
