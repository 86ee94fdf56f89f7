"""Log-score building blocks for joint forecasts of marginals and copula.

The score of a joint forecast is kept as an ordered pair: the summed
marginal log-scores first, the copula log-score (evaluated at the
probability transforms) second.  Pairs of expected scores are compared
lexicographically, so the copula component only decides between forecasts
whose marginal components tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .copulas import (
    Copula,
    GaussianEquiCorr,
    Independence,
    UNIT_CLAMP,
    gaussian_logdensity_from_scores,
)

# Not called here; perfbench/child.py wraps this module attribute by name.
from .copulas import gaussian_copula_logdensity  # noqa: F401

__all__ = [
    "MarginalForecast",
    "BivariateScore",
    "s_marg",
    "pit",
    "s_cop",
    "s_joint",
    "bivariate_score",
    "score_arrays",
    "lex_less",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class MarginalForecast:
    """Zero-mean Gaussian predictive marginals with one scale per dimension."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        if sigma.ndim != 1 or sigma.size == 0:
            raise ValueError("sigma must be a nonempty vector")
        if not np.all(sigma > 0.0):
            raise ValueError("all standard deviations must be strictly positive")
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.sigma.size


class BivariateScore(NamedTuple):
    """The (marginal, copula) score pair of one forecast at one observation."""

    s_marg: float
    s_cop: float


def _check_obs(f: MarginalForecast, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (f.dim,):
        raise ValueError(f"y must have shape ({f.dim},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("observation must be finite")
    return y


def _pit(z):
    return np.clip(ndtr(z), UNIT_CLAMP, 1.0 - UNIT_CLAMP)


def score_arrays(y, sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """(marginal, copula) scores of zero-mean Gaussian marginals joined by a
    Gaussian equicorrelation copula, vectorized over leading axes.

    ``y`` and ``sigma`` have shape (..., dim); ``rho`` is a scalar or
    broadcasts against the leading axes, and ``rho = 0`` is the independence
    copula.  Inputs are not validated: pass finite ``y``, positive ``sigma``
    and ``rho`` inside the equicorrelation range.
    """
    y = np.asarray(y, dtype=float)
    z = y / sigma
    s_m = np.sum(0.5 * _LOG_2PI + np.log(sigma) + 0.5 * z**2, axis=-1)
    s_c = -gaussian_logdensity_from_scores(y.shape[-1], rho, ndtri(_pit(z)))
    return s_m, s_c


def bivariate_score(c: Copula, f: MarginalForecast, y) -> BivariateScore:
    y = _check_obs(f, y)
    if c.dim != f.dim:
        raise ValueError("copula and marginal forecast dimensions differ")
    if isinstance(c, Independence):
        rho = 0.0
    elif isinstance(c, GaussianEquiCorr):
        rho = c.rho
    else:
        raise TypeError(
            "copula forecasts must be GaussianEquiCorr or Independence, "
            f"got {type(c).__name__}"
        )
    s_m, s_c = score_arrays(y, f.sigma, rho)
    return BivariateScore(float(s_m), float(s_c))


def s_marg(f: MarginalForecast, y) -> float:
    """Sum of per-dimension negative log predictive densities."""
    return float(score_arrays(_check_obs(f, y), f.sigma, 0.0)[0])


def pit(f: MarginalForecast, y) -> np.ndarray:
    """Probability transforms F_i(y_i), clamped away from the cube boundary."""
    return _pit(_check_obs(f, y) / f.sigma)


def s_cop(c: Copula, f: MarginalForecast, y) -> float:
    """Negative log copula density at the probability transforms of ``y``."""
    return bivariate_score(c, f, y).s_cop


def s_joint(c: Copula, f: MarginalForecast, y) -> float:
    """Log-score of the full predictive law: marginal plus copula component."""
    s_m, s_c = bivariate_score(c, f, y)
    return s_m + s_c


def lex_less(a, b) -> bool:
    """Strict lexicographic order on score pairs.

    True iff a1 < b1, or a1 == b1 and a2 < b2.
    """
    a1, a2 = float(a[0]), float(a[1])
    b1, b2 = float(b[0]), float(b[1])
    if not all(map(np.isfinite, (a1, a2, b1, b2))):
        raise ValueError("lex_less requires finite entries")
    return a1 < b1 or (a1 == b1 and a2 < b2)
