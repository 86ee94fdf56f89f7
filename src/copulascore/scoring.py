"""Log-score building blocks for joint forecasts of marginals and copula.

The score of a joint forecast is kept as an ordered pair: the summed
marginal log-scores first, the copula log-score (evaluated at the
probability transforms) second.  Pairs of expected scores are compared
lexicographically, so the copula component only decides between forecasts
whose marginal components tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .copulas import Copula, GaussianEquiCorr, Independence, gaussian_logdensity_from_scores
from .dist_math import _SQRT2, _erfc, _inv_cdf

# Not called here; perfbench/child.py wraps this module attribute by name.
from .copulas import gaussian_copula_logdensity  # noqa: F401

__all__ = [
    "MarginalForecast",
    "BivariateScore",
    "bivariate_score",
    "score_arrays",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# Probability transforms are clamped to [UNIT_CLAMP, 1 - UNIT_CLAMP], about
# 7.9 predictive standard deviations either side, so that their normal
# quantiles stay finite where Phi rounds to exactly 0 or 1.
UNIT_CLAMP = 1e-15


@dataclass(frozen=True)
class MarginalForecast:
    """Zero-mean Gaussian predictive marginals with one scale per dimension."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1)
        if sigma.ndim != 1 or sigma.size == 0:
            raise ValueError("sigma must be a nonempty vector")
        # a loop over Python floats, not ndarray.all, which calls numpy's
        # Python-level _methods._all; written so that NaN fails
        for s in sigma.tolist():
            if not (math.isfinite(s) and s > 0.0):
                raise ValueError(f"sigma must be finite and strictly positive, got {sigma}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.sigma.size


class BivariateScore(NamedTuple):
    """The (marginal, copula) score pair of one forecast at one observation."""

    s_marg: float
    s_cop: float


# np.clip, np.sum and np.all, and array methods such as ndarray.all, go
# through Python-level wrappers on every call; the ufuncs used here run the
# same loops without them.  Phi and its inverse are dist_math's object
# ufuncs, called directly for the same reason: norm_cdf(z) is erfc(z/-sqrt2)/2.
def _pit(z, out=None):
    u = np.multiply(_erfc(z / -_SQRT2), 0.5, out=out, dtype=float, casting="unsafe")
    return np.minimum(np.maximum(u, UNIT_CLAMP, out=out), 1.0 - UNIT_CLAMP, out=out)


def score_arrays(y, sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """(marginal, copula) scores of zero-mean Gaussian marginals joined by a
    Gaussian equicorrelation copula, vectorized over leading axes.

    ``y`` has shape (..., dim) and ``sigma`` broadcasts against it: a
    (..., 1) ``sigma`` is one scale for every coordinate.  ``rho`` is a
    scalar or broadcasts against the leading axes; 0 is the independence
    copula.  Inputs are not validated: pass finite ``y``, positive ``sigma``
    and ``rho`` inside the equicorrelation range.
    """
    y = np.asarray(y, dtype=float)
    z, dim = y / sigma, y.shape[-1]
    zz = z * z
    ssq = np.add.reduce(zz, axis=-1)  # then log(sigma) fills zz: (..., 1) counts dim times
    s_m = _marginal_score(dim, np.add.reduce(np.log(sigma, out=zz), axis=-1), ssq)
    # z is not needed again: the probability transforms reuse its buffer
    x = _inv_cdf(_pit(z, out=z), 0.0, 1.0).astype(float)
    s_c = -gaussian_logdensity_from_scores(dim, rho, x)
    return s_m, s_c


def _marginal_score(dim: int, log_sd, ssq):
    """Summed marginal log-scores from the sums of log sigma and of z**2."""
    return 0.5 * dim * _LOG_2PI + log_sd + 0.5 * ssq


def bivariate_score(c: Copula, f: MarginalForecast, y) -> BivariateScore:
    """The (marginal, copula) score pair of the joint forecast ``(c, f)`` at
    one observation ``y`` of shape (dim,); the joint log-score is their sum.
    Validated per-observation form of :func:`score_arrays`."""
    y = np.asarray(y, dtype=float)
    dim = f.sigma.size  # not the dim property: one Python call fewer
    if y.shape != (dim,):
        raise ValueError(f"y must have shape ({dim},), got {y.shape}")
    for v in y.tolist():
        if not math.isfinite(v):
            raise ValueError("observation must be finite")
    if c.dim != dim:
        raise ValueError("copula and marginal forecast dimensions differ")
    # an exact-type match, the common case first, skips the ABC instance check
    if isinstance(c, GaussianEquiCorr):
        rho = c.corr.rho
    elif isinstance(c, Independence):
        rho = 0.0
    else:
        raise TypeError(
            "copula forecasts must be GaussianEquiCorr or Independence, "
            f"got {type(c).__name__}"
        )
    s_m, s_c = score_arrays(y, f.sigma, rho)
    return BivariateScore(float(s_m), float(s_c))
