"""Deterministic probability kernels.

Univariate normal pdf/cdf/quantile, the equicorrelation matrix type, and
rectangle probabilities of standard bivariate normals with correlation rho
in closed form via Owen's T function.  Callers standardize their limits
first.  The equicorrelation copula density lives in
:mod:`copulascore.copulas`.  Everything here is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

__all__ = [
    "EquiCorr",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "bvn_rect_prob",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EquiCorr:
    """Equicorrelation matrix: ones on the diagonal, ``rho`` elsewhere.

    Positive definiteness requires -1/(dim-1) < rho < 1.
    """

    dim: int
    rho: float

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        lo = -1.0 / (self.dim - 1)
        if not lo < self.rho < 1.0:
            raise ValueError(
                f"rho={self.rho} outside ({lo}, 1) for dim={self.dim}; "
                "matrix would not be positive definite"
            )

    def matrix(self) -> np.ndarray:
        """Dense realization, Cholesky-factored by the path generator and
        ``GaussianEquiCorr._sample``."""
        return np.full((self.dim, self.dim), self.rho) + (1.0 - self.rho) * np.eye(self.dim)


def _as_float(x):
    # The helpers below sit in the critical-value solver's loop, so a float
    # skips the array conversion; the arithmetic is the same either way.
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


def norm_pdf(x):
    """Standard normal density; accepts scalars or arrays."""
    x = _as_float(x)
    out = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal cdf; +/-inf map to 1/0. Accepts scalars or arrays."""
    out = ndtr(_as_float(x))
    return float(out) if out.ndim == 0 else out


def norm_quantile(p):
    """Standard normal quantile on the open interval (0, 1)."""
    out = ndtri(_as_float(p))
    # ndtri gives -inf/inf at 0/1 and nan outside [0, 1]
    if not np.isfinite(out).all():
        raise ValueError("norm_quantile requires 0 < p < 1")
    return float(out) if out.ndim == 0 else out


def _bvn_cdf(h: float, k: float, rho: float, r: float) -> float:
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation ``rho``,
    where ``r`` = sqrt(1 - rho**2) > 0, by Owen's T (Owen 1956):

        Phi2(h, k) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,

    with a_h = (k - rho*h)/(h*r), a_k = (h - rho*k)/(k*r) and beta = 1/2
    when h and k have opposite signs.  A zero limit has its own branch,
    Phi2(0, k) = Phi(k)/2 + T(k, rho/r), and infinite limits reduce to Phi.
    """
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf:
        return float(ndtr(k))
    if k == math.inf:
        return float(ndtr(h))
    # A limit so small that its product with r underflows counts as zero.
    if h * r == 0.0:
        return 0.5 * float(ndtr(k)) + float(owens_t(k, rho / r))
    if k * r == 0.0:
        return 0.5 * float(ndtr(h)) + float(owens_t(h, rho / r))
    prob = (
        0.5 * float(ndtr(h))
        + 0.5 * float(ndtr(k))
        - float(owens_t(h, (k - rho * h) / (h * r)))
        - float(owens_t(k, (h - rho * k) / (k * r)))
    )
    if (h < 0.0) != (k < 0.0):
        prob -= 0.5
    return prob


def bvn_rect_prob(rho: float, a1, b1, a2, b2) -> float:
    """P(a1 <= Z1 <= b1, a2 <= Z2 <= b2) for standard normals (Z1, Z2) with
    correlation ``rho``, -1 < rho < 1.

    Closed form: the inclusion-exclusion sum of four Owen's T corners (see
    ``_bvn_cdf``), with sqrt(1 - rho**2) computed once as
    sqrt((1 - rho)(1 + rho)).  Its tests check it against adaptive
    quadrature to 1e-10 for |rho| up to 1 - 1e-8, and the orthant
    probability against Sheppard's formula to 1e-12.  Infinite limits are
    admissible in either coordinate.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"correlation must lie in (-1, 1), got {rho!r}")
    if a1 > b1 or a2 > b2:
        raise ValueError("interval limits must satisfy a <= b")
    if a1 == b1 or a2 == b2:
        return 0.0

    r = math.sqrt((1.0 - rho) * (1.0 + rho))
    prob = (
        _bvn_cdf(b1, b2, rho, r)
        - _bvn_cdf(a1, b2, rho, r)
        - _bvn_cdf(b1, a2, rho, r)
        + _bvn_cdf(a1, a2, rho, r)
    )
    return min(max(prob, 0.0), 1.0)
