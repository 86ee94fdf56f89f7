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
from numbers import Integral

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


def _check_count(name: str, value, least: int) -> None:
    """Refuse all but Python and numpy integers >= ``least``.  ``bool`` is an
    ``int`` subclass, but ``True`` is no count, and numpy's seeding would take
    ``None`` as fresh entropy."""
    # the exact-type test skips the slower abstract-class check for plain ints
    integer = type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))
    if not (integer and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class EquiCorr:
    """Equicorrelation matrix: ones on the diagonal, ``rho`` elsewhere.

    Positive definiteness requires -1/(dim-1) < rho < 1.
    """

    dim: int
    rho: float

    def __post_init__(self) -> None:
        _check_count("dim", self.dim, 2)
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


def norm_pdf(x):
    """Standard normal density; accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    return float(out) if out.ndim == 0 else out


def norm_cdf(x):
    """Standard normal cdf; +/-inf map to 1/0. Accepts scalars or arrays."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_quantile(p):
    """Standard normal quantile on the open interval (0, 1)."""
    out = ndtri(np.asarray(p, dtype=float))
    # ndtri gives -inf/inf at 0/1 and nan outside [0, 1]
    if not np.isfinite(out).all():
        raise ValueError("norm_quantile requires 0 < p < 1")
    return float(out) if out.ndim == 0 else out


def _bvn_cdf(lim, rho, r):
    """P(Z1 <= h, Z2 <= k) for standard normals with correlation ``rho``,
    elementwise, where ``lim`` stacks (h, k) along its first axis, ``rho``
    has the shape of ``lim`` and ``r`` = sqrt(1 - rho**2) > 0.  By Owen's T
    (Owen 1956):

        Phi2(h, k) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,

    with a_h = (k - rho*h)/(h*r), a_k = (h - rho*k)/(k*r) and beta = 1/2
    when h and k have opposite signs.  A zero limit has its own form,
    Phi2(0, k) = Phi(k)/2 + T(k, rho/r), and infinite limits reduce to
    Phi(min(h, k)).  A limit so small that its product with r underflows
    counts as zero.  Each form is evaluated everywhere and selected by
    mask, so the caller ignores floating-point errors; the pair axis lets
    one call of each ufunc serve both limits.
    """
    h, k = lim
    finite = np.isfinite(lim)
    finite = finite[0] & finite[1]
    lim_r = lim * r
    nonzero = lim_r != 0.0
    general = finite & nonzero[0] & nonzero[1]
    # (a_h, a_k): inf or nan beside a zero or infinite limit, where the
    # mask replaces them, and inf for a subnormal limit, as float division
    # gives
    a = (lim[::-1] - rho * lim) / lim_r
    # T(h, a_h) and T(k, a_k) on general corners, T(., rho/r) beside a zero
    # limit; T is 0 at an infinite limit
    t = owens_t(lim, np.where(general, a, rho / r))
    half = 0.5 * ndtr(lim)
    negative = lim < 0.0
    prob = half[0] + half[1] - t[0] - t[1] - 0.5 * (negative[0] != negative[1])
    zero_form = half + t
    prob = np.where(general, prob, np.where(nonzero[0], zero_form[0], zero_form[1]))
    return np.where(finite, prob, ndtr(np.minimum(h, k)))


def bvn_rect_prob(rho, a1, b1, a2, b2):
    """P(a1 <= Z1 <= b1, a2 <= Z2 <= b2) for standard normals (Z1, Z2) with
    correlation ``rho``, -1 < rho < 1, elementwise over broadcast arrays.
    Scalar arguments give a float.

    Closed form: the inclusion-exclusion sum of four Owen's T corners (see
    ``_bvn_cdf``), with sqrt(1 - rho**2) computed once as
    sqrt((1 - rho)(1 + rho)).  Its tests check it against adaptive
    quadrature to 1e-10 for |rho| up to 1 - 1e-8, and the orthant
    probability against Sheppard's formula to 1e-12.  Infinite limits are
    admissible in either coordinate; a NaN limit is an error.
    """
    # (h, k) of the corners (b1, b2), (a1, b2), (b1, a2), (a1, a2) along the
    # second axis, then rho twice, so that every operation below is
    # elementwise on equal shapes; corner 0 holds (b1, b2), corner 3 (a1, a2)
    arr = np.empty((4, 4, *np.broadcast(rho, a1, b1, a2, b2).shape))
    h, k, rho2 = arr[0], arr[1], arr[2:]
    h[0::2], h[1::2], k[:2], k[2:], rho2[...] = b1, a1, b2, a2, rho
    nonempty = arr[:2, 3] < arr[:2, 0]
    nonempty = nonempty[0] & nonempty[1]
    valid = np.abs(rho2[0, 0]) < 1.0
    if not (nonempty & valid).all():
        bad = rho2[0, 0][~valid]
        if bad.size:
            raise ValueError(f"correlation must lie in (-1, 1), got {float(bad[0])!r}")
        if np.isnan(arr[:2]).any():
            raise ValueError("interval limits must not be NaN")
        if (arr[:2, 3] > arr[:2, 0]).any():
            raise ValueError("interval limits must satisfy a <= b")

    with np.errstate(all="ignore"):
        c = _bvn_cdf(arr[:2], rho2, np.sqrt((1.0 - rho2) * (1.0 + rho2)))
    prob = np.minimum(np.maximum(c[0] - c[1] - c[2] + c[3], 0.0), 1.0)
    if not nonempty.all():
        # an empty interval has probability 0 exactly, not a rounding residue
        prob *= nonempty
    return float(prob) if prob.ndim == 0 else prob
