"""Deterministic probability kernels.

Univariate normal pdf/cdf/quantile, the equicorrelation matrix type, and
rectangle probabilities of standard bivariate normals with correlation rho
by Genz's Gauss-Legendre form of the Drezner-Wesolowsky integral: 20 fixed
nodes below |rho| 0.925, its own form from 0.925 on.  Callers standardize
their limits first.  The equicorrelation copula density lives in
:mod:`copulascore.copulas`.  Everything here is a pure function, safe for
concurrent use, and needs numpy and the standard library only: Phi is
``math.erfc`` and Phi^-1 the standard library's C implementation of
Wichura's AS 241, each applied elementwise by a numpy object ufunc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

try:  # the C function behind statistics.NormalDist.inv_cdf
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # pragma: no cover - interpreters without the C module
    from statistics import _normal_dist_inv_cdf

__all__ = [
    "EquiCorr",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "bvn_rect_prob",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Phi(x) = erfc(-x/_SQRT2)/2; dividing by sqrt(2) rounds closer to scipy's
# ndtr than multiplying by sqrt(1/2), which is an ulp off at Phi(+/-1).
_SQRT2 = math.sqrt(2.0)
# Object ufuncs: each element is one call of the C function, with no
# Python-level frame, so the per-observation scorer can use them directly.
_erfc = np.frompyfunc(math.erfc, 1, 1)
_inv_cdf = np.frompyfunc(_normal_dist_inv_cdf, 3, 1)  # (p, mu, sigma)


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
    out = np.multiply(_erfc(np.asarray(x, dtype=float) / -_SQRT2), 0.5, dtype=float,
                      casting="unsafe")
    return float(out) if out.ndim == 0 else out


def norm_quantile(p):
    """Standard normal quantile on the open interval (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():  # nan fails too
        raise ValueError("norm_quantile requires 0 < p < 1")
    out = np.asarray(_inv_cdf(p, 0.0, 1.0), dtype=float)
    return float(out) if out.ndim == 0 else out


# Genz's 20-point Gauss-Legendre rule (Genz 2004, Stat. Comput. 14:251):
# the half-nodes x and weights w, mirrored to the nodes 1 -/+ x on (0, 2).
_X20 = np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                 0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                 0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                 0.07652652113349733])
_W20 = np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
                 0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
                 0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                 0.1527533871307259])
_RULE_20 = np.concatenate([1.0 - _X20, 1.0 + _X20]), np.concatenate([_W20, _W20])
# Beyond _FAR a limit acts as infinite: Phi is 0 or 1 there in double
# precision.
_FAR = 40.0


def _bvn_cdf(h, k, ph, pk, rho):
    """Phi2(h, k) = P(Z1 <= h, Z2 <= k) for standard normals with
    correlation ``rho``, elementwise over arrays of one shape, given
    ``ph`` = Phi(h) and ``pk`` = Phi(k).

    Genz's form of the Drezner-Wesolowsky integral (Drezner & Wesolowsky
    1990, J. Stat. Comput. Simul. 35:101; Genz 2004), by |rho|: below
    0.925 the 20-point rule of ``_integral``, from 0.925
    ``_integral_near_one``.  A corner with a limit beyond +/-_FAR,
    infinite included, is Phi(min(h, k)), which is min(Phi(h), Phi(k)).
    Each form runs on its own elements only and each element's result
    depends on that element alone, so a batch equals its rows bit for bit.
    """
    out = np.minimum(ph, pk)
    general = np.maximum(np.abs(h), np.abs(k)) <= _FAR
    near = np.abs(rho) >= 0.925
    for form, chosen in ((_integral, general & ~near), (_integral_near_one, general & near)):
        if chosen.any():
            out[chosen] = form(h[chosen], k[chosen], ph[chosen], pk[chosen], rho[chosen])
    return out


def _integral(h, k, ph, pk, rho):
    """Phi2 on 1-d arrays with |rho| < 0.925:

        Phi(h) Phi(k) + 1/(2 pi) int_0^asin(rho)
            exp(-(h^2 + k^2 - 2 h k sin t)/(2 cos^2 t)) dt

    by the 20-point rule, in Genz's substitution."""
    t, w = _RULE_20
    half = np.arcsin(rho) / 2.0
    sn = np.sin(half[:, None] * t)
    hk, hs = (h * k)[:, None], ((h * h + k * k) / 2.0)[:, None]
    # a row sum in fixed order; a matrix product's order may vary with the rows
    total = np.add.reduce(np.exp((sn * hk - hs) / (1.0 - sn * sn)) * w, axis=1)
    return ph * pk + half / (2.0 * math.pi) * total


def _integral_near_one(h, k, ph, pk, rho):
    """Phi2 on 1-d arrays with 0.925 <= |rho| < 1: Genz's BVU at (-h, -k),
    the second limit negated for rho < 0.  The integral runs from the
    Frechet bound, min(Phi(h), Phi(k)) for rho > 0 and max(Phi(h) + Phi(k)
    - 1, 0) for rho < 0, over sqrt(1 - rho^2), with the singular part of
    its integrand in closed form and the rest by the 20-point rule."""
    s = np.sign(rho)
    hk = s * h * k
    bs = (h - s * k) ** 2
    a2 = (1.0 - rho) * (1.0 + rho)
    a = np.sqrt(a2)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    bvn = a * np.exp(-(bs / a2 + hk) / 2.0) * (
        1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0
    )
    b = np.sqrt(bs)
    # the closed-form part; below hk = -160 it is negligible and may overflow
    tail = np.exp(-hk / 2.0) * _SQRT_2PI * norm_cdf(-b / a) * b * (
        1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
    )
    bvn -= np.where(hk > -160.0, tail, 0.0)
    t, w = _RULE_20
    xs = (a[:, None] / 2.0 * t) ** 2
    rs = np.sqrt(1.0 - xs)
    bs, hk, c, d = bs[:, None], hk[:, None], c[:, None], d[:, None]
    f = np.exp(-bs / (2.0 * xs) - hk / (1.0 + rs)) / rs - np.exp(-(bs / xs + hk) / 2.0) * (
        1.0 + c * xs * (1.0 + d * xs)
    )
    bvn += a / 2.0 * np.add.reduce(f * w, axis=1)
    bound = np.where(s > 0.0, np.minimum(ph, pk), np.maximum(ph + pk - 1.0, 0.0))
    return bound - s * bvn / (2.0 * math.pi)


def bvn_rect_prob(rho, a1, b1, a2, b2):
    """P(a1 <= Z1 <= b1, a2 <= Z2 <= b2) for standard normals (Z1, Z2) with
    correlation ``rho``, -1 < rho < 1, elementwise over broadcast arrays.
    Scalar arguments give a float.

    The inclusion-exclusion sum of four corners (see ``_bvn_cdf``), with
    Phi evaluated once per limit.  Its tests check it against adaptive
    quadrature to 1e-10 for |rho| up to 1 - 1e-8, and the orthant
    probability against Sheppard's formula to 1e-12.  Infinite limits are
    admissible in either coordinate; a NaN limit is an error.
    """
    # the limits a1, b1, a2, b2, then rho, along the first axis
    arr = np.empty((5, *np.broadcast(rho, a1, b1, a2, b2).shape))
    arr[0], arr[1], arr[2], arr[3], arr[4] = a1, b1, a2, b2, rho
    lim, rho = arr[:4], arr[4]
    nonempty = (lim[0] < lim[1]) & (lim[2] < lim[3])
    valid = np.abs(rho) < 1.0
    if not np.logical_and.reduce(nonempty & valid, axis=None):
        bad = rho[~valid]
        if bad.size:
            raise ValueError(f"correlation must lie in (-1, 1), got {float(bad[0])!r}")
        if np.isnan(lim).any():
            raise ValueError("interval limits must not be NaN")
        if ((lim[0] > lim[1]) | (lim[2] > lim[3])).any():
            raise ValueError("interval limits must satisfy a <= b")

    p = norm_cdf(lim)
    # the corners (h, k): (b1, b2), (a1, b2), (b1, a2), (a1, a2)
    h, ph = lim[[1, 0, 1, 0]], p[[1, 0, 1, 0]]
    k, pk = lim[[3, 3, 2, 2]], p[[3, 3, 2, 2]]
    with np.errstate(all="ignore"):
        c = _bvn_cdf(h, k, ph, pk, arr[[4, 4, 4, 4]])
    # an empty interval has probability 0 exactly, not a rounding residue
    prob = np.minimum(np.maximum(c[0] - c[1] - c[2] + c[3], 0.0), 1.0) * nonempty
    return float(prob) if prob.ndim == 0 else prob
