"""Copula objects: closed-form cdf evaluation (``Copula.cdf``), sampling
(``Copula.sample``), and the Gaussian equicorrelation copula density, whose
closed form :func:`gaussian_logdensity_from_scores` is the one used by the
scoring core.

Also provides the two-block mixture construction that rescales a base
2-copula into diagonal or anti-diagonal blocks of the unit square; the
mixture is the dependence structure of an equal-weight mixture of a
bounded-support distribution with a disjoint translate of itself.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .dist_math import EquiCorr, _check_count, norm_cdf, norm_quantile

__all__ = [
    "Copula",
    "Independence",
    "Comonotone",
    "Countermonotone",
    "GaussianEquiCorr",
    "Mixture2D",
    "UPPER_RIGHT",
    "LOWER_RIGHT",
    "gaussian_copula_logdensity",
    "gaussian_logdensity_from_scores",
]

UPPER_RIGHT = "upper-right"
LOWER_RIGHT = "lower-right"
_DIRECTIONS = (UPPER_RIGHT, LOWER_RIGHT)


class Copula(abc.ABC):
    """A d-dimensional copula: cdf on [0,1]^d with uniform marginals."""

    dim: int

    def __post_init__(self):
        _check_count("dim", self.dim, 2)

    def cdf(self, u) -> float:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"u must have shape ({self.dim},), got {u.shape}")
        if not ((u >= 0.0) & (u <= 1.0)).all():  # written so that NaN fails it
            raise ValueError("u must lie in the unit cube")
        return self._cdf(u)

    @abc.abstractmethod
    def _cdf(self, u: np.ndarray) -> float: ...

    @abc.abstractmethod
    def _sample(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw ``n`` i.i.d. points in [0,1]^dim, deterministic given ``seed``."""
        _check_count("n", n, 0)
        _check_count("seed", seed, 0)
        return self._sample(n, np.random.default_rng(seed))


@dataclass(frozen=True)
class Independence(Copula):
    dim: int = 2

    def _cdf(self, u):
        return float(np.prod(u))

    def _sample(self, n, rng):
        return rng.random((n, self.dim))


@dataclass(frozen=True)
class Comonotone(Copula):
    dim: int = 2

    def _cdf(self, u):
        return float(np.min(u))

    def _sample(self, n, rng):
        v = rng.random(n)
        return np.tile(v[:, None], (1, self.dim))


@dataclass(frozen=True)
class Countermonotone(Copula):
    """The countermonotonicity copula, which exists only in dimension 2."""

    dim: int = field(default=2, init=False)

    def _cdf(self, u):
        return max(u[0] + u[1] - 1.0, 0.0)

    def _sample(self, n, rng):
        v = rng.random(n)
        return np.column_stack([v, 1.0 - v])


@dataclass(frozen=True)
class GaussianEquiCorr(Copula):
    """Gaussian copula with an equicorrelation dependence matrix.

    Only the density (:func:`gaussian_copula_logdensity`) and the sampler
    are provided; the cdf has no closed form and is not needed here.
    """

    corr: EquiCorr

    @property
    def dim(self) -> int:
        return self.corr.dim

    @property
    def rho(self) -> float:
        return self.corr.rho

    def _cdf(self, u):
        raise NotImplementedError(
            "the Gaussian copula cdf is not supported; use gaussian_copula_logdensity "
            "or sample"
        )

    def _sample(self, n, rng):
        chol = np.linalg.cholesky(self.corr.matrix())
        z = rng.standard_normal((n, self.dim)) @ chol.T
        return norm_cdf(z)


@dataclass(frozen=True)
class Mixture2D(Copula):
    """Two-block mixture copula built from a base 2-copula.

    The copula of a mixture does not depend on the mixing weight of the
    distribution-level convex combination: the cdf is a fixed 1/2-weight
    block formula.  upper-right places half-mass copies of ``base`` in the
    lower-left and upper-right quarters of the unit square; lower-right
    places them in the upper-left and lower-right quarters.
    """

    base: Copula
    direction: str

    def __post_init__(self):
        if self.base.dim != 2:
            raise ValueError("mixture base must be a 2-copula")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")

    @property
    def dim(self) -> int:
        return 2

    def _cdf(self, u):
        u1, u2 = float(u[0]), float(u[1])

        def ext(x1: float, x2: float) -> float:
            # the base copula extended from [0,1]^2 to the plane by clamping
            return self.base.cdf((min(max(x1, 0.0), 1.0), min(max(x2, 0.0), 1.0)))

        if self.direction == UPPER_RIGHT:
            return 0.5 * (ext(2 * u1, 2 * u2) + ext(2 * (u1 - 0.5), 2 * (u2 - 0.5)))
        return 0.5 * (ext(2 * u1, 2 * (u2 - 0.5)) + ext(2 * (u1 - 0.5), 2 * u2))

    def _sample(self, n, rng):
        u, _ = self._sample_labeled(n, rng)
        return u

    def _sample_labeled(self, n, rng):
        # Draw order is fixed: base points first, then block coins.
        v = self.base._sample(n, rng)
        block = rng.integers(0, 2, size=n)
        # upper-right: block 0 -> lower-left quarter, 1 -> upper-right quarter;
        # lower-right: block 0 -> upper-left quarter, 1 -> lower-right quarter
        row = block if self.direction == UPPER_RIGHT else 1 - block
        return 0.5 * v + 0.5 * np.column_stack([block, row]), block

    def sample_labeled(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample points together with the index of the block each came from."""
        _check_count("n", n, 0)
        _check_count("seed", seed, 0)
        return self._sample_labeled(n, np.random.default_rng(seed))


def gaussian_logdensity_from_scores(dim: int, rho, z):
    """Log density of the Gaussian equicorrelation copula from normal scores.

    ``z`` holds the per-coordinate standard normal quantiles of the copula
    argument, shape (..., dim); ``rho`` is a scalar or broadcasts against the
    leading axes of ``z``.  Uses the closed-form determinant and rank-one
    inverse of the equicorrelation matrix.
    """
    z = np.asarray(z, dtype=float)
    # [()] turns a scalar rho into a numpy scalar, whose arithmetic skips the
    # ufunc machinery and rounds the same; an array rho stays an array
    rho = np.asarray(rho, dtype=float)[()]
    ssq, tot = np.add.reduce(z * z, axis=-1), np.add.reduce(z, axis=-1)
    return _equicorr_logdensity(dim, rho, ssq, tot)


def _equicorr_logdensity(dim: int, rho, ssq, tot):
    """The same log density from the sum of squares and the sum of the scores."""
    logdet = (dim - 1) * np.log1p(-rho) + np.log1p((dim - 1) * rho)
    quad = (ssq - rho * (tot * tot) / (1.0 + (dim - 1) * rho)) / (1.0 - rho)
    return -0.5 * logdet - 0.5 * (quad - ssq)


def gaussian_copula_logdensity(ec: EquiCorr, u) -> float:
    """Log copula density of the Gaussian equicorrelation copula at ``u``.

    All coordinates must lie strictly inside (0, 1).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (ec.dim,):
        raise ValueError(f"u must have shape ({ec.dim},), got {u.shape}")
    if (u <= 0.0).any() or (u >= 1.0).any():
        raise ValueError("u must lie strictly inside the open unit cube")
    z = norm_quantile(u)
    return float(gaussian_logdensity_from_scores(ec.dim, ec.rho, z))
