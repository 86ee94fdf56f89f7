"""Tests for the normal/bivariate-normal kernels and the equicorrelation
matrix, whose closed-form copula density is checked here against dense
linear algebra.

Derived expectations are frozen from independent oracles implemented here:
a Taylor-series normal cdf, bisection on the cdf for quantiles, the dense
multivariate normal density (``conftest.dense_copula_logdensity``) for the
equicorrelation copula density, Monte Carlo for one rectangle probability,
and adaptive quadrature (``conftest.quad_bvn_rect``) for the bivariate
normal kernel.  scipy's ``ndtr`` and ``ndtri``, from the test extra, are
the oracles of ``TestAgainstScipy``.
"""

import math

import numpy as np
import pytest
from conftest import dense_copula_logdensity, quad_bvn_rect
from scipy.special import ndtr, ndtri

from copulascore.copulas import (
    UPPER_RIGHT,
    Independence,
    Mixture2D,
    gaussian_logdensity_from_scores,
)
from copulascore.dist_math import (
    EquiCorr,
    bvn_rect_prob,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)
from copulascore.sim_harness import DgpSpec, simulate_path


def series_norm_cdf(x: float) -> float:
    """Independent oracle: Phi(x) = 1/2 + phi(x) * sum x^(2k+1)/(1*3*...*(2k+1)).

    The series converges rapidly for |x| <= 6, which covers every value the
    tests compare against.
    """
    term = x
    total = x
    k = 0
    while abs(term) > 1e-18:
        k += 1
        term *= x * x / (2 * k + 1)
        total += term
    return 0.5 + total * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def bisect_quantile(p: float) -> float:
    """Independent oracle: monotone bisection of norm_cdf."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormPdf:
    def test_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_at_one(self):
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)  # 0.24197072451914337
        assert norm_pdf(1.0) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self):
        x = np.linspace(0.0, 8.0, 101)
        np.testing.assert_array_equal(norm_pdf(x), norm_pdf(-x))


class TestNormCdf:
    def test_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_against_series_oracle(self):
        for x in np.linspace(-6.0, 6.0, 241):
            assert abs(norm_cdf(x) - series_norm_cdf(x)) <= 1e-12

    def test_near_975(self):
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_symmetry(self):
        x = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(norm_cdf(-x), 1.0 - norm_cdf(x), atol=1e-15)

    def test_infinite_limits(self):
        assert norm_cdf(math.inf) == 1.0
        assert norm_cdf(-math.inf) == 0.0


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_against_bisection_oracle(self):
        for p in (0.9875, 0.975, 0.3, 0.001):
            assert norm_quantile(p) == pytest.approx(bisect_quantile(p), abs=1e-10)

    def test_value_9875(self):
        # frozen from the bisection oracle
        assert norm_quantile(0.9875) == pytest.approx(2.241402727604947, abs=1e-10)

    def test_antisymmetry(self):
        p = np.linspace(0.01, 0.99, 50)
        np.testing.assert_allclose(norm_quantile(p), -norm_quantile(1.0 - p), atol=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                norm_quantile(p)

    def test_roundtrip_identity(self):
        x = np.linspace(-6.0, 6.0, 121)
        np.testing.assert_allclose(norm_quantile(norm_cdf(x)), x, atol=1e-8)


class TestAgainstScipy:
    """Phi and Phi^-1 against scipy.special, which only the test extra
    installs: the runtime computes them with the standard library."""

    X = np.linspace(-38.0, 8.5, 100_001)
    # the range of the clamped probability transforms, densest in the tails
    TAIL = np.geomspace(1e-15, 0.5, 50_001)
    P = np.concatenate([TAIL, np.linspace(1e-15, 1.0 - 1e-15, 100_001), 1.0 - TAIL])

    def test_cdf_matches_ndtr(self):
        assert np.abs(norm_cdf(self.X) - ndtr(self.X)).max() <= 2.3e-16

    def test_cdf_symmetry(self):
        assert np.abs(norm_cdf(-self.X) + norm_cdf(self.X) - 1.0).max() <= 2.3e-16

    def test_quantile_matches_ndtri(self):
        """Relative, since neither is exact: against 40-digit quantiles,
        ndtri is up to 4.5 ulp (1.0e-15 relative) off near p = 0.14 and
        the standard library's AS 241 up to 6.2 ulp near p = 0.31, and
        cephes documents a 7.2e-16 peak relative error for ndtri."""
        np.testing.assert_allclose(norm_quantile(self.P), ndtri(self.P), rtol=2e-15, atol=0.0)


class TestBvnRectProb:
    def test_independent_quadrant(self):
        assert bvn_rect_prob(0.0, -math.inf, 0.0, -math.inf, 0.0) == pytest.approx(
            0.25, abs=1e-8
        )

    def test_independent_box_vs_product(self):
        # oracle: product of univariate interval probabilities
        expected = (norm_cdf(1.96) - norm_cdf(-1.96)) ** 2
        got = bvn_rect_prob(0.0, -1.96, 1.96, -1.96, 1.96)
        assert got == pytest.approx(expected, abs=1e-8)
        assert got == pytest.approx(0.9025079984544838, abs=1e-8)

    def test_correlated_box_vs_monte_carlo(self):
        # the box |X| <= 1 for X ~ N(0, [[1.3, s12], [s12, 0.7]]), standardized
        s11, s22 = 1.3, 0.7
        s12 = 0.5 * math.sqrt(s11 * s22)
        rng = np.random.default_rng(20260809)
        n = 10**7
        chol = np.linalg.cholesky([[s11, s12], [s12, s22]])
        z = rng.standard_normal((n, 2)) @ chol.T
        inside = np.all(np.abs(z) <= 1.0, axis=1)
        p_hat = inside.mean()
        se = math.sqrt(p_hat * (1 - p_hat) / n)
        h1, h2 = 1.0 / math.sqrt(s11), 1.0 / math.sqrt(s22)
        assert abs(bvn_rect_prob(0.5, -h1, h1, -h2, h2) - p_hat) <= 3 * se

    def test_total_mass(self):
        for rho in (0.0, 0.6, -0.95):
            mass = bvn_rect_prob(rho, -math.inf, math.inf, -math.inf, math.inf)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_limits(self):
        base = bvn_rect_prob(0.4, -1, 1, -1, 1)
        assert bvn_rect_prob(0.4, -1, 1.5, -1, 1) >= base
        assert bvn_rect_prob(0.4, -1, 1, -1, 1.5) >= base
        assert bvn_rect_prob(0.4, -0.5, 1, -1, 1) <= base
        assert bvn_rect_prob(0.4, -1, 1, -0.5, 1) <= base

    def test_independence_factorization(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a1, b1 = np.sort(rng.uniform(-3, 3, 2))
            a2, b2 = np.sort(rng.uniform(-3, 3, 2))
            p1 = norm_cdf(b1) - norm_cdf(a1)
            p2 = norm_cdf(b2) - norm_cdf(a2)
            got = bvn_rect_prob(0.0, a1, b1, a2, b2)
            assert got == pytest.approx(p1 * p2, abs=1e-8)

    def test_empty_and_invalid_intervals(self):
        assert bvn_rect_prob(0.0, 0.3, 0.3, -1, 1) == 0.0
        with pytest.raises(ValueError):
            bvn_rect_prob(0.0, 1.0, -1.0, -1, 1)

    def test_invalid_correlation(self):
        for rho in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="correlation"):
                bvn_rect_prob(rho, -1.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            bvn_rect_prob(np.array([0.2, 1.5, -2.0]), -1.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize(
        "limits",
        [(math.nan, 1.0, 0.0, 1.0), (-1.0, 1.0, math.nan, math.inf), (-1.0, math.nan, 0.0, 1.0)],
    )
    def test_nan_limit_rejected(self, limits):
        # a NaN limit used to give a NaN probability
        with pytest.raises(ValueError, match="NaN"):
            bvn_rect_prob(0.3, *limits)
        a1, b1, a2, b2 = limits
        with pytest.raises(ValueError, match="NaN"):
            bvn_rect_prob(np.full(3, 0.3), np.array([-1.0, a1, -1.0]), b1, a2, b2)

    def test_arrays_broadcast_elementwise(self):
        # both sides of |rho| = 0.925, where the kernel changes form
        rho = np.array([-0.95, -0.5, 0.0, 0.7, 0.93, 0.999])
        got = bvn_rect_prob(rho, -1.0, np.array([[0.5], [2.0]]), -math.inf, 0.3)
        assert got.shape == (2, 6)
        for i, b1 in enumerate((0.5, 2.0)):
            for j, r in enumerate(rho.tolist()):
                assert got[i, j] == bvn_rect_prob(r, -1.0, b1, -math.inf, 0.3)

    def test_batch_mixing_empty_rectangles(self):
        # empty in the first, the second or both coordinates, at finite and
        # infinite limits, beside nonempty rows on both sides of |rho| 0.925;
        # unmasked, the corner sum of the fourth row is 1.4e-17, not 0
        rows = [
            (0.3, -1.0, 1.0, -0.5, 2.0),
            (0.3, 0.4, 0.4, -0.5, 2.0),
            (-0.95, -math.inf, 0.2, -0.5, 2.0),
            (-0.95, -1.0, 1.0, 1.3, 1.3),
            (0.999, -math.inf, -math.inf, -math.inf, math.inf),
            (0.999, -0.7, 1.1, -math.inf, math.inf),
            (0.0, math.inf, math.inf, 0.0, 0.0),
            (0.6, 0.0, math.inf, 0.0, 0.0),
        ]
        rho, a1, b1, a2, b2 = map(np.array, zip(*rows))
        got = bvn_rect_prob(rho, a1, b1, a2, b2)
        for i, (r, lo1, hi1, lo2, hi2) in enumerate(rows):
            if lo1 < hi1 and lo2 < hi2:
                assert got[i] == bvn_rect_prob(r, lo1, hi1, lo2, hi2) > 0.0
            else:
                assert got[i] == 0.0


NEAR_SINGULAR = 1.0 - 1e-8
RHO_GRID = [
    -NEAR_SINGULAR, -0.9999, -0.95, -0.6, -0.2, 0.0, 0.3, 0.7, 0.99, 0.9999, NEAR_SINGULAR
]


class TestBvnRectProbClosedForm:
    @pytest.mark.parametrize("rho", [NEAR_SINGULAR, -NEAR_SINGULAR])
    def test_near_singular_correlation(self, rho):
        got = bvn_rect_prob(rho, -math.inf, 0.3, -math.inf, -0.2)
        assert abs(got - quad_bvn_rect(rho, -math.inf, 0.3, -math.inf, -0.2)) <= 1e-10
        got = bvn_rect_prob(rho, -0.7, 1.1, -0.2, 2.0)
        assert abs(got - quad_bvn_rect(rho, -0.7, 1.1, -0.2, 2.0)) <= 1e-10

    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_orthant_identity(self, rho):
        # Sheppard: P(Z1 <= 0, Z2 <= 0) = 1/4 + asin(rho) / (2 pi).
        got = bvn_rect_prob(rho, -math.inf, 0.0, -math.inf, 0.0)
        assert abs(got - (0.25 + math.asin(rho) / (2.0 * math.pi))) <= 1e-12

    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_zero_and_infinite_corners(self, rho):
        # Every corner branch: a zero limit in either coordinate, infinite
        # limits on both sides, and limits of equal and opposite sign.
        limits = [-math.inf, -1.3, 0.0, 0.4, math.inf]
        for i, a1 in enumerate(limits):
            for b1 in limits[i + 1:]:
                for j, a2 in enumerate(limits):
                    for b2 in limits[j + 1:]:
                        got = bvn_rect_prob(rho, a1, b1, a2, b2)
                        assert abs(got - quad_bvn_rect(rho, a1, b1, a2, b2)) <= 1e-10

    def test_random_correlations_and_limits(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            rho = rng.uniform(-0.99, 0.99)
            a1, b1 = np.sort(rng.uniform(-3, 3, 2))
            a2, b2 = np.sort(rng.uniform(-3, 3, 2))
            got = bvn_rect_prob(rho, a1, b1, a2, b2)
            assert abs(got - quad_bvn_rect(rho, a1, b1, a2, b2)) <= 1e-10


class TestEquiCorr:
    def test_validity_bounds(self):
        EquiCorr(2, -0.99)
        with pytest.raises(ValueError):
            EquiCorr(5, -0.3)  # below -1/4
        with pytest.raises(ValueError):
            EquiCorr(3, 1.0)
        with pytest.raises(ValueError):
            EquiCorr(1, 0.0)

    # The copula log density is -0.5*logdet(R) - 0.5*(z'R^{-1}z - z'z): at
    # z = 0 it isolates the determinant, at rho = 0 it vanishes.

    def test_logdet_identity(self):
        assert gaussian_logdensity_from_scores(5, 0.0, np.zeros(5)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_logdet_dim5_half(self):
        # oracle: dense determinant of the 5x5 matrix
        ec = EquiCorr(5, 0.5)
        _, logdet = np.linalg.slogdet(ec.matrix())
        got = gaussian_logdensity_from_scores(5, 0.5, np.zeros(5))
        assert got == pytest.approx(-0.5 * logdet, abs=1e-12)
        assert got == pytest.approx(-0.5 * math.log(0.1875), abs=1e-12)

    def test_logdet_singular_limit(self):
        rhos = [0.9, 0.99, 0.999, 0.9999]
        vals = [gaussian_logdensity_from_scores(2, r, np.zeros(2)) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quadform_identity(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(4)
        assert gaussian_logdensity_from_scores(4, 0.0, z) == pytest.approx(0.0, abs=1e-12)

    def test_quadform_ones(self):
        # oracle: dense density; the all-ones vector gives
        # z'R^{-1}z = dim/(1+(dim-1)rho) = 5/3
        ec = EquiCorr(5, 0.5)
        z = np.ones(5)
        got = gaussian_logdensity_from_scores(5, 0.5, z)
        assert got == pytest.approx(dense_copula_logdensity(ec, z), rel=1e-10)
        expected = -0.5 * math.log(0.1875) - 0.5 * (5.0 / 3.0 - 5.0)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_quadform_zero(self):
        ec = EquiCorr(3, 0.2)
        _, logdet = np.linalg.slogdet(ec.matrix())
        got = gaussian_logdensity_from_scores(3, 0.2, np.zeros(3))
        assert got == pytest.approx(-0.5 * logdet, abs=1e-12)

    def test_against_dense_brute_force(self):
        rng = np.random.default_rng(11)
        for dim in range(2, 9):
            for rho in (-0.1, 0.0, 0.25, 0.5, 0.9):
                z = rng.standard_normal(dim)
                expected = dense_copula_logdensity(EquiCorr(dim, rho), z)
                got = gaussian_logdensity_from_scores(dim, rho, z)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


# The entries that seed numpy directly, each on a small input; run_experiment's
# seed check is tested in test_sim_harness, before anything is drawn.
SEEDED_ENTRIES = {
    "simulate_path": lambda seed: simulate_path(DgpSpec(n=5, burn_in=2), seed),
    "sample": lambda seed: Independence(2).sample(3, seed),
    "sample_labeled": lambda seed: Mixture2D(Independence(2), UPPER_RIGHT).sample_labeled(3, seed),
}


class TestSeedCheck:
    @pytest.mark.parametrize("seed", [-1, 2.5, True, None, "3", np.float64(1.0)])
    @pytest.mark.parametrize("entry", SEEDED_ENTRIES)
    def test_invalid_seed_named(self, entry, seed):
        # True used to run as seed 1 and None as fresh entropy
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            SEEDED_ENTRIES[entry](seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3)])
    @pytest.mark.parametrize("entry", SEEDED_ENTRIES)
    def test_numpy_integer_seed_accepted(self, entry, seed):
        for a, b in zip(SEEDED_ENTRIES[entry](seed), SEEDED_ENTRIES[entry](3)):
            np.testing.assert_array_equal(a, b)
