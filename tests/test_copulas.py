"""Tests for copula cdf evaluation, the two-block mixture construction,
sampling, and the Gaussian equicorrelation copula density."""

import math

import numpy as np
import pytest

from copulascore.copulas import (
    Comonotone,
    Countermonotone,
    GaussianEquiCorr,
    Independence,
    LOWER_RIGHT,
    Mixture2D,
    UPPER_RIGHT,
    _equicorr_logdensity,
    gaussian_copula_logdensity,
    gaussian_logdensity_from_scores,
)
from copulascore.dist_math import EquiCorr
from copulascore.sim_harness import DgpSpec

GRID = np.linspace(0.0, 1.0, 101)


def closed_form_variants():
    return [
        Independence(2),
        Comonotone(2),
        Countermonotone(),
        Mixture2D(Independence(2), UPPER_RIGHT),
        Mixture2D(Independence(2), LOWER_RIGHT),
        Mixture2D(Comonotone(2), UPPER_RIGHT),
        Mixture2D(Comonotone(2), LOWER_RIGHT),
        Mixture2D(Countermonotone(), UPPER_RIGHT),
    ]


class TestCdfExamples:
    def test_independence(self):
        assert Independence(2).cdf((0.5, 0.5)) == 0.25

    def test_comonotone(self):
        assert Comonotone(2).cdf((0.3, 0.8)) == pytest.approx(0.3)

    def test_countermonotone(self):
        assert Countermonotone().cdf((0.3, 0.8)) == pytest.approx(0.1)
        assert Countermonotone().cdf((0.2, 0.5)) == 0.0

    def test_mixture_center(self):
        # 0.5*[C(1,1) + C(0,0)] at the center of the square
        c = Mixture2D(Independence(2), UPPER_RIGHT)
        assert c.cdf((0.5, 0.5)) == pytest.approx(0.5)

    def test_gaussian_cdf_unsupported(self):
        g = GaussianEquiCorr(EquiCorr(2, 0.5))
        with pytest.raises(NotImplementedError):
            g.cdf((0.5, 0.5))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            Independence(2).cdf((1.5, 0.5))

    @pytest.mark.parametrize(
        "copula",
        [Independence(2), Comonotone(2), Countermonotone(),
         Mixture2D(Independence(2), UPPER_RIGHT)],
        ids=["independence", "comonotone", "countermonotone", "mixture"],
    )
    def test_nan_coordinate_rejected(self, copula):
        with pytest.raises(ValueError, match="unit cube"):
            copula.cdf((math.nan, 0.5))


class TestMixtureCdf:
    def test_comonotone_lower_right_center(self):
        assert Mixture2D(Comonotone(2), LOWER_RIGHT).cdf((0.5, 0.5)) == 0.0

    def test_comonotone_lower_right_corner(self):
        assert Mixture2D(Comonotone(2), LOWER_RIGHT).cdf((1.0, 1.0)) == 1.0

    def test_independence_upper_right_hand_value(self):
        # 0.5*[C(0.5, 1.5) + C(-0.5, 1.0)] = 0.5*[0.5 + 0] with clamping
        got = Mixture2D(Independence(2), UPPER_RIGHT).cdf((0.25, 0.75))
        assert got == pytest.approx(0.25)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            Mixture2D(Independence(2), "sideways").cdf((0.5, 0.5))


class TestCopulaAxioms:
    @pytest.mark.parametrize("copula", closed_form_variants(), ids=lambda c: repr(c))
    def test_grounded(self, copula):
        assert copula.cdf((0.0, 0.7)) == 0.0
        assert copula.cdf((0.7, 0.0)) == 0.0

    @pytest.mark.parametrize("copula", closed_form_variants(), ids=lambda c: repr(c))
    def test_uniform_marginals_on_grid(self, copula):
        for u in GRID:
            assert copula.cdf((u, 1.0)) == pytest.approx(u, abs=1e-12)
            assert copula.cdf((1.0, u)) == pytest.approx(u, abs=1e-12)

    @pytest.mark.parametrize("copula", closed_form_variants(), ids=lambda c: repr(c))
    def test_two_increasing(self, copula):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u1, v1 = np.sort(rng.uniform(0, 1, 2))
            u2, v2 = np.sort(rng.uniform(0, 1, 2))
            volume = (
                copula.cdf((v1, v2))
                - copula.cdf((u1, v2))
                - copula.cdf((v1, u2))
                + copula.cdf((u1, u2))
            )
            assert volume >= -1e-12


class TestMixtureWitness:
    def test_independence_mixture_differs(self):
        c = Mixture2D(Independence(2), UPPER_RIGHT)
        gap = max(
            abs(c.cdf((u1, u2)) - u1 * u2) for u1 in GRID for u2 in GRID
        )
        assert gap >= 0.2
        assert abs(c.cdf((0.5, 0.5)) - 0.25) == pytest.approx(0.25)

    def test_comonotone_fixed_point_upper_right(self):
        c = Mixture2D(Comonotone(2), UPPER_RIGHT)
        for u1 in GRID:
            for u2 in GRID:
                assert c.cdf((u1, u2)) == pytest.approx(min(u1, u2), abs=1e-12)

    def test_comonotone_not_fixed_lower_right(self):
        c = Mixture2D(Comonotone(2), LOWER_RIGHT)
        gap = max(
            abs(c.cdf((u1, u2)) - min(u1, u2))
            for u1 in GRID
            for u2 in GRID
        )
        assert gap > 0.2


class TestSampling:
    def test_independence_quadrant_mass(self):
        u = Independence(2).sample(10**5, seed=1)
        mass = np.mean((u[:, 0] <= 0.5) & (u[:, 1] > 0.5))
        assert mass == pytest.approx(0.25, abs=0.005)

    def test_mixture_forbidden_quadrants(self):
        c = Mixture2D(Independence(2), UPPER_RIGHT)
        u = c.sample(10**5, seed=2)
        upper_left = np.mean((u[:, 0] <= 0.5) & (u[:, 1] > 0.5))
        lower_right = np.mean((u[:, 0] > 0.5) & (u[:, 1] <= 0.5))
        assert upper_left <= 0.001
        assert lower_right <= 0.001

    def test_gaussian_spearman(self):
        from scipy.stats import spearmanr

        rho = 0.5
        u = GaussianEquiCorr(EquiCorr(2, rho)).sample(10**5, seed=3)
        expected = 6.0 / math.pi * math.asin(rho / 2.0)  # 0.4825837395309974
        assert spearmanr(u[:, 0], u[:, 1]).statistic == pytest.approx(expected, abs=0.01)

    def test_comonotone_and_countermonotone_structure(self):
        u = Comonotone(3).sample(100, seed=4)
        np.testing.assert_array_equal(u[:, 0], u[:, 1])
        np.testing.assert_array_equal(u[:, 0], u[:, 2])
        v = Countermonotone().sample(100, seed=5)
        np.testing.assert_allclose(v[:, 0] + v[:, 1], 1.0, atol=1e-15)

    def test_deterministic_given_seed(self):
        c = Mixture2D(Comonotone(2), LOWER_RIGHT)
        a, labels_a = c.sample_labeled(1000, seed=9)
        b, labels_b = c.sample_labeled(1000, seed=9)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(labels_a, labels_b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_labeled_blocks_match_positions(self):
        c = Mixture2D(Independence(2), UPPER_RIGHT)
        u, block = c.sample_labeled(5000, seed=10)
        assert np.all(u[block == 0] <= 0.5)
        assert np.all(u[block == 1] > 0.5)


class TestGaussianLogDensity:
    def test_zero_correlation(self):
        rng = np.random.default_rng(6)
        ec = EquiCorr(3, 0.0)
        for _ in range(10):
            u = rng.uniform(0.05, 0.95, 3)
            assert gaussian_copula_logdensity(ec, u) == pytest.approx(0.0, abs=1e-12)

    def test_center_value_dim5(self):
        # oracle: z = 0 kills the quadratic part, leaving -0.5*logdet of the
        # dense matrix = -0.5*log(0.1875) = 0.8369882167858824
        ec = EquiCorr(5, 0.5)
        _, logdet = np.linalg.slogdet(ec.matrix())
        got = gaussian_copula_logdensity(ec, np.full(5, 0.5))
        assert got == pytest.approx(-0.5 * logdet, abs=1e-12)
        assert got == pytest.approx(0.8369882167858824, abs=1e-10)

    def test_exchangeability(self):
        ec = EquiCorr(4, 0.3)
        u = np.array([0.1, 0.4, 0.6, 0.9])
        base = gaussian_copula_logdensity(ec, u)
        rng = np.random.default_rng(8)
        for _ in range(5):
            perm = rng.permutation(4)
            assert gaussian_copula_logdensity(ec, u[perm]) == pytest.approx(base, abs=1e-12)

    def test_boundary_rejected(self):
        ec = EquiCorr(2, 0.5)
        with pytest.raises(ValueError):
            gaussian_copula_logdensity(ec, (0.0, 0.5))
        with pytest.raises(ValueError):
            gaussian_copula_logdensity(ec, (0.5, 1.0))
        with pytest.raises(ValueError):
            gaussian_copula_logdensity(ec, (0.5, math.nan))

    def test_integrates_to_one(self):
        # Monte Carlo: the density averaged over uniform points is 1.
        ec = EquiCorr(2, 0.5)
        rng = np.random.default_rng(12)
        u = rng.uniform(0.0, 1.0, (10**6, 2))
        u = np.clip(u, 1e-15, 1 - 1e-15)
        from copulascore.copulas import gaussian_logdensity_from_scores
        from copulascore.dist_math import norm_quantile

        dens = np.exp(gaussian_logdensity_from_scores(2, 0.5, norm_quantile(u)))
        mean = dens.mean()
        se = dens.std(ddof=1) / math.sqrt(dens.size)
        assert abs(mean - 1.0) <= 3 * se

    @pytest.mark.parametrize("end", ["lower", "upper"])
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_density_from_sums_equals_density_from_scores(self, dim, end):
        """The density sees the normal scores only through their sum of
        squares and their sum: from those two sums it is the same bits,
        near either end of the equicorrelation range and out to the 7.9
        standard deviations of the clamped tails."""
        rho = -1.0 / (dim - 1) + 1e-9 if end == "lower" else 1.0 - 1e-9
        rng = np.random.default_rng(dim)
        z = np.vstack([rng.standard_normal((100, dim)), rng.uniform(-7.9, 7.9, (100, dim)),
                       np.full(dim, 7.9), np.full(dim, -7.9)])
        ssq, tot = np.add.reduce(z * z, axis=-1), np.add.reduce(z, axis=-1)
        got = _equicorr_logdensity(dim, rho, ssq, tot)
        np.testing.assert_array_equal(got, gaussian_logdensity_from_scores(dim, rho, z))
        assert np.isfinite(got).all()

    def test_vectorized_matches_scalar(self):
        from copulascore.copulas import gaussian_logdensity_from_scores
        from copulascore.dist_math import norm_quantile

        rng = np.random.default_rng(13)
        ec = EquiCorr(5, 0.5)
        u = rng.uniform(0.01, 0.99, (50, 5))
        batch = gaussian_logdensity_from_scores(5, 0.5, norm_quantile(u))
        for k in range(50):
            assert batch[k] == pytest.approx(
                gaussian_copula_logdensity(ec, u[k]), abs=1e-12
            )


class TestConstruction:
    def test_mixture_requires_two_dim_base(self):
        with pytest.raises(ValueError):
            Mixture2D(Independence(3), UPPER_RIGHT)

    def test_negative_sample_count(self):
        with pytest.raises(ValueError):
            Independence(2).sample(-1, seed=0)

    @pytest.mark.parametrize("n", [2.5, math.nan, True, -1])
    @pytest.mark.parametrize(
        "draw",
        [lambda n: Independence(2).sample(n, seed=0),
         lambda n: Mixture2D(Independence(2), UPPER_RIGHT).sample_labeled(n, seed=0)],
        ids=["sample", "sample_labeled"],
    )
    def test_non_integer_sample_count_named(self, draw, n):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 0, got "):
            draw(n)

    def test_numpy_integer_sample_count(self):
        mixture = Mixture2D(Independence(2), UPPER_RIGHT)
        u, block = mixture.sample_labeled(np.int64(3), seed=0)
        assert u.shape == (3, 2) and block.shape == (3,)
        np.testing.assert_array_equal(u, mixture.sample_labeled(3, seed=0)[0])
        assert Independence(2).sample(np.int64(3), seed=0).shape == (3, 2)

    @pytest.mark.parametrize("dim", [2.5, math.nan, True, 1])
    @pytest.mark.parametrize(
        "make",
        [lambda dim: EquiCorr(dim, 0.3), Independence, Comonotone,
         lambda dim: DgpSpec(n=50, dim=dim)],
        ids=["EquiCorr", "Independence", "Comonotone", "DgpSpec"],
    )
    def test_non_integer_dim_named(self, make, dim):
        # these used to construct, then fail in matrix(), sample() or the
        # path generator with a TypeError that named no field
        with pytest.raises(ValueError, match=r"^dim must be an integer >= 2, got "):
            make(dim)
