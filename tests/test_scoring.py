"""Tests for the score pair: marginal log-scores, copula log-score at the
probability transforms, the additive decomposition, and the lexicographic
comparator."""

import math

import numpy as np
import pytest

from copulascore.copulas import GaussianEquiCorr, Independence
from copulascore.dist_math import EquiCorr
from copulascore.scoring import (
    BivariateScore,
    MarginalForecast,
    bivariate_score,
    lex_less,
    pit,
    s_cop,
    s_joint,
    s_marg,
    score_arrays,
)

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)  # 0.9189385332046727


class TestMarginalScore:
    def test_standard_normal_at_mode(self):
        f = MarginalForecast(np.array([1.0]))
        assert s_marg(f, [0.0]) == pytest.approx(HALF_LOG_2PI, abs=1e-14)

    def test_additivity(self):
        f = MarginalForecast(np.array([1.0, 1.0]))
        assert s_marg(f, [0.0, 0.0]) == pytest.approx(2 * HALF_LOG_2PI, abs=1e-14)

    def test_scaled(self):
        # -log(phi(1)/2) = 0.5*log(2*pi) + log(2) + 0.5
        f = MarginalForecast(np.array([2.0]))
        expected = HALF_LOG_2PI + math.log(2.0) + 0.5  # 2.112085713764618
        assert s_marg(f, [2.0]) == pytest.approx(expected, abs=1e-14)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            MarginalForecast(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("sigma", [[math.inf, 1.0], [1.0, math.nan]])
    def test_non_finite_sigma_named(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            MarginalForecast(sigma)

    def test_nonfinite_observation(self):
        f = MarginalForecast(np.array([1.0]))
        with pytest.raises(ValueError):
            s_marg(f, [math.inf])


class TestPit:
    def test_center(self):
        f = MarginalForecast(np.array([1.0]))
        assert pit(f, [0.0])[0] == 0.5

    def test_scaled(self):
        from copulascore.dist_math import norm_cdf

        f = MarginalForecast(np.array([2.0]))
        assert pit(f, [2.0])[0] == pytest.approx(norm_cdf(1.0), abs=1e-15)

    def test_reflection(self):
        f = MarginalForecast(np.array([1.3, 0.4, 2.2]))
        y = np.array([0.5, -1.0, 3.0])
        np.testing.assert_allclose(pit(f, -y), 1.0 - pit(f, y), atol=1e-15)

    def test_clamped_interior(self):
        f = MarginalForecast(np.array([1.0]))
        u = pit(f, [50.0])
        assert 0.0 < u[0] < 1.0


class TestCopulaScore:
    def test_independence_is_zero(self):
        f = MarginalForecast(np.ones(3))
        assert s_cop(Independence(3), f, [0.3, -1.0, 7.0]) == 0.0

    def test_gaussian_at_center(self):
        # all PITs 0.5 when y = 0; negated density example from the copula
        # module oracle
        f = MarginalForecast(np.ones(5))
        g = GaussianEquiCorr(EquiCorr(5, 0.5))
        assert s_cop(g, f, np.zeros(5)) == pytest.approx(-0.8369882167858824, abs=1e-10)

    def test_exchangeable_under_permutation(self):
        f = MarginalForecast(np.full(4, 1.7))
        g = GaussianEquiCorr(EquiCorr(4, 0.4))
        y = np.array([0.3, -0.6, 1.1, 0.0])
        base = s_cop(g, f, y)
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(4)
            assert s_cop(g, f, y[perm]) == pytest.approx(base, abs=1e-12)

    def test_independence_dimension_must_match(self):
        f = MarginalForecast(sigma=[1.0, 1.0])
        with pytest.raises(ValueError, match="dimensions differ"):
            bivariate_score(Independence(3), f, [0.3, -0.2])
        with pytest.raises(ValueError, match="dimensions differ"):
            s_cop(Independence(4), f, [0.3, -0.2])

    def test_unsupported_copula_type(self):
        from copulascore.copulas import Comonotone

        f = MarginalForecast(np.ones(2))
        with pytest.raises(TypeError):
            s_cop(Comonotone(2), f, [0.0, 0.0])


class TestJointScore:
    def test_independence_reduces_to_marginal(self):
        f = MarginalForecast(np.array([1.0, 2.0]))
        y = [0.4, -0.9]
        assert s_joint(Independence(2), f, y) == s_marg(f, y)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(10**4):
            dim = int(rng.integers(2, 6))
            sigma = rng.uniform(0.2, 3.0, dim)
            rho = rng.uniform(-1.0 / (dim - 1) + 0.05, 0.95)
            y = rng.standard_normal(dim) * sigma
            f = MarginalForecast(sigma)
            c = GaussianEquiCorr(EquiCorr(dim, rho))
            total = s_joint(c, f, y)
            parts = s_marg(f, y) + s_cop(c, f, y)
            assert abs(total - parts) <= 1e-12

    def test_dim5_value(self):
        f = MarginalForecast(np.ones(5))
        c = GaussianEquiCorr(EquiCorr(5, 0.5))
        expected = 5 * HALF_LOG_2PI - 0.8369882167858824
        assert s_joint(c, f, np.zeros(5)) == pytest.approx(expected, abs=1e-10)

    def test_pair_bundles_both_components(self):
        rng = np.random.default_rng(7)
        f = MarginalForecast(rng.uniform(0.5, 2.0, 3))
        c = GaussianEquiCorr(EquiCorr(3, 0.3))
        y = rng.standard_normal(3)
        pair = bivariate_score(c, f, y)
        assert pair.s_marg == s_marg(f, y)
        assert pair.s_cop == s_cop(c, f, y)


class TestScoreArrays:
    def test_batch_equals_scalar_api(self):
        """(reps, n, dim) inputs with one correlation per (rep, period), and
        an independence row, give exactly the per-observation pairs."""
        rng = np.random.default_rng(30)
        reps, n, dim = 3, 6, 4
        y = rng.standard_normal((reps, n, dim))
        sigma = rng.uniform(0.3, 2.0, (reps, n, dim))
        rho = rng.uniform(-0.3, 0.9, (reps, n))
        rho[0] = 0.0
        s_m, s_c = score_arrays(y, sigma, rho)
        assert s_m.shape == s_c.shape == (reps, n)
        for r in range(reps):
            for t in range(n):
                f = MarginalForecast(sigma[r, t])
                c = Independence(dim) if r == 0 else GaussianEquiCorr(EquiCorr(dim, rho[r, t]))
                assert (s_m[r, t], s_c[r, t]) == bivariate_score(c, f, y[r, t])


class TestFrechetReduction:
    def test_shared_marginals_cancel(self):
        """With identical marginals the joint-score ranking equals the
        copula-score ranking, termwise."""
        rng = np.random.default_rng(21)
        f = MarginalForecast(rng.uniform(0.5, 2.0, 5))
        c1 = GaussianEquiCorr(EquiCorr(5, 0.5))
        c2 = GaussianEquiCorr(EquiCorr(5, 0.2))
        y = rng.standard_normal((200, 5))
        joint_diff = np.array([s_joint(c1, f, row) - s_joint(c2, f, row) for row in y])
        cop_diff = np.array([s_cop(c1, f, row) - s_cop(c2, f, row) for row in y])
        np.testing.assert_allclose(joint_diff, cop_diff, atol=1e-12)


class TestLexOrder:
    def test_cross_example(self):
        assert lex_less((3.0, 5.0), (5.0, 3.0))

    def test_irreflexive(self):
        assert not lex_less((1.0, 2.0), (1.0, 2.0))

    def test_tie_on_first(self):
        assert lex_less((1.0, 5.0), (1.0, 7.0))

    def test_strict_total_order(self):
        rng = np.random.default_rng(17)
        pairs = rng.integers(-3, 4, size=(500, 4)).astype(float)
        for a1, a2, b1, b2 in pairs:
            a, b = (a1, a2), (b1, b2)
            holds = [lex_less(a, b), lex_less(b, a), a == b]
            assert sum(holds) == 1

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            lex_less((math.nan, 0.0), (0.0, 0.0))

    def test_accepts_score_pairs(self):
        a = BivariateScore(1.0, 2.0)
        b = BivariateScore(1.0, 3.0)
        assert lex_less(a, b)
        assert not lex_less(b, a)


PROPRIETY_N = 10**6


@pytest.fixture(scope="module")
def draws():
    rng = np.random.default_rng(20260809)
    rho = 0.5
    chol = np.linalg.cholesky([[1.0, rho], [rho, 1.0]])
    return rng.standard_normal((PROPRIETY_N, 2)) @ chol.T


class TestProprietyDeskScale:
    """Monte Carlo consistency of the score components under the truth
    (dim=2, unit scales, correlation 0.5): the true forecast beats the
    misspecified ones by more than 3 standard errors of the paired mean
    difference."""

    @staticmethod
    def _marginal_scores(y, scale):
        return np.sum(
            HALF_LOG_2PI + math.log(scale) + 0.5 * (y / scale) ** 2, axis=1
        )

    @staticmethod
    def _copula_scores(y, scale, rho):
        from scipy.special import ndtr, ndtri

        from copulascore.copulas import gaussian_logdensity_from_scores

        u = np.clip(ndtr(y / scale), 1e-15, 1 - 1e-15)
        return -gaussian_logdensity_from_scores(2, rho, ndtri(u))

    def test_vectorized_scores_match_scalar_ops(self, draws):
        f = MarginalForecast(np.ones(2))
        c = GaussianEquiCorr(EquiCorr(2, 0.5))
        sm = self._marginal_scores(draws[:100], 1.0)
        sc = self._copula_scores(draws[:100], 1.0, 0.5)
        for k in range(100):
            assert sm[k] == pytest.approx(s_marg(f, draws[k]), abs=1e-12)
            assert sc[k] == pytest.approx(s_cop(c, f, draws[k]), abs=1e-12)

    @pytest.mark.parametrize("bad_scale", [0.8, 1.25])
    def test_marginal_propriety(self, draws, bad_scale):
        diff = self._marginal_scores(draws, 1.0) - self._marginal_scores(draws, bad_scale)
        se = diff.std(ddof=1) / math.sqrt(PROPRIETY_N)
        assert diff.mean() < -3 * se

    @pytest.mark.parametrize("bad_rho", [0.2, 0.8])
    def test_copula_propriety(self, draws, bad_rho):
        diff = self._copula_scores(draws, 1.0, 0.5) - self._copula_scores(
            draws, 1.0, bad_rho
        )
        se = diff.std(ddof=1) / math.sqrt(PROPRIETY_N)
        assert diff.mean() < -3 * se
