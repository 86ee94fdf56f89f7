"""Tests for the score pair: marginal log-scores, copula log-score at the
probability transforms, the joint log-score as their sum, the batched core
against the per-observation scorer, and the Fréchet-class reduction from
scores to the two-step test."""

import gc
import math
import re
import sys

import numpy as np
import pytest
from scipy.special import ndtr

from copulascore.copulas import GaussianEquiCorr, Independence
from copulascore.dist_math import EquiCorr, norm_cdf, norm_quantile
from copulascore.inference import HacConfig, Hypothesis, Outcome, ScoreDiffSeries, two_step_test
from copulascore import scoring
from copulascore.scoring import MarginalForecast, _pit, bivariate_score, score_arrays

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)  # 0.9189385332046727


class TestMarginalScore:
    def test_standard_normal_at_mode(self):
        s_m, _ = score_arrays([0.0], [1.0], 0.0)
        assert float(s_m) == pytest.approx(HALF_LOG_2PI, abs=1e-14)

    def test_additivity(self):
        f = MarginalForecast(np.array([1.0, 1.0]))
        pair = bivariate_score(Independence(2), f, [0.0, 0.0])
        assert pair.s_marg == pytest.approx(2 * HALF_LOG_2PI, abs=1e-14)

    def test_scaled(self):
        # -log(phi(1)/2) = 0.5*log(2*pi) + log(2) + 0.5
        s_m, _ = score_arrays([2.0], [2.0], 0.0)
        expected = HALF_LOG_2PI + math.log(2.0) + 0.5  # 2.112085713764618
        assert float(s_m) == pytest.approx(expected, abs=1e-14)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            MarginalForecast(np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "sigma", [[math.inf, 1.0], [1.0, math.nan], [math.nan], [-math.inf, 1.0]]
    )
    def test_non_finite_sigma_named(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            MarginalForecast(sigma)

    @pytest.mark.parametrize("sigma", [[], np.empty((0, 2)), np.ones((2, 2))])
    def test_sigma_must_be_nonempty_vector(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be a nonempty vector$"):
            MarginalForecast(sigma)

    @pytest.mark.parametrize("y", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0])
    def test_observation_shape_named(self, y):
        f = MarginalForecast(np.ones(2))
        message = rf"^y must have shape \(2,\), got {re.escape(str(np.shape(y)))}$"
        with pytest.raises(ValueError, match=message):
            bivariate_score(Independence(2), f, y)

    def test_nonfinite_observation(self):
        f = MarginalForecast(np.ones(2))
        with pytest.raises(ValueError, match="observation must be finite"):
            bivariate_score(Independence(2), f, [math.inf, 0.0])

    @pytest.mark.parametrize("y", [[0.0, math.nan], [math.nan, math.nan], [-math.inf, 1.0]])
    def test_nan_or_negative_infinite_observation(self, y):
        f = MarginalForecast(np.ones(2))
        with pytest.raises(ValueError, match="observation must be finite"):
            bivariate_score(Independence(2), f, y)


class TestPit:
    def test_center(self):
        assert _pit(np.zeros(1))[0] == 0.5

    def test_scaled(self):
        """The transforms standardize by the forecast scale: the copula score
        at y under scales sigma is the one at y / sigma under unit scales."""
        rng = np.random.default_rng(3)
        sigma = rng.uniform(0.3, 3.0, (20, 3))
        y = rng.standard_normal((20, 3)) * sigma
        _, s_c = score_arrays(y, sigma, 0.4)
        np.testing.assert_array_equal(s_c, score_arrays(y / sigma, np.ones(3), 0.4)[1])
        assert _pit(np.array([1.0]))[0] == pytest.approx(norm_cdf(1.0), abs=1e-15)

    def test_reflection(self):
        z = np.array([0.5, -1.0, 3.0]) / np.array([1.3, 0.4, 2.2])
        np.testing.assert_allclose(_pit(-z), 1.0 - _pit(z), atol=1e-15)

    def test_clamped_interior(self):
        u = _pit(np.array([-50.0, 50.0]))
        assert np.all((0.0 < u) & (u < 1.0))
        f = MarginalForecast(np.ones(3))
        c = GaussianEquiCorr(EquiCorr(3, 0.5))
        assert math.isfinite(bivariate_score(c, f, [50.0, -50.0, 0.0]).s_cop)


class TestCopulaScore:
    def test_independence_is_zero(self):
        f = MarginalForecast(np.ones(3))
        assert bivariate_score(Independence(3), f, [0.3, -1.0, 7.0]).s_cop == 0.0

    def test_gaussian_at_center(self):
        # all PITs 0.5 when y = 0; negated density example from the copula
        # module oracle
        f = MarginalForecast(np.ones(5))
        g = GaussianEquiCorr(EquiCorr(5, 0.5))
        s_c = bivariate_score(g, f, np.zeros(5)).s_cop
        assert s_c == pytest.approx(-0.8369882167858824, abs=1e-10)

    def test_exchangeable_under_permutation(self):
        f = MarginalForecast(np.full(4, 1.7))
        g = GaussianEquiCorr(EquiCorr(4, 0.4))
        y = np.array([0.3, -0.6, 1.1, 0.0])
        base = bivariate_score(g, f, y).s_cop
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(4)
            assert bivariate_score(g, f, y[perm]).s_cop == pytest.approx(base, abs=1e-12)

    def test_independence_dimension_must_match(self):
        f = MarginalForecast(sigma=[1.0, 1.0])
        for dim in (3, 4):
            with pytest.raises(ValueError, match="dimensions differ"):
                bivariate_score(Independence(dim), f, [0.3, -0.2])

    def test_unsupported_copula_type(self):
        from copulascore.copulas import Comonotone

        f = MarginalForecast(np.ones(2))
        with pytest.raises(TypeError):
            bivariate_score(Comonotone(2), f, [0.0, 0.0])


class TestJointScore:
    def test_dim5_value(self):
        f = MarginalForecast(np.ones(5))
        c = GaussianEquiCorr(EquiCorr(5, 0.5))
        expected = 5 * HALF_LOG_2PI - 0.8369882167858824
        assert sum(bivariate_score(c, f, np.zeros(5))) == pytest.approx(expected, abs=1e-10)


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


    @pytest.mark.parametrize("outer", [False, True])
    @pytest.mark.parametrize("dim", range(2, 8))
    def test_one_scale_broadcasts_over_coordinates(self, dim, outer):
        """A (..., 1) sigma is one scale for every coordinate: it scores the
        same bits as that scale repeated along the last axis, with the
        dimension innermost or outermost in memory."""
        rng = np.random.default_rng(31)
        steps, reps = 5, 4
        y = rng.standard_normal((steps, reps, dim))
        if outer:  # the dimension outermost in memory
            y = np.ascontiguousarray(y.transpose(2, 0, 1)).transpose(1, 2, 0)
        sigma = rng.uniform(0.3, 2.0, (steps, reps, 1))
        rho = rng.uniform(-0.1, 0.9, (steps, reps))
        got = score_arrays(y, sigma, rho)
        expected = score_arrays(y, np.broadcast_to(sigma, y.shape), rho)
        for a, b in zip(got, expected):
            assert a.shape == (steps, reps) and (a == b).all()

# Tail grid of standardized observations: the center, one standard deviation,
# either side of the clamp at about 7.9, and far beyond it.
TAIL_Z = np.array([0.0, 1.0, -1.0, 7.9, -7.9, 8.5, -8.5, 50.0, -50.0])


class TestTailBitIdentity:
    def test_pit_equals_clip(self):
        expected = np.clip(norm_cdf(TAIL_Z), 1e-15, 1 - 1e-15)
        assert _pit(TAIL_Z).tobytes() == expected.tobytes()
        z = TAIL_Z.copy()
        assert _pit(z, out=z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_per_observation_equals_batch_row(self, dim):
        """Every cyclic window of the tail grid, under power-of-two scales so
        that the standardized values are exact, scores the same bits one
        observation at a time as in one batched call."""
        rows = len(TAIL_Z)
        z = np.array([np.resize(np.roll(TAIL_Z, -k), dim) for k in range(rows)])
        sigma = 2.0 ** np.resize(np.arange(-2, 3), (rows, dim))
        y = z * sigma
        rho = np.resize([0.0, 0.5, 0.9, -0.5 / (dim - 1)], rows)
        s_m, s_c = score_arrays(y, sigma, rho)
        for t in range(rows):
            f = MarginalForecast(sigma[t])
            c = Independence(dim) if rho[t] == 0.0 else GaussianEquiCorr(EquiCorr(dim, rho[t]))
            assert bivariate_score(c, f, y[t]) == (s_m[t], s_c[t])


class TestNormalScoresAgainstScipy:
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_round_trip_matches_scipy(self, dim, monkeypatch):
        """The normal scores that score_arrays passes to the copula density
        equal scipy's clamped round trip ndtri(clip(ndtr(z))) to 1e-12 for
        |z| up to 7.9."""
        from scipy.special import ndtri

        z = np.resize(np.linspace(-7.9, 7.9, 1581), (-(-1581 // dim), dim))
        seen = []
        density = scoring.gaussian_logdensity_from_scores
        monkeypatch.setattr(scoring, "gaussian_logdensity_from_scores",
                            lambda d, rho, x: seen.append(x.copy()) or density(d, rho, x))
        score_arrays(z, 1.0, 0.5)
        expected = ndtri(np.clip(ndtr(z), 1e-15, 1 - 1e-15))
        assert np.abs(seen[0] - expected).max() <= 1e-12


def _python_calls(fn) -> int:
    """Python-level function calls made while running ``fn``, not counting
    ``fn`` itself: the fewest of three runs, each with the garbage collector
    off after a collection, so that no finalizer or collection callback
    fires inside ``fn`` and adds its calls to the count."""
    counts = []
    for _ in range(3):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
            gc.enable()
        counts.append(calls - 1)
    return min(counts)


class TestDispatchCount:
    """The per-observation path calls numpy's ufuncs and array methods, not
    the Python-level np.* wrappers around them, so each observation costs a
    fixed, small number of Python calls.  Counted, not timed."""

    SIGMA = np.array([1.0, 1.2, 0.8, 1.1, 0.9])

    def test_bivariate_score(self):
        f = MarginalForecast(self.SIGMA)
        c = GaussianEquiCorr(EquiCorr(5, 0.3))
        y = np.array([0.1, -0.2, 0.3, 0.5, -1.0])
        bivariate_score(c, f, y)
        # bivariate_score, score_arrays, _pit, _marginal_score,
        # gaussian_logdensity_from_scores and its _equicorr_logdensity, the
        # copula's dim property and BivariateScore.__new__; the finiteness
        # check runs on Python floats, not through ndarray.all
        assert _python_calls(lambda: bivariate_score(c, f, y)) <= 8

    def test_forecast_construction(self):
        def construct():
            MarginalForecast(self.SIGMA)
            GaussianEquiCorr(EquiCorr(5, 0.3))

        construct()
        # three dataclass __init__ and __post_init__ pairs, two integer checks
        # of dim and the dim property
        assert _python_calls(construct) <= 9


class TestFrechetReduction:
    """Two forecasts that share their marginals and differ in the copula:
    the paper's Fréchet class, on which copula scores are comparable."""

    @staticmethod
    def _shared_marginal_scores():
        rng = np.random.default_rng(21)
        sigma = rng.uniform(0.5, 2.0, 5)
        y = rng.standard_normal((200, 5))
        return score_arrays(y, sigma, 0.5), score_arrays(y, sigma, 0.2)

    def test_shared_marginals_cancel(self):
        """With identical marginals the marginal differences are exactly
        zero and the joint-score differences are the copula differences,
        termwise."""
        (s_m1, s_c1), (s_m2, s_c2) = self._shared_marginal_scores()
        np.testing.assert_array_equal(s_m1 - s_m2, 0.0)
        np.testing.assert_allclose((s_m1 + s_c1) - (s_m2 + s_c2), s_c1 - s_c2, atol=1e-12)

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_shared_marginals_take_the_copula_only_test(self, hypothesis):
        """From the scores the two-step test skips the marginal step and
        tests the copula differences alone at the full level.  The
        observations are independent, so the forecast with correlation 0.2
        scores better."""
        (s_m1, s_c1), (s_m2, s_c2) = self._shared_marginal_scores()
        d = ScoreDiffSeries(s_m1 - s_m2, s_c1 - s_c2)
        res = two_step_test(d, HacConfig(), 0.05, hypothesis)
        sides = 2 if hypothesis is Hypothesis.EQUAL else 1
        assert res.degenerate_fallback
        assert res.c1 == math.inf
        assert res.stat_m == 0.0
        assert res.c2 == math.sqrt(res.omega.s_cc) * norm_quantile(1.0 - 0.05 / sides)
        assert res.outcome is Outcome.REJECTED_AT_COPULA_STEP


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
            pair = bivariate_score(c, f, draws[k])
            assert sm[k] == pytest.approx(pair.s_marg, abs=1e-12)
            assert sc[k] == pytest.approx(pair.s_cop, abs=1e-12)

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
