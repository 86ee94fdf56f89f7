"""Tests for score differencing, the long-run covariance estimator, the
jointly calibrated critical values, and the two-step test."""

import math

import numpy as np
import pytest
from conftest import quad_bvn_rect, step_probs
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from copulascore import inference
from copulascore.dist_math import bvn_rect_prob, norm_cdf, norm_quantile
from copulascore.inference import (
    CalibrationError,
    DegenerateSeriesError,
    HacConfig,
    Hypothesis,
    LongRunCov,
    LongRunCovError,
    Outcome,
    ScoreDiffSeries,
    critical_values,
    hac_cov,
    score_diffs,
    two_step_test,
)
from copulascore.scoring import BivariateScore


def brute_force_hac(d_m, d_c, lags, weight):
    """Independent oracle: the displayed estimator with explicit loops."""
    x = np.column_stack([d_m, d_c])
    n = len(d_m)
    xb = x - x.mean(axis=0)
    cov = np.zeros((2, 2))
    for t in range(n):
        cov += np.outer(xb[t], xb[t]) / n
    for h in range(1, lags + 1):
        s = np.zeros((2, 2))
        for t in range(h, n):
            s += np.outer(xb[t], xb[t - h])
        cov += weight(h) * (s + s.T) / n
    return cov


def random_pd_cov(rng) -> LongRunCov:
    s_mm = rng.uniform(0.3, 3.0)
    s_cc = rng.uniform(0.3, 3.0)
    corr = rng.uniform(-0.95, 0.95)
    return LongRunCov(s_mm, corr * math.sqrt(s_mm * s_cc), s_cc)


class TestScoreDiffs:
    def test_identical_sequences(self):
        s = [BivariateScore(1.0, 2.0), BivariateScore(-1.0, 0.5), BivariateScore(0, 0)]
        d = score_diffs(s, s)
        np.testing.assert_array_equal(d.d_m, 0.0)
        np.testing.assert_array_equal(d.d_c, 0.0)

    def test_constant_offset(self):
        rng = np.random.default_rng(0)
        base = [BivariateScore(*row) for row in rng.standard_normal((5, 2))]
        shifted = [BivariateScore(b.s_marg + 0.3, b.s_cop - 0.7) for b in base]
        d = score_diffs(shifted, base)
        np.testing.assert_allclose(d.d_m, 0.3, atol=1e-15)
        np.testing.assert_allclose(d.d_c, -0.7, atol=1e-15)

    def test_hand_values(self):
        s1 = [BivariateScore(1.0, 4.0), BivariateScore(2.0, 2.0), BivariateScore(3.0, 1.0)]
        s2 = [BivariateScore(0.5, 5.0), BivariateScore(2.5, 2.0), BivariateScore(1.0, 0.0)]
        d = score_diffs(s1, s2)
        np.testing.assert_array_equal(d.d_m, [0.5, -0.5, 2.0])
        np.testing.assert_array_equal(d.d_c, [-1.0, 0.0, 1.0])

    def test_length_mismatch(self):
        a = [BivariateScore(0, 0)] * 3
        b = [BivariateScore(0, 0)] * 4
        with pytest.raises(ValueError):
            score_diffs(a, b)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ScoreDiffSeries(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ScoreDiffSeries(np.array([1.0, math.nan]), np.array([0.0, 0.0]))


class TestHacCov:
    def test_zero_lags_is_sample_covariance(self):
        rng = np.random.default_rng(1)
        d = ScoreDiffSeries(rng.standard_normal(64), rng.standard_normal(64))
        got = hac_cov(d, HacConfig())
        x = np.column_stack([d.d_m, d.d_c])
        expected = np.cov(x.T, bias=True)
        assert abs(got.s_mm - expected[0, 0]) <= 1e-14
        assert abs(got.s_mc - expected[0, 1]) <= 1e-14
        assert abs(got.s_cc - expected[1, 1]) <= 1e-14

    def test_constant_series_flagged(self):
        d = ScoreDiffSeries(np.full(10, 2.0), np.full(10, -1.0))
        got = hac_cov(d, HacConfig())
        assert got.s_mm == 0.0 and got.s_cc == 0.0 and got.s_mc == 0.0
        assert not got.is_pd

    def test_length4_truncated_against_brute_force(self):
        d_m = np.array([1.0, 2.0, 0.0, 3.0])
        d_c = np.array([0.0, 1.0, 4.0, 2.0])
        got = hac_cov(ScoreDiffSeries(d_m, d_c), HacConfig(lags=1, weights="truncated"))
        expected = brute_force_hac(d_m, d_c, 1, lambda h: 1.0)
        assert got.s_mm == pytest.approx(expected[0, 0], abs=1e-14)
        assert got.s_mc == pytest.approx(expected[0, 1], abs=1e-14)
        assert got.s_cc == pytest.approx(expected[1, 1], abs=1e-14)

    def test_bartlett_against_brute_force(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(120)
        ar = np.empty(120)
        ar[0] = e[0]
        for t in range(1, 120):
            ar[t] = 0.6 * ar[t - 1] + e[t]
        d = ScoreDiffSeries(ar, rng.standard_normal(120))
        cfg = HacConfig(lags=4, weights="bartlett")
        expected = brute_force_hac(d.d_m, d.d_c, 4, cfg.weight)
        got = hac_cov(d, cfg)
        assert got.s_mm == pytest.approx(expected[0, 0], rel=1e-12)
        assert got.s_mc == pytest.approx(expected[0, 1], rel=1e-12)
        assert got.s_cc == pytest.approx(expected[1, 1], rel=1e-12)

    def test_bartlett_weights_bounded(self):
        cfg = HacConfig(lags=6, weights="bartlett")
        for h in range(1, 7):
            assert 0.0 < cfg.weight(h) <= 1.0

    def test_cutoff_must_be_below_length(self):
        d = ScoreDiffSeries(np.arange(4.0), np.arange(4.0))
        with pytest.raises(ValueError):
            hac_cov(d, HacConfig(lags=4, weights="truncated"))


class TestCriticalValues:
    def test_identity_equal_closed_form(self):
        om = LongRunCov(1.0, 0.0, 1.0)
        c1, c2 = critical_values(om, 0.05, Hypothesis.EQUAL)
        # closed forms under independence, oracle = norm_quantile
        assert c1 == pytest.approx(norm_quantile(1 - 0.05 / 4), abs=1e-6)
        p_tail = (0.05 / 2) / (1 - 0.05 / 2)
        assert c2 == pytest.approx(norm_quantile(1 - p_tail / 2), abs=1e-6)

    def test_identity_lex_closed_form(self):
        om = LongRunCov(1.0, 0.0, 1.0)
        _, c2 = critical_values(om, 0.05, Hypothesis.LEX_SUPERIORITY)
        p_tail = (0.05 / 2) / (1 - 0.05 / 2)
        assert c2 == pytest.approx(norm_quantile(1 - p_tail), abs=1e-6)

    def test_scaling_first_component(self):
        om = LongRunCov(4.0, 0.0, 1.0)
        c1, c2 = critical_values(om, 0.05, Hypothesis.EQUAL)
        assert c1 == pytest.approx(2 * norm_quantile(1 - 0.05 / 4), abs=1e-6)
        # Z2 untouched by scaling Z1 when the components are uncorrelated
        _, c2_id = critical_values(LongRunCov(1, 0, 1), 0.05, Hypothesis.EQUAL)
        assert c2 == pytest.approx(c2_id, abs=1e-6)

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_size_identity_random_matrices(self, hypothesis):
        rng = np.random.default_rng(31)
        for _ in range(50):
            om = random_pd_cov(rng)
            alpha = rng.uniform(0.01, 0.2)
            c1, c2 = critical_values(om, alpha, hypothesis)
            p1, p2 = step_probs(om, c1, c2, hypothesis)
            assert abs(p1 + p2 - alpha) <= 1e-7

    def test_c2_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(32)
        om = random_pd_cov(rng)
        for hyp in Hypothesis:
            c2s = [critical_values(om, a, hyp)[1] for a in (0.01, 0.05, 0.1, 0.2)]
            assert all(b < a for a, b in zip(c2s, c2s[1:]))

    def test_hypothesis_accepts_strings(self):
        om = LongRunCov(1.0, 0.4, 2.0)
        for hyp in Hypothesis:
            assert critical_values(om, 0.05, hyp.value) == critical_values(om, 0.05, hyp)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            critical_values(LongRunCov(1.0, 1.0, 1.0), 0.05, Hypothesis.EQUAL)


def near_singular_pd_cov(rng) -> LongRunCov:
    """Random PD matrix on scales 1e-3..1e3 whose |correlation| runs up to
    1 - 1e-8, half of them within 1e-2 of the singular limit."""
    s_mm, s_cc = 10.0 ** rng.uniform(-3, 3, 2)
    if rng.random() < 0.5:
        corr = rng.uniform(-1.0, 1.0) * (1.0 - 1e-8)
    else:
        corr = math.copysign(1.0 - 10.0 ** rng.uniform(-8, -2), rng.uniform(-1.0, 1.0))
    return LongRunCov(s_mm, corr * math.sqrt(s_mm * s_cc), s_cc)


def oracle_second_step_prob(om: LongRunCov, c1: float, c2: float, hypothesis) -> float:
    """P(|Z1| <= c1, |Z2| > c2) (equal) or P(|Z1| <= c1, Z2 > c2) (lex),
    with each tail integrated by quadrature."""
    rho = om.correlation()
    h = c1 / math.sqrt(om.s_mm)
    k = c2 / math.sqrt(om.s_cc)
    prob = quad_bvn_rect(rho, -h, h, k, math.inf)
    if hypothesis is Hypothesis.EQUAL:
        prob += quad_bvn_rect(rho, -h, h, -math.inf, -k)
    return prob


class TestSecondStepSolver:
    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_scale_invariance(self, hypothesis):
        rng = np.random.default_rng(71)
        for om in [random_pd_cov(rng) for _ in range(5)] + [near_singular_pd_cov(rng)]:
            base = None
            for scale in (1e-6, 1.0, 1e6):
                scaled = LongRunCov(om.s_mm * scale, om.s_mc * scale, om.s_cc * scale)
                c1, c2 = critical_values(scaled, 0.05, hypothesis)
                std = (c1 / math.sqrt(scaled.s_mm), c2 / math.sqrt(scaled.s_cc))
                if base is None:
                    base = std
                assert std == pytest.approx(base, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_residual_against_quadrature(self, hypothesis):
        rng = np.random.default_rng(72)
        for _ in range(200):
            om = near_singular_pd_cov(rng)
            c1, c2 = critical_values(om, 0.05, hypothesis)
            assert abs(oracle_second_step_prob(om, c1, c2, hypothesis) - 0.025) <= 1e-11

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
    def test_equal_residual_in_two_sided_form(self, alpha):
        # The solver doubles the one-sided strip; the README's 1e-12 must
        # also hold for the two-sided probability P(|Z1| <= h, |Z2| > k).
        rng = np.random.default_rng(74)
        rhos = np.concatenate([
            rng.uniform(-1.0, 1.0, 500) * (1.0 - 1e-8),
            np.copysign(1.0 - 10.0 ** rng.uniform(-8, -2, 500), rng.uniform(-1.0, 1.0, 500)),
        ])
        for rho in rhos.tolist():
            h, k = critical_values(LongRunCov(1.0, rho, 1.0), alpha, Hypothesis.EQUAL)
            p_band = norm_cdf(h) - norm_cdf(-h)
            p = p_band - bvn_rect_prob(rho, -h, h, -k, k)
            assert abs(p - alpha / 2) <= 1e-12

    def test_kernel_calls_per_calibration(self, monkeypatch):
        calls = []
        kernel = inference.bvn_rect_prob

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(inference, "bvn_rect_prob", counting)
        rng = np.random.default_rng(73)
        for i in range(200):
            om = near_singular_pd_cov(rng) if i % 2 else random_pd_cov(rng)
            for hyp in Hypothesis:
                calls.clear()
                critical_values(om, 0.05, hyp)
                assert 1 <= len(calls) <= 8

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(inference, "_SOLVER_MAX_ITER", 1)
        om = LongRunCov(1.0, 0.6, 2.0)
        for hyp in Hypothesis:
            with pytest.raises(CalibrationError, match="iterations"):
                critical_values(om, 0.05, hyp)

    def test_collapsed_bracket_raises(self, monkeypatch):
        # A kernel whose probability never falls to the target drives every
        # step towards the upper end of the bracket until it collapses.
        monkeypatch.setattr(inference, "bvn_rect_prob", lambda *args: 0.5)
        with pytest.raises(CalibrationError, match="bracket collapsed"):
            critical_values(LongRunCov(1.0, 0.3, 1.0), 0.05, Hypothesis.LEX_SUPERIORITY)


class TestTwoStepTest:
    def test_all_zero_series_errors(self):
        d = ScoreDiffSeries(np.zeros(10), np.zeros(10))
        with pytest.raises(DegenerateSeriesError):
            two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)

    def test_degenerate_marginal_fallback(self):
        rng = np.random.default_rng(400)
        n = 400
        d = ScoreDiffSeries(np.zeros(n), 0.5 + rng.standard_normal(n))
        res = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
        assert res.degenerate_fallback
        assert res.outcome is Outcome.REJECTED_AT_COPULA_STEP
        # one-step test at full level: c2 from the univariate normal
        assert res.c2 == pytest.approx(
            math.sqrt(res.omega.s_cc) * norm_quantile(0.975), abs=1e-10
        )
        assert res.stat_c == pytest.approx(math.sqrt(n) * d.d_c.mean(), abs=1e-12)
        assert res.stat_c > 5.0

    def test_degenerate_marginal_fallback_lex_one_sided(self):
        rng = np.random.default_rng(401)
        d = ScoreDiffSeries(np.zeros(300), 0.5 + rng.standard_normal(300))
        res = two_step_test(d, HacConfig(), 0.05, Hypothesis.LEX_SUPERIORITY)
        assert res.degenerate_fallback
        assert res.c2 == pytest.approx(
            math.sqrt(res.omega.s_cc) * norm_quantile(0.95), abs=1e-10
        )

    def test_degenerate_copula_fallback(self):
        rng = np.random.default_rng(402)
        d = ScoreDiffSeries(0.5 + rng.standard_normal(400), np.zeros(400))
        res = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
        assert res.degenerate_fallback
        assert res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP
        assert res.c1 == pytest.approx(
            math.sqrt(res.omega.s_mm) * norm_quantile(0.975), abs=1e-10
        )

    def test_monte_carlo_size(self):
        """i.i.d. standard-normal differences: rejection near the nominal
        5% with an even split across the steps."""
        rng = np.random.default_rng(12345)
        reps, n = 2000, 200
        m_count = c_count = 0
        for _ in range(reps):
            d = ScoreDiffSeries(rng.standard_normal(n), rng.standard_normal(n))
            res = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
            if res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP:
                m_count += 1
            elif res.outcome is Outcome.REJECTED_AT_COPULA_STEP:
                c_count += 1
        joint = (m_count + c_count) / reps
        assert abs(joint - 0.05) <= 0.015
        assert abs(m_count / reps - 0.025) <= 0.012
        assert abs(c_count / reps - 0.025) <= 0.012

    def test_attribution_consistency(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            mu_m, mu_c = rng.uniform(-0.3, 0.3, 2)
            d = ScoreDiffSeries(
                mu_m + rng.standard_normal(80), mu_c + rng.standard_normal(80)
            )
            res = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
            if res.outcome is Outcome.REJECTED_AT_COPULA_STEP:
                assert abs(res.stat_m) <= res.c1
            if res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP:
                assert abs(res.stat_m) > res.c1

    def test_perfectly_correlated_components_shrunk(self):
        rng = np.random.default_rng(88)
        x = rng.standard_normal(100)
        d = ScoreDiffSeries(x, 2.0 * x)
        res = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
        assert res.correlation_shrunk
        assert math.isfinite(res.c2) and res.c2 > 0

    def test_alpha_validation(self):
        d = ScoreDiffSeries(np.arange(10.0), np.arange(10.0) % 3)
        with pytest.raises(ValueError):
            two_step_test(d, HacConfig(), 0.0, Hypothesis.EQUAL)

    def test_hypothesis_accepts_strings(self):
        rng = np.random.default_rng(89)
        d = ScoreDiffSeries(rng.standard_normal(50), rng.standard_normal(50))
        res = two_step_test(d, HacConfig(), 0.05, "lex")
        assert res.hypothesis is Hypothesis.LEX_SUPERIORITY


class TestConstantComponents:
    """A constant nonzero difference is deterministic dominance, not
    identical forecasts: its step decides by sign (critical value 0).  Only
    an identically zero component falls back or raises."""

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_constant_marginal_rejects_at_marginal_step(self, hypothesis):
        d_c = np.random.default_rng(500).standard_normal(200)
        d = ScoreDiffSeries(np.full(200, 0.3), d_c)
        res = two_step_test(d, HacConfig(), 0.05, hypothesis)
        assert res.stat_m == pytest.approx(math.sqrt(200) * 0.3, rel=1e-12)
        assert res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP
        assert res.c1 == 0.0
        assert not res.degenerate_fallback

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_both_constant(self, hypothesis):
        d = ScoreDiffSeries(np.full(50, 0.3), np.full(50, 0.1))
        res = two_step_test(d, HacConfig(), 0.05, hypothesis)
        assert res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP
        assert (res.c1, res.c2) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "value, attribution", [(0.1, "C"), (-0.1, "0")]
    )
    def test_zero_marginal_constant_copula_lex(self, value, attribution):
        d = ScoreDiffSeries(np.zeros(50), np.full(50, value))
        res = two_step_test(d, HacConfig(), 0.05, Hypothesis.LEX_SUPERIORITY)
        assert res.attribution == attribution
        assert (res.c1, res.c2) == (math.inf, 0.0)
        assert res.degenerate_fallback

    def test_constant_copula_other_step_at_full_level(self):
        d_m = np.random.default_rng(501).standard_normal(300)
        res = two_step_test(ScoreDiffSeries(d_m, np.full(300, -0.2)), HacConfig(), 0.05, "lex")
        assert res.c1 == pytest.approx(math.sqrt(res.omega.s_mm) * norm_quantile(0.975))
        assert res.c2 == 0.0

    def test_scale_free(self):
        # constancy is judged relative to the scale of the differences
        for scale in (1e-150, 1.0, 1e150):
            d = ScoreDiffSeries(np.full(30, 0.3 * scale), np.full(30, -0.1 * scale))
            res = two_step_test(d, HacConfig(lags=3, weights="bartlett"), 0.05, "equal")
            assert res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP


class TestBonferroni:
    """The two-step test against the per-component (Bonferroni) split at
    level alpha/2 per component: its closed-form critical values bound the
    two-step ones, and the attribution follows the same marginal-first rule."""

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_never_sharper_than_two_step(self, hypothesis):
        """The stepwise calibration can always afford a second-step critical
        value no larger than the per-component split's; its first step is
        the per-component value."""
        rng = np.random.default_rng(91)
        for _ in range(25):
            n = 150
            d = ScoreDiffSeries(
                rng.standard_normal(n) * rng.uniform(0.5, 2),
                rng.standard_normal(n) * rng.uniform(0.5, 2),
            )
            for alpha in (0.05, 0.1):
                two = two_step_test(d, HacConfig(), alpha, hypothesis)
                q2 = 1 - alpha / 4 if hypothesis is Hypothesis.EQUAL else 1 - alpha / 2
                assert two.c2 <= math.sqrt(two.omega.s_cc) * norm_quantile(q2) + 1e-9
                assert two.c1 == pytest.approx(
                    math.sqrt(two.omega.s_mm) * norm_quantile(1 - alpha / 4), abs=1e-12
                )

    def test_copula_attribution(self):
        rng = np.random.default_rng(92)
        d = ScoreDiffSeries(np.zeros(300), 0.6 + rng.standard_normal(300))
        two = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
        assert two.outcome is Outcome.REJECTED_AT_COPULA_STEP

    def test_marginal_takes_precedence(self):
        rng = np.random.default_rng(93)
        d = ScoreDiffSeries(
            1.0 + 0.1 * rng.standard_normal(200), 1.0 + 0.1 * rng.standard_normal(200)
        )
        res = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
        assert res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP


TRUNCATED_15 = HacConfig(lags=15, weights="truncated")


def _normal_pair(seed: int, n: int = 40) -> ScoreDiffSeries:
    rng = np.random.default_rng(seed)
    return ScoreDiffSeries(rng.standard_normal(n), rng.standard_normal(n))


class TestIndefiniteLongRunCov:
    """Truncated lag weights need not give a positive semi-definite
    long-run covariance; an indefinite estimate is an error, never an
    outcome, while rounding-level violations keep their old handling."""

    def test_negative_variance_raises(self):
        d = _normal_pair(0)
        assert hac_cov(d, TRUNCATED_15).s_mm < -0.05
        with pytest.raises(LongRunCovError, match=r"lags=15, weights='truncated'"):
            two_step_test(d, TRUNCATED_15, 0.05, Hypothesis.EQUAL)

    def test_correlation_beyond_one_raises(self):
        d = _normal_pair(3)
        omega = hac_cov(d, TRUNCATED_15)
        assert omega.s_mm > 0.0 and omega.s_cc > 0.0 and abs(omega.correlation()) > 1.0
        with pytest.raises(LongRunCovError, match=r"lags=15, weights='truncated'"):
            two_step_test(d, TRUNCATED_15, 0.05, Hypothesis.LEX_SUPERIORITY)

    @pytest.mark.parametrize("weights", ["zero", "bartlett", "truncated"])
    @pytest.mark.parametrize("factor", [2.0, 3.0, -2.0])
    def test_collinear_pair_still_shrunk(self, weights, factor):
        x = np.random.default_rng(5).standard_normal(40)
        d = ScoreDiffSeries(x, factor * x)
        res = two_step_test(d, HacConfig(lags=2, weights=weights), 0.05, Hypothesis.EQUAL)
        assert res.correlation_shrunk

    def test_rounding_level_negative_variance_falls_back(self):
        # a constant difference leaves rounding noise of order 1e-31 in s_mm,
        # which is no indefiniteness: the constant decides the marginal step
        d = ScoreDiffSeries(np.full(40, 0.1), _normal_pair(5).d_c)
        res = two_step_test(d, TRUNCATED_15, 0.05, Hypothesis.EQUAL)
        assert res.outcome is Outcome.REJECTED_AT_MARGINAL_STEP
        assert res.c1 == 0.0
        zero = ScoreDiffSeries(np.zeros(40), d.d_c)
        assert two_step_test(zero, TRUNCATED_15, 0.05, Hypothesis.EQUAL).degenerate_fallback


# Differences on a 1e-3 grid: includes constant, zero, collinear and spiky
# series without floating-point underflow.
_grid_series = st.lists(
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    min_size=2,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    rows=_grid_series,
    lags=st.integers(0, 12),
    weights=st.sampled_from(["zero", "bartlett"]),
    hypothesis=st.sampled_from(list(Hypothesis)),
)
def test_psd_weights_never_indefinite(rows, lags, weights, hypothesis):
    """Zero and Bartlett weights give a positive semi-definite estimate, so
    the indefiniteness check never fires on them."""
    assume(len(rows) > lags)
    data = np.array(rows, dtype=float) / 1000.0
    d = ScoreDiffSeries(data[:, 0], data[:, 1])
    try:
        two_step_test(d, HacConfig(lags=lags, weights=weights), 0.05, hypothesis)
    except DegenerateSeriesError:
        pass


def _grid_pair(rows, hac, hypothesis, factor=1.0):
    """The test on ``rows`` of the 1e-3 grid, each difference multiplied by
    ``factor``; None when both components are identically zero."""
    data = factor * (np.array(rows, dtype=float) / 1000.0)
    d = ScoreDiffSeries(data[:, 0], data[:, 1])
    try:
        return two_step_test(d, hac, 0.05, hypothesis)
    except DegenerateSeriesError:
        return None


_psd_hac = st.builds(
    HacConfig, lags=st.integers(0, 12), weights=st.sampled_from(["zero", "bartlett"])
)


@settings(max_examples=200, deadline=None)
@given(rows=_grid_series, hac=_psd_hac)
def test_swapping_models_negates_statistics(rows, hac):
    """Under equality, swapping the two models negates both statistics and
    leaves the long-run covariance, the critical values and the outcome
    exactly unchanged."""
    assume(len(rows) > hac.lags)
    res = _grid_pair(rows, hac, Hypothesis.EQUAL)
    swapped = _grid_pair(rows, hac, Hypothesis.EQUAL, factor=-1.0)
    if res is None:
        assert swapped is None
        return
    assert (swapped.stat_m, swapped.stat_c) == (-res.stat_m, -res.stat_c)
    assert swapped.omega == res.omega
    assert (swapped.c1, swapped.c2, swapped.outcome) == (res.c1, res.c2, res.outcome)


@settings(max_examples=200, deadline=None)
@given(
    rows=_grid_series,
    hac=_psd_hac,
    hypothesis=st.sampled_from(list(Hypothesis)),
    k=st.integers(-20, 20),
)
def test_power_of_two_scaling(rows, hac, hypothesis, k):
    """Scaling the differences by 2**k scales the statistics and the
    critical values by 2**k exactly and leaves the outcome unchanged."""
    assume(len(rows) > hac.lags)
    s = 2.0**k
    res = _grid_pair(rows, hac, hypothesis)
    scaled = _grid_pair(rows, hac, hypothesis, factor=s)
    if res is None:
        assert scaled is None
        return
    assert (scaled.stat_m, scaled.stat_c) == (s * res.stat_m, s * res.stat_c)
    assert (scaled.c1, scaled.c2) == (s * res.c1, s * res.c2)
    assert scaled.outcome is res.outcome
