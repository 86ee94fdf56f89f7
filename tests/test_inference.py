"""Tests for score differencing, the long-run covariance estimator, the
jointly calibrated critical values, and the two-step test."""

import math
import re

import numpy as np
import pytest
from conftest import quad_bvn_rect, step_probs
from hypothesis import assume, example, given, settings
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


def interleaved_long_run_cov(d_m, d_c, cfg):
    """Reference for the stacked estimator: both components interleaved in
    one (R, n, 2) array, centred by one reduction over its periods, which
    adds each row's values left to right."""
    n = d_m.shape[1]
    x = np.concatenate((d_m[..., None], d_c[..., None]), axis=-1)
    x -= np.add.reduce(x, axis=1, keepdims=True) / n
    xt = x.transpose(0, 2, 1)
    cov = xt @ x / n
    for h in range(1, cfg.lags + 1):
        gamma = xt[:, :, h:] @ x[:, :-h] / n
        cov = cov + cfg.weight(h) * (gamma + gamma.transpose(0, 2, 1))
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

    def test_list_and_array_inputs_agree(self):
        rows = np.random.default_rng(1).standard_normal((2, 6, 2))
        pairs = [[BivariateScore(*row) for row in model] for model in rows]
        from_arrays, from_pairs = score_diffs(*rows), score_diffs(*pairs)
        np.testing.assert_array_equal(from_arrays.d_m, from_pairs.d_m)
        np.testing.assert_array_equal(from_arrays.d_c, from_pairs.d_c)

    @pytest.mark.parametrize(
        "bad",
        [
            [(1.0, 2.0, 3.0), (4.0,), (5.0, 6.0)],  # ragged, right total
            [(1.0, 2.0, 3.0), (4.0, 5.0), (6.0, 7.0)],  # ragged
            [(1.0, 2.0, 3.0)] * 3,  # width 3
            np.zeros((3, 3)),
            np.zeros((3, 1)),
            np.zeros(3),
            [1.0, 2.0, 3.0],  # floats have no length
            [(1.0, 2.0), 3.0, (4.0, 5.0)],
        ],
        ids=["ragged-same-total", "ragged", "list-width-3", "array-width-3",
             "array-width-1", "array-1d", "list-of-floats", "float-among-pairs"],
    )
    def test_pairs_of_wrong_width_rejected(self, bad):
        good = [BivariateScore(0.0, 0.0)] * 3
        with pytest.raises(ValueError):
            score_diffs(bad, good)
        with pytest.raises(ValueError):
            score_diffs(good, bad)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ScoreDiffSeries(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            ScoreDiffSeries(np.array([1.0, math.nan]), np.array([0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("component", ["d_m", "d_c"])
    def test_non_finite_difference_in_either_series(self, component, bad):
        series = {"d_m": np.zeros(4), "d_c": np.ones(4)}
        series[component][2] = bad
        with pytest.raises(ValueError, match="score differences must be finite"):
            ScoreDiffSeries(**series)


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

    @pytest.mark.parametrize("lags", [2.5, math.nan, "3", -1])
    def test_lags_must_be_a_nonnegative_integer(self, lags):
        with pytest.raises(ValueError, match="^lags must be an integer >= 0, got "):
            HacConfig(lags=lags)

    @pytest.mark.parametrize("lags", [True, False])
    def test_bool_lags_rejected(self, lags):
        # bool is an int subclass: lags=True used to reach the report as true
        with pytest.raises(ValueError, match="^lags must be an integer >= 0, got "):
            HacConfig(lags=lags)

    def test_numpy_integer_lags_accepted(self):
        d = ScoreDiffSeries(np.arange(6.0), np.arange(6.0) ** 2)
        cfg = HacConfig(lags=np.int64(2), weights="bartlett")
        assert hac_cov(d, cfg) == hac_cov(d, HacConfig(lags=2, weights="bartlett"))

    @given(lags=st.integers(1, 10**6))
    def test_lags_under_zero_weights_rejected(self, lags):
        # zero weights would ignore the cutoff while a report still showed it
        message = f"^lag cutoff {lags} has no effect under weights 'zero'"
        with pytest.raises(ValueError, match=message):
            HacConfig(lags=lags, weights="zero")

    @staticmethod
    def _ar1():
        """200 periods of two AR(1) series with coefficient 0.5."""
        x = np.random.default_rng(8).standard_normal((200, 2))
        for t in range(1, 200):
            x[t] += 0.5 * x[t - 1]
        return ScoreDiffSeries(x[:, 0], x[:, 1])

    @settings(max_examples=60, deadline=None)
    @given(lags=st.integers(1, 150), weights=st.sampled_from(["bartlett", "truncated"]))
    def test_every_accepted_cutoff_has_an_effect(self, lags, weights):
        d = self._ar1()
        assert hac_cov(d, HacConfig(lags, weights)) != hac_cov(d, HacConfig())

    @pytest.mark.parametrize("weights", ["bartlett", "truncated"])
    def test_no_lags_is_the_sample_covariance(self, weights):
        d = self._ar1()
        assert hac_cov(d, HacConfig(0, weights)) == hac_cov(d, HacConfig())

    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("cfg", [HacConfig(), HacConfig(8, "bartlett")])
    def test_stacked_estimator_matches_interleaved_reference(self, rows, cfg):
        rng = np.random.default_rng(12)
        d_m = rng.standard_normal((rows, 500)) * 0.7 + 0.3
        d_c = rng.standard_normal((rows, 500)) * 0.2 - 0.1
        got = inference._long_run_cov(d_m, d_c, cfg)
        assert np.array_equal(got, interleaved_long_run_cov(d_m, d_c, cfg))


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

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_level_held_at_the_smallest_alpha(self, hypothesis):
        # The solver stops within 1e-12 of alpha/2, absolutely; at the
        # smallest accepted level, 2e-9, that is 0.1% of alpha/2, and by
        # quadrature each second step is within 1e-3 of alpha/2 (4.2e-4
        # measured).  At 1e-11 the error reached 0.18 (lex, rho = 0.999).
        alpha = inference._ALPHA_MIN
        assert alpha == 2e-9
        for rho in (-0.95, -0.5, 0.0, 0.5, 0.9, 0.999):
            om = LongRunCov(1.0, rho, 1.0)
            c1, c2 = critical_values(om, alpha, hypothesis)
            p2 = oracle_second_step_prob(om, c1, c2, hypothesis)
            assert abs(p2 / (alpha / 2.0) - 1.0) <= 1e-3, rho

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
    def test_equal_residual_in_two_sided_form(self, alpha):
        # The solver doubles the one-sided strip; the README's 1e-12 must
        # also hold for the two-sided probability P(|Z1| <= h, |Z2| > k).
        # The 1000 calibrations run as one lockstep batch, the array path
        # of which critical_values is the one-row call.
        rng = np.random.default_rng(74)
        rhos = np.concatenate([
            rng.uniform(-1.0, 1.0, 500) * (1.0 - 1e-8),
            np.copysign(1.0 - 10.0 ** rng.uniform(-8, -2, 500), rng.uniform(-1.0, 1.0, 500)),
        ])
        ones = np.ones(rhos.size)
        h, k, errors = inference._calibrate(alpha, ones, rhos, ones, np.full(rhos.size, 2))
        assert not errors
        p_band = norm_cdf(h) - norm_cdf(-h)
        p = p_band - bvn_rect_prob(rhos, -h, h, -k, k)
        assert np.abs(p - alpha / 2).max() <= 1e-12
        for i in range(0, rhos.size, 97):
            om = LongRunCov(1.0, float(rhos[i]), 1.0)
            assert critical_values(om, alpha, Hypothesis.EQUAL) == (h[i], k[i])

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

    @staticmethod
    def lockstep_batch(rhos, alpha):
        """``_calibrate`` on one batch of every correlation in ``rhos``
        under both hypotheses, interleaved, on scales 4^-3..4^3 whose
        product is 1, so that each row's correlation is exactly its rho."""
        rho = np.repeat(rhos, 2)
        sides = np.tile([2, 1], len(rhos))
        s_mm = 4.0 ** (np.arange(rho.size) % 7 - 3)
        omega = (s_mm, rho.copy(), 1.0 / s_mm)
        return omega, sides, inference._calibrate(alpha, *omega, sides)

    @staticmethod
    def check_lockstep_exits(omega, sides, result, failed, alpha, pattern):
        """``errors`` is keyed by exactly the rows in ``failed``, each with a
        message that matches ``pattern(row)``; c2 is NaN in exactly those
        rows, and every other row equals ``critical_values`` on that row."""
        c1, c2, errors = result
        assert sorted(errors) == failed
        for i, error in errors.items():
            assert type(error) is CalibrationError
            assert re.fullmatch(pattern(i), str(error)), str(error)
        assert np.flatnonzero(np.isnan(c2)).tolist() == failed
        hypotheses = {2: Hypothesis.EQUAL, 1: Hypothesis.LEX_SUPERIORITY}
        for i in sorted(set(range(c2.size)) - set(failed)):
            om = LongRunCov(*(float(v[i]) for v in omega))
            assert critical_values(om, alpha, hypotheses[int(sides[i])]) == (c1[i], c2[i])

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_iteration_cap_in_a_lockstep_batch(self, monkeypatch, alpha):
        # At rho = 0 the closed-form start is the root, so those rows stop
        # at the first evaluation; the others reach the cap of one.
        monkeypatch.setattr(inference, "_SOLVER_MAX_ITER", 1)
        omega, sides, result = self.lockstep_batch([0.0, 0.6, 0.0, -0.4, 0.0], alpha)
        failed = np.flatnonzero(omega[1] != 0.0).tolist()
        assert len(failed) == 4
        message = "second-step solver did not reach 1e-12 in probability within 1 iterations"
        self.check_lockstep_exits(omega, sides, result, failed, alpha, lambda i: re.escape(message))

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_collapsed_bracket_in_a_lockstep_batch(self, monkeypatch, alpha):
        # Rows at correlation 0.3 read a probability of 0.5 that never falls
        # to the target, so their brackets collapse while the others solve.
        kernel = inference.bvn_rect_prob
        monkeypatch.setattr(
            inference, "bvn_rect_prob",
            lambda rho, *limits: np.where(rho == 0.3, 0.5, kernel(rho, *limits)),
        )
        omega, sides, result = self.lockstep_batch([0.9, 0.3, -0.5, 0.3, 0.0, 0.3], alpha)
        failed = np.flatnonzero(omega[1] == 0.3).tolist()
        assert len(failed) == 6

        def pattern(i):
            tail = f"with probability {float(0.5 * sides[i])!r}, target {alpha / 2!r}"
            return r"second-step solver bracket collapsed at k=\S+ " + re.escape(tail)

        self.check_lockstep_exits(omega, sides, result, failed, alpha, pattern)


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
        # the replications in one batch; each row is two_step_test on it
        draws = rng.standard_normal((reps, 2, n))
        d_m, d_c = np.ascontiguousarray(draws[:, 0]), np.ascontiguousarray(draws[:, 1])
        batch = inference._two_step_batch(d_m, d_c, HacConfig(), 0.05, [Hypothesis.EQUAL])
        outcomes = [inference._OUTCOMES[code] for code in batch.outcome[0]]
        m_count = outcomes.count(Outcome.REJECTED_AT_MARGINAL_STEP)
        c_count = outcomes.count(Outcome.REJECTED_AT_COPULA_STEP)
        one = two_step_test(ScoreDiffSeries(d_m[7], d_c[7]), HacConfig(), 0.05, "equal")
        assert one.outcome is outcomes[7]
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

    # a calibrated series and one with a zero component, which takes the
    # fallback; below 2e-9 the solver's absolute tolerance of 1e-12 is more
    # than 0.1% of alpha/2, and at 1e-11 the level was off by 18%
    LEVEL_SERIES = {
        "calibrated": ScoreDiffSeries(np.arange(10.0), np.arange(10.0) % 3),
        "fallback": ScoreDiffSeries(np.zeros(10), np.arange(10.0) % 3),
    }
    LEVEL_MESSAGE = r"^alpha must lie in \(0, 1\) and be at least 2e-09, got 1\.99+7e-09$"
    BELOW_FLOOR = math.nextafter(2e-9, 0.0)

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    @pytest.mark.parametrize("series", LEVEL_SERIES)
    def test_smallest_level(self, series, hypothesis):
        d = self.LEVEL_SERIES[series]
        with pytest.raises(ValueError, match=self.LEVEL_MESSAGE):
            two_step_test(d, HacConfig(), self.BELOW_FLOOR, hypothesis)
        res = two_step_test(d, HacConfig(), 2e-9, hypothesis)
        assert res.degenerate_fallback == (series == "fallback")
        assert math.isfinite(res.c2)

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    def test_smallest_level_critical_values(self, hypothesis):
        om = hac_cov(self.LEVEL_SERIES["calibrated"], HacConfig())
        with pytest.raises(ValueError, match=self.LEVEL_MESSAGE):
            critical_values(om, self.BELOW_FLOOR, hypothesis)
        c1, c2 = critical_values(om, 2e-9, hypothesis)
        assert math.isfinite(c1) and math.isfinite(c2)

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
        hac = HacConfig(lags=0 if weights == "zero" else 2, weights=weights)
        assert two_step_test(d, hac, 0.05, Hypothesis.EQUAL).correlation_shrunk

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


# zero weights take no lags
_psd_hac = st.just(HacConfig()) | st.builds(
    HacConfig, lags=st.integers(0, 12), weights=st.just("bartlett")
)


@settings(max_examples=300, deadline=None)
@given(rows=_grid_series, hac=_psd_hac, hypothesis=st.sampled_from(list(Hypothesis)))
def test_psd_weights_never_indefinite(rows, hac, hypothesis):
    """Zero and Bartlett weights give a positive semi-definite estimate, so
    the indefiniteness check never fires on them."""
    assume(len(rows) > hac.lags)
    data = np.array(rows, dtype=float) / 1000.0
    d = ScoreDiffSeries(data[:, 0], data[:, 1])
    try:
        two_step_test(d, hac, 0.05, hypothesis)
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


_LEX, _EQUAL = Hypothesis.LEX_SUPERIORITY, Hypothesis.EQUAL


@settings(max_examples=200, deadline=None)
@given(rows=_grid_series, hac=_psd_hac, hypothesis=st.sampled_from(list(Hypothesis)))
# identical marginals (fallback), a constant copula advantage (sign decision)
# and a one-sided copula rejection: under lex each flips to no rejection
@example(rows=[(0, 900), (0, 1100), (0, 1000), (0, 950)], hac=HacConfig(), hypothesis=_LEX)
@example(rows=[(4, 7), (-2, 7), (9, 7), (1, 7)], hac=HacConfig(), hypothesis=_LEX)
@example(rows=[(4, 7), (-2, 7), (9, 7), (1, 7)], hac=HacConfig(), hypothesis=_EQUAL)
@example(rows=[(3, 900), (-1, 1100), (2, 1000), (-4, 950)] * 4, hac=HacConfig(), hypothesis=_LEX)
def test_swapping_models_negates_statistics(rows, hac, hypothesis):
    """Swapping the two models negates every difference exactly: the test on
    the negated series equals ``swapped()`` of the test on the series, field
    for field, with the long-run covariance, the critical values and the
    flags unchanged and the outcome decided again."""
    assume(len(rows) > hac.lags)
    res = _grid_pair(rows, hac, hypothesis)
    swapped = _grid_pair(rows, hac, hypothesis, factor=-1.0)
    if res is None:
        assert swapped is None
        return
    assert swapped == res.swapped()
    assert (swapped.omega, swapped.c1, swapped.c2) == (res.omega, res.c1, res.c2)
    assert res.swapped().swapped() == res
    if hypothesis is Hypothesis.EQUAL:
        assert swapped.outcome is res.outcome


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
