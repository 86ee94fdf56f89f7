"""Tests for the batched two-step core: every row of a batch equals
``two_step_test`` on that row, a batch raises the error of its first bad
row, overflowing covariances are typed errors, and the lockstep
calibrations of a Monte Carlo run pass the quadrature oracle."""

import math

import numpy as np
import pytest
from conftest import quad_bvn_rect, step_probs
from hypothesis import given, settings
from hypothesis import strategies as st

from copulascore import inference
from copulascore.dist_math import bvn_rect_prob
from copulascore.inference import (
    HacConfig,
    Hypothesis,
    LongRunCov,
    LongRunCovError,
    ScoreDiffSeries,
    _two_step_batch,
    critical_values,
    two_step_test,
)
from copulascore.sim_harness import SETTINGS, DgpSpec, _experiment_diffs, run_experiment

BOTH = tuple(Hypothesis)
TRUNCATED_15 = HacConfig(lags=15, weights="truncated")


def scalar_outcomes(d_m, d_c, hac, hypotheses=BOTH):
    """``two_step_test`` on every row under every hypothesis, in that
    order: the results, or the first error raised."""
    results = []
    for r in range(d_m.shape[0]):
        series = ScoreDiffSeries(d_m[r], d_c[r])
        for h in hypotheses:
            try:
                results.append(two_step_test(series, hac, 0.05, h))
            except ValueError as error:
                return error
    return results


def batch_rows(batch, r, hi):
    """Row r of a batch under hypothesis index hi, as the fields that
    ``TwoStepResult`` holds."""
    return (
        batch.stat_m[r], batch.stat_c[r], batch.c1[r], batch.c2[hi, r],
        inference._OUTCOMES[batch.outcome[hi, r]],
        LongRunCov(float(batch.s_mm[r]), float(batch.s_mc[r]), float(batch.s_cc[r])),
        bool(batch.fallback[r]), bool(batch.shrunk[r]),
    )


def result_fields(res):
    return (
        res.stat_m, res.stat_c, res.c1, res.c2, res.outcome, res.omega,
        res.degenerate_fallback, res.correlation_shrunk,
    )


# one row of a batch, on a 1e-3 grid: random, a zero or constant component
# (fallback and sign decision), or collinear components (shrink band)
_row_kind = st.sampled_from(["random", "zero_m", "zero_c", "const_m", "const_c", "collinear"])


@st.composite
def batches(draw):
    n = draw(st.integers(2, 40))
    kinds = draw(st.lists(_row_kind, min_size=1, max_size=6))
    grid = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    d_m = np.empty((len(kinds), n))
    d_c = np.empty_like(d_m)
    for r, kind in enumerate(kinds):
        x = np.array(draw(grid), dtype=float) / 1000.0
        y = np.array(draw(grid), dtype=float) / 1000.0
        if kind == "zero_m":
            x[:] = 0.0
        elif kind == "zero_c":
            y[:] = 0.0
        elif kind == "const_m":
            x[:] = x[0]
        elif kind == "const_c":
            y[:] = y[0]
        elif kind == "collinear":
            y = draw(st.sampled_from([2.0, -3.0, 0.5])) * x
        d_m[r], d_c[r] = x, y
    return d_m, d_c


@settings(max_examples=80, deadline=None)
@given(
    data=batches(),
    # zero weights take no lags
    hac=st.just(HacConfig()) | st.builds(
        HacConfig, lags=st.integers(0, 6), weights=st.sampled_from(["bartlett", "truncated"])
    ),
)
def test_batch_rows_equal_scalar_test(data, hac):
    """Each row of the core under each hypothesis is ``two_step_test`` on
    that row, field for field; a batch with a bad row raises exactly what
    the row-by-row loop raises first."""
    d_m, d_c = data
    if d_m.shape[1] <= hac.lags:
        return
    expected = scalar_outcomes(d_m, d_c, hac)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as caught:
            _two_step_batch(d_m, d_c, hac, 0.05, BOTH)
        assert str(caught.value) == str(expected)
        return
    batch = _two_step_batch(d_m, d_c, hac, 0.05, BOTH)
    for i, res in enumerate(expected):
        r, hi = divmod(i, 2)
        assert batch_rows(batch, r, hi) == result_fields(res)


def test_batch_swapped_equals_swapped_results():
    rng = np.random.default_rng(17)
    d_m = rng.standard_normal((6, 80)) + rng.uniform(-0.4, 0.4, (6, 1))
    d_c = rng.standard_normal((6, 80)) + rng.uniform(-0.4, 0.4, (6, 1))
    swapped = _two_step_batch(d_m, d_c, HacConfig(), 0.05, BOTH).swapped()
    for i, res in enumerate(scalar_outcomes(d_m, d_c, HacConfig())):
        r, hi = divmod(i, 2)
        assert batch_rows(swapped, r, hi) == result_fields(res.swapped())


def _normal_pair(seed: int, n: int = 40):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n)


# Rows of n = 40 under truncated weights with 15 lags, each bad in one way:
# both components zero, a negative variance, a correlation beyond one, or
# (with a one-evaluation solver) a calibrated row whose solver gives up.
_BAD_ROWS = {
    "degenerate": (np.zeros(40), np.zeros(40)),
    "negative_variance": _normal_pair(0),
    "correlation": _normal_pair(3),
    "solver": _normal_pair(4),
}


@pytest.mark.parametrize(
    "first, second",
    [
        ("degenerate", "negative_variance"),
        ("negative_variance", "degenerate"),
        ("negative_variance", "correlation"),
        ("correlation", "negative_variance"),
        ("solver", "negative_variance"),
        ("negative_variance", "solver"),
        ("solver", "degenerate"),
    ],
)
def test_batch_raises_first_bad_row(monkeypatch, first, second):
    monkeypatch.setattr(inference, "_SOLVER_MAX_ITER", 1)
    # good rows: identical marginals and a constant copula advantage, which
    # decide without calibration under any weights
    d_m = np.zeros((9, 40))
    d_c = np.arange(1.0, 10.0)[:, None] * np.full((9, 40), 0.1)
    for row, kind in ((3, first), (7, second)):
        d_m[row], d_c[row] = _BAD_ROWS[kind]
    with pytest.raises(ValueError) as row3:
        for h in BOTH:
            two_step_test(ScoreDiffSeries(d_m[3], d_c[3]), TRUNCATED_15, 0.05, h)
    with pytest.raises(ValueError) as caught:
        _two_step_batch(d_m, d_c, TRUNCATED_15, 0.05, BOTH)
    assert type(caught.value) is type(row3.value)
    assert str(caught.value) == str(row3.value)
    assert "np.float64(" not in str(caught.value)


@pytest.mark.parametrize(
    "first, second",
    [("solver", "degenerate"), ("degenerate", "solver"), ("solver", "negative_variance")],
)
def test_blocks_decided_together_raise_first_bad_row(monkeypatch, first, second):
    """Rows 3 and 7 are bad, in different blocks: deciding the blocks'
    reductions together raises what one batch of all rows raises, with the
    row counted in the whole."""
    monkeypatch.setattr(inference, "_SOLVER_MAX_ITER", 1)
    d_m = np.zeros((9, 40))
    d_c = np.arange(1.0, 10.0)[:, None] * np.full((9, 40), 0.1)
    for row, kind in ((3, first), (7, second)):
        d_m[row], d_c[row] = _BAD_ROWS[kind]
    with pytest.raises(ValueError) as whole:
        _two_step_batch(d_m, d_c, TRUNCATED_15, 0.05, BOTH)
    parts = [inference._reduce(d_m[a:b], d_c[a:b], TRUNCATED_15) for a, b in ((0, 5), (5, 9))]
    with pytest.raises(ValueError) as caught:
        inference._decide_batch(parts, 0.05, BOTH)
    assert type(caught.value) is type(whole.value)
    assert (str(caught.value), caught.value.row) == (str(whole.value), 3)


def test_blocks_decided_together_equal_one_batch():
    """Reductions of consecutive blocks decided in one call give one batch
    of all rows, field for field."""
    rng = np.random.default_rng(23)
    d_m = rng.standard_normal((7, 60)) + rng.uniform(-0.4, 0.4, (7, 1))
    d_c = rng.standard_normal((7, 60)) + rng.uniform(-0.4, 0.4, (7, 1))
    d_m[2] = 0.0  # a fallback row among the calibrated ones
    hac = HacConfig(lags=3, weights="bartlett")
    whole = _two_step_batch(d_m, d_c, hac, 0.05, BOTH)
    parts = [inference._reduce(d_m[a:b], d_c[a:b], hac) for a, b in ((0, 2), (2, 3), (3, 7))]
    for got, expected in zip(inference._decide_batch(parts, 0.05, BOTH), whole):
        assert np.array_equal(got, expected)


def test_batch_of_non_finite_row_raises_after_earlier_rows(monkeypatch):
    monkeypatch.setattr(inference, "_SOLVER_MAX_ITER", 1)
    d_m, d_c = np.zeros((4, 40)), np.full((4, 40), 0.2)
    d_m[1] = math.inf * np.ones(40)
    with pytest.raises(ValueError, match="^score differences must be finite$"):
        _two_step_batch(d_m, d_c, HacConfig(), 0.05, BOTH)
    # an earlier calibrated row that fails comes first
    d_m[0], d_c[0] = _normal_pair(4)
    with pytest.raises(inference.CalibrationError, match="iterations"):
        _two_step_batch(d_m, d_c, HacConfig(), 0.05, BOTH)


class TestOverflow:
    """Differences too large to square give a typed error, never an
    outcome or an untyped OverflowError, and no numpy warning."""

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_two_step_test(self, scale):
        x, y = _normal_pair(8, 300)
        with pytest.raises(LongRunCovError, match="overflows"):
            two_step_test(ScoreDiffSeries(scale * x, y), HacConfig(), 0.05, "equal")

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_batch(self, scale):
        d_m = np.array([_normal_pair(s, 300)[0] for s in range(3)])
        d_c = np.array([_normal_pair(s, 300)[1] for s in range(3)])
        d_m[1] *= scale
        with pytest.raises(LongRunCovError, match="overflows"):
            _two_step_batch(d_m, d_c, HacConfig(lags=2, weights="bartlett"), 0.05, BOTH)

    @pytest.mark.parametrize("entries", [(math.inf, 0.1, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, math.inf)])
    def test_critical_values_rejects_non_finite_omega(self, entries):
        with pytest.raises(LongRunCovError, match="overflows"):
            critical_values(LongRunCov(*entries), 0.05, Hypothesis.EQUAL)


def test_batched_calibrations_against_quadrature():
    """Forty evenly spaced calibrations of one Monte Carlo batch at the
    ``simulate --setting ii --n 300 --reps 300`` shape: the second-step
    rejection probability of each is alpha/2 to within 1e-11 by the
    quadrature oracle, and the first step's is alpha/2."""
    spec, reps, seed = DgpSpec(n=300), 300, 1
    d_m, d_c = _experiment_diffs(spec, SETTINGS["ii"], reps, seed)
    batch = _two_step_batch(d_m, d_c, HacConfig(), 0.05, BOTH)
    calibrated = np.flatnonzero(~batch.fallback)
    assert calibrated.size == reps
    for r in calibrated[np.linspace(0, calibrated.size - 1, 20).round().astype(int)]:
        om = LongRunCov(float(batch.s_mm[r]), float(batch.s_mc[r]), float(batch.s_cc[r]))
        rho = om.correlation()
        for hi, hypothesis in enumerate(BOTH):
            c1, c2 = float(batch.c1[r]), float(batch.c2[hi, r])
            p1, _ = step_probs(om, c1, c2, hypothesis)
            assert abs(p1 - 0.025) <= 1e-11
            h, k = c1 / math.sqrt(om.s_mm), c2 / math.sqrt(om.s_cc)
            p2 = quad_bvn_rect(rho, -h, h, k, math.inf)
            if hypothesis is Hypothesis.EQUAL:
                p2 += quad_bvn_rect(rho, -h, h, -math.inf, -k)
            assert abs(p2 - 0.025) <= 1e-11


def test_array_kernel_equals_scalar_calls():
    """One array call of the kernel is bit-identical to a loop of scalar
    calls, over zero, infinite and underflowing limits and |rho| up to
    1 - 1e-8."""
    inf = math.inf
    rhos = [-(1 - 1e-8), -0.95, -0.2, 0.0, 1e-300, 0.3, 0.9999, 1 - 1e-8]
    limits = [-inf, -1.3, -1e-300, 0.0, 5e-324, 2.2, inf]
    rows = [
        (rho, a1, b1, a2, b2)
        for rho in rhos
        for i, a1 in enumerate(limits) for b1 in limits[i:]
        for j, a2 in enumerate(limits) for b2 in limits[j:]
    ]
    loop = np.array([bvn_rect_prob(*row) for row in rows])
    batch = bvn_rect_prob(*np.array(rows).T)
    assert np.array_equal(batch, loop)
    assert type(bvn_rect_prob(0.3, -1.0, 1.0, 0.0, inf)) is float


def test_monte_carlo_run_calibrates_in_lockstep(monkeypatch):
    """All calibrations of a run share each kernel call: the number of calls
    is the iteration count of the slowest row, not a count per test."""
    calls = []
    kernel = inference.bvn_rect_prob

    def counting(*args):
        calls.append(np.size(args[0]))
        return kernel(*args)

    monkeypatch.setattr(inference, "bvn_rect_prob", counting)
    run_experiment(DgpSpec(n=60, burn_in=30), SETTINGS["ii"], reps=200, alpha=0.05, seed=3)
    assert 1 <= len(calls) <= inference._SOLVER_MAX_ITER
    assert len(calls) < 10 and calls[0] == 400


class TestJointCalibration:
    """Rejection rates of the batched test on seeded i.i.d. bivariate
    normal differences, whose long-run correlation is ``rho``: the joint
    calibration holds each step near alpha/2 and the joint size near alpha
    at every correlation, and under ``lex`` a copula difference strictly on
    the null side rejects at most alpha."""

    ALPHA, REPS, N = 0.05, 6000, 200

    def batch(self, rho, seed, shift=0.0, hypotheses=BOTH):
        """The batched tests of ``REPS`` series with copula mean ``shift``."""
        z = np.random.default_rng(seed).standard_normal((2, self.REPS, self.N))
        d_c = rho * z[0] + math.sqrt((1.0 - rho) * (1.0 + rho)) * z[1] + shift
        return _two_step_batch(z[0], d_c, HacConfig(), self.ALPHA, hypotheses)

    def rates(self, batch):
        """Share of rows rejected at the marginal step and at the copula
        step, (H, 2)."""
        return np.stack([np.bincount(o, minlength=3)[1:] for o in batch.outcome]) / self.REPS

    def band(self, p):
        # four binomial standard errors around the rate p
        return 4.0 * math.sqrt(p * (1.0 - p) / self.REPS)

    @pytest.mark.parametrize("rho", [-0.95, 0.0, 0.95, 0.999, -(1.0 - 1e-12), 1.0 - 1e-12])
    def test_size_and_step_split(self, rho):
        batch = self.batch(rho, seed=4321)
        if abs(rho) > 1.0 - 1e-10:
            # inside the singular band every row is calibrated on the shrunk correlation
            assert batch.shrunk.all()
        rates = self.rates(batch)
        half = self.ALPHA / 2.0
        assert np.all(np.abs(rates - half) <= self.band(half))
        assert np.all(np.abs(rates.sum(axis=1) - self.ALPHA) <= self.band(self.ALPHA))

    @pytest.mark.parametrize("rho", [-0.95, 0.0, 0.95])
    def test_lex_interior_of_the_null(self, rho):
        # a copula mean 0.05 below zero: the statistic centres near -0.7
        rates = self.rates(
            self.batch(rho, seed=4322, shift=-0.05, hypotheses=(Hypothesis.LEX_SUPERIORITY,))
        )
        assert rates.sum() <= self.ALPHA
        assert rates[0, 1] < self.ALPHA / 2.0
