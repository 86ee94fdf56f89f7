"""Two-step predictive-ability tests on bivariate score-difference series.

The first step compares the marginal components of two forecast streams,
the second the copula components.  Critical values are calibrated jointly
on the bivariate normal limit so the overall asymptotic size is alpha,
split evenly across the two steps.  A long-run covariance estimator with
configurable lag weights feeds the calibration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dist_math import _check_count, bvn_rect_prob, norm_cdf, norm_pdf, norm_quantile
from .scoring import BivariateScore

__all__ = [
    "Hypothesis",
    "Outcome",
    "ScoreDiffSeries",
    "HacConfig",
    "HAC_WEIGHTS",
    "LongRunCov",
    "TwoStepResult",
    "DegenerateSeriesError",
    "CalibrationError",
    "LongRunCovError",
    "score_diffs",
    "hac_cov",
    "critical_values",
    "two_step_test",
]

# A component counts as constant when its long-run variance is negligible
# against the squared scale of the differences (scale-free detection).
_CONSTANT_REL_TOL = 1e-12
# |correlation| at or above this is treated as numerically singular and
# shrunk to the value below before rectangle probabilities are evaluated.
_CORR_SINGULAR = 1.0 - 1e-10
_CORR_SHRUNK = 1.0 - 1e-8
# |correlation| beyond 1 by more than the singular band above is an
# indefinite estimate, not rounding.
_CORR_INDEFINITE = 1.0 + 1e-10

# Lag-weight rules of the long-run covariance estimator (see HacConfig).
HAC_WEIGHTS = ("zero", "bartlett", "truncated")

_SOLVER_PROB_TOL = 1e-12
_SOLVER_MAX_ITER = 200
_ALPHA_MIN = 2000 * _SOLVER_PROB_TOL  # alpha/2 is 1000 tolerances: the level holds to 0.1%


class Hypothesis(str, enum.Enum):
    """Null hypotheses: joint equality, or equality-plus-noninferiority."""

    EQUAL = "equal"
    LEX_SUPERIORITY = "lex"


class Outcome(str, enum.Enum):
    NO_REJECTION = "no_rejection"
    REJECTED_AT_MARGINAL_STEP = "rejected_at_marginal_step"
    REJECTED_AT_COPULA_STEP = "rejected_at_copula_step"


# The batched core works with outcome codes, indices into _OUTCOMES, whose
# table-style labels are the characters of _LABELS.
_OUTCOMES = tuple(Outcome)
_LABELS = "0MC"
# second-step sides: two-sided under equal, one-sided under lex
_SIDES = {Hypothesis.EQUAL: 2, Hypothesis.LEX_SUPERIORITY: 1}


class DegenerateSeriesError(ValueError):
    """Both score-difference components carry no sampling variation."""


class CalibrationError(ValueError):
    """The second-step critical value could not be solved to tolerance."""


class LongRunCovError(ValueError):
    """The long-run covariance estimate is not positive semi-definite beyond
    rounding (possible with truncated lag weights)."""


@dataclass(frozen=True)
class ScoreDiffSeries:
    """Per-period differences (model 1 minus model 2) of the score pairs."""

    d_m: np.ndarray
    d_c: np.ndarray

    def __post_init__(self):
        d_m = np.asarray(self.d_m, dtype=float)
        d_c = np.asarray(self.d_c, dtype=float)
        if d_m.ndim != 1 or d_c.ndim != 1 or d_m.shape != d_c.shape:
            raise ValueError("d_m and d_c must be one-dimensional and equally long")
        if d_m.size < 2:
            raise ValueError("need at least 2 periods")
        if not (np.isfinite(d_m).all() and np.isfinite(d_c).all()):
            raise ValueError("score differences must be finite")
        object.__setattr__(self, "d_m", d_m)
        object.__setattr__(self, "d_c", d_c)

    @property
    def n(self) -> int:
        return self.d_m.size


@dataclass(frozen=True)
class HacConfig:
    """Lag cutoff and weight rule for the long-run covariance estimator.

    ``zero`` ignores all cross-lag terms (plain sample covariance) and takes
    lags 0 only, ``bartlett`` uses 1 - h/(lags+1), ``truncated`` weight 1.
    """

    lags: int = 0
    weights: str = "zero"

    def __post_init__(self):
        _check_count("lags", self.lags, 0)
        if self.weights not in HAC_WEIGHTS:
            raise ValueError("weights must be one of " + ", ".join(map(repr, HAC_WEIGHTS)))
        if self.weights == "zero" and self.lags > 0:
            raise ValueError(
                f"lag cutoff {self.lags} has no effect under weights 'zero'; "
                "use 'bartlett' or 'truncated' weights, or lags 0"
            )

    def weight(self, h: int) -> float:
        if self.weights == "bartlett":
            return 1.0 - h / (self.lags + 1.0)
        return 1.0


@dataclass(frozen=True)
class LongRunCov:
    """Symmetric 2x2 long-run covariance of the scaled average differences."""

    s_mm: float
    s_mc: float
    s_cc: float

    @property
    def is_pd(self) -> bool:
        return self.s_mm > 0.0 and self.s_cc > 0.0 and self.s_mm * self.s_cc > self.s_mc**2

    def correlation(self) -> float:
        return self.s_mc / math.sqrt(self.s_mm * self.s_cc)


@dataclass(frozen=True)
class TwoStepResult:
    hypothesis: Hypothesis
    stat_m: float
    stat_c: float
    c1: float
    c2: float
    outcome: Outcome
    alpha: float
    omega: LongRunCov
    degenerate_fallback: bool = False
    correlation_shrunk: bool = False

    @property
    def attribution(self) -> str:
        """Table-style label: '0' none, 'M' marginal step, 'C' copula step."""
        return _LABELS[_OUTCOMES.index(self.outcome)]

    def swapped(self) -> TwoStepResult:
        """The result for the two models in the other order.

        Swapping the models negates every score difference exactly, so the
        statistics change sign while the long-run covariance, the critical
        values and the fallback flags stay bit-identical; only the outcome
        is decided again, by the rule of :func:`two_step_test`."""
        stat_m, stat_c = -self.stat_m, -self.stat_c
        code = _decide(stat_m, stat_c, self.c1, self.c2, _SIDES[self.hypothesis])
        return replace(self, stat_m=stat_m, stat_c=stat_c, outcome=_OUTCOMES[int(code)])


def _decide(stat_m, stat_c, c1, c2, sides):
    """The stepwise decision as outcome codes, elementwise: the marginal
    step rejects on |stat_m| > c1; otherwise the copula step on
    |stat_c| > c2 where ``sides`` is 2 (``equal``) and on stat_c > c2 where
    it is 1 (``lex``)."""
    copula = np.where(sides == 2, np.abs(stat_c), stat_c) > c2
    return np.where(np.abs(stat_m) > c1, 1, 2 * copula)


def _score_pairs(scores) -> np.ndarray:
    """(n, 2) float array of (s_marg, s_cop) rows, from an array or from a
    sequence of pairs such as :class:`BivariateScore`."""
    if isinstance(scores, np.ndarray):
        a = np.asarray(scores, dtype=float)
    else:
        # one flat pass over the pairs: several times faster than np.asarray
        # on a list of tuples
        try:
            ragged = set(map(len, scores)) - {2}
        except TypeError:  # an element without a length, such as a float
            ragged = True
        if ragged:
            raise ValueError("every score must be a (s_marg, s_cop) pair")
        a = np.fromiter(chain.from_iterable(scores), float, 2 * len(scores)).reshape(-1, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"scores must have shape (n, 2), got {a.shape}")
    return a


def score_diffs(
    scores1: Sequence[BivariateScore] | np.ndarray,
    scores2: Sequence[BivariateScore] | np.ndarray,
) -> ScoreDiffSeries:
    """Componentwise score differences, model 1 minus model 2.  Each model's
    scores are an (n, 2) array or a sequence of (s_marg, s_cop) pairs."""
    if len(scores1) != len(scores2):
        raise ValueError("score sequences must have equal length")
    a = _score_pairs(scores1)
    b = _score_pairs(scores2)
    return ScoreDiffSeries(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])


def _long_run_cov(d_m: np.ndarray, d_c: np.ndarray, cfg: HacConfig) -> np.ndarray:
    """Long-run covariances of the rows of ``d_m`` and ``d_c`` (R, n) as an
    (R, 2, 2) array: the lag-0 outer-product average (divisor n) plus
    weighted symmetrized cross-lag sums up to the cutoff, one stacked
    ``matmul`` per lag.  An overflow leaves a non-finite entry, which the
    test reports as a ``LongRunCovError``."""
    n = d_m.shape[1]
    x = np.empty((*d_m.shape, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, d in enumerate((d_m, d_c)):
            # the last partial sum is the left-to-right row sum; a row's
            # np.add.reduce sums pairwise and rounds differently
            np.subtract(d, np.add.accumulate(d, axis=1)[:, -1:] / n, out=x[..., j])
        xt = x.transpose(0, 2, 1)
        cov = xt @ x / n
        for h in range(1, cfg.lags + 1):
            gamma = xt[:, :, h:] @ x[:, :-h] / n
            cov = cov + cfg.weight(h) * (gamma + gamma.transpose(0, 2, 1))
    return cov


def hac_cov(d: ScoreDiffSeries, cfg: HacConfig) -> LongRunCov:
    """Long-run covariance of one series: the R = 1 case of the stacked
    estimator that the batched test uses."""
    _check_lag_cutoff(d.n, cfg)
    cov = _long_run_cov(d.d_m[None], d.d_c[None], cfg)[0]
    return LongRunCov(s_mm=float(cov[0, 0]), s_mc=float(cov[0, 1]), s_cc=float(cov[1, 1]))


def _check_level(alpha: float) -> None:
    if not _ALPHA_MIN <= alpha < 1.0:  # written so that NaN fails
        raise ValueError(f"alpha must lie in (0, 1) and be at least {_ALPHA_MIN:g}, got {alpha!r}")


def _check_lag_cutoff(n: int, cfg: HacConfig) -> None:
    if n <= cfg.lags:
        raise ValueError(f"series length {n} must exceed lag cutoff {cfg.lags}")


def _solve_c2(
    rho: np.ndarray, h: float, alpha2: float, sides: np.ndarray
) -> tuple[np.ndarray, dict[int, CalibrationError]]:
    """Safeguarded Newton iteration for the standardized second-step
    critical values k = c2/sqrt(s_cc), in lockstep over the rows of the
    arrays ``rho`` (correlations) and ``sides``, given the standardized
    first-step value h = c1/sqrt(s_mm).

    Each row solves p(k) = sides * P(|Z1| <= h, Z2 > k) = alpha2, with
    ``sides`` 2 under ``equal`` and 1 under ``lex``.  The limit is centrally
    symmetric, so for k >= 0 the two-sided P(|Z1| <= h, |Z2| > k) is the
    one-sided strip doubled, and both hypotheses solve the same strip
    probability.  p is strictly decreasing in k.  The iteration starts from
    the closed form under independence and uses the analytic derivative
    -sides * phi(k) * P(|Z1| <= h | Z2 = k).  Every evaluation narrows a
    row's own bracket around its root, and a Newton step that leaves the
    bracket is replaced by bisection.  One kernel call per iteration serves
    every row still iterating.

    Returns k, NaN in the rows that failed, and a ``CalibrationError`` per
    failed row: the probability is not within ``_SOLVER_PROB_TOL`` of
    alpha2 after ``_SOLVER_MAX_ITER`` evaluations, or the bracket has
    collapsed.
    """
    r = np.sqrt((1.0 - rho) * (1.0 + rho))
    p_band = norm_cdf(h) - norm_cdf(-h)
    k = np.minimum(np.maximum(norm_quantile(1.0 - alpha2 / (sides * p_band)), -10.0), 10.0)
    lo = np.full(k.shape, -10.0)
    hi = np.full(k.shape, 10.0)
    solved = np.full(k.shape, np.nan)
    errors: dict[int, CalibrationError] = {}
    rows = np.arange(k.size)
    band = np.array([[h], [-h]])  # the strip's limits, for the slope

    for _ in range(_SOLVER_MAX_ITER):
        p = sides * bvn_rect_prob(rho, -h, h, k, math.inf)
        excess = p - alpha2
        above = excess > 0.0  # p > alpha2, exactly
        np.copyto(lo, k, where=above)
        np.copyto(hi, k, where=~above)
        done = np.abs(excess) <= _SOLVER_PROB_TOL
        # Every bracket lies in [-10, 10], so one wider than 2e-14 cannot
        # have collapsed to a few ulps.
        narrow = hi - lo <= 2e-14
        stop = done | narrow
        if stop.any():
            # Collapsed: the bracket is only a few ulps wide.
            width = 1e-15 * np.maximum(np.maximum(1.0, np.abs(lo)), np.abs(hi))
            collapsed = narrow & ~done & (hi - lo <= width)
            stop = done | collapsed
            solved[rows[done]] = k[done]
            for i in np.flatnonzero(collapsed):
                errors[int(rows[i])] = CalibrationError(
                    f"second-step solver bracket collapsed at k={float(k[i])!r} with "
                    f"probability {float(p[i])!r}, target {alpha2!r}"
                )
            if stop.all():
                return solved, errors
            go = ~stop
            rows, rho, r, sides = rows[go], rho[go], r[go], sides[go]
            lo, hi, k, excess = lo[go], hi[go], k[go], excess[go]
        # P(|Z1| <= h | Z2 = k) = Phi((h - rho*k)/r) - Phi((-h - rho*k)/r)
        given = norm_cdf((band - rho * k) / r)
        slope = sides * norm_pdf(k) * (given[0] - given[1])
        # A slope that is not positive gives no step (nan or inf), which the
        # bracket test below replaces by bisection.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = k + excess / slope
        k = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    for i in rows.tolist():
        errors[i] = CalibrationError(
            f"second-step solver did not reach {_SOLVER_PROB_TOL:g} in probability "
            f"within {_SOLVER_MAX_ITER} iterations"
        )
    return solved, errors


def _calibrate(
    alpha: float, s_mm: np.ndarray, s_mc: np.ndarray, s_cc: np.ndarray, sides: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, CalibrationError]]:
    """Critical values (c1, c2) of the rows of positive definite long-run
    covariances, and the solver's error per failed row; see
    ``critical_values``."""
    h = norm_quantile(1.0 - alpha / 4.0)
    k, errors = _solve_c2(s_mc / np.sqrt(s_mm * s_cc), h, alpha / 2.0, sides)
    return np.sqrt(s_mm) * h, np.sqrt(s_cc) * k, errors


def critical_values(
    omega: LongRunCov, alpha: float, hypothesis: Hypothesis
) -> tuple[float, float]:
    """Jointly calibrated critical values (c1, c2) for the two-step test.

    The level is split evenly, alpha/2 per step, and each critical value is
    sqrt(variance) times a standardized one.  h = c1/sqrt(s_mm) satisfies
    P(|Z1| > h) = alpha/2 in closed form.  k = c2/sqrt(s_cc) makes the
    second-step rejection probability (two-sided under ``equal``, one-sided
    under ``lex``) equal alpha/2 to within 1e-12; see ``_solve_c2``.  Both
    depend on omega only through its correlation.  Raises
    ``LongRunCovError`` for a non-finite omega and ``CalibrationError``
    when the solver does not converge.
    """
    entries = (omega.s_mm, omega.s_mc, omega.s_cc)
    if not all(map(math.isfinite, entries)):
        raise _overflow()
    if not omega.is_pd:
        raise ValueError("long-run covariance must be positive definite")
    _check_level(alpha)
    sides = np.array([_SIDES[Hypothesis(hypothesis)]])
    c1, c2, errors = _calibrate(alpha, *(np.array([v]) for v in entries), sides)
    if errors:
        raise errors[0]
    return float(c1[0]), float(c2[0])


def _indefinite(cfg: HacConfig, what: str) -> LongRunCovError:
    return LongRunCovError(
        f"long-run covariance is not positive semi-definite ({what}) with "
        f"lags={cfg.lags}, weights='{cfg.weights}'; bartlett weights always "
        "give a positive semi-definite estimate"
    )


def _overflow() -> LongRunCovError:
    return LongRunCovError(
        "long-run covariance overflows: the score differences are too large "
        "to square in floating point; rescale them"
    )


class _Batch(NamedTuple):
    """Two-step tests of R series under H hypotheses.  ``sides`` has shape
    (H, 1); ``c2`` and ``outcome`` (codes, indices into ``_OUTCOMES``) have
    shape (H, R); every other field has shape (R,)."""

    sides: np.ndarray
    stat_m: np.ndarray
    stat_c: np.ndarray
    s_mm: np.ndarray
    s_mc: np.ndarray
    s_cc: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    outcome: np.ndarray
    fallback: np.ndarray
    shrunk: np.ndarray

    def swapped(self) -> _Batch:
        """The tests with the two models of every series in the other order;
        see ``TwoStepResult.swapped``."""
        stat_m, stat_c = -self.stat_m, -self.stat_c
        outcome = _decide(stat_m, stat_c, self.c1, self.c2, self.sides)
        return self._replace(stat_m=stat_m, stat_c=stat_c, outcome=outcome)


def _two_step(
    d_m: np.ndarray,
    d_c: np.ndarray,
    omega: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: HacConfig,
    alpha: float,
    hypotheses: Sequence[Hypothesis],
    calibrate: Callable,
) -> _Batch:
    """The two-step test of every row of ``d_m`` and ``d_c`` (R, n) under
    each hypothesis, given the rows' long-run covariances ``omega`` =
    (s_mm, s_mc, s_cc); see ``two_step_test`` for the rules.  Each rule is
    a mask over the rows.  All hypotheses share the statistics, omega, the
    masks and the first-step value; ``calibrate(s_mm, s_mc, s_cc, sides)``
    returns (c1, c2, errors by row) of every calibrated row under every
    hypothesis at once, as ``_calibrate`` does.

    Raises the error that testing the rows one by one, each under every
    hypothesis in turn, would raise first, with its row index as ``row``.
    """
    s_mm, s_mc, s_cc = omega
    sides = np.array([_SIDES[h] for h in hypotheses])[:, None]
    n = d_m.shape[1]
    sqrt_n = math.sqrt(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.add.reduce / n is .mean without its Python-level wrapper
        stat_m = sqrt_n * (np.add.reduce(d_m, axis=1) / n)
        stat_c = sqrt_n * (np.add.reduce(d_c, axis=1) / n)
        # A component counts as constant when its long-run variance is zero
        # up to rounding, measured against the squared scale of the
        # differences (scale-free); a variance below that band is an
        # indefinite estimate.  The band overflows to inf exactly when the
        # scale exceeds 1.3e154, and non-finite differences make it nan.
        band_m = _CONSTANT_REL_TOL * (np.add.reduce(np.abs(d_m), axis=1) / n) ** 2
        band_c = _CONSTANT_REL_TOL * (np.add.reduce(np.abs(d_c), axis=1) / n) ** 2
        overflow = ~(
            np.isfinite(band_m + band_c) & np.isfinite(s_mm) & np.isfinite(s_mc) & np.isfinite(s_cc)
        )
        corr = s_mc / np.sqrt(s_mm * s_cc)
        flat_m, flat_c = s_mm <= band_m, s_cc <= band_c
        zero_m = flat_m & ~d_m.any(axis=1)
        zero_c = flat_c & ~d_c.any(axis=1)
        negative = (s_mm < -band_m) | (s_cc < -band_c)
        flat = flat_m | flat_c
        indefinite = ~flat & (np.abs(corr) > _CORR_INDEFINITE)
        bad = overflow | negative | (zero_m & zero_c) | indefinite
        c1 = np.empty(stat_m.shape)
        c2 = np.empty((sides.size, stat_m.size))
        if flat.any():
            # A constant component has no sampling variation.  When
            # identically zero (identical forecasts) its step is skipped
            # (critical value inf); otherwise it decides by sign (critical
            # value 0, the limit of a vanishing variance).  The other
            # component gets a one-step test at the full level alpha.
            c1[:] = np.where(
                flat_m, np.where(zero_m, math.inf, 0.0),
                np.sqrt(s_mm) * norm_quantile(1.0 - alpha / 2.0),
            )
            c2[:] = np.where(
                flat_c, np.where(zero_c, math.inf, 0.0),
                np.sqrt(s_cc) * norm_quantile(1.0 - alpha / sides),
            )
        # Otherwise both steps are calibrated jointly, on a correlation
        # shrunk away from the singular limit.
        calibrated = ~(flat | bad)
        shrunk = calibrated & (np.abs(corr) >= _CORR_SINGULAR)
        if shrunk.any():
            s_mc = np.where(shrunk, np.copysign(_CORR_SHRUNK, corr) * np.sqrt(s_mm * s_cc), s_mc)

    errors = {}
    if bad.any():
        r = int(bad.argmax())
        if not (np.isfinite(d_m[r]).all() and np.isfinite(d_c[r]).all()):
            error = ValueError("score differences must be finite")
        elif overflow[r]:
            error = _overflow()
        elif s_mm[r] < -band_m[r]:
            error = _indefinite(cfg, f"variance {float(s_mm[r])!r}")
        elif s_cc[r] < -band_c[r]:
            error = _indefinite(cfg, f"variance {float(s_cc[r])!r}")
        elif zero_m[r] and zero_c[r]:
            error = DegenerateSeriesError(
                "both score-difference components are degenerate; "
                "the forecasts carry no ranking information"
            )
        else:
            error = _indefinite(cfg, f"correlation {float(corr[r])!r}")
        # a series' own checks precede its calibration under any hypothesis
        errors[r, -1] = error
    idx = np.flatnonzero(calibrated)
    m = idx.size
    if m:
        # every hypothesis' rows in turn
        rows = np.concatenate([idx] * sides.size)
        cal_c1, cal_c2, failed = calibrate(
            s_mm[rows], s_mc[rows], s_cc[rows], sides[:, 0].repeat(m)
        )
        c1[idx] = cal_c1[:m]
        c2[:, idx] = cal_c2.reshape(-1, m)
        errors.update(((int(rows[i]), i // m), e) for i, e in failed.items())
    if errors:
        first = min(errors)
        errors[first].row = first[0]
        raise errors[first]
    outcome = _decide(stat_m, stat_c, c1, c2, sides)
    return _Batch(sides, stat_m, stat_c, *omega, c1, c2, outcome, zero_m | zero_c, shrunk)


def _two_step_batch(
    d_m: np.ndarray,
    d_c: np.ndarray,
    cfg: HacConfig,
    alpha: float,
    hypotheses: Sequence[Hypothesis],
) -> _Batch:
    """Two-step tests of the R series in the rows of the C-contiguous
    (R, n) arrays ``d_m`` and ``d_c`` under each of ``hypotheses``: one
    stacked long-run covariance and one lockstep calibration for all of
    them.  Row r equals ``two_step_test`` on (d_m[r], d_c[r]) bit for bit,
    and an invalid row raises what that call would."""
    n = d_m.shape[1]
    if n < 2:
        raise ValueError("need at least 2 periods")
    _check_level(alpha)
    _check_lag_cutoff(n, cfg)
    cov = _long_run_cov(d_m, d_c, cfg)
    omega = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    return _two_step(d_m, d_c, omega, cfg, alpha, hypotheses, partial(_calibrate, alpha))


def two_step_test(
    d: ScoreDiffSeries,
    cfg: HacConfig,
    alpha: float,
    hypothesis: Hypothesis,
) -> TwoStepResult:
    """Stepwise test: marginal component first, copula component second,
    at level alpha/2 each (see ``critical_values``).

    When one component is identically zero (identical forecasts on that
    component), the test falls back to a one-step comparison of the other
    component at the full level alpha; when both are zero the series
    carries no ranking information and an error is raised.  A component
    that is constant but not zero decides its step by sign (critical value
    0), and the other component is tested at the full level alpha.  A
    long-run covariance that is not positive semi-definite beyond rounding
    (possible with truncated weights), or that overflows, raises
    ``LongRunCovError``.

    This is the R = 1 call of the batched core; it goes through
    ``hac_cov`` and ``critical_values`` once each.
    """
    hypothesis = Hypothesis(hypothesis)
    _check_level(alpha)  # rejects bad levels on every path
    omega = hac_cov(d, cfg)

    def calibrate(s_mm, s_mc, s_cc, sides):
        c1, c2 = critical_values(LongRunCov(s_mm.item(), s_mc.item(), s_cc.item()), alpha, hypothesis)
        return np.array([c1]), np.array([c2]), {}

    entries = tuple(np.array([v]) for v in (omega.s_mm, omega.s_mc, omega.s_cc))
    b = _two_step(d.d_m[None], d.d_c[None], entries, cfg, alpha, (hypothesis,), calibrate)
    return TwoStepResult(
        hypothesis, b.stat_m.item(), b.stat_c.item(), b.c1.item(), b.c2.item(),
        _OUTCOMES[b.outcome.item()], alpha, omega,
        degenerate_fallback=b.fallback.item(), correlation_shrunk=b.shrunk.item(),
    )
