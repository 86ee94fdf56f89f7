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
from itertools import chain
from typing import Sequence

import numpy as np

from .dist_math import _is_integer, bvn_rect_prob, norm_cdf, norm_pdf, norm_quantile
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


class Hypothesis(str, enum.Enum):
    """Null hypotheses: joint equality, or equality-plus-noninferiority."""

    EQUAL = "equal"
    LEX_SUPERIORITY = "lex"


class Outcome(str, enum.Enum):
    NO_REJECTION = "no_rejection"
    REJECTED_AT_MARGINAL_STEP = "rejected_at_marginal_step"
    REJECTED_AT_COPULA_STEP = "rejected_at_copula_step"


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

    ``zero`` ignores all cross-lag terms (plain sample covariance),
    ``bartlett`` uses 1 - h/(lags+1), ``truncated`` uses weight 1.
    """

    lags: int = 0
    weights: str = "zero"

    def __post_init__(self):
        if not _is_integer(self.lags) or self.lags < 0:
            raise ValueError(f"lags must be an integer >= 0, got {self.lags!r}")
        if self.weights not in HAC_WEIGHTS:
            raise ValueError("weights must be one of " + ", ".join(map(repr, HAC_WEIGHTS)))

    def weight(self, h: int) -> float:
        if self.weights == "zero":
            return 0.0
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
        return {
            Outcome.NO_REJECTION: "0",
            Outcome.REJECTED_AT_MARGINAL_STEP: "M",
            Outcome.REJECTED_AT_COPULA_STEP: "C",
        }[self.outcome]

    def swapped(self) -> TwoStepResult:
        """The result for the two models in the other order.

        Swapping the models negates every score difference exactly, so the
        statistics change sign while the long-run covariance, the critical
        values and the fallback flags stay bit-identical; only the outcome
        is decided again, by the rule of :func:`two_step_test`."""
        stat_m, stat_c = -self.stat_m, -self.stat_c
        return replace(
            self,
            stat_m=stat_m,
            stat_c=stat_c,
            outcome=_decide(stat_m, stat_c, self.c1, self.c2, self.hypothesis),
        )


def _decide(
    stat_m: float, stat_c: float, c1: float, c2: float, hypothesis: Hypothesis
) -> Outcome:
    """The stepwise decision: the marginal step rejects on |stat_m| > c1;
    otherwise the copula step on |stat_c| > c2 under ``equal`` and on
    stat_c > c2 under ``lex``."""
    if abs(stat_m) > c1:
        return Outcome.REJECTED_AT_MARGINAL_STEP
    if (abs(stat_c) if hypothesis is Hypothesis.EQUAL else stat_c) > c2:
        return Outcome.REJECTED_AT_COPULA_STEP
    return Outcome.NO_REJECTION


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


def hac_cov(d: ScoreDiffSeries, cfg: HacConfig) -> LongRunCov:
    """Long-run covariance: lag-0 outer-product average (divisor n) plus
    weighted symmetrized cross-lag sums up to the cutoff."""
    n = d.n
    _check_lag_cutoff(n, cfg)
    x = np.column_stack([d.d_m, d.d_c])
    x = x - x.mean(axis=0)
    cov = x.T @ x / n
    for h in range(1, cfg.lags + 1):
        w = cfg.weight(h)
        if w == 0.0:
            continue
        gamma = x[h:].T @ x[:-h] / n
        cov = cov + w * (gamma + gamma.T)
    return LongRunCov(s_mm=float(cov[0, 0]), s_mc=float(cov[0, 1]), s_cc=float(cov[1, 1]))


def _check_level(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _check_lag_cutoff(n: int, cfg: HacConfig) -> None:
    if n <= cfg.lags:
        raise ValueError(f"series length {n} must exceed lag cutoff {cfg.lags}")


def _solve_c2(rho: float, h: float, alpha2: float, sides: int) -> float:
    """Safeguarded Newton iteration for the standardized second-step
    critical value k = c2/sqrt(s_cc), given the correlation ``rho`` and the
    standardized first-step value h = c1/sqrt(s_mm).

    Solves p(k) = sides * P(|Z1| <= h, Z2 > k) = alpha2, with ``sides`` 2
    under ``equal`` and 1 under ``lex``.  The limit is centrally symmetric,
    so for k >= 0 the two-sided P(|Z1| <= h, |Z2| > k) is the one-sided
    strip doubled, and both hypotheses solve the same strip probability.
    p is strictly decreasing in k.  The iteration starts from the closed
    form under independence and uses the analytic derivative
    -sides * phi(k) * P(|Z1| <= h | Z2 = k).  Every evaluation narrows a
    bracket around the root, and a Newton step that leaves the bracket is
    replaced by bisection.  Raises ``CalibrationError`` when the probability
    is not within ``_SOLVER_PROB_TOL`` of alpha2 after ``_SOLVER_MAX_ITER``
    evaluations, or once the bracket has collapsed.
    """
    r = math.sqrt((1.0 - rho) * (1.0 + rho))
    p_band = norm_cdf(h) - norm_cdf(-h)
    lo, hi = -10.0, 10.0
    k = min(max(norm_quantile(1.0 - alpha2 / (sides * p_band)), lo), hi)

    for _ in range(_SOLVER_MAX_ITER):
        p = sides * bvn_rect_prob(rho, -h, h, k, math.inf)
        if abs(p - alpha2) <= _SOLVER_PROB_TOL:
            return k
        if p > alpha2:
            lo = k
        else:
            hi = k
        # Collapsed: the bracket is only a few ulps wide.
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            raise CalibrationError(
                f"second-step solver bracket collapsed at k={k!r} with "
                f"probability {p!r}, target {alpha2!r}"
            )
        slope = sides * norm_pdf(k) * (
            norm_cdf((h - rho * k) / r) - norm_cdf((-h - rho * k) / r)
        )
        step = k + (p - alpha2) / slope if slope > 0.0 else math.nan
        k = step if lo < step < hi else 0.5 * (lo + hi)
    raise CalibrationError(
        f"second-step solver did not reach {_SOLVER_PROB_TOL:g} in probability "
        f"within {_SOLVER_MAX_ITER} iterations"
    )


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
    ``CalibrationError`` when the solver does not converge.
    """
    if not omega.is_pd:
        raise ValueError("long-run covariance must be positive definite")
    _check_level(alpha)
    sides = 2 if Hypothesis(hypothesis) is Hypothesis.EQUAL else 1
    h = norm_quantile(1.0 - alpha / 4.0)
    k = _solve_c2(omega.correlation(), h, alpha / 2.0, sides)
    return math.sqrt(omega.s_mm) * h, math.sqrt(omega.s_cc) * k


def _constant(variance: float, series: np.ndarray, cfg: HacConfig) -> bool:
    """True when a long-run variance is zero up to rounding, measured against
    the squared scale of the differences (scale-free detection of a constant
    component).  A variance below that band is an indefinite estimate."""
    band = _CONSTANT_REL_TOL * float(np.mean(np.abs(series))) ** 2
    if variance < -band:
        raise _indefinite(cfg, f"variance {variance!r}")
    return variance <= band


def _indefinite(cfg: HacConfig, what: str) -> LongRunCovError:
    return LongRunCovError(
        f"long-run covariance is not positive semi-definite ({what}) with "
        f"lags={cfg.lags}, weights='{cfg.weights}'; bartlett weights always "
        "give a positive semi-definite estimate"
    )


def _shrink_if_singular(omega: LongRunCov) -> tuple[LongRunCov, bool]:
    corr = omega.correlation()
    if abs(corr) >= _CORR_SINGULAR:
        shrunk = math.copysign(_CORR_SHRUNK, corr) * math.sqrt(omega.s_mm * omega.s_cc)
        return LongRunCov(omega.s_mm, shrunk, omega.s_cc), True
    return omega, False


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
    (possible with truncated weights) raises ``LongRunCovError``.
    """
    hypothesis = Hypothesis(hypothesis)
    _check_level(alpha)  # rejects bad levels on every path
    sqrt_n = math.sqrt(d.n)
    stat_m = sqrt_n * float(d.d_m.mean())
    stat_c = sqrt_n * float(d.d_c.mean())
    omega = hac_cov(d, cfg)

    flat_m = _constant(omega.s_mm, d.d_m, cfg)
    flat_c = _constant(omega.s_cc, d.d_c, cfg)
    zero_m = flat_m and not d.d_m.any()
    zero_c = flat_c and not d.d_c.any()
    if zero_m and zero_c:
        raise DegenerateSeriesError(
            "both score-difference components are degenerate; "
            "the forecasts carry no ranking information"
        )
    sides = 2 if hypothesis is Hypothesis.EQUAL else 1
    shrunk = False
    if flat_m or flat_c:
        # A constant component has no sampling variation.  When identically
        # zero (identical forecasts) its step is skipped (critical value
        # inf); otherwise it decides by sign (critical value 0, the limit of
        # a vanishing variance).  The other component gets a one-step test
        # at the full level alpha.
        c1 = math.inf if zero_m else 0.0
        c2 = math.inf if zero_c else 0.0
        if not flat_m:
            c1 = math.sqrt(omega.s_mm) * norm_quantile(1.0 - alpha / 2.0)
        if not flat_c:
            c2 = math.sqrt(omega.s_cc) * norm_quantile(1.0 - alpha / sides)
    else:
        if abs(omega.correlation()) > _CORR_INDEFINITE:
            raise _indefinite(cfg, f"correlation {omega.correlation()!r}")
        calib, shrunk = _shrink_if_singular(omega)
        c1, c2 = critical_values(calib, alpha, hypothesis)

    outcome = _decide(stat_m, stat_c, c1, c2, hypothesis)
    return TwoStepResult(
        hypothesis, stat_m, stat_c, c1, c2, outcome, alpha, omega,
        degenerate_fallback=zero_m or zero_c, correlation_shrunk=shrunk,
    )
