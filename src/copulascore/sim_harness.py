"""Monte Carlo harness: multivariate GARCH data generation with constant
equicorrelation, noise-contaminated forecasters, and rejection-frequency
tables for the two-step tests.

Paths come from one innovation draw (:func:`_draw_noise`) and one GARCH
recursion, forecaster disturbances from one draw (:func:`_draw_contamination`),
and both forecasters are scored by :func:`copulascore.scoring.score_arrays`.
Replication streams are split from the master seed by spawn key, so results
are bit-identical regardless of batching or execution order.

The recursions run time-major, over arrays of shape (steps, ..., dim), and
keep only the evaluation window: burn-in steps advance the variance state
but are not stored.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Not called here; perfbench/child.py wraps this module attribute by name.
from .copulas import gaussian_logdensity_from_scores  # noqa: F401
from .dist_math import EquiCorr
from .inference import HacConfig, Hypothesis, ScoreDiffSeries, two_step_test
from .inference import _check_lag_cutoff, _check_level
from .scoring import score_arrays

__all__ = [
    "DgpSpec",
    "ContaminationSpec",
    "Setting",
    "SETTINGS",
    "FreqRow",
    "VARIANCE_MODES",
    "simulate_path",
    "run_experiment",
]

# How a forecaster's conditional variances evolve; the first is the default.
VARIANCE_MODES = ("one-step", "recursive")


@dataclass(frozen=True)
class DgpSpec:
    """Truth: per-dimension GARCH(1,1) volatilities with shared parameters
    and Gaussian innovations with a constant equicorrelation matrix."""

    n: int
    dim: int = 5
    omega0: float = 0.001
    alpha0: float = 0.1
    beta0: float = 0.5
    rho: float = 0.5
    burn_in: int = 500

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        # Each check is written so that NaN fails it.
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0!r}")
        for name, value in (("alpha0", self.alpha0), ("beta0", self.beta0)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.alpha0 + self.beta0 >= 1.0:
            raise ValueError("alpha0 + beta0 < 1 required for covariance stationarity")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        EquiCorr(self.dim, self.rho)  # validates rho against the dimension

    @property
    def stationary_variance(self) -> float:
        return self.omega0 / (1.0 - self.alpha0 - self.beta0)


@dataclass(frozen=True)
class ContaminationSpec:
    """Half-widths of the uniform multiplicative noise applied per period to
    the volatility parameters (marg) and the correlation parameter (cop)."""

    delta_marg: float
    delta_cop: float

    def __post_init__(self):
        # Written so that NaN fails; delta_marg >= 1 would make variances <= 0.
        if not 0.0 <= self.delta_marg < 1.0:
            raise ValueError(f"delta_marg must lie in [0, 1), got {self.delta_marg!r}")
        if not (math.isfinite(self.delta_cop) and self.delta_cop >= 0.0):
            raise ValueError(f"delta_cop must be finite and >= 0, got {self.delta_cop!r}")

    def check_against(self, spec: DgpSpec) -> None:
        """Contaminated correlations must stay inside the validity range."""
        for edge in (1.0 - self.delta_cop, 1.0 + self.delta_cop):
            EquiCorr(spec.dim, spec.rho * edge)


@dataclass(frozen=True)
class Setting:
    """One scenario: contamination levels for the two competing forecasters."""

    label: str
    spec1: ContaminationSpec
    spec2: ContaminationSpec


SETTINGS: dict[str, Setting] = {
    # size: equally misspecified marginals and copula
    "i": Setting("i", ContaminationSpec(0.1, 0.1), ContaminationSpec(0.1, 0.1)),
    # power: equal marginals, forecaster 1 has the noisier copula
    "ii": Setting("ii", ContaminationSpec(0.1, 0.5), ContaminationSpec(0.1, 0.1)),
    # power: as (ii) but with strongly misspecified marginals on both sides
    "iii": Setting("iii", ContaminationSpec(0.5, 0.5), ContaminationSpec(0.5, 0.1)),
    # power: only the marginals differ
    "iv": Setting("iv", ContaminationSpec(0.5, 0.1), ContaminationSpec(0.1, 0.1)),
    # power: both components differ
    "v": Setting("v", ContaminationSpec(0.5, 0.5), ContaminationSpec(0.1, 0.1)),
}


@dataclass(frozen=True)
class FreqRow:
    hypothesis: str
    setting: str
    n: int
    marginal_pct: float
    copula_pct: float
    joint_pct: float
    reps: int
    seed: int


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Stream for one replication: the master seed plus the replication
    index as spawn key.  Serial and batched execution coincide."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))


def _innovation_chol(spec: DgpSpec) -> np.ndarray:
    return np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())


def _draw_noise(spec: DgpSpec, chol: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Correlated Gaussian innovations for burn-in plus evaluation window;
    ``chol`` is :func:`_innovation_chol` of ``spec``."""
    return rng.standard_normal((spec.burn_in + spec.n, spec.dim)) @ chol.T


def _draw_contamination(
    cspec: ContaminationSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One forecaster's per-period multiplicative disturbances (dm, dc) of
    the volatility and correlation parameters, uniform on 1 +/- the
    half-widths, drawn in that order.

    Scaling all volatility parameters by a common factor scales the one-step
    conditional variance by that factor, so forecast standard deviations are
    sqrt(dm) times the true ones; the forecast equicorrelation is rho * dc.
    """
    dm = rng.uniform(1.0 - cspec.delta_marg, 1.0 + cspec.delta_marg, size=n)
    dc = rng.uniform(1.0 - cspec.delta_cop, 1.0 + cspec.delta_cop, size=n)
    return dm, dc


def _garch_paths(spec: DgpSpec, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the volatility recursion; returns (Y, sigma2) over the evaluation
    window only.

    ``eps`` is time-major, shape (burn_in + n, ..., dim).  The recursion
    starts at the stationary variance; its first ``spec.burn_in`` steps only
    advance the state, and Y and sigma2 have shape (n, ..., dim).
    """
    burn_in = spec.burn_in
    y = np.empty((eps.shape[0] - burn_in,) + eps.shape[1:])
    sigma2 = np.empty_like(y)
    s2 = np.full(eps.shape[1:], spec.stationary_variance)
    for t, e in enumerate(eps):
        y_t = np.sqrt(s2) * e
        if t >= burn_in:
            sigma2[t - burn_in] = s2
            y[t - burn_in] = y_t
        s2 = spec.omega0 + spec.alpha0 * y_t**2 + spec.beta0 * s2
    return y, sigma2


def simulate_path(spec: DgpSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one path; returns (Y, sigma) of shape (n, dim) over the
    evaluation window, where sigma holds the true conditional volatilities.
    The burn-in steps are run but not returned."""
    rng = np.random.default_rng(seed)
    y, sigma2 = _garch_paths(spec, _draw_noise(spec, _innovation_chol(spec), rng))
    return y, np.sqrt(sigma2, out=sigma2)


def _forecast_variances(
    spec: DgpSpec,
    delta_marg: np.ndarray,
    sigma2: np.ndarray,
    y: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Contaminated conditional variances over the evaluation window.

    Time-major: ``sigma2`` and ``y`` have shape (n, ..., dim) and
    ``delta_marg`` has shape (n, ...).

    one-step: sigma2_tilde[t] = delta[t] * sigma2_true[t].
    recursive: the forecaster's own variance state evolves under the
    per-period contaminated parameters, seeded at delta[0]*sigma2_true[0].
    """
    if mode == "one-step":
        return delta_marg[..., None] * sigma2
    out = np.empty_like(sigma2)
    out[0] = delta_marg[0, ..., None] * sigma2[0]
    for t in range(1, sigma2.shape[0]):
        out[t] = delta_marg[t, ..., None] * (
            spec.omega0 + spec.alpha0 * y[t - 1] ** 2 + spec.beta0 * out[t - 1]
        )
    return out


def _experiment_diffs(
    spec: DgpSpec,
    setting: Setting,
    reps: int,
    seed: int,
    variance_mode: str = VARIANCE_MODES[0],
) -> tuple[np.ndarray, np.ndarray]:
    """Score-difference series of all replications, contiguous arrays of
    shape (reps, n) each.

    Row r depends only on (seed, r); see :func:`_rep_rng`.  Each
    replication is drawn into its own rows; everything after the draws runs
    time-major, (steps, reps, ...), so that one step of a recursion writes
    one contiguous block.
    """
    if variance_mode not in VARIANCE_MODES:
        raise ValueError("variance mode must be " + " or ".join(map(repr, VARIANCE_MODES)))
    chol = _innovation_chol(spec)
    eps = np.empty((reps, spec.burn_in + spec.n, spec.dim))
    # draws[k] holds forecaster k's (dm, dc), each of shape (reps, n)
    draws = np.empty((2, 2, reps, spec.n))
    for r in range(reps):
        rng = _rep_rng(seed, r)
        eps[r] = _draw_noise(spec, chol, rng)
        for k, cspec in enumerate((setting.spec1, setting.spec2)):
            draws[k, :, r] = _draw_contamination(cspec, spec.n, rng)

    # a time-major view, not a copy, so the innovations are held only once
    y, sigma2 = _garch_paths(spec, eps.transpose(1, 0, 2))
    del eps

    scores = []
    for dm, dc in draws:
        sigma = _forecast_variances(spec, dm.T, sigma2, y, variance_mode)
        scores.append(score_arrays(y, np.sqrt(sigma, out=sigma), spec.rho * dc.T))
        del sigma
    (sm1, sc1), (sm2, sc2) = scores
    return np.ascontiguousarray((sm1 - sm2).T), np.ascontiguousarray((sc1 - sc2).T)


def run_experiment(
    spec: DgpSpec,
    setting: Setting,
    reps: int,
    alpha: float,
    seed: int,
    hac: HacConfig = HacConfig(),
    variance_mode: str = VARIANCE_MODES[0],
) -> tuple[FreqRow, ...]:
    """Rejection frequencies of both two-step tests over ``reps``
    replications of the scenario: one row per hypothesis.

    Per replication (stream split from the master seed by replication
    index, draws in this order): innovations for burn-in plus window, then
    forecaster 1's volatility and correlation disturbances, then
    forecaster 2's.  Each forecaster is scored with its own contaminated
    marginals and copula; the two-step tests run on the score differences.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    # the level and lag checks of every test, before anything is drawn
    _check_level(alpha)
    _check_lag_cutoff(spec.n, hac)
    setting.spec1.check_against(spec)
    setting.spec2.check_against(spec)

    d_m, d_c = _experiment_diffs(spec, setting, reps, seed, variance_mode)

    counts = {h: Counter() for h in Hypothesis}
    for r in range(reps):
        series = ScoreDiffSeries(d_m[r], d_c[r])
        for h in Hypothesis:
            counts[h][two_step_test(series, hac, alpha, h).attribution] += 1

    rows = []
    for h in Hypothesis:
        m_pct = 100.0 * counts[h]["M"] / reps
        c_pct = 100.0 * counts[h]["C"] / reps
        rows.append(
            FreqRow(
                hypothesis=h.value,
                setting=setting.label,
                n=spec.n,
                marginal_pct=m_pct,
                copula_pct=c_pct,
                joint_pct=m_pct + c_pct,
                reps=reps,
                seed=seed,
            )
        )
    return tuple(rows)
