"""Monte Carlo harness: multivariate GARCH data generation with constant
equicorrelation, noise-contaminated forecasters, and rejection-frequency
tables for the two-step tests.

One path generator, :func:`_paths`, serves :func:`simulate_path` and the
replications: it draws every stream's burn-in innovations, runs and frees
them, then draws every stream's window (:func:`_draw_noise`), or under
``one-step`` drops each stream's burn-in normals from its window's draw.
Each replication stream then draws both forecasters' disturbances
(:func:`_draw_contamination`) a superblock of time steps at a time, each
piece where one whole-window draw puts it, so within a stream the order
stays burn-in, window, forecaster 1's (dm, dc), forecaster 2's.  Both
forecasters are scored by :func:`copulascore.scoring.score_arrays`.
Replication streams are split from the master seed by spawn key, so
results are bit-identical regardless of batching or execution order.

One variance recursion, :func:`_variance_steps`, runs time-major over a
stacked state of shape (rows, dim, reps): row 0 is the true variance, and
under ``recursive`` rows 1 and 2 are the two forecasters' own variances.
Burn-in steps advance the state but are not stored.
:func:`_experiment_diffs` scores the window in blocks of time steps,
replications innermost, each forecaster on the innovations against its
standard deviation over the true one: only ``recursive`` runs the
recursion over the window.  Each block's differences overwrite its own
spent innovations, so beyond the window's it holds one superblock of
disturbances and one block.  :func:`run_experiment` draws and tests the
replications in chunks of a fixed number of innovations, so its peak
memory does not grow with the replication count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_math import EquiCorr, _check_count
from .inference import HacConfig, Hypothesis, _check_lag_cutoff, _check_level, _two_step_batch
from .scoring import score_arrays

# Not called here; perfbench/child.py wraps these module attributes by name.
from .copulas import gaussian_logdensity_from_scores  # noqa: F401
from .inference import two_step_test  # noqa: F401

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
        # NaN, floats such as 300.0 and bools fail here, not in the array shapes
        _check_count("n", self.n, 2)
        _check_count("burn_in", self.burn_in, 0)
        # Each check is written so that NaN fails it.
        if not (math.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0!r}")
        for name, value in (("alpha0", self.alpha0), ("beta0", self.beta0)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.alpha0 + self.beta0 >= 1.0:
            raise ValueError("alpha0 + beta0 < 1 required for covariance stationarity")
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


def _draw_noise(
    chol: np.ndarray, rngs: list[np.random.Generator], steps: int, skip: int = 0
) -> np.ndarray:
    """The next ``steps`` correlated Gaussian innovations of each stream in
    ``rngs`` after ``skip`` dropped steps, time-major, shape (steps,
    len(rngs), dim); ``chol`` is the Cholesky factor of their correlation.

    Behind the view is a C-contiguous (dim, len(rngs), steps) buffer, filled
    in stream order, so the burn-in and the window drawn by two calls, or by
    one that skips the burn-in, are the rows of one draw of both.  A single
    row would be multiplied on numpy's matrix-vector path, whose result can
    differ in the last bit from the same row of a longer product, so it is
    padded with a row of zeros."""
    eps = np.empty((len(chol), len(rngs), steps))
    for r, rng in enumerate(rngs):
        z = rng.standard_normal((skip + steps, len(chol)))[skip:]
        if steps == 1:
            z = np.vstack((z, np.zeros_like(z)))
        eps[:, r] = (z @ chol.T)[:steps].T
    return eps.transpose()


def _draw_contamination(
    cspec: ContaminationSpec, n: int, rng: np.random.Generator, gap: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """One forecaster's per-period multiplicative disturbances (dm, dc) of
    the volatility and correlation parameters, uniform on 1 +/- the
    half-widths, in that order and ``gap`` 64-bit words apart (one per uniform).

    Scaling all volatility parameters by a common factor scales the one-step
    conditional variance by that factor, so forecast standard deviations are
    sqrt(dm) times the true ones; the forecast equicorrelation is rho * dc.
    """
    dm = rng.uniform(1.0 - cspec.delta_marg, 1.0 + cspec.delta_marg, size=n)
    if gap:
        rng.bit_generator.advance(gap)
    dc = rng.uniform(1.0 - cspec.delta_cop, 1.0 + cspec.delta_cop, size=n)
    return dm, dc


def _variance_steps(
    spec: DgpSpec, eps: np.ndarray, h: np.ndarray, var=None, dm=None
) -> np.ndarray:
    """Advance the stacked variance state ``h`` through the time-major
    innovations ``eps``: ``h`` is advanced in place, step by step, and
    returned.

    ``h`` has shape (rows, *eps.shape[1:]).  Row 0 is the true variance:
    step t draws the observation sqrt(h[0]) * eps[t], and every row then
    takes one GARCH step on that observation.  Rows 1: are the forecasters'
    recursive variances; with ``dm``, of shape (steps, rows - 1, ...),
    step t first scales them by the forecasters' disturbances dm[t].  When
    ``var`` is given, its row t receives the variances of all rows that
    step t's observation was drawn with; the observations are not kept."""
    # per-step temporaries like h[0], reused: sqrt(h[0]) * e, omega0 + alpha0 * y**2
    y_t, shock = np.empty_like(h[0]), np.empty_like(h[0])
    for t, e in enumerate(eps):
        if dm is not None:
            h[1:] *= dm[t]
        np.multiply(np.sqrt(h[0], out=y_t), e, out=y_t)
        if var is not None:
            var[t] = h
        np.square(y_t, out=shock)
        shock *= spec.alpha0
        shock += spec.omega0
        h *= spec.beta0
        h += shock
    return h


def _paths(
    spec: DgpSpec, rngs: list[np.random.Generator], rows: int = 1
) -> tuple[np.ndarray | None, np.ndarray]:
    """The paths of the streams in ``rngs`` up to their evaluation window:
    ``rows`` copies of the burned-in true variances, shape (rows, dim,
    len(rngs)), and the window innovations from :func:`_draw_noise`, shape
    (n, len(rngs), dim).

    Every stream's burn-in is drawn first, then every stream's window.  The
    variance recursion starts at the stationary variance, and the burn-in
    innovations only advance it; they are passed on unnamed, so they are
    freed before the window is drawn.  With no rows, the variances are None
    and the burn-in is skipped in the window's draw."""
    chol = np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())
    if not rows:
        return None, _draw_noise(chol, rngs, spec.n, spec.burn_in)
    h = np.full((rows, spec.dim, len(rngs)), spec.stationary_variance)
    h = _variance_steps(spec, _draw_noise(chol, rngs, spec.burn_in).transpose(0, 2, 1), h)
    return h, _draw_noise(chol, rngs, spec.n)


def simulate_path(spec: DgpSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one path; returns (Y, sigma) of shape (n, dim) over the
    evaluation window, where sigma holds the true conditional volatilities.
    The burn-in steps are run but not returned."""
    _check_count("seed", seed, 0)
    h, eps = _paths(spec, [np.random.default_rng(seed)])
    var = np.empty((spec.n, 1, spec.dim, 1))
    _variance_steps(spec, eps.transpose(0, 2, 1), h, var)
    sigma = np.sqrt(var[:, 0, :, 0])
    return sigma * eps[:, 0], sigma


# Time steps per block of _experiment_diffs.  Only the stacked variance
# state, (rows, dim, reps), carries from one block to the next.  A block's
# innovations and variances are buffers with the replications innermost and
# the dimension next: each step of the recursion works on (dim, reps) rows,
# and scoring sums the coordinates as whole rows, left to right.  Every array
# of a block, scoring temporaries included, stays far below one chunk's
# window innovations, so the peak is set by the draws; longer blocks keep
# more temporaries alive next to the innovations and buy no speed.  Both
# forecasters' (dm, dc) are drawn one superblock at a time (2 MB at 120
# replications), replications innermost as in a block, and a block ends
# at its superblock's end.
_BLOCK_STEPS = 16
_SUPERBLOCK_STEPS = 512

# Innovations per chunk of run_experiment (float64, 32 MiB): a chunk holds
# as many replications as fit, and at least one.
_CHUNK_FLOATS = 1 << 22


def _experiment_diffs(
    spec: DgpSpec,
    setting: Setting,
    reps: int,
    seed: int,
    variance_mode: str = VARIANCE_MODES[0],
    first: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Score-difference series of replications first, ..., first + reps - 1,
    contiguous arrays of shape (reps, n) each.

    Row r depends only on (seed, first + r); see :func:`_rep_rng`.  The
    replications' streams give their window innovations (:func:`_paths`),
    then both forecasters' disturbances one superblock of
    ``_SUPERBLOCK_STEPS`` steps at a time, by one rule: from superblock
    offset s, forecaster 1's dm, its dc n words on, forecaster 2's dm and
    dc n and 2n words further, then a step back of 3n if more follow.  In
    blocks of ``_BLOCK_STEPS`` time steps, each forecaster is scored on the
    innovations against the square root of its variance over the true one,
    the only way the true variance enters a difference.  Under ``one-step``
    that ratio is dm[t] and the window runs no recursion; under
    ``recursive`` one recursion runs the forecasters' own variances, from
    dm[0] * sigma2_true[0], in rows 1 and 2 of a stacked state beside the
    true variance in row 0.  A block first copies its innovations, which
    both the recursion and scoring read, and then writes its differences
    over its own first two innovation coordinates, which nothing reads
    again: those two planes of the innovation buffer are the result.
    Memory holds the window's innovations, one superblock of both
    forecasters' disturbances and one block at a time; ``recursive`` first
    holds the burn-in's, ``one-step`` one stream's normals at a time.
    """
    if variance_mode not in VARIANCE_MODES:
        raise ValueError("variance mode must be " + " or ".join(map(repr, VARIANCE_MODES)))
    rngs = [_rep_rng(seed, first + r) for r in range(reps)]
    recursive = variance_mode == "recursive"
    h, eps = _paths(spec, rngs, 3 if recursive else 0)
    d_m, d_c = eps.T[:2]  # (reps, n) planes, overwritten block by block
    n = int(spec.n)  # advance overflows on a numpy integer
    draws = np.empty((2, 2, min(n, _SUPERBLOCK_STEPS), reps))  # (forecaster, dm|dc, steps, reps)
    for s in range(0, n, _SUPERBLOCK_STEPS):
        steps = min(_SUPERBLOCK_STEPS, n - s)
        gap = n - steps  # words between the pieces, as in one whole-window draw
        for r, rng in enumerate(rngs):
            draws[0, :, :steps, r] = _draw_contamination(setting.spec1, steps, rng, gap)
            if gap:
                rng.bit_generator.advance(gap)
            draws[1, :, :steps, r] = _draw_contamination(setting.spec2, steps, rng, gap)
            if s + steps < n:
                rng.bit_generator.advance(-3 * n)
        draws[:, 1, :steps] *= spec.rho  # both forecasters' correlations
        for a in range(0, steps, _BLOCK_STEPS):
            b = min(a + _BLOCK_STEPS, steps)
            e = np.ascontiguousarray(eps[s + a : s + b].transpose(0, 2, 1))  # (steps, dim, reps)
            # views per forecaster: variances over the true one, correlations
            ratio, rho = draws[:, 0, a:b, None], draws[:, 1, a:b]
            if recursive:  # at each step dm scales the forecasters' own variances
                var = np.empty((3, b - a, spec.dim, reps))
                h = _variance_steps(spec, e, h, var.swapaxes(0, 1), ratio.swapaxes(0, 1))
                ratio = np.divide(var[1:], var[:1], out=var[1:])
            sd, e = np.sqrt(ratio, out=ratio).swapaxes(2, 3), e.swapaxes(1, 2)
            (sm1, sc1), (sm2, sc2) = (score_arrays(e, sd[k], rho[k]) for k in (0, 1))
            np.subtract(sm1, sm2, out=d_m[:, s + a : s + b].T)
            np.subtract(sc1, sc2, out=d_c[:, s + a : s + b].T)
    return d_m, d_c


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
    index, draws in this order): innovations for the burn-in, then for the
    window, then forecaster 1's volatility and correlation disturbances,
    then forecaster 2's.  Each forecaster is scored with its own
    contaminated marginals and copula.  Replications are generated and
    tested in chunks, in order, of as many as fit ``_CHUNK_FLOATS`` burn-in
    and window innovations (see :func:`_paths`).  The two-step tests of a
    chunk under both hypotheses run as one batch on its score differences.
    Rows are independent, so the table does not depend on the chunk size,
    and the first chunk that raises holds the earliest bad replication.
    """
    _check_count("reps", reps, 1)
    _check_count("seed", seed, 0)
    # the level and lag checks of every test, before anything is drawn
    _check_level(alpha)
    _check_lag_cutoff(spec.n, hac)
    setting.spec1.check_against(spec)
    setting.spec2.check_against(spec)

    chunk = max(1, _CHUNK_FLOATS // ((spec.burn_in + spec.n) * spec.dim))
    counts = np.zeros((len(Hypothesis), 3), dtype=np.int64)
    for first in range(0, reps, chunk):
        size = min(chunk, reps - first)
        # the differences are passed on unnamed, so the chunk's draws are
        # freed before the next chunk is drawn
        outcomes = _two_step_batch(
            *_experiment_diffs(spec, setting, size, seed, variance_mode, first),
            hac, alpha, tuple(Hypothesis),
        ).outcome
        counts += [np.bincount(codes, minlength=3) for codes in outcomes]

    rows = []
    for h, (_, m_count, c_count) in zip(Hypothesis, counts.tolist()):
        m_pct = 100.0 * m_count / reps
        c_pct = 100.0 * c_count / reps
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
