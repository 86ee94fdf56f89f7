"""Monte Carlo harness: multivariate GARCH data generation with constant
equicorrelation, noise-contaminated forecasters, and rejection-frequency
tables for the two-step tests.

One path generator, :func:`_paths`, serves :func:`simulate_path` and the
replications: it draws every stream's burn-in innovations, runs and frees
them, then draws every stream's window (:func:`_draw_noise`), or under
``one-step`` drops each stream's burn-in normals from its window's draw and
reduces the window as it is drawn to two sums per step.  Each stream then
gives both forecasters' disturbances as raw uniform words, a superblock at
a time, in the order of one whole-window draw: burn-in, window, forecaster
1's (dm, dc), forecaster 2's; if n exceeds a superblock, a jump follows each
piece, on to the next or back to the next superblock.  Spawn keys split the
streams from the master seed: no bit depends on batching or on order.

One variance recursion, :func:`_variance_steps`, runs time-major over a
stacked state of shape (rows, dim, reps): row 0 is the true variance, and
under ``recursive`` rows 1 and 2 are the two forecasters' own variances.
Burn-in steps advance the state but are not stored.
:func:`_experiment_diffs` scores both forecasters in closed form from three
sums per step over the coordinates of the exact normal scores, each added
left to right whatever the layout: under ``one-step`` from the window's two
sums, under ``recursive``, the only mode that runs the recursion, from its
variances.  :func:`run_experiment` draws and tests the replications in
chunks of a fixed number of innovations, so its peak memory does not grow
with the replication count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import _equicorr_logdensity
from .dist_math import EquiCorr, _check_count
from .inference import HacConfig, Hypothesis, _check_lag_cutoff, _check_level, _two_step_batch
from .scoring import _marginal_score

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
    """Half-widths of one forecaster's per-period uniform multiplicative noise:
    dm on 1 +/- delta_marg scales its volatility parameters, hence its one-step
    variances, so its standard deviations are sqrt(dm) times the true ones;
    dc on 1 +/- delta_cop makes its equicorrelation rho * dc."""

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
            try:
                EquiCorr(spec.dim, spec.rho * edge)
            except ValueError as e:
                msg = f"delta_cop={self.delta_cop} takes rho={spec.rho} to {e}"
                raise ValueError(msg) from None


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
    chol: np.ndarray, rngs: list[np.random.Generator], steps: int, skip: int = 0, sums=False
) -> np.ndarray:
    """The next ``steps`` correlated Gaussian innovations of each stream in
    ``rngs`` after ``skip`` dropped steps, time-major, shape (steps,
    len(rngs), dim); ``chol`` is the Cholesky factor of their correlation.

    Behind the view is a C-contiguous (dim, len(rngs), steps) buffer, filled
    in stream order, so the burn-in and the window drawn by two calls, or by
    one that skips the burn-in, are the rows of one draw of both.  A single
    row would be multiplied on numpy's matrix-vector path, whose result can
    differ in the last bit from the same row of a longer product, so it is
    padded with a row of zeros.  With ``sums``, the innovations are reduced
    as drawn to their sums and sums of squares per step: (2, len(rngs), steps)."""
    out = np.empty((2 if sums else len(chol), len(rngs), steps))
    for r, rng in enumerate(rngs):
        e = rng.standard_normal((skip + steps, len(chol)))[skip:]
        if steps == 1:
            e = np.vstack((e, np.zeros_like(e)))
        e = (e @ chol.T)[:steps].T  # (dim, steps); the normals are freed here
        if sums:  # the coordinates added left to right, as in _experiment_diffs
            e = sum(e[1:], e[0]), sum(np.square(e, out=e)[1:], e[0])
        out[:, r] = e
    return out if sums else out.transpose()


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
    and the window, its burn-in skipped, comes as :func:`_draw_noise` sums."""
    chol = np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())
    if not rows:
        return None, _draw_noise(chol, rngs, spec.n, spec.burn_in, sums=True)
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


# Time steps per block of _experiment_diffs and per superblock of both
# forecasters' (dm, dc) (2 MB at 120 replications); a block ends at its
# superblock's end.  A block's arrays stay far below one chunk's window, so
# the draws set the peak; longer blocks hold more temporaries, no faster.
_BLOCK_STEPS = 16
_SUPERBLOCK_STEPS = 512

# Innovations per chunk of run_experiment (float64, 32 MiB): a chunk holds
# as many replications as fit, and at least one.  A one-step chunk holds only
# sums, but larger ones measured no faster and hold more memory.
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
    replications' streams give their windows (:func:`_paths`), then raw
    ``Generator.random`` words a superblock of ``_SUPERBLOCK_STEPS`` steps
    at a time: from offset s, words s, s + n, s + 2n and s + 3n on are
    forecaster 1's dm and dc and forecaster 2's; if n exceeds a superblock,
    a jump follows each piece.  One pass maps them to low + width * u (see
    :class:`ContaminationSpec`), ``Generator.uniform``'s draws bit for bit
    with its width (1 + delta) - (1 - delta).  In blocks of ``_BLOCK_STEPS``
    steps, each forecaster is scored from three sums over the coordinates of
    the exact normal scores z = eps / sd, sd the square root of its variance
    over the true one: of log sd, z**2 and z.  The differences overwrite two
    (reps, n) planes of the window that nothing reads again.  Under
    ``one-step`` sd is sqrt(dm_k[t]) in every coordinate, so the sums follow
    from the planes S1 = sum eps and S2 = sum eps**2; d_m overwrites S2, d_c
    S1.  Under ``recursive`` one recursion runs the forecasters' own
    variances, from dm[0] * sigma2_true[0], in rows 1 and 2 of a stacked
    state beside the true variance in row 0; a block copies its innovations,
    which the recursion and the sums read, and the planes are the first two
    innovation coordinates.  Memory holds the window, one superblock of
    disturbances and one block; ``recursive`` first holds the burn-in's
    innovations, ``one-step`` one stream's normals at a time.
    """
    if variance_mode not in VARIANCE_MODES:
        raise ValueError("variance mode must be " + " or ".join(map(repr, VARIANCE_MODES)))
    rngs = [_rep_rng(seed, first + r) for r in range(reps)]
    recursive = variance_mode == "recursive"
    n = int(spec.n)  # advance overflows on a numpy integer
    h, eps = _paths(spec, rngs, 3 if recursive else 0)
    draws = np.empty((2, 2, min(n, _SUPERBLOCK_STEPS), reps))  # (forecaster, dm|dc, steps, reps)
    words = draws.reshape(4, -1, reps)  # the raw uniforms, in stream order
    half = np.array([[c.delta_marg, c.delta_cop] for c in (setting.spec1, setting.spec2)])
    low, width = (1.0 - half)[..., None, None], ((1.0 + half) - (1.0 - half))[..., None, None]
    d_m, d_c = eps.T[:2] if recursive else eps[::-1]  # (reps, n) planes of the window
    for s in range(0, n, _SUPERBLOCK_STEPS):
        steps = min(_SUPERBLOCK_STEPS, n - s)
        for r, rng in enumerate(rngs):
            for k, piece in enumerate(words[:, :steps, r]):
                piece[:] = rng.random(steps)
                if steps < n:  # on to word s + (k + 1) n, after the fourth piece back to s + steps
                    rng.bit_generator.advance(n - steps if k < 3 else -3 * n)
        drawn = draws[:, :, :steps]  # u -> low + width * u, width as Generator.uniform has it
        np.add(np.multiply(drawn, width, out=drawn), low, out=drawn)
        drawn[:, 1] *= spec.rho  # both forecasters' correlations
        for a in range(0, steps, _BLOCK_STEPS):
            b = min(a + _BLOCK_STEPS, steps)
            t = slice(s + a, s + b)
            # views per forecaster: variances over the true one, correlations
            ratio, rho = draws[:, 0, a:b], draws[:, 1, a:b]
            if recursive:  # at each step dm scales the forecasters' own variances
                e = np.ascontiguousarray(eps[t].transpose(0, 2, 1))  # (steps, dim, reps)
                var = np.empty((3, b - a, spec.dim, reps))
                dm = ratio[:, :, None].swapaxes(0, 1)  # (steps, forecaster, 1, reps)
                h = _variance_steps(spec, e, h, var.swapaxes(0, 1), dm)
                sd = np.sqrt(np.divide(var[1:], var[:1], out=var[1:]), out=var[1:])
                # coordinate-first views: (dim, forecaster, steps, reps)
                log_sd = np.log(sd).transpose(2, 0, 1, 3)
                z = np.divide(e, sd, out=sd).transpose(2, 0, 1, 3)
                log_sd, tot = sum(log_sd[1:], log_sd[0]), sum(z[1:], z[0])
                ssq = sum(np.square(z, out=z)[1:], z[0])
                del var, sd, z  # so the next block's buffer is not allocated beside it
            else:  # the normal scores eps / sqrt(dm) enter only through their sums
                ssq, tot = d_m.T[t] / ratio, d_c.T[t] / np.sqrt(ratio)
                log_sd = 0.5 * spec.dim * np.log(ratio)
            np.subtract(*_marginal_score(spec.dim, log_sd, ssq), out=d_m.T[t])
            np.subtract(*-_equicorr_logdensity(spec.dim, rho, ssq, tot), out=d_c.T[t])
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
