"""Shared fixtures: one lazily filled cache of 2000-replication experiment
runs, keyed by (setting, n, variance mode), so the acceptance criteria and
the harness property tests never repeat a simulation; an adaptive-quadrature
oracle for bivariate normal rectangle probabilities; the step rejection
probabilities of a pair of critical values; and a dense-matrix oracle for
the Gaussian equicorrelation copula density."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from copulascore.dist_math import bvn_rect_prob
from copulascore.inference import Hypothesis
from copulascore.sim_harness import SETTINGS, VARIANCE_MODES, DgpSpec, run_experiment

MASTER_SEED = 20260809
REPS = 2000
ALPHA = 0.05

_cache: dict = {}
_seconds: dict = {}


def _get(setting: str, n: int, variance_mode: str = VARIANCE_MODES[0]):
    key = (setting, n, variance_mode)
    if key not in _cache:
        start = time.perf_counter()
        table = run_experiment(
            DgpSpec(n=n), SETTINGS[setting], reps=REPS, alpha=ALPHA, seed=MASTER_SEED,
            variance_mode=variance_mode,
        )
        _seconds[key] = time.perf_counter() - start
        _cache[key] = {row.hypothesis: row for row in table}
    return _cache[key]


_get.seconds = _seconds


@pytest.fixture(scope="session")
def freq():
    return _get


def quad_bvn_rect(rho: float, a1: float, b1: float, a2: float, b2: float) -> float:
    """Independent oracle: P(a1 <= Z1 <= b1, a2 <= Z2 <= b2) for standard
    normals with correlation ``rho``, by adaptive quadrature over Z1 of the
    conditional normal cdf of Z2.

    As |rho| -> 1 the conditional cdf becomes a step of width
    sqrt(1 - rho**2) at z = a2/rho and z = b2/rho.  Each step and a band of
    ten widths on either side are breakpoints, so the quadrature resolves it
    instead of stepping over it.
    """
    r = math.sqrt((1.0 - rho) * (1.0 + rho))
    lo, hi = max(a1, -40.0), min(b1, 40.0)

    def integrand(z):
        upper = ndtr((b2 - rho * z) / r) if b2 != math.inf else 1.0
        lower = ndtr((a2 - rho * z) / r) if a2 != -math.inf else 0.0
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * (upper - lower)

    points = []
    if rho != 0.0:
        width = 10.0 * r / abs(rho)
        for limit in (a2, b2):
            if math.isfinite(limit):
                step = limit / rho
                points += [p for p in (step - width, step, step + width) if lo < p < hi]
    value, _ = quad(
        integrand, lo, hi, points=sorted(points) or None, epsabs=1e-15, epsrel=1e-13, limit=500
    )
    return value


def step_probs(om, c1: float, c2: float, hypothesis) -> tuple[float, float]:
    """Rejection probabilities (first step, second step) of the critical
    values (c1, c2) on the bivariate normal limit N(0, om), from the kernel
    on the standardized limits."""
    rho = om.correlation()
    h, k = c1 / math.sqrt(om.s_mm), c2 / math.sqrt(om.s_cc)
    band = bvn_rect_prob(rho, -h, h, -math.inf, math.inf)
    if hypothesis is Hypothesis.EQUAL:
        p2 = band - bvn_rect_prob(rho, -h, h, -k, k)
    else:
        p2 = bvn_rect_prob(rho, -h, h, k, math.inf)
    return 1.0 - band, p2


def dense_copula_logdensity(ec, z) -> float:
    """Independent oracle: log density of the Gaussian copula with the dense
    correlation matrix R of ``ec`` at normal scores ``z``, as the joint normal
    log density minus the sum of the marginal ones,
    -(log det R + z' R^-1 z - z' z) / 2, by ``slogdet`` and ``solve`` on R."""
    r = ec.matrix()
    sign, logdet = np.linalg.slogdet(r)
    assert sign == 1.0
    z = np.asarray(z, dtype=float)
    return float(-0.5 * (logdet + z @ np.linalg.solve(r, z) - z @ z))
