"""Output checks: each returns a list of problems, empty when the output is
correct.  Nothing here calls ``copulascore``; the references are the
benchmark's own."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

LABELS = {"0", "M", "C"}

# README numeric conventions: the solver stops within 1e-9 in probability
# of the target, measured with a kernel accurate to about 1e-9.  A sampled
# calibration misses when the oracle puts it further than both together.
CALIBRATION_TOL = 2e-9

# Acceptance-suite targets (percent) and their tolerances at 2000
# replications, by setting: (hypothesis, column) -> (target, tolerance).
SIM_TARGETS = {
    "i": {
        (h, col): target
        for h in ("equal", "lex")
        for col, target in (("joint", (4.8, 1.5)), ("marginal", (2.4, 1.2)), ("copula", (2.4, 1.2)))
    },
    "ii": {
        ("equal", "joint"): (90.9, 2.5),
        ("lex", "joint"): (95.2, 2.0),
        ("equal", "marginal"): (2.3, 1.2),
        ("lex", "marginal"): (2.3, 1.2),
    },
}
# Width of the binomial band, in standard errors at the workload's
# replication count, added to the acceptance tolerance.
BAND_Z = 4.0
_UNIT_CLAMP = 1e-15


def bvn_rect(s11, s12, s22, a1, b1, a2, b2) -> float:
    """P(a1 <= Z1 <= b1, a2 <= Z2 <= b2) for a centred bivariate normal, by
    adaptive quadrature of the conditional normal cdf over Z1."""
    return _integrate(s11, s12, s22, a1, b1, lambda m, sc: ndtr((b2 - m) / sc) - ndtr((a2 - m) / sc))


def _integrate(s11, s12, s22, a1, b1, conditional) -> float:
    s1 = math.sqrt(s11)
    beta = s12 / s11
    sc = math.sqrt(s22 - s12 * s12 / s11)

    def f(z):
        return math.exp(-0.5 * (z / s1) ** 2) / (s1 * math.sqrt(2.0 * math.pi)) * conditional(beta * z, sc)

    value, _ = quad(f, a1, b1, epsabs=1e-14, epsrel=1e-12, limit=200)
    return value


def second_step_prob(s11, s12, s22, hypothesis: str, c1: float, c2: float) -> float:
    """Oracle rejection probability of the second step: P(|Z1| <= c1,
    |Z2| > c2) under ``equal``, P(|Z1| <= c1, Z2 > c2) under ``lex``.
    Tails are summed directly, so nothing cancels."""
    if hypothesis == "equal":
        def tail(m, sc):
            return ndtr((-c2 - m) / sc) + ndtr((m - c2) / sc)
    else:
        def tail(m, sc):
            return ndtr((m - c2) / sc)
    return _integrate(s11, s12, s22, -c1, c1, tail)


def calibration_residual(sample) -> float:
    """|oracle second-step probability - alpha2| for one recorded call
    ``[s_mm, s_mc, s_cc, alpha, hypothesis, alpha1, c1, c2]``."""
    s11, s12, s22, alpha, hypothesis, alpha1, c1, c2 = sample
    alpha2 = alpha / 2.0 if alpha1 is None else alpha - alpha1
    return abs(second_step_prob(s11, s12, s22, hypothesis, c1, c2) - alpha2)


def check_simulate(csv_text: str, setting: str, reps: int) -> list[str]:
    """Rejection rates inside a binomial band around the acceptance targets."""
    rows = {r["hypothesis"]: r for r in csv.DictReader(io.StringIO(csv_text))}
    problems = []
    for (h, col), (target, tol) in SIM_TARGETS[setting].items():
        if h not in rows:
            problems.append(f"no {h} row in the simulate table")
            continue
        got = float(rows[h][f"{col}_pct"])
        p = target / 100.0
        band = tol + BAND_Z * 100.0 * math.sqrt(p * (1.0 - p) / reps)
        if abs(got - target) > band:
            problems.append(f"{h} {col}_pct {got} outside {target} +- {band:.2f}")
    return problems


def check_matrix(stdout: str, csv_text: str) -> list[str]:
    """``equal`` attribution matrix: square, empty diagonal, labels in
    {0, M, C}, symmetric, and the CSV agrees with the JSON."""
    payload = json.loads(stdout)
    models, labels = payload["models"], payload["attribution"]
    k = len(models)
    problems = []
    if len(labels) != k or any(len(row) != k for row in labels):
        return [f"attribution matrix is not {k}x{k}"]
    for i in range(k):
        if labels[i][i] is not None:
            problems.append(f"diagonal entry {models[i]} is {labels[i][i]!r}")
        for j in range(k):
            if i != j and labels[i][j] not in LABELS:
                problems.append(f"({models[i]}, {models[j]}) label {labels[i][j]!r}")
            if labels[i][j] != labels[j][i]:
                problems.append(f"({models[i]}, {models[j]}) differs from its transpose")
    rows = list(csv.reader(io.StringIO(csv_text)))
    expected = [["model", *models]] + [
        [models[i], *(v or "" for v in labels[i])] for i in range(k)
    ]
    if rows != expected:
        problems.append("matrix CSV disagrees with the JSON report")
    return problems


def reference_scores(y: np.ndarray, sigma: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(marginal, copula) log-scores, shape (models, periods, 2), with the
    copula density from the dense correlation matrix (``slogdet`` and
    ``solve``) rather than the closed forms the package uses."""
    x = y[None, :, :] / sigma
    s_marg = np.sum(0.5 * math.log(2.0 * math.pi) + np.log(sigma) + 0.5 * x * x, axis=-1)
    z = ndtri(np.clip(ndtr(x), _UNIT_CLAMP, 1.0 - _UNIT_CLAMP))
    dim = y.shape[1]
    corr = rho[..., None, None] * np.ones((dim, dim)) + (1.0 - rho[..., None, None]) * np.eye(dim)
    _, logdet = np.linalg.slogdet(corr)
    quadform = np.einsum("...i,...i->...", z, np.linalg.solve(corr, z[..., None])[..., 0])
    log_c = -0.5 * logdet - 0.5 * (quadform - np.sum(z * z, axis=-1))
    return np.stack([s_marg, -log_c], axis=-1)


def check_pairs(scores: np.ndarray, tests: list, y, sigma, rho) -> list[str]:
    """Scores match the reference scorer; every ordered pair was tested,
    labels are valid, and marginal-step rejections are symmetric (the
    marginal step is two-sided under ``lex`` too)."""
    problems = []
    ref = reference_scores(y, sigma, rho)
    if scores.shape != ref.shape:
        return [f"scores have shape {scores.shape}, expected {ref.shape}"]
    bad = ~np.isclose(scores, ref, rtol=1e-9, atol=1e-9)
    if bad.any():
        problems.append(
            f"{int(bad.sum())} scores differ from the reference "
            f"(max abs diff {float(np.max(np.abs(scores - ref))):.3g})"
        )
    models = sigma.shape[0]
    labels = {(i, j): label for i, j, label, *_ in tests}
    if len(labels) != models * (models - 1):
        problems.append(f"{len(labels)} pair tests, expected {models * (models - 1)}")
        return problems
    for (i, j), label in labels.items():
        if label not in LABELS:
            problems.append(f"pair ({i}, {j}) label {label!r}")
        if (label == "M") != (labels[(j, i)] == "M"):
            problems.append(f"pair ({i}, {j}) marginal-step rejection is not symmetric")
    return problems
