"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest -s``).  Simulation runs are shared across criteria
(and with the harness property tests) through the session cache in
``conftest.py``, keyed by (setting, n).

Tolerances follow the stated targets at 2000 replications; the master seed
was fixed up front and not searched over.
"""

import json
import math

import numpy as np
from scipy.stats import norm
from conftest import dense_copula_logdensity, step_probs

from copulascore.cli import main
from copulascore.copulas import (
    Comonotone,
    Independence,
    LOWER_RIGHT,
    Mixture2D,
    UPPER_RIGHT,
    gaussian_logdensity_from_scores,
)
from copulascore.dist_math import EquiCorr, norm_quantile
from copulascore.inference import (
    HacConfig,
    Hypothesis,
    LongRunCov,
    ScoreDiffSeries,
    critical_values,
    hac_cov,
)
from copulascore.scoring import score_arrays
from copulascore.sim_harness import SETTINGS, DgpSpec, run_experiment

from conftest import ALPHA, MASTER_SEED


def _report(num: int, detail: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num}: {detail}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_size_table(freq):
    rows = freq("i", 150)
    eq, lex = rows["equal"], rows["lex"]
    checks = [
        abs(eq.joint_pct - 4.8) <= 1.5,
        abs(lex.joint_pct - 4.8) <= 1.5,
        abs(eq.marginal_pct - 2.4) <= 1.2,
        abs(eq.copula_pct - 2.4) <= 1.2,
        abs(lex.marginal_pct - 2.4) <= 1.2,
        abs(lex.copula_pct - 2.4) <= 1.2,
        freq.seconds[("i", 150, "one-step")] < 120.0,
    ]
    detail = (
        f"setting (i) n=150: joint eq={eq.joint_pct:.2f} lex={lex.joint_pct:.2f} "
        f"(target 4.8+-1.5), steps eq={eq.marginal_pct:.2f}/{eq.copula_pct:.2f} "
        f"lex={lex.marginal_pct:.2f}/{lex.copula_pct:.2f} (target 2.4+-1.2), "
        f"{freq.seconds[('i', 150, 'one-step')]:.1f}s"
    )
    _report(1, detail, all(checks))


def test_criterion_2_power_table(freq):
    rows = freq("ii", 300)
    eq, lex = rows["equal"], rows["lex"]
    checks = [
        abs(eq.joint_pct - 90.9) <= 2.5,
        abs(lex.joint_pct - 95.2) <= 2.0,
        abs(eq.marginal_pct - 2.3) <= 1.2,
        abs(lex.marginal_pct - 2.3) <= 1.2,
    ]
    detail = (
        f"setting (ii) n=300: joint eq={eq.joint_pct:.2f} (target 90.9+-2.5) "
        f"lex={lex.joint_pct:.2f} (target 95.2+-2), marginal-step "
        f"eq={eq.marginal_pct:.2f} lex={lex.marginal_pct:.2f} (target 2.3+-1.2)"
    )
    _report(2, detail, all(checks))


def test_criterion_3_attribution(freq):
    rows = freq("iv", 300)
    eq, lex = rows["equal"], rows["lex"]
    checks = [
        abs(eq.marginal_pct - 70.0) <= 3.0,
        abs(lex.marginal_pct - 70.0) <= 3.0,
        eq.copula_pct <= 5.0,
        lex.copula_pct <= 5.0,
    ]
    detail = (
        f"setting (iv) n=300: marginal-step eq={eq.marginal_pct:.2f} "
        f"lex={lex.marginal_pct:.2f} (target 70+-3), copula-step "
        f"eq={eq.copula_pct:.2f} lex={lex.copula_pct:.2f} (<= 5)"
    )
    _report(3, detail, all(checks))


def test_criterion_4_power_orderings(freq):
    checks = []
    lines = []
    for n in (150, 300):
        for h in ("equal", "lex"):
            p_ii = freq("ii", n)[h].joint_pct
            p_iii = freq("iii", n)[h].joint_pct
            checks.append(p_ii > p_iii)
            # marginal misspecification also drains the copula step itself
            checks.append(freq("ii", n)[h].copula_pct > freq("iii", n)[h].copula_pct)
            lines.append(f"{h}@{n}: ii={p_ii:.1f}>iii={p_iii:.1f}")
    for s in ("ii", "iii", "iv", "v"):
        for n in (150, 300):
            p_eq = freq(s, n)["equal"].joint_pct
            p_lex = freq(s, n)["lex"].joint_pct
            checks.append(p_lex >= p_eq)
        checks.append(freq(s, 300)["equal"].joint_pct > freq(s, 150)["equal"].joint_pct)
        checks.append(freq(s, 300)["lex"].joint_pct > freq(s, 150)["lex"].joint_pct)
    _report(4, "orderings " + "; ".join(lines), all(checks))


def test_criterion_5_critical_value_solver():
    om = LongRunCov(1.0, 0.0, 1.0)
    c1, c2_eq = critical_values(om, ALPHA, Hypothesis.EQUAL)
    _, c2_lex = critical_values(om, ALPHA, Hypothesis.LEX_SUPERIORITY)
    # closed forms under independence
    c1_exact = norm_quantile(1 - ALPHA / 4)
    tail = (ALPHA / 2) / (1 - ALPHA / 2)
    c2_eq_exact = norm_quantile(1 - tail / 2)
    c2_lex_exact = norm_quantile(1 - tail)
    checks = [
        abs(c1 - c1_exact) <= 1e-6,
        abs(c2_eq - c2_eq_exact) <= 1e-6,
        abs(c2_lex - c2_lex_exact) <= 1e-6,
    ]

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        s_mm = rng.uniform(0.3, 3.0)
        s_cc = rng.uniform(0.3, 3.0)
        corr = rng.uniform(-0.95, 0.95)
        om = LongRunCov(s_mm, corr * math.sqrt(s_mm * s_cc), s_cc)
        hyp = Hypothesis.EQUAL if rng.random() < 0.5 else Hypothesis.LEX_SUPERIORITY
        c1, c2 = critical_values(om, ALPHA, hyp)
        p1, p2 = step_probs(om, c1, c2, hyp)
        worst = max(worst, abs(p1 + p2 - ALPHA))
    checks.append(worst <= 1e-7)
    detail = (
        f"c1={c1_exact:.4f}, c2(eq)={c2_eq_exact:.4f}, c2(lex)={c2_lex_exact:.4f} "
        f"reproduced to 1e-6; size identity worst error {worst:.2e} over 50 PD matrices"
    )
    _report(5, detail, all(checks))


def test_criterion_6_exact_identities():
    rng = np.random.default_rng(66)
    worst_decomp = 0.0
    for _ in range(10**4):
        dim = int(rng.integers(2, 6))
        sigma = rng.uniform(0.2, 3.0, dim)
        rho = rng.uniform(-1.0 / (dim - 1) + 0.05, 0.95)
        y = rng.standard_normal(dim) * sigma
        # s_m + s_c is the negated N(0, D R D) log density at y: the dense
        # copula density at y / sigma plus the normal marginal densities
        s_m, s_c = score_arrays(y, sigma, rho)
        dense = dense_copula_logdensity(EquiCorr(dim, rho), y / sigma) + float(
            norm.logpdf(y, scale=sigma).sum()
        )
        worst_decomp = max(worst_decomp, abs(s_m + s_c + dense) / max(1.0, abs(dense)))

    d = ScoreDiffSeries(rng.standard_normal(128), rng.standard_normal(128))
    got = hac_cov(d, HacConfig())
    x = np.column_stack([d.d_m, d.d_c])
    expected = np.cov(x.T, bias=True)
    worst_hac = max(
        abs(got.s_mm - expected[0, 0]),
        abs(got.s_mc - expected[0, 1]),
        abs(got.s_cc - expected[1, 1]),
    )

    worst_equi = 0.0
    for dim in range(2, 9):
        for rho in (-0.1, 0.0, 0.25, 0.5, 0.9):
            z = rng.standard_normal(dim)
            dense = dense_copula_logdensity(EquiCorr(dim, rho), z)
            err = abs(gaussian_logdensity_from_scores(dim, rho, z) - dense)
            worst_equi = max(worst_equi, err / max(abs(dense), 1.0))

    checks = [worst_decomp <= 1e-12, worst_hac <= 1e-14, worst_equi <= 1e-10]
    detail = (
        f"s_m + s_c vs dense joint density worst rel {worst_decomp:.2e} (1e4 cases), "
        f"hac(m=0) vs sample cov worst {worst_hac:.2e}, "
        f"equicorrelation vs dense worst rel {worst_equi:.2e}"
    )
    _report(6, detail, all(checks))


def test_criterion_7_counterexample_suite():
    c = Mixture2D(Independence(2), UPPER_RIGHT)
    u = c.sample(10**5, seed=MASTER_SEED)
    forbidden = np.mean((u[:, 0] <= 0.5) & (u[:, 1] > 0.5)) + np.mean(
        (u[:, 0] > 0.5) & (u[:, 1] <= 0.5)
    )

    grid = np.linspace(0.0, 1.0, 101)
    witness = max(abs(c.cdf((a, b)) - a * b) for a in grid for b in grid)
    fixed_ur = max(
        abs(Mixture2D(Comonotone(2), UPPER_RIGHT).cdf((a, b)) - min(a, b))
        for a in grid
        for b in grid
    )
    moved_lr = max(
        abs(Mixture2D(Comonotone(2), LOWER_RIGHT).cdf((a, b)) - min(a, b))
        for a in grid
        for b in grid
    )
    checks = [forbidden <= 0.001, witness >= 0.2, fixed_ur <= 1e-12, moved_lr > 0.0]
    detail = (
        f"forbidden-quarter mass {forbidden:.4%} (<=0.1%), witness gap "
        f"{witness:.3f} (>=0.2), comonotone ur-fixed to {fixed_ur:.1e}, "
        f"lr displacement {moved_lr:.3f}"
    )
    _report(7, detail, all(checks))


def test_criterion_8_copula_score_propriety():
    from scipy.special import ndtr, ndtri

    n = 10**6
    rho = 0.5
    rng = np.random.default_rng(MASTER_SEED)
    chol = np.linalg.cholesky([[1.0, rho], [rho, 1.0]])
    y = rng.standard_normal((n, 2)) @ chol.T
    z = ndtri(np.clip(ndtr(y), 1e-15, 1 - 1e-15))

    def cop_scores(r):
        return -gaussian_logdensity_from_scores(2, r, z)

    true_scores = cop_scores(rho)
    gaps = []
    for bad in (0.2, 0.8):
        diff = true_scores - cop_scores(bad)
        se = diff.std(ddof=1) / math.sqrt(n)
        gaps.append(-diff.mean() / se)
    detail = (
        f"true-copula score beats rho=0.2 by {gaps[0]:.1f} SE and rho=0.8 by "
        f"{gaps[1]:.1f} SE at 1e6 draws (need >3)"
    )
    _report(8, detail, all(g > 3 for g in gaps))


def test_criterion_9_determinism(tmp_path, capsys):
    sim_args = [
        "simulate", "--setting", "i", "--n", "40", "--reps", "6",
        "--seed", "17", "--burn-in", "20",
    ]
    assert main(sim_args + ["--out", str(tmp_path / "a")]) == 0
    assert main(sim_args + ["--out", str(tmp_path / "b")]) == 0
    sim_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes() and (
        tmp_path / "a.json"
    ).read_bytes() == (tmp_path / "b.json").read_bytes()

    demo_args = [
        "cxls-demo", "--base", "countermonotone", "--direction", "lr",
        "--samples", "500", "--seed", "17",
    ]
    assert main(demo_args + ["--out", str(tmp_path / "d1.csv")]) == 0
    assert main(demo_args + ["--out", str(tmp_path / "d2.csv")]) == 0
    demo_ok = (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    capsys.readouterr()
    # compare determinism: identical stdout for identical inputs
    from copulascore.cli import write_scores

    # columns s_marg_1, s_cop_1, s_marg_2, s_cop_2, each drawn in that order
    columns = np.random.default_rng(18).standard_normal((4, 60))
    write_scores(tmp_path / "s.csv", np.arange(1.0, 61.0), columns.T.reshape(60, 2, 2))
    assert main(["compare", "--scores", str(tmp_path / "s.csv")]) == 0
    out1 = capsys.readouterr().out
    assert main(["compare", "--scores", str(tmp_path / "s.csv")]) == 0
    out2 = capsys.readouterr().out
    compare_ok = out1 == out2 and json.loads(out1)

    table_ok = run_experiment(
        DgpSpec(n=50, burn_in=30), SETTINGS["ii"], reps=10, alpha=ALPHA, seed=23
    ) == run_experiment(
        DgpSpec(n=50, burn_in=30), SETTINGS["ii"], reps=10, alpha=ALPHA, seed=23
    )
    detail = (
        f"simulate bytes identical: {sim_ok}; cxls-demo bytes identical: "
        f"{demo_ok}; compare stdout identical: {bool(compare_ok)}; "
        f"tables equal: {table_ok} (single-threaded, seed-split streams)"
    )
    _report(9, detail, sim_ok and demo_ok and bool(compare_ok) and table_ok)


def test_criterion_10_recursive_variances(freq):
    """Under ``recursive`` the forecasters run their own GARCH recursions,
    so the truth's dynamics enter the score differences.  Size (i), power
    (ii) and attribution (ii, iv) at n = 300 keep the targets and
    tolerances of criteria 1-3 where they apply.  The marginal-step power
    of (iv) does not: a recursive forecast's variance over the true one is
    r_t = dm_t * (1 + w_t * (r_{t-1} - 1)) with 0 < w_t <= beta0, so each
    disturbance carries into later steps and the marginals are further off
    than under ``one-step``.  Its target is therefore at least the
    ``one-step`` rate of the same table, with the copula step <= 5 as in
    criterion 3 and more than 90% of the rejections at the marginal step."""
    rec = {s: freq(s, 300, "recursive") for s in ("i", "ii", "iv")}
    size, power, attr = rec["i"], rec["ii"], rec["iv"]
    checks, lines = [], []
    for h in ("equal", "lex"):
        row = size[h]
        checks += [
            abs(row.joint_pct - 4.8) <= 1.5,
            abs(row.marginal_pct - 2.4) <= 1.2,
            abs(row.copula_pct - 2.4) <= 1.2,
        ]
        lines.append(f"i {h} {row.marginal_pct:.2f}/{row.copula_pct:.2f}")
    for h, target, tol in (("equal", 90.9, 2.5), ("lex", 95.2, 2.0)):
        row = power[h]
        checks += [
            abs(row.joint_pct - target) <= tol,
            abs(row.marginal_pct - 2.3) <= 1.2,
            row.copula_pct / row.joint_pct > 0.9,
        ]
        lines.append(f"ii {h} joint {row.joint_pct:.2f} (target {target}+-{tol})")
    for h in ("equal", "lex"):
        row = attr[h]
        one_step = freq("iv", 300)[h].marginal_pct
        checks += [
            row.marginal_pct >= one_step,
            row.copula_pct <= 5.0,
            row.marginal_pct / row.joint_pct > 0.9,
        ]
        lines.append(
            f"iv {h} {row.marginal_pct:.2f}/{row.copula_pct:.2f} (marginal >= {one_step:.2f})"
        )
    _report(10, "recursive n=300: " + "; ".join(lines), all(checks))
