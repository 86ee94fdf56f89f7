"""Tests of the benchmark's own parts: the quadrature oracle, the input
generators, the tracer and the output checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "perfbench"), str(_ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer, child_time_under, load, summarize  # noqa: E402


@pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.3, 0.9, 0.999])
def test_oracle_orthant_probability(rho):
    got = checks.bvn_rect(1.0, rho, 1.0, -math.inf, 0.0, -math.inf, 0.0)
    assert got == pytest.approx(0.25 + math.asin(rho) / (2.0 * math.pi), abs=1e-12)


@pytest.mark.parametrize("hypothesis", ["equal", "lex"])
def test_second_step_prob_matches_rectangle_complement(hypothesis):
    s11, s12, s22, c1, c2 = 2.0, 0.6, 0.5, 2.1, 1.3
    band = checks.bvn_rect(s11, s12, s22, -c1, c1, -math.inf, math.inf)
    lo = -c2 if hypothesis == "equal" else -math.inf
    inside = checks.bvn_rect(s11, s12, s22, -c1, c1, lo, c2)
    got = checks.second_step_prob(s11, s12, s22, hypothesis, c1, c2)
    assert got == pytest.approx(band - inside, abs=1e-12)


def test_calibration_residual_of_package_critical_values():
    from copulascore.inference import Hypothesis, LongRunCov, critical_values

    omega = LongRunCov(1.5, 0.4, 0.8)
    c1, c2 = critical_values(omega, 0.05, Hypothesis.LEX_SUPERIORITY)
    sample = [1.5, 0.4, 0.8, 0.05, "lex", None, c1, c2]
    assert checks.calibration_residual(sample) <= checks.CALIBRATION_TOL


def test_matrix_generator_is_deterministic(tmp_path):
    first = inputs.write_matrix_inputs(tmp_path / "a", 7)
    second = inputs.write_matrix_inputs(tmp_path / "b", 7)
    other = inputs.write_matrix_inputs(tmp_path / "c", 8)
    assert first == second != other
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert len(list((tmp_path / "a").iterdir())) == inputs.MATRIX_MODELS


def test_pair_generator_is_deterministic(tmp_path):
    assert inputs.write_pair_inputs(tmp_path / "a.npz", 3) == inputs.write_pair_inputs(
        tmp_path / "b.npz", 3
    )
    y, sigma, rho = inputs.pair_inputs(3)
    assert sigma.shape == (inputs.PAIRS_MODELS, inputs.PAIRS_PERIODS, inputs.PAIRS_DIM)
    assert np.all(sigma > 0) and np.all(np.abs(rho) < 1)
    assert not np.array_equal(y, inputs.pair_inputs(4)[0])


def test_wrappers_record_spans_and_restore_originals(tmp_path):
    from copulascore import inference
    from copulascore.inference import HacConfig, ScoreDiffSeries

    names = ["bvn_rect_prob", "critical_values", "hac_cov", "two_step_test"]
    originals = {n: getattr(inference, n) for n in names}
    tracer = Tracer()
    for n in names:
        tracer.wrap(inference, n, n)
    rng = np.random.default_rng(0)
    d = ScoreDiffSeries(rng.standard_normal(200), rng.standard_normal(200))
    with tracer.span("entry"):
        inference.two_step_test(d, HacConfig(), 0.05, "lex")
    tracer.restore()
    assert all(getattr(inference, n) is originals[n] for n in names)

    tracer.dump(tmp_path / "spans.pickle")
    table = summarize(load(tmp_path / "spans.pickle")["spans"])
    assert table["two_step_test"]["calls"] == 1
    assert table["hac_cov"]["calls"] == table["critical_values"]["calls"] == 1
    assert table["bvn_rect_prob"]["calls"] >= 2
    assert table["entry"]["self_s"] < table["entry"]["s"]


def test_wrapper_flags_and_reraises_errors():
    owner = types.SimpleNamespace(f=lambda: 1 / 0)
    original = owner.f
    tracer = Tracer()
    tracer.wrap(owner, "f", "f")
    with pytest.raises(ZeroDivisionError):
        owner.f()
    tracer.restore()
    assert owner.f is original
    assert summarize(tracer.spans)["f"]["failed"] == 1


def test_summarize_self_times():
    spans = [
        ["outer", 0.0, 10.0, -1, False],
        ["inner", 1.0, 4.0, 0, False],
        ["leaf", 2.0, 3.0, 1, False],
        ["inner", 5.0, 7.0, 0, False],
    ]
    table = summarize(spans)
    assert table["outer"]["self_s"] == pytest.approx(5.0)
    assert table["inner"] == {"calls": 2, "failed": 0, "s": 5.0, "self_s": 4.0}
    assert child_time_under(spans, "inner", {"outer"}) == pytest.approx(5.0)
    assert child_time_under(spans, "leaf", {"outer"}) == 0


def test_check_matrix_flags_asymmetry_and_bad_labels():
    payload = {"models": ["a", "b"], "attribution": [[None, "M"], ["M", None]]}
    csv_text = "model,a,b\na,,M\nb,M,\n"
    assert checks.check_matrix(json.dumps(payload), csv_text) == []
    payload["attribution"][1][0] = "C"
    assert any("transpose" in p for p in checks.check_matrix(json.dumps(payload), csv_text))
    payload["attribution"] = [[None, "X"], ["X", None]]
    assert any("label" in p for p in checks.check_matrix(json.dumps(payload), "model,a,b\na,,X\nb,X,\n"))


def test_check_simulate_band():
    table = (
        "hypothesis,setting,n,marginal_pct,copula_pct,joint_pct,reps,seed\n"
        "equal,ii,300,2,89,91,400,1\nlex,ii,300,2,93,95,400,1\n"
    )
    assert checks.check_simulate(table, "ii", 400) == []
    assert checks.check_simulate(table.replace(",91,", ",60,"), "ii", 400)


def test_reference_scorer_matches_package():
    from copulascore import EquiCorr, GaussianEquiCorr, MarginalForecast, bivariate_score

    y, sigma, rho = inputs.pair_inputs(5, models=2, periods=20)
    ref = checks.reference_scores(y, sigma, rho)
    for k in range(2):
        for t in range(20):
            f = MarginalForecast(sigma=sigma[k, t])
            c = GaussianEquiCorr(EquiCorr(y.shape[1], float(rho[k, t])))
            assert np.allclose(bivariate_score(c, f, y[t]), ref[k, t], rtol=1e-9, atol=1e-9)
