"""The benchmark's traced run (``perfbench/child.py``) wraps package
attributes by name, so renaming or deleting one of them makes every traced
invocation fail, which the untraced end-to-end runs never show.  These run
one small traced invocation of each mode in a fresh process."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_traced(mode: str, job: dict, tmp_path: Path) -> dict:
    job = dict(job, report=str(tmp_path / "report.json"), spans=str(tmp_path / "spans.pkl"))
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", mode, "1", str(job_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))


def test_traced_cli_invocation_succeeds(tmp_path):
    job = {"argv": ["compare", "--matrix", "fixtures/synthetic_model_scores"]}
    assert run_traced("cli", job, tmp_path)["error"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--scores", "fixtures/synthetic_scores.csv"],
        ["compare", "--scores", "fixtures/synthetic_densities.csv", "--format", "densities"],
    ],
)
def test_traced_compare_invocation_counts_parsed_rows(argv, tmp_path):
    # the trace's parse hook reads the time index from each reader's result
    report = run_traced("cli", {"argv": argv}, tmp_path)
    assert report["error"] is None and report["rc"] == 0
    with open(tmp_path / "spans.pkl", "rb") as fh:
        assert pickle.load(fh)["counts"]["parse_rows"] == 223


def test_traced_library_invocation_succeeds(tmp_path):
    # the README library flow on 2 forecasters x 30 periods x 3 dimensions
    rng = np.random.default_rng(3)
    inputs = tmp_path / "pairs.npz"
    np.savez(
        inputs,
        y=rng.standard_normal((30, 3)),
        sigma=rng.uniform(0.5, 2.0, (2, 30, 3)),
        rho=rng.uniform(-0.3, 0.8, (2, 30)),
    )
    out = tmp_path / "out"
    out.mkdir()
    job = {"inputs": str(inputs), "out": str(out)}
    assert run_traced("library", job, tmp_path)["error"] is None
    assert len(json.loads((out / "tests.json").read_text(encoding="utf-8"))) == 2
