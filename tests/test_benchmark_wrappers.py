"""The benchmark's traced run (``perfbench/child.py``) wraps package
attributes by name, so renaming or deleting one of them makes every traced
invocation fail, which the untraced end-to-end runs never show.  This runs
one small traced invocation in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_cli_invocation_succeeds(tmp_path):
    job = {
        "argv": ["compare", "--matrix", "fixtures/synthetic_model_scores"],
        "report": str(tmp_path / "report.json"),
        "spans": str(tmp_path / "spans.pkl"),
    }
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "cli", "1", str(job_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["error"] is None
