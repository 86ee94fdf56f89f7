"""Spawning one fresh child process and measuring it from outside, plus the
host record that goes with every result."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Pinned identically on every commit: multi-threaded BLAS start-up alone
# moves import time by a third (0.37 s pinned, 0.49 s by default, medians of
# six on a two-core Xeon host).
CHILD_ENV = {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
CHILD_SCRIPT = "perfbench/child.py"
REFERENCE_SCRIPT = "perfbench/reference.py"
CHILD_TIMEOUT_S = 60.0


@dataclass
class Invocation:
    """One child process as seen from outside, plus its own report."""

    wall_s: float
    exit_code: int
    cpu_s: float
    peak_rss_mb: float
    minflt: int
    report: dict | None
    stdout: bytes
    traced: bool
    # Mean wall time of the reference program run just before and just
    # after this invocation.
    ref_s: float = 0.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def warm_up(root: Path) -> None:
    """Import the package once, untimed: byte-compiles it and fills the file
    cache, costs a user pays once and not on every run."""
    subprocess.run([sys.executable, "-c", "import copulascore.cli"], cwd=root, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)


def run_reference(root: Path) -> float:
    """Wall time of one run of the fixed reference program, spawn to exit."""
    start = perf_counter()
    subprocess.run([sys.executable, REFERENCE_SCRIPT], cwd=root, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def run_child(root: Path, mode: str, trace: bool, job: dict, job_dir: Path) -> Invocation:
    """Run one child to completion and return its measurements.

    Wall time runs from spawn to the parent reaping the child; CPU time,
    peak RSS and minor faults come from that child's own rusage.
    """
    job_dir.mkdir(parents=True, exist_ok=True)
    job_path = job_dir / "job.json"
    report_path = root / job["report"]
    report_path.unlink(missing_ok=True)
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = child_env()
    rel_job = str(job_path.relative_to(root))
    with open(job_dir / "stdout", "wb") as out, open(job_dir / "stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD_SCRIPT, mode, "1" if trace else "0", rel_job],
            cwd=root, env=env, stdout=out, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else None
    return Invocation(
        wall_s=wall,
        exit_code=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        minflt=usage.ru_minflt,
        report=report,
        stdout=(job_dir / "stdout").read_bytes(),
        traced=trace,
    )


def median(values) -> float:
    """Median, or 0.0 when nothing was measured (every invocation failed, so
    the result is already marked incorrect)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    """Host facts every result is read against."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "child_env": CHILD_ENV,
        "child": " ".join(
            [*(f"{k}={v}" for k, v in CHILD_ENV.items()), "python3", CHILD_SCRIPT, "MODE TRACE JOB"]
        ),
    }
