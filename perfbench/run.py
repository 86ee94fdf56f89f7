"""copulascore benchmark: fresh-process workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each invocation of a workload is one fresh
Python process (``PYTHONPATH=src``, BLAS pinned to one thread), because
every CLI user pays for interpreter start and the package import.
Invocations run one after another until ``--seconds`` have passed (at
least :data:`MIN_INVOCATIONS`), and each metric is the median over them.
The fixed program ``reference.py`` runs before the first invocation and
after each one, so that wall time can be given relative to the host's
current speed.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced invocations alternate, and the
per-layer metrics come from the traced ones.  The last line of stdout is the JSON result.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import inputs
from harness import Invocation, host_record, median, run_child, run_reference, warm_up
from tracer import child_time_under, summarize
from tracer import load as load_spans

WORK_DIR = ".perfbench"
MIN_INVOCATIONS = 3
ORACLE_SAMPLES = 40
SIM_POWER_REPS = 300
SIM_LONG_REPS = 120


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "cli" or "library"
    ops: int  # operations per invocation
    prepare: Callable[[Path, Path, int], tuple[dict, str]]  # -> (job fields, input digest)
    check: Callable[[Path, Invocation], list[str]]


def _rel(root: Path, path: Path) -> str:
    return str(path.relative_to(root))


def _simulate(setting: str, n: int, reps: int, extra: list[str]):
    def prepare(root: Path, work: Path, seed: int):
        argv = ["simulate", "--setting", setting, "--n", str(n), "--reps", str(reps),
                "--seed", str(seed), "--out", _rel(root, work / "out" / "table"), *extra]
        return {"argv": argv}, hashlib.sha256(" ".join(argv).encode()).hexdigest()

    def check(work: Path, inv: Invocation) -> list[str]:
        table = (work / "out" / "table.csv").read_text(encoding="utf-8")
        problems = checks.check_simulate(table, setting, reps)
        if inv.stdout.decode("utf-8") != table:
            problems.append("stdout differs from the CSV table")
        return problems

    return prepare, check


def _matrix_prepare(root: Path, work: Path, seed: int):
    digest = inputs.write_matrix_inputs(work / "models", seed)
    argv = ["compare", "--matrix", _rel(root, work / "models"), "--hypothesis", "equal",
            "--hac-lags", "4", "--hac-weights", "bartlett",
            "--out", _rel(root, work / "out" / "matrix.csv")]
    return {"argv": argv}, digest


def _matrix_check(work: Path, inv: Invocation) -> list[str]:
    csv_text = (work / "out" / "matrix.csv").read_text(encoding="utf-8")
    return checks.check_matrix(inv.stdout.decode("utf-8"), csv_text)


def _pairs_prepare(root: Path, work: Path, seed: int):
    path = work / "pairs.npz"
    digest = inputs.write_pair_inputs(path, seed)
    return {"inputs": _rel(root, path)}, digest


def _pairs_check(work: Path, inv: Invocation) -> list[str]:
    data = np.load(work / "pairs.npz")
    scores = np.load(work / "out" / "scores.npy")
    tests = json.loads((work / "out" / "tests.json").read_text(encoding="utf-8"))
    return checks.check_pairs(scores, tests, data["y"], data["sigma"], data["rho"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-power", "cli", SIM_POWER_REPS,
                 *_simulate("ii", 300, SIM_POWER_REPS, [])),
        Workload("simulate-long", "cli", SIM_LONG_REPS,
                 *_simulate("i", 4000, SIM_LONG_REPS,
                            ["--hac-lags", "8", "--hac-weights", "bartlett",
                             "--variance-mode", "recursive"])),
        Workload("compare-matrix", "cli", inputs.MATRIX_MODELS * (inputs.MATRIX_MODELS - 1),
                 _matrix_prepare, _matrix_check),
        Workload("score-pairs", "library", inputs.PAIRS_MODELS * inputs.PAIRS_PERIODS,
                 _pairs_prepare, _pairs_check),
    )
}

END_TO_END_UNITS = {"wall_rel": "ratio", "ops_per_ref": "1/ref", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# Layers that turn a workload's input into score-difference series:
# simulation (minus the tests it runs), CSV parsing, or per-observation
# scoring.
INPUT_LAYERS = {"sim_harness.run_experiment", "cli.parse", "scoring.bivariate_score",
                "inference.score_diffs"}

PER_LAYER_UNITS = {
    "dist_math.bvn_rect_prob.calls": "count",
    "dist_math.bvn_rect_prob.s": "s",
    "inference.critical_values.calls": "count",
    "inference.critical_values.s": "s",
    "inference.critical_values.kernel_calls_per_call": "count",
    "inference.hac_cov.calls": "count",
    "inference.hac_cov.s": "s",
    "inference.two_step_test.calls": "count",
    "inference.two_step_test.self_s": "s",
    "inference.two_step_test.fallbacks": "count",
    "inference.two_step_test.shrunk": "count",
    "inference.two_step_test.errors": "count",
    "inference.calibration.checked": "count",
    "inference.calibration.misses": "count",
    "inference.calibration.max_residual": "prob",
    "input.s": "s",
    "copulas.gaussian_logdensity_from_scores.calls": "count",
    "scoring.bivariate_score.calls": "count",
    "cli.parse.calls": "count",
    "cli.parse.rows": "count",
    "entry.self_s": "s",
    "import.numpy_s": "s",
    "import.scipy_special_s": "s",
    "import.copulascore_s": "s",
    "process.wall_s": "s",
    "process.cpu_s": "s",
    "process.minflt": "count",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}


def _digest_outputs(out_dir: Path, stdout: bytes) -> str:
    h = hashlib.sha256(stdout)
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _layer_metrics(inv: Invocation, spans_path: Path) -> dict:
    """Per-layer numbers of one traced invocation, plus the summary of
    every span name."""
    data = load_spans(spans_path)
    spans, counts = data["spans"], data["counts"]
    table = summarize(spans)

    def get(name, key="s"):
        return table.get(name, {}).get(key, 0)

    cv_calls = get("inference.critical_values", "calls")
    input_s = sum(get(n) for n in INPUT_LAYERS) - child_time_under(
        spans, "inference.two_step_test", INPUT_LAYERS
    )
    imports = inv.report["imports"]
    metrics = {
        "dist_math.bvn_rect_prob.calls": get("dist_math.bvn_rect_prob", "calls"),
        "dist_math.bvn_rect_prob.s": get("dist_math.bvn_rect_prob"),
        "inference.critical_values.calls": cv_calls,
        "inference.critical_values.s": get("inference.critical_values"),
        "inference.critical_values.kernel_calls_per_call":
            get("dist_math.bvn_rect_prob", "calls") / cv_calls if cv_calls else 0.0,
        "inference.hac_cov.calls": get("inference.hac_cov", "calls"),
        "inference.hac_cov.s": get("inference.hac_cov"),
        "inference.two_step_test.calls": get("inference.two_step_test", "calls"),
        "inference.two_step_test.self_s": get("inference.two_step_test", "self_s"),
        "inference.two_step_test.fallbacks": counts.get("fallbacks", 0),
        "inference.two_step_test.shrunk": counts.get("shrunk", 0),
        "inference.two_step_test.errors": get("inference.two_step_test", "failed"),
        "input.s": input_s,
        "copulas.gaussian_logdensity_from_scores.calls":
            get("copulas.gaussian_logdensity_from_scores", "calls"),
        "scoring.bivariate_score.calls": get("scoring.bivariate_score", "calls"),
        "cli.parse.calls": get("cli.parse", "calls"),
        "cli.parse.rows": counts.get("parse_rows", 0),
        "entry.self_s": get("entry", "self_s"),
        "import.numpy_s": imports["numpy_s"],
        "import.scipy_special_s": imports["scipy_special_s"],
        "import.copulascore_s": imports["copulascore_s"],
        "trace.covered_frac": (inv.report["import_s"] + get("entry")) / inv.wall_s,
    }
    return {"metrics": metrics, "table": table, "samples": data["samples"]}


def _oracle(samples: list) -> tuple[int, int, float]:
    """Check evenly spaced recorded calibrations against the quadrature
    oracle; returns (checked, misses, max residual)."""
    if not samples:
        return 0, 0, 0.0
    picks = sorted({round(i * (len(samples) - 1) / max(ORACLE_SAMPLES - 1, 1))
                    for i in range(min(ORACLE_SAMPLES, len(samples)))})
    residuals = [checks.calibration_residual(samples[i]) for i in picks]
    misses = sum(r > checks.CALIBRATION_TOL for r in residuals)
    return len(residuals), misses, max(residuals)


def _measure(wl: Workload, root: Path, work: Path, job: dict, seconds: float, trace: bool):
    """Run invocations until ``seconds`` have passed, with the reference
    program before the first and after each one; with ``trace`` every
    second invocation is traced.  Returns (all invocations, those that
    passed every check, per-layer numbers of the traced ones, output
    digests)."""
    out_dir = root / job["out"]
    invocations, passed, layer_runs, digests = [], [], [], []
    problems: dict[str, list[str]] = {}
    start = perf_counter()
    ref_before = run_reference(root)
    while True:
        traced = trace and len(invocations) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        inv = run_child(root, wl.mode, traced, job, work / "job")
        ref_after = run_reference(root)
        inv.ref_s = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        invocations.append(inv)
        faults = []
        if inv.exit_code != 0 or inv.report is None or inv.report.get("error"):
            faults.append(f"child failed (exit code {inv.exit_code}, see {work / 'job' / 'stderr'})")
        else:
            digest = _digest_outputs(out_dir, inv.stdout)
            if digest not in problems:
                problems[digest] = wl.check(work, inv)
            faults += problems[digest]
            if digests and digest != digests[0]:
                faults.append("outputs differ from the first invocation's")
            digests.append(digest)
            if traced:
                layer_runs.append(_layer_metrics(inv, root / job["spans"]))
        if not faults:
            passed.append(inv)
        for fault in dict.fromkeys(faults):
            print(f"check failed ({'traced' if traced else 'untraced'} invocation "
                  f"{len(invocations)}): {fault}")
        enough = len(invocations) >= MIN_INVOCATIONS + int(trace)
        if enough and perf_counter() - start >= seconds:
            return invocations, passed, layer_runs, digests


def _per_layer(good: list[Invocation], layer_runs: list[dict]) -> tuple[dict, int]:
    """Medians of the traced invocations' layer numbers, the oracle check
    and the tracing overhead; returns (metrics, oracle misses)."""
    plain = [i for i in good if not i.traced]
    metrics = {k: median(r["metrics"][k] for r in layer_runs) for k in PER_LAYER_UNITS
               if layer_runs and k in layer_runs[0]["metrics"]}
    checked, misses, max_residual = _oracle(layer_runs[0]["samples"] if layer_runs else [])
    metrics.update({
        "inference.calibration.checked": checked,
        "inference.calibration.misses": misses,
        "inference.calibration.max_residual": max_residual,
        "process.wall_s": median(i.wall_s for i in plain),
        "process.cpu_s": median(i.cpu_s for i in plain),
        "process.minflt": median(i.minflt for i in plain),
        "trace.overhead_frac": median(i.wall_s / i.ref_s for i in good if i.traced)
        / median(i.wall_s / i.ref_s for i in plain) - 1.0 if plain else 0.0,
    })
    if layer_runs:
        table = {name: {k: round(v, 6) for k, v in row.items()}
                 for name, row in sorted(layer_runs[0]["table"].items())}
        print("layers " + json.dumps(table, sort_keys=True))
    if misses:
        print(f"check failed: {misses} of {checked} sampled calibrations miss the "
              f"oracle by more than {checks.CALIBRATION_TOL:g}")
    return metrics, misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "copulascore" / "__init__.py").is_file():
        sys.stderr.write(f"error: {root} holds no copulascore source tree (src/copulascore)\n")
        return 2

    wl = WORKLOADS[args.workload]
    work = root / WORK_DIR / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job, input_digest = wl.prepare(root, work, args.seed)
    job.update(out=_rel(root, work / "out"), report=_rel(root, work / "report.json"),
               spans=_rel(root, work / "spans.pickle"))
    warm_up(root)
    invocations, passed, layer_runs, digests = _measure(
        wl, root, work, job, args.seconds, bool(args.trace)
    )

    good = passed or invocations
    failed = wl.ops * (len(invocations) - len(passed))
    if args.trace:
        metrics, misses = _per_layer(good, layer_runs)
        failed += misses
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_rel": median(i.wall_s / i.ref_s for i in good),
            "ops_per_ref": median(wl.ops * i.ref_s / i.wall_s for i in good),
            "setup_s": median(i.report["import_s"] for i in good if i.report),
            "peak_rss_mb": median(i.peak_rss_mb for i in good),
        }
        units = END_TO_END_UNITS
        print(f"raw medians: wall_s {median(i.wall_s for i in good):.4f} s, ops_per_s "
              f"{median(wl.ops / i.wall_s for i in good):.2f} 1/s, reference "
              f"{median(i.ref_s for i in good):.4f} s")

    traced = sum(i.traced for i in good)
    print("host " + json.dumps(host_record(), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: {len(good) - traced} untraced and {traced} "
          f"traced invocations; each metric is their median")
    print("wall_s " + " ".join(f"{i.wall_s:.3f}{'t' if i.traced else ''}" for i in invocations))
    print(f"inputs sha256 {input_digest}")
    print(f"outputs sha256 {' '.join(sorted(set(digests))) or 'none'}")
    result = {
        "correct": failed == 0,
        "attempted": wl.ops * len(invocations),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
