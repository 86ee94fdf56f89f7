"""Regenerate the ROADMAP Baseline table in one command.

    python3 perfbench/baseline.py

Run from the repository root.  Every row is a fresh process started the
way :mod:`run` starts them (``PYTHONPATH=src``, BLAS pinned to one thread);
each CLI row is the median of :data:`RUNS` invocations, the traced
simulate invocation gives the split into score-difference generation and
tests, and the tier-1 suite runs once.  Prints a Markdown table and the
host record; takes about three minutes on a two-core host.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import child_env, host_record, median, run_child, warm_up
from tracer import child_time_under, load, summarize

RUNS = 3
SUITE = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "copulascore" / "__init__.py").is_file():
        sys.stderr.write(f"error: {root} holds no copulascore source tree (src/copulascore)\n")
        return 2
    work = root / ".perfbench" / "baseline"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)

    def job(argv):
        return {"argv": argv, "report": str((work / "report.json").relative_to(root)),
                "spans": str((work / "spans.pickle").relative_to(root))}

    def invoke(argv, trace=False):
        inv = run_child(root, "cli", trace, job(argv), work / "job")
        if inv.exit_code != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited with {inv.exit_code}")
        return inv

    simulate = ["simulate", "--setting", "ii", "--n", "300", "--reps", "2000", "--seed", "1",
                "--out", str((work / "out" / "table").relative_to(root))]
    cli_rows = {
        "`simulate --setting ii --n 300 --reps 2000`": simulate,
        "`compare --scores fixtures/synthetic_scores.csv`":
            ["compare", "--scores", "fixtures/synthetic_scores.csv"],
        "`compare --matrix fixtures/synthetic_model_scores`":
            ["compare", "--matrix", "fixtures/synthetic_model_scores"],
    }
    warm_up(root)
    rows, imports = [], []
    for label, argv in cli_rows.items():
        invs = [invoke(argv) for _ in range(RUNS)]
        imports += [i.report["import_s"] for i in invs]
        rows.append((label, f"{median(i.wall_s for i in invs):.2f} s"))

    traced = invoke(simulate, trace=True)
    spans = load(work / "spans.pickle")["spans"]
    table = summarize(spans)
    tests = child_time_under(spans, "inference.two_step_test", {"sim_harness.run_experiment"})
    cv = table["inference.critical_values"]
    bvn = table["dist_math.bvn_rect_prob"]
    rows.insert(1, ("├ score-difference generation, 2000 reps (traced)",
                    f"{table['sim_harness.run_experiment']['s'] - tests:.2f} s"))
    rows.insert(2, (f"└ {table['inference.two_step_test']['calls']} `two_step_test` calls "
                    "(traced)",
                    f"{tests:.2f} s; `critical_values` {1e3 * cv['s'] / cv['calls']:.2f} ms "
                    f"per call, `bvn_rect_prob` {100 * bvn['s'] / tests:.0f}% of the tests"))
    rows.append(("`import copulascore.cli`", f"{median(imports):.2f} s"))

    start = perf_counter()
    suite = subprocess.run(SUITE, cwd=root, env=child_env(), capture_output=True, text=True)
    summary = re.findall(r"(\d+ (?:passed|failed|error)\w*)", suite.stdout)
    rows.insert(0, (f"tier-1 suite ({', '.join(summary) or 'no summary'})",
                    f"{perf_counter() - start:.0f} s"))

    host = host_record()
    print(f"Host: {host['nproc']} cores ({host['cpu_model']}), Python {host['python']}, "
          f"numpy {host['numpy']}, scipy {host['scipy']}, BLAS {host['blas']} pinned to one "
          f"thread. CLI rows: median of {RUNS} fresh processes; traced rows: one run.\n")
    print("| Workload | Wall |\n|---|---|")
    for label, value in rows:
        print(f"| {label} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
