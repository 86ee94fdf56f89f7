"""One fresh-process invocation of a benchmark workload.

    PYTHONPATH=src python3 perfbench/child.py MODE TRACE JOB.json

MODE is ``cli`` (``copulascore.cli.main`` on the job's argv, as
``python -m copulascore.cli`` would run it) or ``library`` (the README's
library flow on the job's input arrays).  The first thing the process does
is time the package import; with TRACE=1 numpy and scipy.special are timed
separately first and the layer wrappers of :mod:`tracer` are installed.
The process writes a JSON report to the job's ``report`` path and exits
with the workload's exit code.
"""

import sys
import time

_T0 = time.perf_counter()
MODE, TRACE = sys.argv[1], sys.argv[2] == "1"
_imports = {}
if TRACE:
    import numpy  # noqa: F401

    _imports["numpy_s"] = time.perf_counter() - _T0
    import scipy.special  # noqa: F401

    _imports["scipy_special_s"] = time.perf_counter() - _T0 - _imports["numpy_s"]
if MODE == "cli":
    import copulascore.cli
else:
    import copulascore
IMPORT_S = time.perf_counter() - _T0
if TRACE:
    _imports["copulascore_s"] = IMPORT_S - _imports["numpy_s"] - _imports["scipy_special_s"]

import json  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ALPHA = 0.05


def install(tracer) -> None:
    """Wrap the attributes through which each layer is called; in library
    mode the CLI module is not imported and its entries are skipped."""
    from copulascore import copulas, inference, scoring, sim_harness

    cli = sys.modules.get("copulascore.cli")

    def on_test(args, kwargs, result):
        tracer.count("fallbacks", int(result.degenerate_fallback))
        tracer.count("shrunk", int(result.correlation_shrunk))

    def on_calibration(args, kwargs, result):
        omega, alpha, hypothesis = args[:3]
        alpha1 = args[3] if len(args) > 3 else kwargs.get("alpha1")
        tracer.samples.append(
            [omega.s_mm, omega.s_mc, omega.s_cc, alpha, str(hypothesis.value), alpha1, *result]
        )

    def on_parse(args, kwargs, result):
        t = result[0] if isinstance(result, tuple) else result.t
        tracer.count("parse_rows", len(t))

    wraps = [
        (inference, "bvn_rect_prob", "dist_math.bvn_rect_prob", None),
        (inference, "critical_values", "inference.critical_values", on_calibration),
        (inference, "hac_cov", "inference.hac_cov", None),
        (sim_harness, "two_step_test", "inference.two_step_test", on_test),
        (cli, "two_step_test", "inference.two_step_test", on_test),
        (copulascore, "two_step_test", "inference.two_step_test", on_test),
        (cli, "parse_scores", "cli.parse", on_parse),
        (cli, "parse_density_scores", "cli.parse", on_parse),
        (cli, "parse_single_model_scores", "cli.parse", on_parse),
        (cli, "run_experiment", "sim_harness.run_experiment", None),
        (sim_harness, "gaussian_logdensity_from_scores",
         "copulas.gaussian_logdensity_from_scores", None),
        (copulas, "gaussian_logdensity_from_scores",
         "copulas.gaussian_logdensity_from_scores", None),
        (scoring, "gaussian_copula_logdensity", "scoring.gaussian_copula_logdensity", None),
        (copulascore, "bivariate_score", "scoring.bivariate_score", None),
        (copulascore, "score_diffs", "inference.score_diffs", None),
    ]
    for owner, attr, name, observe in wraps:
        if owner is not None:
            tracer.wrap(owner, attr, name, observe)


def score_pairs(job: dict) -> int:
    """The README's library flow: score every forecaster at every period one
    observation at a time, then run the lex test on every ordered pair."""
    cs = copulascore
    data = np.load(job["inputs"])
    y, sigma, rho = data["y"], data["sigma"], data["rho"]
    models, periods, dim = sigma.shape
    scores = []
    for k in range(models):
        row = []
        for t in range(periods):
            f = cs.MarginalForecast(sigma=sigma[k, t])
            c = cs.GaussianEquiCorr(cs.EquiCorr(dim, float(rho[k, t])))
            row.append(cs.bivariate_score(c, f, y[t]))
        scores.append(row)
    hac = cs.HacConfig()
    tests = []
    for i in range(models):
        for j in range(models):
            if i != j:
                r = cs.two_step_test(cs.score_diffs(scores[i], scores[j]), hac, ALPHA, "lex")
                tests.append([i, j, r.attribution, r.stat_m, r.stat_c, r.c1, r.c2])
    out = Path(job["out"])
    np.save(out / "scores.npy", np.asarray(scores, dtype=float))
    (out / "tests.json").write_text(json.dumps(tests) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    job = json.loads(Path(sys.argv[3]).read_text(encoding="utf-8"))
    tracer = None
    if TRACE:
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    report = {"import_s": IMPORT_S, "imports": _imports, "rc": 1, "error": None}

    def run() -> int:
        return copulascore.cli.main(job["argv"]) if MODE == "cli" else score_pairs(job)

    start = time.perf_counter()
    try:
        if tracer is None:
            rc = run()
        else:
            with tracer.span("entry"):
                rc = run()
        report["rc"] = int(rc)
    except Exception:
        report["error"] = traceback.format_exc()
        sys.stderr.write(report["error"])
    finally:
        report["work_s"] = time.perf_counter() - start
        sys.stdout.flush()
        if tracer is not None:
            tracer.restore()
            tracer.dump(job["spans"])
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main())
