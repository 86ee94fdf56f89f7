"""Command-line interface and file formats.

Subcommands:

* ``compare``   -- two-step test on externally produced per-period scores
  (CSV), emitting a JSON report and optionally the cumulative average
  score-difference series.
* ``simulate``  -- rejection-frequency study over the built-in data
  generating process, emitting CSV and JSON tables.
* ``cxls-demo`` -- samples from the two-block mixture copulas, for plotting.

All numeric output is serialized with 12 significant digits; CSV files are
comma-delimited UTF-8 with LF line endings and mandatory headers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .copulas import (
    Comonotone,
    Copula,
    Countermonotone,
    GaussianEquiCorr,
    Independence,
    LOWER_RIGHT,
    Mixture2D,
    UPPER_RIGHT,
)
from .dist_math import EquiCorr
from .inference import (
    HacConfig,
    Hypothesis,
    ScoreDiffSeries,
    TwoStepResult,
    two_step_test,
)
from .sim_harness import SETTINGS, DgpSpec, FreqRow, FreqTable, run_experiment

__all__ = [
    "ScoresFile",
    "ScoresFileError",
    "TestReport",
    "parse_scores",
    "parse_density_scores",
    "parse_single_model_scores",
    "write_scores",
    "main",
]

SCORES_HEADER = ["t", "s_marg_1", "s_cop_1", "s_marg_2", "s_cop_2"]
SINGLE_MODEL_HEADER = ["t", "s_marg", "s_cop"]


class ScoresFileError(ValueError):
    """Malformed scores file; the message carries row/column diagnostics."""


@dataclass(frozen=True)
class ScoresFile:
    """Per-period bivariate scores of two competing forecast streams."""

    t: np.ndarray
    s_marg_1: np.ndarray
    s_cop_1: np.ndarray
    s_marg_2: np.ndarray
    s_cop_2: np.ndarray

    def diff_series(self) -> ScoreDiffSeries:
        return ScoreDiffSeries(
            self.s_marg_1 - self.s_marg_2, self.s_cop_1 - self.s_cop_2
        )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    if isinstance(x, float) and math.isinf(x):
        return x
    return float(_fmt(x))


def _csv_text(header: list[str], rows) -> str:
    """CSV text with LF line endings: floats with 12 significant digits,
    ``None`` as an empty cell, anything else (labels, integer counts and
    seeds) through ``str``."""

    def cell(v) -> str:
        if v is None:
            return ""
        return _fmt(v) if isinstance(v, float) else str(v)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScoresFileError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise ScoresFileError(f"{path}: empty file")
    return rows[0], rows[1:]


def _check_header(actual: list[str], expected: list[str], path) -> None:
    if actual == expected:
        return
    for i, name in enumerate(expected):
        if i >= len(actual):
            raise ScoresFileError(f"{path}: header is missing column '{name}'")
        if actual[i] != name:
            raise ScoresFileError(
                f"{path}: header column {i + 1} is '{actual[i]}', expected '{name}'"
            )
    raise ScoresFileError(
        f"{path}: header has {len(actual)} columns, expected {len(expected)}"
    )


def _parse_cells(path, header: list[str], raw_rows: list[list[str]]) -> np.ndarray:
    """Cell-by-cell conversion that reports the first malformed row or cell."""
    data = np.empty((len(raw_rows), len(header)))
    for i, row in enumerate(raw_rows, start=1):
        if len(row) != len(header):
            raise ScoresFileError(
                f"{path}: row {i}: expected {len(header)} fields, found {len(row)}"
            )
        for j, (col, raw) in enumerate(zip(header, row)):
            try:
                data[i - 1, j] = value = float(raw)
            except ValueError:
                raise ScoresFileError(
                    f"{path}: row {i}, column '{col}': non-numeric value '{raw}'"
                ) from None
            if not math.isfinite(value):
                raise ScoresFileError(
                    f"{path}: row {i}, column '{col}': non-finite value '{raw}'"
                )
    return data


def _parse_table(path, header: list[str], rows=None) -> np.ndarray:
    """Parse a CSV with the given exact header into an (n, k) float array.
    ``rows`` is the file as ``_read_rows`` gives it, when already read.

    All cells are converted by one array cast (numpy parses strings as
    ``float`` does); the cell-by-cell scan runs only to locate an error."""
    actual, raw_rows = rows or _read_rows(path)
    _check_header(actual, header, path)
    if len(raw_rows) < 2:
        raise ScoresFileError(f"{path}: need at least 2 data rows, found {len(raw_rows)}")
    try:
        data = np.array(raw_rows, dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        data = _parse_cells(path, header, raw_rows)
    t = data[:, 0]
    if np.any(np.diff(t) <= 0.0):
        bad = int(np.argmax(np.diff(t) <= 0.0)) + 2
        raise ScoresFileError(f"{path}: row {bad}: t must be strictly increasing")
    return data


def parse_scores(path) -> ScoresFile:
    """Read the two-model scores format with header
    ``t,s_marg_1,s_cop_1,s_marg_2,s_cop_2``."""
    data = _parse_table(path, SCORES_HEADER)
    return ScoresFile(data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4])


def parse_single_model_scores(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one model's scores (header ``t,s_marg,s_cop``); used by
    ``compare --matrix``. Returns (t, s_marg, s_cop)."""
    data = _parse_table(path, SINGLE_MODEL_HEADER)
    return data[:, 0], data[:, 1], data[:, 2]


def _density_header(dim: int) -> list[str]:
    cols = ["t"]
    for model in (1, 2):
        cols += [f"logf_{model}_{j}" for j in range(1, dim + 1)]
        cols += [f"pit_{model}_{j}" for j in range(1, dim + 1)]
        cols += [f"logc_{model}"]
    return cols


def parse_density_scores(path) -> ScoresFile:
    """Read the per-dimension density format and reduce it to scores.

    Columns per model: log predictive densities ``logf_<m>_<j>`` and
    probability transforms ``pit_<m>_<j>`` for each dimension j, then the
    log copula density ``logc_<m>``.  Scores are the negated sums/values.
    """
    rows = _read_rows(path)
    actual = rows[0]
    if (len(actual) - 3) % 4 != 0 or len(actual) < 7:
        raise ScoresFileError(
            f"{path}: header has {len(actual)} columns; the density format needs "
            "1 + 2*(2*dim+1) columns"
        )
    dim = (len(actual) - 3) // 4
    header = _density_header(dim)
    data = _parse_table(path, header, rows)
    pit_cols = [header.index(f"pit_{m}_{j}") for m in (1, 2) for j in range(1, dim + 1)]
    pits = data[:, pit_cols]
    if np.any(pits < 0.0) or np.any(pits > 1.0):
        bad = int(np.argwhere((pits < 0.0) | (pits > 1.0))[0][0]) + 1
        raise ScoresFileError(f"{path}: row {bad}: probability transforms outside [0, 1]")

    def block(model: int) -> tuple[np.ndarray, np.ndarray]:
        logf = data[:, [header.index(f"logf_{model}_{j}") for j in range(1, dim + 1)]]
        logc = data[:, header.index(f"logc_{model}")]
        return -logf.sum(axis=1), -logc

    sm1, sc1 = block(1)
    sm2, sc2 = block(2)
    return ScoresFile(data[:, 0], sm1, sc1, sm2, sc2)


def write_scores(path, scores: ScoresFile) -> None:
    """Write the two-model scores format (12 significant digits)."""
    columns = (scores.t, scores.s_marg_1, scores.s_cop_1, scores.s_marg_2, scores.s_cop_2)
    Path(path).write_text(_csv_text(SCORES_HEADER, zip(*columns)), encoding="utf-8")


@dataclass(frozen=True)
class TestReport:
    """Everything ``compare`` knows: the test result, per-model average
    scores, the cumulative average difference series, and the configuration.
    """

    result: TwoStepResult
    avg_scores: dict
    cum_t: np.ndarray
    cum_d_m: np.ndarray
    cum_d_c: np.ndarray
    config: dict

    def to_dict(self) -> dict:
        r = self.result
        return {
            "config": self.config,
            "result": {
                "hypothesis": r.hypothesis.value,
                "outcome": r.outcome.value,
                "attribution": r.attribution,
                "stat_m": _round12(r.stat_m),
                "stat_c": _round12(r.stat_c),
                "c1": "inf" if math.isinf(r.c1) else _round12(r.c1),
                "c2": "inf" if math.isinf(r.c2) else _round12(r.c2),
                "alpha": _round12(r.alpha),
                "degenerate_fallback": r.degenerate_fallback,
                "correlation_shrunk": r.correlation_shrunk,
                "omega": {
                    "s_mm": _round12(r.omega.s_mm),
                    "s_mc": _round12(r.omega.s_mc),
                    "s_cc": _round12(r.omega.s_cc),
                },
            },
            "average_scores": self.avg_scores,
            "cumulative_avg_diffs": {
                "t": [_round12(v) for v in self.cum_t],
                "d_m": [_round12(v) for v in self.cum_d_m],
                "d_c": [_round12(v) for v in self.cum_d_c],
            },
        }


def build_report(scores: ScoresFile, result: TwoStepResult, config: dict) -> TestReport:
    steps = np.arange(1, scores.t.size + 1)
    d = scores.diff_series()
    avg = {
        "model_1": {
            "s_marg": _round12(float(scores.s_marg_1.mean())),
            "s_cop": _round12(float(scores.s_cop_1.mean())),
        },
        "model_2": {
            "s_marg": _round12(float(scores.s_marg_2.mean())),
            "s_cop": _round12(float(scores.s_cop_2.mean())),
        },
    }
    return TestReport(
        result=result,
        avg_scores=avg,
        cum_t=scores.t,
        cum_d_m=np.cumsum(d.d_m) / steps,
        cum_d_c=np.cumsum(d.d_c) / steps,
        config=config,
    )


def _hac_from_args(args) -> HacConfig:
    return HacConfig(lags=args.hac_lags, weights=args.hac_weights)


def _matrix_compare(args) -> int:
    directory = Path(args.matrix)
    paths = sorted(directory.glob("*.csv"))
    if len(paths) < 2:
        raise ScoresFileError(f"{directory}: need at least 2 model score files")
    models, series = [], []
    t_ref = None
    for p in paths:
        t, sm, sc = parse_single_model_scores(p)
        if t_ref is None:
            t_ref = t
        elif t.shape != t_ref.shape or np.any(t != t_ref):
            raise ScoresFileError(f"{p}: time index differs from {paths[0]}")
        models.append(p.stem)
        series.append((sm, sc))

    hypothesis = Hypothesis(args.hypothesis)
    hac = _hac_from_args(args)
    k = len(models)
    labels: list[list[str | None]] = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            d = ScoreDiffSeries(series[i][0] - series[j][0], series[i][1] - series[j][1])
            labels[i][j] = two_step_test(d, hac, args.alpha, hypothesis).attribution

    payload = {
        "config": {
            "directory": str(directory),
            "hypothesis": hypothesis.value,
            "alpha": _round12(args.alpha),
            "hac_lags": hac.lags,
            "hac_weights": hac.weights,
        },
        "models": models,
        "attribution": labels,
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    if args.out:
        rows = ([name, *labels[i]] for i, name in enumerate(models))
        Path(args.out).write_text(_csv_text(["model", *models], rows), encoding="utf-8")
    return 0


def cmd_compare(args) -> int:
    if args.matrix:
        return _matrix_compare(args)
    parse = parse_density_scores if args.format == "densities" else parse_scores
    scores = parse(args.scores)
    hypothesis = Hypothesis(args.hypothesis)
    hac = _hac_from_args(args)
    result = two_step_test(scores.diff_series(), hac, args.alpha, hypothesis)
    config = {
        "scores": str(args.scores),
        "format": args.format,
        "n": int(scores.t.size),
        "alpha": _round12(args.alpha),
        "hypothesis": hypothesis.value,
        "hac_lags": hac.lags,
        "hac_weights": hac.weights,
    }
    report = build_report(scores, result, config)
    sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    if args.cumdiff:
        rows = zip(scores.t, report.cum_d_m, report.cum_d_c)
        text = _csv_text(["t", "cum_avg_d_m", "cum_avg_d_c"], rows)
        Path(args.cumdiff).write_text(text, encoding="utf-8")
    return 0


def _freq_table_csv(table: FreqTable) -> str:
    header = [f.name for f in fields(FreqRow)]
    return _csv_text(header, map(astuple, table.rows))


def _freq_table_json(table: FreqTable) -> str:
    rows = [
        {k: _round12(v) if isinstance(v, float) else v for k, v in asdict(row).items()}
        for row in table.rows
    ]
    return json.dumps({"rows": rows}, indent=2) + "\n"


def cmd_simulate(args) -> int:
    if args.setting not in SETTINGS:
        raise ValueError(f"unknown setting '{args.setting}'")
    spec = DgpSpec(
        n=args.n,
        dim=args.dim,
        omega0=args.omega0,
        alpha0=args.alpha0,
        beta0=args.beta0,
        rho=args.rho,
        burn_in=args.burn_in,
    )
    table = run_experiment(
        spec,
        SETTINGS[args.setting],
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        hac=_hac_from_args(args),
        variance_mode=args.variance_mode,
    )
    csv_text = _freq_table_csv(table)
    json_text = _freq_table_json(table)
    Path(str(args.out) + ".csv").write_text(csv_text, encoding="utf-8")
    Path(str(args.out) + ".json").write_text(json_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _parse_base(text: str) -> Copula:
    if text == "independence":
        return Independence(2)
    if text == "comonotone":
        return Comonotone(2)
    if text == "countermonotone":
        return Countermonotone()
    if text.startswith("gaussian:"):
        rho = float(text.split(":", 1)[1])
        return GaussianEquiCorr(EquiCorr(2, rho))
    raise ValueError(
        f"unknown base copula '{text}'; use independence, comonotone, "
        "countermonotone or gaussian:RHO"
    )


def cmd_cxls_demo(args) -> int:
    base = _parse_base(args.base)
    direction = UPPER_RIGHT if args.direction == "ur" else LOWER_RIGHT
    mixture = Mixture2D(base, direction)
    u, component = mixture.sample_labeled(args.samples, args.seed)
    text = _csv_text(["u1", "u2", "component"], zip(u[:, 0], u[:, 1], component))
    Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulascore",
        description="Compare joint copula/marginal forecasts with "
        "multi-objective scores and two-step tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="two-step test on a per-period scores file")
    p.add_argument("--scores", help="CSV of per-period scores for two models")
    p.add_argument("--matrix", help="directory of single-model score CSVs")
    p.add_argument("--format", choices=["scores", "densities"], default="scores")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--hypothesis", choices=["equal", "lex"], default="equal")
    p.add_argument("--hac-lags", type=int, default=0)
    p.add_argument(
        "--hac-weights", choices=["zero", "bartlett", "truncated"], default="zero"
    )
    p.add_argument("--cumdiff", help="write cumulative average differences to CSV")
    p.add_argument("--out", help="with --matrix: write the attribution matrix CSV here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="rejection-frequency table for one setting")
    p.add_argument("--setting", required=True, choices=sorted(SETTINGS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output path prefix (.csv/.json)")
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--omega0", type=float, default=0.001)
    p.add_argument("--alpha0", type=float, default=0.1)
    p.add_argument("--beta0", type=float, default=0.5)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--hac-lags", type=int, default=0)
    p.add_argument(
        "--hac-weights", choices=["zero", "bartlett", "truncated"], default="zero"
    )
    p.add_argument(
        "--variance-mode", choices=["one-step", "recursive"], default="one-step"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cxls-demo", help="sample from a two-block mixture copula")
    p.add_argument("--base", required=True)
    p.add_argument("--direction", choices=["ur", "lr"], required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cxls_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and bool(args.scores) == bool(args.matrix):
        parser.error("compare needs exactly one of --scores or --matrix")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
