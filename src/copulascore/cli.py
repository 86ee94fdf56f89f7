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
import atexit
import csv
import gc
import io
import json
import math
import sys
from dataclasses import asdict, astuple, fields
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
    HAC_WEIGHTS,
    HacConfig,
    Hypothesis,
    TwoStepResult,
    _LABELS,
    _two_step_batch,
    score_diffs,
    two_step_test,
)
from .sim_harness import SETTINGS, VARIANCE_MODES, DgpSpec, FreqRow, run_experiment

__all__ = [
    "ScoresFileError",
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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


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


def _json_text(payload) -> str:
    """Indented JSON text: floats (numpy scalars and arrays included) with
    12 significant digits, non-finite floats as strings such as ``"inf"``."""

    def plain(v):
        if isinstance(v, (np.ndarray, np.generic)):
            v = v.tolist()
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        if isinstance(v, float):
            return float(_fmt(v)) if math.isfinite(v) else _fmt(v)
        return v

    return json.dumps(plain(payload), indent=2) + "\n"


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScoresFileError(f"cannot read {path}: {exc}") from exc


def _csv_rows(path, text: str):
    """The header row of ``text`` and a lazy iterator over its data rows, as
    the csv reader splits them; empty rows are skipped."""
    rows = filter(None, csv.reader(io.StringIO(text)))
    header = next(rows, None)
    if header is None:
        raise ScoresFileError(f"{path}: empty file")
    return header, rows


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


def _parse_table(path, header: list[str], text: str | None = None) -> np.ndarray:
    """Parse a CSV with the given exact header into an (n, k) float array.
    ``text`` is the file's content, when already read.

    When the first line is exactly the header, one ``np.loadtxt`` call
    converts the rest.  A file that it rejects, or whose table is too short,
    of the wrong width or not finite, is rescanned by the csv reader cell by
    cell (``float`` on each cell), which names the first bad row or cell."""
    if text is None:
        text = _read_text(path)
    first, _, body = text.partition("\n")
    data = None
    # an empty body would make np.loadtxt warn; the rescan reports it
    if first == ",".join(header) and body.strip():
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if (
        data is None
        or len(data) < 2
        or data.shape[1] != len(header)
        or not np.isfinite(data).all()
    ):
        actual, raw_rows = _csv_rows(path, text)
        _check_header(actual, header, path)
        raw_rows = list(raw_rows)
        if len(raw_rows) < 2:
            raise ScoresFileError(f"{path}: need at least 2 data rows, found {len(raw_rows)}")
        data = _parse_cells(path, header, raw_rows)
    t = data[:, 0]
    if np.any(np.diff(t) <= 0.0):
        bad = int(np.argmax(np.diff(t) <= 0.0)) + 2
        raise ScoresFileError(f"{path}: row {bad}: t must be strictly increasing")
    return data


def parse_scores(path, text=None) -> tuple[np.ndarray, np.ndarray]:
    """Read the two-model scores format with header
    ``t,s_marg_1,s_cop_1,s_marg_2,s_cop_2`` as ``(t, scores)``: ``t`` has
    shape (n,), and ``scores`` has shape (n, 2, 2), where ``scores[:, m]``
    holds model m + 1's ``(s_marg, s_cop)`` per period.  ``text`` is the
    file's content, when already read."""
    data = _parse_table(path, SCORES_HEADER, text)
    return data[:, 0], data[:, 1:].reshape(-1, 2, 2)


def parse_single_model_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Read one model's scores (header ``t,s_marg,s_cop``) for ``compare
    --matrix`` as ``(t, scores)``: one ``(s_marg, s_cop)`` row per period."""
    data = _parse_table(path, SINGLE_MODEL_HEADER)
    return data[:, 0], data[:, 1:]


def _density_header(dim: int) -> list[str]:
    cols = ["t"]
    for model in (1, 2):
        cols += [f"logf_{model}_{j}" for j in range(1, dim + 1)]
        cols += [f"pit_{model}_{j}" for j in range(1, dim + 1)]
        cols += [f"logc_{model}"]
    return cols


def parse_density_scores(path, text=None) -> tuple[np.ndarray, np.ndarray]:
    """Read the per-dimension density format and reduce it to scores.

    Columns per model: log predictive densities ``logf_<m>_<j>`` and
    probability transforms ``pit_<m>_<j>`` for each dimension j, then the
    log copula density ``logc_<m>``.  Scores are the negated sums/values,
    returned as ``(t, scores)`` in the layout of :func:`parse_scores`;
    ``text`` is as there.
    """
    if text is None:
        text = _read_text(path)
    actual, _ = _csv_rows(path, text)
    if (len(actual) - 3) % 4 != 0 or len(actual) < 7:
        raise ScoresFileError(
            f"{path}: header has {len(actual)} columns; the density format needs "
            "1 + 2*(2*dim+1) columns"
        )
    dim = (len(actual) - 3) // 4
    data = _parse_table(path, _density_header(dim), text)
    # blocks[:, m] is model m's (logf_1..logf_dim, pit_1..pit_dim, logc)
    blocks = data[:, 1:].reshape(-1, 2, 2 * dim + 1)
    pits = blocks[:, :, dim : 2 * dim]
    if np.any(pits < 0.0) or np.any(pits > 1.0):
        bad = int(np.argwhere((pits < 0.0) | (pits > 1.0))[0][0]) + 1
        raise ScoresFileError(f"{path}: row {bad}: probability transforms outside [0, 1]")
    # column-major, so each row's log densities are summed left to right
    logf = np.asfortranarray(blocks[:, :, :dim]).sum(axis=2)
    return data[:, 0], -np.stack([logf, blocks[:, :, 2 * dim]], axis=2)


def write_scores(path, t, scores) -> None:
    """Write the two-model scores format (12 significant digits) from the
    ``(t, scores)`` layout that :func:`parse_scores` returns."""
    rows = np.column_stack([t, np.reshape(scores, (len(t), 4))])
    Path(path).write_text(_csv_text(SCORES_HEADER, rows), encoding="utf-8")


def _result_dict(r: TwoStepResult) -> dict:
    return {
        "hypothesis": r.hypothesis.value,
        "outcome": r.outcome.value,
        "attribution": r.attribution,
        "stat_m": r.stat_m,
        "stat_c": r.stat_c,
        "c1": r.c1,
        "c2": r.c2,
        "alpha": r.alpha,
        "degenerate_fallback": r.degenerate_fallback,
        "correlation_shrunk": r.correlation_shrunk,
        "omega": asdict(r.omega),
    }


def _matrix_compare(args, hypothesis: Hypothesis, hac: HacConfig) -> int:
    directory = Path(args.matrix)
    if not directory.is_dir():
        raise ScoresFileError(f"{directory}: not a directory")
    paths = sorted(directory.glob("*.csv"))
    if len(paths) < 2:
        raise ScoresFileError(f"{directory}: need at least 2 model score files")
    tables = []
    for p in paths:
        t, table = parse_single_model_scores(p)
        # equal to the previous index, hence to the first
        if tables and not np.array_equal(t, t_ref):
            raise ScoresFileError(f"{p}: time index differs from {paths[0]}")
        t_ref = t
        tables.append(table)
    scores = np.stack(tables, axis=1)  # (n, k, 2): model m's pairs in column m

    models = [p.stem for p in paths]
    k = len(models)
    labels: list[list[str | None]] = [[None] * k for _ in range(k)]
    d_m, d_c = np.ascontiguousarray(scores.transpose(2, 1, 0))  # (k, n) each
    # One test per unordered pair, batched by first model in the order of
    # itertools.combinations: at most k - 1 series per batch keeps the
    # stacked differences small.  The pair in the other order has the
    # negated differences, so its result follows exactly by swapped().
    for i in range(k - 1):
        try:
            batch = _two_step_batch(d_m[i] - d_m[i + 1:], d_c[i] - d_c[i + 1:], hac,
                                    args.alpha, (hypothesis,))
        except ValueError as exc:
            if hasattr(exc, "row"):  # a failed series: row r is the pair (i, i + 1 + r)
                exc.args = (f"{models[i]} vs {models[i + 1 + exc.row]}: {exc}",)
            raise
        for j, ij, ji in zip(range(i + 1, k), batch.outcome[0], batch.swapped().outcome[0]):
            labels[i][j], labels[j][i] = _LABELS[ij], _LABELS[ji]

    payload = {
        "config": {
            "directory": str(directory),
            "hypothesis": hypothesis.value,
            "alpha": args.alpha,
            "hac_lags": hac.lags,
            "hac_weights": hac.weights,
        },
        "models": models,
        "attribution": labels,
    }
    sys.stdout.write(_json_text(payload))
    if args.out:
        rows = ([name, *labels[i]] for i, name in enumerate(models))
        Path(args.out).write_text(_csv_text(["model", *models], rows), encoding="utf-8")
    return 0


def _outputs(args) -> list[str]:
    """The files the command writes: ``simulate``'s PREFIX.csv and
    PREFIX.json, ``compare``'s --cumdiff or --out, ``cxls-demo``'s --out."""
    if args.command == "simulate":
        return [args.out + ".csv", args.out + ".json"]
    return [path for path in (args.out, getattr(args, "cumdiff", None)) if path is not None]


def cmd_compare(args) -> int:
    hypothesis = Hypothesis(args.hypothesis)
    hac = HacConfig(lags=args.hac_lags, weights=args.hac_weights)
    if args.matrix is not None:
        return _matrix_compare(args, hypothesis, hac)
    # the second header cell decides the format: s_marg_1 or logf_1_1
    text = _read_text(args.scores)
    header, _ = _csv_rows(args.scores, text)
    densities = len(header) > 1 and header[1].startswith("logf_")
    parse = parse_density_scores if densities else parse_scores
    t, scores = parse(args.scores, text)
    d = score_diffs(scores[:, 0], scores[:, 1])
    result = two_step_test(d, hac, args.alpha, hypothesis)
    steps = np.arange(1, t.size + 1)
    cum_d_m = np.cumsum(d.d_m) / steps
    cum_d_c = np.cumsum(d.d_c) / steps
    averages = {
        f"model_{m + 1}": {
            "s_marg": scores[:, m, 0].mean(),
            "s_cop": scores[:, m, 1].mean(),
        }
        for m in range(2)
    }
    payload = {
        "config": {
            "scores": str(args.scores),
            "format": "densities" if densities else "scores",
            "n": t.size,
            "alpha": args.alpha,
            "hypothesis": hypothesis.value,
            "hac_lags": hac.lags,
            "hac_weights": hac.weights,
        },
        "result": _result_dict(result),
        "average_scores": averages,
        "cumulative_avg_diffs": {
            "t": t,
            "d_m": cum_d_m,
            "d_c": cum_d_c,
        },
    }
    sys.stdout.write(_json_text(payload))
    if args.cumdiff:
        rows = zip(t, cum_d_m, cum_d_c)
        text = _csv_text(["t", "cum_avg_d_m", "cum_avg_d_c"], rows)
        Path(args.cumdiff).write_text(text, encoding="utf-8")
    return 0


def cmd_simulate(args) -> int:
    spec = DgpSpec(**{f.name: getattr(args, f.name) for f in fields(DgpSpec)})
    rows = run_experiment(
        spec,
        SETTINGS[args.setting],
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        hac=HacConfig(lags=args.hac_lags, weights=args.hac_weights),
        variance_mode=args.variance_mode,
    )
    csv_text = _csv_text([f.name for f in fields(FreqRow)], map(astuple, rows))
    json_text = _json_text({"rows": [asdict(row) for row in rows]})
    for path, text in zip(_outputs(args), (csv_text, json_text)):
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _parse_base(text: str) -> Copula:
    named = {"independence": Independence, "comonotone": Comonotone,
             "countermonotone": Countermonotone}
    if text in named:
        return named[text]()  # each in dimension 2
    if text.startswith("gaussian:"):
        value = text.split(":", 1)[1]
        try:
            rho = float(value)
        except ValueError:
            raise ValueError(
                f"--base {text!r}: RHO in gaussian:RHO must be a number, got {value!r}"
            ) from None
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

    test_options = argparse.ArgumentParser(add_help=False)
    test_options.add_argument("--alpha", type=float, default=0.05)
    test_options.add_argument(
        "--hac-lags", type=int, default=HacConfig.lags,
        help="lag cutoff of the long-run covariance; the series must be longer. "
        "A cutoff above 0 needs bartlett or truncated --hac-weights",
    )
    test_options.add_argument(
        "--hac-weights", choices=HAC_WEIGHTS, default=HacConfig.weights,
        help="lag weights: zero (lag-0 covariance only, --hac-lags 0), "
        "bartlett (1 - h/(lags+1)) or truncated (1)",
    )

    p = sub.add_parser(
        "compare", parents=[test_options], help="two-step test on a per-period scores file"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scores", help="two-model scores or densities CSV (header decides)")
    source.add_argument("--matrix", help="directory of single-model score CSVs")
    p.add_argument(
        "--hypothesis", choices=[h.value for h in Hypothesis], default=Hypothesis.EQUAL.value
    )
    p.add_argument("--cumdiff", help="write cumulative average differences to CSV")
    p.add_argument("--out", help="with --matrix: write the attribution matrix CSV here")
    p.set_defaults(func=cmd_compare, usage_error=p.error)

    p = sub.add_parser(
        "simulate", parents=[test_options], help="rejection-frequency table for one setting"
    )
    p.add_argument("--setting", required=True, choices=sorted(SETTINGS))
    p.add_argument("--n", type=int, required=True)
    garch = ("GARCH(1,1) parameter of the true variances; acts only under "
             "--variance-mode recursive")
    field_help = dict.fromkeys(("omega0", "alpha0", "beta0"), garch)
    field_help["burn_in"] = "steps run before the window; shifts the streams in both variance modes"
    for f in fields(DgpSpec)[1:]:  # one flag per process parameter after n
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=f.default, help=field_help.get(f.name))
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output path prefix (.csv/.json)")
    p.add_argument("--variance-mode", choices=VARIANCE_MODES, default=VARIANCE_MODES[0])
    p.set_defaults(func=cmd_simulate, usage_error=p.error)

    p = sub.add_parser("cxls-demo", help="sample from a two-block mixture copula")
    p.add_argument("--base", required=True)
    p.add_argument("--direction", choices=["ur", "lr"], required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cxls_demo, usage_error=p.error)
    return parser


def main(argv=None) -> int:
    # one exit hook per process; outputs are closed by then (see README, CLI)
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    # the subcommand's parser, so that its usage line goes with the error
    usage_error = args.usage_error
    for flag in ("scores", "matrix", "out", "cumdiff"):
        if getattr(args, flag, None) == "":
            usage_error(f"--{flag} needs a nonempty path")
    if args.command == "compare":
        # flags that the chosen input would otherwise silently ignore
        if args.scores is not None and args.out is not None:
            usage_error("compare --out applies only to --matrix")
        if args.matrix is not None and args.cumdiff is not None:
            usage_error("compare --cumdiff applies only to --scores")
    try:
        # refuse an output file that cannot be written before any work
        for path in map(Path, _outputs(args)):
            if not path.parent.is_dir():
                problem = "is not a directory" if path.parent.exists() else "does not exist"
                raise ValueError(f"output directory {path.parent} {problem}")
            if path.is_dir():
                raise ValueError(f"output path {path} is a directory")
            # simulate --out DIR/ would name the files DIR/.csv and DIR/.json
            if path.name in (".csv", ".json"):
                raise ValueError(f"output path {path} has an empty file stem")
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
