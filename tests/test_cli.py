"""Tests for the CSV formats, the JSON report, and the three subcommands."""

import csv
import functools
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulascore.cli import (
    ScoresFileError,
    main,
    parse_density_scores,
    parse_scores,
    parse_single_model_scores,
    write_scores,
)
from copulascore import cli, inference, sim_harness
from copulascore.copulas import Mixture2D
from copulascore.inference import HacConfig, Hypothesis, score_diffs, two_step_test

FIXTURES = Path(__file__).parent.parent / "fixtures"


def make_scores_file(path, t, sm1, sc1, sm2, sc2):
    lines = ["t,s_marg_1,s_cop_1,s_marg_2,s_cop_2"]
    for row in zip(t, sm1, sc1, sm2, sc2):
        lines.append(",".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseScores:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "s.csv"
        make_scores_file(p, [1, 2, 3], [0.1, 0.2, 0.3], [1, 2, 3], [4, 5, 6], [7, 8, 9])
        t, scores = parse_scores(p)
        np.testing.assert_array_equal(t, [1.0, 2.0, 3.0])
        assert scores.shape == (3, 2, 2)
        np.testing.assert_array_equal(scores[:, 0, 0], [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(scores[:, 0, 1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(scores[:, 1, 0], [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(scores[:, 1, 1], [7.0, 8.0, 9.0])

    def test_header_typo_names_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,s_marg_1,s_cop1,s_marg_2,s_cop_2\n1,0,0,0,0\n2,0,0,0,0\n")
        with pytest.raises(ScoresFileError, match="s_cop1"):
            parse_scores(p)

    def test_nan_cell_rejected_with_row(self, tmp_path):
        p = tmp_path / "s.csv"
        make_scores_file(p, [1, 2, 3], [0.1, "NaN", 0.3], [1, 2, 3], [4, 5, 6], [7, 8, 9])
        with pytest.raises(ScoresFileError, match="row 2"):
            parse_scores(p)

    def test_non_numeric_cell_diagnostics(self, tmp_path):
        p = tmp_path / "s.csv"
        make_scores_file(p, [1, 2], [0.1, "oops"], [1, 2], [4, 5], [7, 8])
        with pytest.raises(ScoresFileError, match=r"row 2.*s_marg_1.*oops"):
            parse_scores(p)

    def test_non_increasing_t(self, tmp_path):
        p = tmp_path / "s.csv"
        make_scores_file(p, [1, 3, 2], [0, 0, 0], [1, 2, 3], [0, 0, 0], [1, 2, 3])
        with pytest.raises(ScoresFileError, match="strictly increasing"):
            parse_scores(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "s.csv"
        make_scores_file(p, [1], [0], [1], [0], [1])
        with pytest.raises(ScoresFileError, match="at least 2"):
            parse_scores(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScoresFileError):
            parse_scores(tmp_path / "nope.csv")

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,s_marg_1,s_cop_1,s_marg_2,s_cop_2\n1,0,0,0,0\n2,0,0,0\n")
        with pytest.raises(ScoresFileError, match="row 2"):
            parse_scores(p)

    def test_cells_parse_as_float_does(self, tmp_path):
        # the array cast accepts what float() accepts, with the same values
        cells = ["1_000", " 1.5 ", "\u0661\u0662", "+2e-3", "-0", ".5", "1e-400"]
        p = tmp_path / "s.csv"
        make_scores_file(p, [1, 2, 3, 4, 5, 6, 7], cells, cells, cells, cells)
        _, scores = parse_scores(p)
        expected = [float(c) for c in cells]
        np.testing.assert_array_equal(scores[:, 0, 0], expected)
        assert np.signbit(scores[4, 1, 1])

    def test_first_error_in_row_order(self, tmp_path):
        # a bad cell in row 1 is reported before a ragged row 2
        p = tmp_path / "s.csv"
        p.write_text("t,s_marg_1,s_cop_1,s_marg_2,s_cop_2\n1,0,x,0,0\n2,0,0,0\n3,inf,0,0,0\n")
        with pytest.raises(ScoresFileError, match=r"row 1, column 's_cop_1'"):
            parse_scores(p)


class TestRoundTrip:
    def test_write_parse_idempotent(self, tmp_path):
        rng = np.random.default_rng(0)
        t, scores = np.arange(1.0, 21.0), rng.standard_normal((20, 2, 2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores(p1, t, scores)
        once = parse_scores(p1)
        write_scores(p2, *once)
        twice = parse_scores(p2)
        assert once[1].shape == (20, 2, 2)
        for a, b in zip(once, twice):
            np.testing.assert_array_equal(a, b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_twelve_digit_scores_parse_back_exactly(self, tmp_path):
        # values with at most 12 significant digits survive write then parse
        rng = np.random.default_rng(1)
        t = np.arange(1.0, 31.0)
        scores = np.vectorize(lambda v: float(f"{v:.12g}"))(rng.standard_normal((30, 2, 2)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores(p1, t, scores)
        parsed_t, parsed = parse_scores(p1)
        assert (parsed_t == t).all() and (parsed == scores).all()
        write_scores(p2, parsed_t, parsed)
        assert p1.read_bytes() == p2.read_bytes()


def reference_parse_table(path, header):
    """The parser that the ``np.loadtxt`` path replaced, kept as an oracle:
    every row through the csv reader, one array cast of all cells, and a
    cell-by-cell scan only to locate an error."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ScoresFileError(f"{path}: empty file")
    actual, raw_rows = rows[0], rows[1:]
    if actual != header:
        for i, name in enumerate(header):
            if i >= len(actual):
                raise ScoresFileError(f"{path}: header is missing column '{name}'")
            if actual[i] != name:
                raise ScoresFileError(
                    f"{path}: header column {i + 1} is '{actual[i]}', expected '{name}'"
                )
        raise ScoresFileError(
            f"{path}: header has {len(actual)} columns, expected {len(header)}"
        )
    if len(raw_rows) < 2:
        raise ScoresFileError(f"{path}: need at least 2 data rows, found {len(raw_rows)}")
    try:
        data = np.array(raw_rows, dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
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
    t = data[:, 0]
    if np.any(np.diff(t) <= 0.0):
        bad = int(np.argmax(np.diff(t) <= 0.0)) + 2
        raise ScoresFileError(f"{path}: row {bad}: t must be strictly increasing")
    return data


def _parse_outcome(parse):
    """(shape, bytes) of the parsed array, or the error message."""
    try:
        data = parse()
    except ScoresFileError as exc:
        return "error", str(exc)
    return "ok", data.shape, data.tobytes()


_odd_cells = st.sampled_from([
    "1_0", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1e-400", "#1", "# 2",
    '"1.5"', '"1,5"', "", " ", " 2 ", "\t3", "\xa04", "+3", "-0", ".5", "1.", "1e5 ",
    "0x10", "1d5", "abc", "1 2", "\u0661\u0662", "infinity",
])
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    # long mantissas and exponents near the double range
    st.builds(
        "{}.{}e{}".format,
        st.integers(-10**20, 10**20),
        st.integers(0, 10**20),
        st.integers(-330, 330),
    ),
)
_cells = st.one_of(_numbers, _odd_cells)


@st.composite
def _table_texts(draw, header):
    """File text for a parser of ``header``: usually well formed, with
    blank, whitespace-only and comment lines, CRLF endings, quoted and odd
    cells, trailing commas, ragged rows or a damaged header mixed in."""
    width = len(header)
    head = draw(st.sampled_from([",".join(header)] * 12 + [
        ",".join(header) + ",",
        ",".join(f'"{h}"' for h in header),
        ",".join(header[:-1]),
        ",".join(header).replace("s_cop", "s_kop"),
        "\n" + ",".join(header),
    ]))
    lines = [head]
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["odd", "blank", "space", "comment"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "  ", "\t"])))
        elif kind == "comment":
            lines.append("#" + ",".join(["1"] * width))
        else:
            t = str(i + 1) if draw(st.booleans()) or kind == "row" else draw(_cells)
            n_rest = width - 1 if kind == "row" else draw(st.integers(0, width + 1))
            cells = [t] + [draw(_cells if kind == "odd" else _numbers) for _ in range(n_rest)]
            lines.append(",".join(cells) + ("," if kind == "odd" and draw(st.booleans()) else ""))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestParseEquivalence:
    """The np.loadtxt parse with its csv-reader rescan gives exactly the
    array or the error message of the parser it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), header=st.sampled_from([cli.SINGLE_MODEL_HEADER, cli.SCORES_HEADER]))
    def test_same_array_or_same_error(self, data, header, tmp_path_factory):
        text = data.draw(_table_texts(header))
        path = tmp_path_factory.getbasetemp() / "parse_equivalence.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _parse_outcome(lambda: reference_parse_table(path, header))
        assert _parse_outcome(lambda: cli._parse_table(path, header)) == expected

    @pytest.mark.parametrize("text", [
        "t,s_marg,s_cop\n",
        "t,s_marg,s_cop\n\n\n",
        "t,s_marg,s_cop\n \n",
        "t,s_marg,s_cop\r\n1,2,3\r\n\r\n2,4,5\r\n",
        "t,s_marg,s_cop\n1,2,3\n2,1_0,5\n",
        "t,s_marg,s_cop\n1,2,3\n2,1e400,5\n",
        "t,s_marg,s_cop\n1,2,3,\n2,4,5,\n",
        "t,s_marg,s_cop\n1,2,3\n#2,4,5\n",
        't,s_marg,s_cop\n1,"2",3\n2,4,5\n',
        "t,s_marg,s_cop\n1,2,3\n2,4\n",
        "t,s_marg,s_cop\n1,2,3,4\n2,4,5,6\n",
        "t,s_marg,s_cop\n1,2,3\n",
        "",
    ])
    def test_listed_inputs(self, text, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode("utf-8"))
        header = cli.SINGLE_MODEL_HEADER
        expected = _parse_outcome(lambda: reference_parse_table(path, header))
        assert _parse_outcome(lambda: cli._parse_table(path, header)) == expected

    def test_well_formed_file_skips_the_cell_scan(self, tmp_path, monkeypatch):
        path = tmp_path / "scores.csv"
        path.write_text("t,s_marg,s_cop\n1,0.5,-2\n2,1e-3,4\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_parse_cells", lambda *a: pytest.fail("cell scan ran"))
        _, scores = parse_single_model_scores(path)
        np.testing.assert_array_equal(scores, [[0.5, -2.0], [1e-3, 4.0]])

    def test_bad_cell_is_located_by_the_rescan(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("t,s_marg,s_cop\n1,0.5,-2\n2,1e-3,x\n", encoding="utf-8")
        with pytest.raises(ScoresFileError, match=r"row 2, column 's_cop': non-numeric value 'x'"):
            parse_single_model_scores(path)


def simulated_scores_file(path, n, seed, widths1, widths2):
    """Scores of two contaminated forecasters on one simulated path;
    ``widths*`` are (marginal, correlation) noise half-widths."""
    import math as _math

    from copulascore.copulas import GaussianEquiCorr
    from copulascore.dist_math import EquiCorr
    from copulascore.scoring import MarginalForecast, bivariate_score
    from copulascore.sim_harness import DgpSpec, simulate_path

    spec = DgpSpec(n=n)
    y, sigma = simulate_path(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    scores = np.empty((n, 2, 2))
    dm1 = rng.uniform(1 - widths1[0], 1 + widths1[0], n)
    dc1 = rng.uniform(1 - widths1[1], 1 + widths1[1], n)
    dm2 = rng.uniform(1 - widths2[0], 1 + widths2[0], n)
    dc2 = rng.uniform(1 - widths2[1], 1 + widths2[1], n)
    for t in range(n):
        f1 = MarginalForecast(_math.sqrt(dm1[t]) * sigma[t])
        c1 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * dc1[t]))
        f2 = MarginalForecast(_math.sqrt(dm2[t]) * sigma[t])
        c2 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * dc2[t]))
        # scores[t, model, component]
        scores[t] = bivariate_score(c1, f1, y[t]), bivariate_score(c2, f2, y[t])
    write_scores(path, np.arange(1.0, n + 1.0), scores)
    return path


class TestCompareCommand:
    def _simulated_file(self, tmp_path):
        return simulated_scores_file(
            tmp_path / "sim_scores.csv", n=120, seed=5150,
            widths1=(0.5, 0.5), widths2=(0.1, 0.1),
        )

    def test_matches_in_process_result(self, tmp_path, capsys):
        path = self._simulated_file(tmp_path)
        rc = main(["compare", "--scores", str(path), "--alpha", "0.05",
                   "--hypothesis", "equal"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        _, scores = parse_scores(path)
        d = score_diffs(scores[:, 0], scores[:, 1])
        expected = two_step_test(d, HacConfig(), 0.05, Hypothesis.EQUAL)
        assert payload["result"]["stat_m"] == float(f"{expected.stat_m:.12g}")
        assert payload["result"]["stat_c"] == float(f"{expected.stat_c:.12g}")
        assert payload["result"]["c1"] == float(f"{expected.c1:.12g}")
        assert payload["result"]["c2"] == float(f"{expected.c2:.12g}")
        assert payload["result"]["attribution"] == expected.attribution
        assert payload["config"]["n"] == 120
        # averages recomputable from the file
        assert payload["average_scores"]["model_1"]["s_marg"] == float(
            f"{scores[:, 0, 0].mean():.12g}"
        )

    def test_copula_rejection_on_noisier_correlation(self, tmp_path, capsys):
        """Equally good marginals, forecaster 1 with the noisier correlation:
        the rejection lands at the copula step."""
        path = simulated_scores_file(
            tmp_path / "ii.csv", n=300, seed=777,
            widths1=(0.1, 0.5), widths2=(0.1, 0.1),
        )
        rc = main(["compare", "--scores", str(path), "--hypothesis", "equal"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["attribution"] == "C"

    def test_marginal_rejection_on_shifted_marginals(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        n = 300
        make_scores_file(
            tmp_path / "m.csv",
            list(range(1, n + 1)),
            0.5 + 0.1 * rng.standard_normal(n),
            0.1 * rng.standard_normal(n),
            np.zeros(n),
            0.1 * rng.standard_normal(n),
        )
        rc = main(["compare", "--scores", str(tmp_path / "m.csv")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["attribution"] == "M"

    def test_identical_marginals_report_fallback(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        sm = rng.standard_normal(80)
        make_scores_file(
            tmp_path / "f.csv", range(1, 81), sm, 0.4 + rng.standard_normal(80),
            sm, rng.standard_normal(80),
        )
        rc = main(["compare", "--scores", str(tmp_path / "f.csv")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["degenerate_fallback"] is True
        assert payload["result"]["c1"] == "inf"

    def test_constant_marginal_offset_decides_by_sign(self, tmp_path, capsys):
        # a constant marginal score advantage is deterministic dominance,
        # not identical forecasts: c1 = 0 and the marginal step rejects
        rng = np.random.default_rng(4)
        sm = rng.standard_normal(80)
        make_scores_file(
            tmp_path / "f.csv", range(1, 81), sm + 0.5, rng.standard_normal(80),
            sm, rng.standard_normal(80),
        )
        rc = main(["compare", "--scores", str(tmp_path / "f.csv")])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["attribution"] == "M"
        assert result["c1"] == 0.0
        assert result["degenerate_fallback"] is False

    def test_identical_columns_exit_nonzero(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        sm = rng.standard_normal(50)
        sc = rng.standard_normal(50)
        make_scores_file(tmp_path / "d.csv", range(1, 51), sm, sc, sm, sc)
        rc = main(["compare", "--scores", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "degenerate" in capsys.readouterr().err

    def test_missing_file_exit_nonzero(self, tmp_path, capsys):
        rc = main(["compare", "--scores", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["synthetic_scores.csv", "synthetic_densities.csv"])
    def test_scores_file_read_once(self, name, monkeypatch, capsys):
        reads = []
        read_text = cli._read_text
        monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or read_text(path))
        assert main(["compare", "--scores", str(FIXTURES / name)]) == 0
        assert len(reads) == 1

    @pytest.mark.parametrize(
        "source, path", [("--scores", "synthetic_scores.csv"), ("--matrix", "synthetic_model_scores")]
    )
    def test_level_below_resolution_named(self, source, path, capsys):
        # just below the smallest level, where the second-step solver's
        # absolute tolerance is 0.1% of alpha/2
        rc = main(["compare", source, str(FIXTURES / path), "--alpha", "1.9999999999999997e-09"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == (
            "error: alpha must lie in (0, 1) and be at least 2e-09, got 1.9999999999999997e-09\n"
        )
        assert main(["compare", source, str(FIXTURES / path), "--alpha", "2e-09"]) == 0

    def test_calibration_failure_exit_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(inference, "_SOLVER_MAX_ITER", 1)
        rc = main(["compare", "--scores", str(FIXTURES / "synthetic_scores.csv")])
        assert rc == 1
        assert "second-step solver" in capsys.readouterr().err

    def test_indefinite_long_run_cov_exit_nonzero(self, tmp_path, capsys):
        # truncated weights give a negative long-run variance on this series
        rng = np.random.default_rng(0)
        d_m, d_c = rng.standard_normal(40), rng.standard_normal(40)
        zeros = np.zeros(40)
        make_scores_file(tmp_path / "f.csv", range(1, 41), d_m, d_c, zeros, zeros)
        argv = ["compare", "--scores", str(tmp_path / "f.csv"), "--hac-lags", "15",
                "--hac-weights", "truncated"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "positive semi-definite" in err and "lags=15" in err

    def test_cumdiff_output(self, tmp_path, capsys):
        path = self._simulated_file(tmp_path)
        out = tmp_path / "cum.csv"
        rc = main(["compare", "--scores", str(path), "--cumdiff", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,cum_avg_d_m,cum_avg_d_c"
        assert len(lines) == 121
        # last line equals the average score differences over the window
        _, scores = parse_scores(path)
        d = score_diffs(scores[:, 0], scores[:, 1])
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(d.d_m.mean(), rel=1e-10)
        assert float(last[2]) == pytest.approx(d.d_c.mean(), rel=1e-10)
        assert payload["cumulative_avg_diffs"]["d_m"][-1] == float(last[1])

    def test_scores_and_matrix_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare"])
        with pytest.raises(SystemExit):
            main(["compare", "--scores", "a.csv", "--matrix", "dir"])

    def test_bad_hypothesis_flag(self):
        with pytest.raises(SystemExit):
            main(["compare", "--scores", "a.csv", "--hypothesis", "both"])


class TestDensitiesFormat:
    def _write_density_file(self, path, n=40, dim=3, seed=3, grid=None):
        """With ``grid``, log densities are rounded to multiples of 1/grid, so
        that their sums are exact and print in fewer than 12 digits."""
        rng = np.random.default_rng(seed)
        header = (
            ["t"]
            + [f"logf_1_{j}" for j in range(1, dim + 1)]
            + [f"pit_1_{j}" for j in range(1, dim + 1)]
            + ["logc_1"]
            + [f"logf_2_{j}" for j in range(1, dim + 1)]
            + [f"pit_2_{j}" for j in range(1, dim + 1)]
            + ["logc_2"]
        )
        logf1 = rng.standard_normal((n, dim))
        logf2 = rng.standard_normal((n, dim))
        pit1 = rng.uniform(0.01, 0.99, (n, dim))
        pit2 = rng.uniform(0.01, 0.99, (n, dim))
        logc1 = rng.standard_normal(n)
        logc2 = rng.standard_normal(n)
        if grid:
            logf1, logf2, logc1, logc2 = (
                np.round(a * grid) / grid for a in (logf1, logf2, logc1, logc2)
            )
        lines = [",".join(header)]
        for t in range(n):
            row = (
                [str(t + 1)]
                + [repr(float(v)) for v in logf1[t]]
                + [repr(float(v)) for v in pit1[t]]
                + [repr(float(logc1[t]))]
                + [repr(float(v)) for v in logf2[t]]
                + [repr(float(v)) for v in pit2[t]]
                + [repr(float(logc2[t]))]
            )
            lines.append(",".join(row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return logf1, logf2, logc1, logc2

    def test_reduces_to_scores(self, tmp_path):
        # nine dimensions: the log densities are summed left to right, bit for
        # bit (numpy's pairwise sum of 8 or more terms would differ)
        p = tmp_path / "dens.csv"
        logf1, logf2, logc1, logc2 = self._write_density_file(p, dim=9)
        t, scores = parse_density_scores(p)
        np.testing.assert_array_equal(t, np.arange(1.0, 41.0))
        assert scores.shape == (40, 2, 2)
        for m, (logf, logc) in enumerate(((logf1, logc1), (logf2, logc2))):
            np.testing.assert_array_equal(scores[:, m, 0], -functools.reduce(np.add, logf.T))
            np.testing.assert_array_equal(scores[:, m, 1], -logc)

    def test_compare_matches_the_reduced_scores_file(self, tmp_path, capsys):
        # the densities input and the scores file written from its reduction
        # give the same report (the grid makes the scores print exactly)
        dens, reduced = tmp_path / "dens.csv", tmp_path / "scores.csv"
        self._write_density_file(dens, n=60, dim=9, grid=64)
        write_scores(reduced, *parse_density_scores(dens))
        assert main(["compare", "--scores", str(dens)]) == 0
        from_densities = json.loads(capsys.readouterr().out)
        assert main(["compare", "--scores", str(reduced)]) == 0
        from_scores = json.loads(capsys.readouterr().out)
        for key in ("result", "average_scores", "cumulative_avg_diffs"):
            assert from_densities[key] == from_scores[key]

    def test_compare_accepts_densities(self, tmp_path, capsys):
        # no flag: the header's second cell, logf_1_1, selects the format
        p = tmp_path / "dens.csv"
        self._write_density_file(p)
        rc = main(["compare", "--scores", str(p)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["format"] == "densities"

    def test_malformed_density_header_gets_the_density_error(self, tmp_path, capsys):
        p = tmp_path / "dens.csv"
        p.write_text("t,logf_1_1,pit_1_1,logc_1\n1,0,0.5,0\n2,0,0.5,0\n")
        assert main(["compare", "--scores", str(p)]) == 1
        assert "density format" in capsys.readouterr().err

    def test_format_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scores", str(FIXTURES / "synthetic_densities.csv"),
                  "--format", "densities"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_pit_out_of_range(self, tmp_path):
        p = tmp_path / "dens.csv"
        header = "t,logf_1_1,pit_1_1,logc_1,logf_2_1,pit_2_1,logc_2"
        p.write_text(header + "\n1,0,0.5,0,0,0.5,0\n2,0,1.5,0,0,0.5,0\n")
        with pytest.raises(ScoresFileError, match="probability transforms"):
            parse_density_scores(p)

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "dens.csv"
        p.write_text("t,logf_1_1,pit_1_1,logc_1\n1,0,0.5,0\n2,0,0.5,0\n")
        with pytest.raises(ScoresFileError, match="density format"):
            parse_density_scores(p)


class TestMatrixMode:
    def test_fixtures_matrix(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--matrix",
                str(FIXTURES / "synthetic_model_scores"),
                "--hypothesis",
                "lex",
                "--out",
                str(tmp_path / "matrix.csv"),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["models"] == [f"model_{c}" for c in "abcdefg"]
        matrix = payload["attribution"]
        assert len(matrix) == 7 and all(len(row) == 7 for row in matrix)
        assert all(matrix[i][i] is None for i in range(7))
        # spot-check one pair against the in-process test
        _, model_a = parse_single_model_scores(
            FIXTURES / "synthetic_model_scores" / "model_a.csv"
        )
        _, model_e = parse_single_model_scores(
            FIXTURES / "synthetic_model_scores" / "model_e.csv"
        )
        expected = two_step_test(
            score_diffs(model_a, model_e),
            HacConfig(),
            0.05,
            Hypothesis.LEX_SUPERIORITY,
        )
        assert matrix[0][4] == expected.attribution
        csv_lines = (tmp_path / "matrix.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "model," + ",".join(payload["models"])
        assert len(csv_lines) == 8

    @staticmethod
    def _brute_force(directory, hypothesis):
        """Every ordered pair through its own score_diffs and two_step_test."""
        paths = sorted(Path(directory).glob("*.csv"))
        tables = [parse_single_model_scores(p)[1] for p in paths]
        k = len(tables)
        return [
            [
                None
                if i == j
                else two_step_test(
                    score_diffs(tables[i], tables[j]), HacConfig(), 0.05, hypothesis
                ).attribution
                for j in range(k)
            ]
            for i in range(k)
        ]

    @staticmethod
    def _shared_marginals_dir(tmp_path):
        """Four models in which c has a's marginal scores (fallback path) and
        d has a's marginal scores plus a constant (sign decision)."""
        rng = np.random.default_rng(5)
        n = 40
        t = np.arange(1, n + 1)
        a, b = rng.normal(0.0, 1.0, (2, n, 2))
        c = np.column_stack([a[:, 0], a[:, 1] + rng.normal(0.4, 0.5, n)])
        d = np.column_stack([a[:, 0] + 0.5, rng.normal(0.0, 1.0, n)])
        directory = tmp_path / "shared"
        directory.mkdir()
        for name, scores in zip("abcd", (a, b, c, d)):
            rows = zip(t, scores[:, 0], scores[:, 1])
            text = cli._csv_text(cli.SINGLE_MODEL_HEADER, rows)
            (directory / f"{name}.csv").write_text(text, encoding="utf-8")
        return directory

    @pytest.mark.parametrize("hypothesis", list(Hypothesis))
    @pytest.mark.parametrize("source", ["fixtures", "shared_marginals"])
    def test_matrix_equals_every_ordered_pair_tested(self, source, hypothesis, tmp_path, capsys):
        if source == "fixtures":
            directory = FIXTURES / "synthetic_model_scores"
        else:
            directory = self._shared_marginals_dir(tmp_path)
        argv = ["compare", "--matrix", str(directory), "--hypothesis", hypothesis.value]
        assert main(argv) == 0
        matrix = json.loads(capsys.readouterr().out)["attribution"]
        assert matrix == self._brute_force(directory, hypothesis)

    def test_shared_marginals_take_the_fallback_and_sign_paths(self, tmp_path):
        directory = self._shared_marginals_dir(tmp_path)
        tables = [parse_single_model_scores(directory / f"{m}.csv")[1] for m in "acd"]
        a, c, d = tables
        res = two_step_test(score_diffs(a, c), HacConfig(), 0.05, Hypothesis.EQUAL)
        assert res.degenerate_fallback and res.c1 == math.inf
        res = two_step_test(score_diffs(a, d), HacConfig(), 0.05, Hypothesis.EQUAL)
        assert res.c1 == 0.0 and res.attribution == "M"

    def test_identical_model_files_report_degenerate_series(self, tmp_path, capsys):
        d = tmp_path / "same"
        d.mkdir()
        text = "t,s_marg,s_cop\n1,0.5,1\n2,1.5,0\n3,0.25,2\n"
        (d / "a.csv").write_text("t,s_marg,s_cop\n1,0,1\n2,1,0\n3,2,2\n")
        (d / "b.csv").write_text(text)
        (d / "c.csv").write_text(text)
        assert main(["compare", "--matrix", str(d)]) == 1
        assert capsys.readouterr().err == (
            "error: b vs c: both score-difference components are degenerate; "
            "the forecasts carry no ranking information\n"
        )

    def test_failing_pair_named(self, tmp_path, capsys):
        # model_h copies model_c: row 4 of the batch of model_c (index 2)
        d = tmp_path / "dup"
        d.mkdir()
        for p in (FIXTURES / "synthetic_model_scores").glob("*.csv"):
            (d / p.name).write_bytes(p.read_bytes())
        (d / "model_h.csv").write_bytes((d / "model_c.csv").read_bytes())
        assert main(["compare", "--matrix", str(d)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: model_c vs model_h: both score-difference components")

    def test_needs_two_files(self, tmp_path, capsys):
        d = tmp_path / "one"
        d.mkdir()
        (d / "only.csv").write_text("t,s_marg,s_cop\n1,0,0\n2,0,0\n")
        rc = main(["compare", "--matrix", str(d)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {d}: need at least 2 model score files\n"

    @pytest.mark.parametrize("name", ["missing", "file.csv"])
    def test_path_that_is_not_a_directory_named(self, name, tmp_path, capsys):
        # used to read "need at least 2 model score files"
        (tmp_path / "file.csv").write_text("t,s_marg,s_cop\n1,0,0\n2,0,0\n")
        path = tmp_path / name
        assert main(["compare", "--matrix", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: not a directory\n"
        args = cli._build_parser().parse_args(["compare", "--matrix", str(path)])
        with pytest.raises(ScoresFileError, match="not a directory"):
            cli._matrix_compare(args, Hypothesis.EQUAL, HacConfig())

    def test_mismatched_time_index(self, tmp_path):
        d = tmp_path / "mix"
        d.mkdir()
        (d / "a.csv").write_text("t,s_marg,s_cop\n1,0,1\n2,1,0\n")
        (d / "b.csv").write_text("t,s_marg,s_cop\n1,0,1\n3,1,0\n")
        rc = main(["compare", "--matrix", str(d)])
        assert rc == 1


class TestUnreadableText:
    @pytest.mark.parametrize("source", ["--scores", "--matrix"])
    def test_non_utf8_file_named(self, source, tmp_path, capsys):
        # used to print only the codec's message, which names no file
        good = "t,s_marg,s_cop\n1,0,1\n2,1,0\n3,2,2\n"
        (tmp_path / "a.csv").write_text(good, encoding="utf-8")
        bad = tmp_path / "b.csv"
        bad.write_bytes(good.replace("t,", "t\xe9,").encode("latin-1"))
        path = bad if source == "--scores" else tmp_path
        assert main(["compare", source, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and "utf-8" in err


class TestByteOrderMark:
    """Spreadsheet programs often start a UTF-8 CSV with a byte-order mark."""

    @staticmethod
    def _same_stdout(capsys, args, original, marked):
        assert main(args + [str(original)]) == 0
        expected = capsys.readouterr().out
        assert main(args + [str(marked)]) == 0
        assert capsys.readouterr().out == expected.replace(str(original), str(marked))

    @pytest.mark.parametrize("name", ["synthetic_scores.csv", "synthetic_densities.csv"])
    def test_two_model_file(self, name, tmp_path, capsys):
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
        self._same_stdout(capsys, ["compare", "--scores"], FIXTURES / name, marked)

    def test_one_matrix_file(self, tmp_path, capsys):
        source = FIXTURES / "synthetic_model_scores"
        for path in source.glob("*.csv"):
            mark = b"\xef\xbb\xbf" if path.name == "model_c.csv" else b""
            (tmp_path / path.name).write_bytes(mark + path.read_bytes())
        self._same_stdout(capsys, ["compare", "--matrix"], source, tmp_path)


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path, capsys):
        args = [
            "simulate", "--setting", "i", "--n", "40", "--reps", "8",
            "--seed", "3", "--alpha", "0.05", "--burn-in", "30",
        ]
        rc = main(args + ["--out", str(tmp_path / "run1")])
        assert rc == 0
        rc = main(args + ["--out", str(tmp_path / "run2")])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
        assert (tmp_path / "run1.json").read_bytes() == (tmp_path / "run2.json").read_bytes()
        header = (tmp_path / "run1.csv").read_text().split("\n")[0]
        assert header == "hypothesis,setting,n,marginal_pct,copula_pct,joint_pct,reps,seed"

    def test_single_replication_is_all_or_nothing(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--setting", "ii", "--n", "60", "--reps", "1",
                "--seed", "9", "--burn-in", "30", "--out", str(tmp_path / "one"),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "one.json").read_text())
        for row in payload["rows"]:
            assert row["joint_pct"] in (0.0, 100.0)
            assert row["reps"] == 1

    def test_invalid_setting_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--setting", "vi", "--n", "40", "--seed", "1",
                  "--out", str(tmp_path / "x")])


class TestCxlsDemo:
    def test_independence_upper_right_blocks(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(
            ["cxls-demo", "--base", "independence", "--direction", "ur",
             "--samples", "10000", "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "u1,u2,component"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data.shape == (10000, 3)
        u, comp = data[:, :2], data[:, 2]
        upper_left = np.mean((u[:, 0] <= 0.5) & (u[:, 1] > 0.5))
        lower_right = np.mean((u[:, 0] > 0.5) & (u[:, 1] <= 0.5))
        assert upper_left == 0.0 and lower_right == 0.0
        assert abs(comp.mean() - 0.5) < 0.05

    def test_comonotone_lower_right_antidiagonal(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(
            ["cxls-demo", "--base", "comonotone", "--direction", "lr",
             "--samples", "2000", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        # each block is a rising segment offset by 1/2 from the diagonal
        np.testing.assert_allclose(np.abs(data[:, 0] - data[:, 1]), 0.5, atol=1e-9)

    def test_gaussian_base(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(
            ["cxls-demo", "--base", "gaussian:0.7", "--direction", "ur",
             "--samples", "100", "--seed", "6", "--out", str(out)]
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 101

    def test_zero_samples_header_only(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(
            ["cxls-demo", "--base", "independence", "--direction", "lr",
             "--samples", "0", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text() == "u1,u2,component\n"

    def test_invalid_base(self, tmp_path, capsys):
        rc = main(
            ["cxls-demo", "--base", "clayton", "--direction", "ur",
             "--samples", "10", "--seed", "8", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        assert "unknown base copula" in capsys.readouterr().err


    @pytest.mark.parametrize("base", ["gaussian:abc", "gaussian:"])
    def test_non_numeric_gaussian_rho_names_the_flag(self, tmp_path, capsys, base):
        rc = main(
            ["cxls-demo", "--base", base, "--direction", "ur",
             "--samples", "10", "--seed", "8", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--base" in err and "gaussian:RHO" in err
        assert not (tmp_path / "x.csv").exists()


class TestRefusedBeforeWork:
    SCORES = ["compare", "--scores", str(FIXTURES / "synthetic_scores.csv")]
    MATRIX = ["compare", "--matrix", str(FIXTURES / "synthetic_model_scores")]
    SIM_I = ["simulate", "--setting", "i", "--n", "50", "--reps", "2", "--seed", "1"]
    SIM_II = ["simulate", "--setting", "ii", "--n", "300", "--reps", "2000", "--seed", "1"]
    CXLS = ["cxls-demo", "--base", "independence", "--direction", "ur", "--samples", "2000",
            "--seed", "7"]
    # the work that a row must not reach: each function is replaced by a failing stub
    READ = ((cli, "_read_text"), (cli, "_matrix_compare"))
    STUDY, DRAWS = ((cli, "run_experiment"),), ((sim_harness, "_experiment_diffs"),)
    SAMPLE = ((Mixture2D, "sample_labeled"),)
    ZERO_LAGS = ("lag cutoff 4 has no effect under weights 'zero'; use 'bartlett' or 'truncated' "
                 "weights, or lags 0")
    ALPHA = "alpha must lie in (0, 1) and be at least 2e-09, got "
    MISSING = "output directory missing does not exist"
    # id: argv (run in tmp_path), work, what tmp_path holds, exit code, message
    REFUSALS = {
        # the default zero weights would ignore the cutoff that the report shows
        "scores-zero-lags": ([*SCORES, "--hac-lags", "4"], READ, {}, 1, ZERO_LAGS),
        "matrix-zero-lags": ([*MATRIX, "--hac-lags", "4"], READ, {}, 1, ZERO_LAGS),
        "empty-scores": (["compare", "--scores", ""], READ, {}, 2,
                         "--scores needs a nonempty path"),
        "empty-matrix": (["compare", "--matrix", ""], READ, {}, 2,
                         "--matrix needs a nonempty path"),
        # a flag that the other input would silently ignore
        "matrix-cumdiff": ([*MATRIX, "--cumdiff", "x.csv"], READ, {}, 2,
                           "compare --cumdiff applies only to --scores"),
        "scores-out": ([*SCORES, "--out", "m.csv"], READ, {}, 2,
                       "compare --out applies only to --matrix"),
        "omega0-nan": ([*SIM_I, "--omega0=nan", "--out", "x"], STUDY, {}, 1,
                       "omega0 must be finite and > 0, got nan"),
        "omega0-inf": ([*SIM_I, "--omega0=inf", "--out", "x"], STUDY, {}, 1,
                       "omega0 must be finite and > 0, got inf"),
        "alpha0-nan": ([*SIM_I, "--alpha0=nan", "--out", "x"], STUDY, {}, 1,
                       "alpha0 must be finite and >= 0, got nan"),
        "beta0-minus-inf": ([*SIM_I, "--beta0=-inf", "--out", "x"], STUDY, {}, 1,
                            "beta0 must be finite and >= 0, got -inf"),
        "alpha-above-one": ([*SIM_II, "--alpha", "1.5", "--out", "x"], DRAWS, {}, 1, ALPHA + "1.5"),
        # just below the smallest level
        "alpha-below-floor": ([*SIM_II, "--alpha", "1.9999999999999997e-09", "--out", "x"], DRAWS,
                              {}, 1, ALPHA + "1.9999999999999997e-09"),
        "lags-over-length": ([*SIM_II, "--hac-lags", "400", "--hac-weights", "bartlett", "--out",
                              "x"], DRAWS, {}, 1, "series length 300 must exceed lag cutoff 400"),
        "simulate-zero-lags": ([*SIM_II, "--hac-lags", "4", "--out", "x"], DRAWS, {}, 1, ZERO_LAGS),
        # used to name only the correlation reached
        "contaminated-rho": (["simulate", "--setting", "ii", "--dim", "3", "--rho", "0.7", "--n",
                              "50", "--reps", "2", "--seed", "1", "--out", "x"], DRAWS, {}, 1,
                             "delta_cop=0.5 takes rho=0.7 to rho=1.0499999999999998 outside "
                             "(-0.5, 1) for dim=3; matrix would not be positive definite"),
        # used to exit with numpy's seeding error, which does not name the flag
        "negative-seed": (["simulate", "--setting", "i", "--n", "50", "--reps", "2", "--seed",
                           "-1", "--out", "x"], DRAWS, {}, 1, "seed must be an integer >= 0, got -1"),
        # each output file below used to fail only at its write, after the work
        "missing-dir-simulate": ([*SIM_II, "--out", "missing/results"], STUDY, {}, 1, MISSING),
        # the files are missing/.csv and missing/.json
        "missing-dir-simulate-prefix": ([*SIM_II, "--out", "missing/"], STUDY, {}, 1, MISSING),
        # used to write the hidden files d/.csv and d/.json and exit 0
        "dir-simulate-prefix": ([*SIM_II, "--out", "d/"], STUDY, {"d": None}, 1,
                                "output path d/.csv has an empty file stem"),
        "missing-dir-matrix-out": ([*MATRIX, "--out", "missing/m.csv"], READ, {}, 1, MISSING),
        "missing-dir-cumdiff": ([*SCORES, "--cumdiff", "missing/cum.csv"], READ, {}, 1, MISSING),
        "missing-dir-cxls-demo": ([*CXLS, "--out", "missing/mixture.csv"], SAMPLE, {}, 1, MISSING),
        "dir-cumdiff": ([*SCORES, "--cumdiff", "d"], READ, {"d": None}, 1,
                        "output path d is a directory"),
        "dir-matrix-out": ([*MATRIX, "--out", "d"], READ, {"d": None}, 1,
                           "output path d is a directory"),
        "dir-cxls-demo": ([*CXLS, "--out", "d"], SAMPLE, {"d": None}, 1,
                          "output path d is a directory"),
        "dir-simulate-csv": ([*SIM_II, "--out", "P"], STUDY, {"P.csv": None}, 1,
                             "output path P.csv is a directory"),
        # used to overwrite P.csv, then fail at P.json
        "dir-simulate-json": ([*SIM_II, "--out", "P"], STUDY, {"P.csv": b"old\n", "P.json": None},
                              1, "output path P.json is a directory"),
        # simulate used to write .csv and .json here, compare to write nothing and exit 0
        "empty-simulate-out": ([*SIM_II, "--out", ""], STUDY, {}, 2, "--out needs a nonempty path"),
        "empty-cxls-demo-out": ([*CXLS, "--out", ""], SAMPLE, {}, 2, "--out needs a nonempty path"),
        "empty-cumdiff": ([*SCORES, "--cumdiff", ""], READ, {}, 2,
                          "--cumdiff needs a nonempty path"),
        "empty-matrix-out": ([*MATRIX, "--out", ""], READ, {}, 2, "--out needs a nonempty path"),
    }

    @pytest.mark.parametrize("argv, work, setup, code, message", list(REFUSALS.values()),
                             ids=list(REFUSALS))
    def test_refused_before_any_work(
        self, argv, work, setup, code, message, tmp_path, monkeypatch, capsys
    ):
        for owner, name in work:
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
        for name, content in setup.items():
            (tmp_path / name).mkdir() if content is None else (tmp_path / name).write_bytes(content)
        monkeypatch.chdir(tmp_path)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        assert (rc, out) == (code, "")
        if code == 1:
            assert err == f"error: {message}\n"
        else:  # the subcommand's usage and error lines
            assert err.startswith(f"usage: copulascore {argv[0]} ")
            assert err.endswith(f"\ncopulascore {argv[0]}: error: {message}\n")
        held = {p.relative_to(tmp_path).as_posix(): None if p.is_dir() else p.read_bytes()
                for p in tmp_path.rglob("*")}
        assert held == setup


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "copulascore.cli", "compare",
                "--scores", str(FIXTURES / "synthetic_scores.csv"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["result"]["attribution"] in ("0", "M", "C")

    def test_exit_hook_freezes_the_heap_once_and_keeps_outputs(self, tmp_path):
        """main registers gc.freeze to run at exit, once however often it
        is called.  A probe registered before main runs after the hook,
        since atexit handlers run last in, first out, and sees one freeze
        and a frozen heap.  The files of ``python -m copulascore.cli
        simulate`` equal those of in-process main runs byte for byte."""
        import subprocess
        import sys
        import textwrap

        argv = ["simulate", "--setting", "ii", "--n", "40", "--reps", "8", "--seed", "3"]
        script = textwrap.dedent(f"""
            import atexit, gc, sys
            from copulascore.cli import main
            freeze, calls = gc.freeze, []
            gc.freeze = lambda: calls.append(freeze())  # main looks it up per call
            atexit.register(lambda: print("frozen", len(calls), gc.get_freeze_count()))
            for name in ("a", "b"):
                assert main({argv!r} + ["--out", sys.argv[1] + "/" + name]) == 0
        """)
        probe = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                               capture_output=True, text=True, check=True)
        label, calls, count = probe.stdout.splitlines()[-1].split()
        assert (label, calls) == ("frozen", "1") and int(count) > 0
        subprocess.run([sys.executable, "-m", "copulascore.cli", *argv, "--out",
                        str(tmp_path / "m")], capture_output=True, check=True)
        assert main([*argv, "--out", str(tmp_path / "p")]) == 0
        for suffix in (".csv", ".json"):
            module = (tmp_path / f"m{suffix}").read_bytes()
            for name in "abp":
                assert (tmp_path / f"{name}{suffix}").read_bytes() == module


class TestRuntimeWithoutScipy:
    """The runtime needs numpy and the standard library only; scipy is a
    test dependency."""

    def test_import_loads_no_scipy(self):
        import subprocess
        import sys

        code = ("import sys, copulascore, copulascore.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout == "[]\n"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        """With an import hook that refuses scipy, compare and simulate print
        the same bytes as without it."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(f"""
            import sys
            class Blocker:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(name + " is blocked")
            if sys.argv[1] == "block":
                sys.meta_path.insert(0, Blocker())
            from copulascore.cli import main
            assert main(["compare", "--scores", {str(FIXTURES / "synthetic_scores.csv")!r}]) == 0
            assert main(["simulate", "--setting", "i", "--n", "40", "--reps", "4", "--seed", "1",
                         "--out", {str(tmp_path)!r} + "/" + sys.argv[1]]) == 0
        """)
        runs = [subprocess.run([sys.executable, "-c", script, mode], capture_output=True,
                               check=True).stdout for mode in ("block", "plain")]
        assert runs[0] == runs[1] and runs[0].startswith(b"{")


class TestParser:
    @pytest.mark.parametrize("command", ["compare", "simulate", "cxls-demo"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out

    def test_simulate_help_says_where_process_parameters_act(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        garch = ("GARCH(1,1) parameter of the true variances; acts only under "
                 "--variance-mode recursive")
        for flag in ("--omega0 OMEGA0", "--alpha0 ALPHA0", "--beta0 BETA0"):
            assert f"{flag} {garch}" in text
        burn_in = "steps run before the window; shifts the streams in both variance modes"
        assert f"--burn-in BURN_IN {burn_in}" in text

    def test_defaults_come_from_the_library(self):
        from copulascore.cli import _build_parser
        from copulascore.sim_harness import DgpSpec

        args = _build_parser().parse_args(
            ["simulate", "--setting", "i", "--n", "50", "--seed", "1", "--out", "x"]
        )
        spec = DgpSpec(n=50)
        assert (args.dim, args.rho, args.omega0, args.alpha0, args.beta0, args.burn_in) == (
            spec.dim, spec.rho, spec.omega0, spec.alpha0, spec.beta0, spec.burn_in
        )
        assert HacConfig(args.hac_lags, args.hac_weights) == HacConfig()
        args = _build_parser().parse_args(["compare", "--scores", "a.csv"])
        assert HacConfig(args.hac_lags, args.hac_weights) == HacConfig()
        assert Hypothesis(args.hypothesis) is Hypothesis.EQUAL

    def test_process_flags_keep_their_types(self):
        from copulascore.cli import _build_parser

        args = _build_parser().parse_args(
            ["simulate", "--setting", "i", "--n", "50", "--seed", "1", "--out", "x",
             "--dim", "3", "--burn-in", "10", "--rho", "0.25", "--omega0", "2e-3",
             "--alpha0", "0.05", "--beta0", "0.4"]
        )
        assert (args.dim, args.burn_in) == (3, 10)
        assert isinstance(args.dim, int) and isinstance(args.burn_in, int)
        assert (args.rho, args.omega0, args.alpha0, args.beta0) == (0.25, 2e-3, 0.05, 0.4)
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["simulate", "--setting", "i", "--n", "50", "--seed", "1", "--out", "x",
                 "--dim", "2.5"]
            )


class TestJsonText:
    def test_rounds_floats_and_numpy_scalars_in_nested_containers(self):
        payload = {
            "b": [np.float64(1 / 3), 2, True, {"x": np.int64(7), "y": np.bool_(False)}],
            "a": (0.1 + 0.2, math.inf, None, "label"),
            "arr": np.array([1.0, 2 / 3]),
        }
        text = cli._json_text(payload)
        assert text.endswith("}\n")
        assert json.loads(text) == {
            "b": [0.333333333333, 2, True, {"x": 7, "y": False}],
            "a": [0.3, "inf", None, "label"],
            "arr": [1.0, 0.666666666667],
        }
        # key order is kept, and ints and bools are not written as floats
        assert list(json.loads(text)) == ["b", "a", "arr"]
        assert '"x": 7' in text and "true" in text and '"y": false' in text


class TestFixtures:
    def test_pairwise_fixture_compares(self, capsys):
        rc = main(["compare", "--scores", str(FIXTURES / "synthetic_scores.csv")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n"] == 223

    def test_fixture_generator_is_reproducible(self, tmp_path):
        import shutil
        import subprocess
        import sys

        work = tmp_path / "fixtures"
        shutil.copytree(FIXTURES, work)
        subprocess.run(
            [sys.executable, str(work / "make_fixtures.py")], check=True
        )
        committed = sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.csv"))
        assert len(committed) == 9
        for rel in committed:
            assert (work / rel).read_bytes() == (FIXTURES / rel).read_bytes(), rel
