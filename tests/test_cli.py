"""Tests for the CSV formats, the JSON report, and the three subcommands."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from copulascore.cli import (
    ScoresFileError,
    main,
    parse_density_scores,
    parse_scores,
    parse_single_model_scores,
    write_scores,
)
from copulascore import cli, inference, sim_harness
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


def simulated_scores_file(path, n, seed, widths1, widths2):
    """Scores of two contaminated forecasters on one simulated path;
    ``widths*`` are (marginal, correlation) noise half-widths."""
    import math as _math

    from copulascore.copulas import GaussianEquiCorr
    from copulascore.dist_math import EquiCorr
    from copulascore.scoring import MarginalForecast, s_cop, s_marg
    from copulascore.sim_harness import DgpSpec, simulate_path

    spec = DgpSpec(n=n)
    y, sigma = simulate_path(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cols = {"sm1": [], "sc1": [], "sm2": [], "sc2": []}
    dm1 = rng.uniform(1 - widths1[0], 1 + widths1[0], n)
    dc1 = rng.uniform(1 - widths1[1], 1 + widths1[1], n)
    dm2 = rng.uniform(1 - widths2[0], 1 + widths2[0], n)
    dc2 = rng.uniform(1 - widths2[1], 1 + widths2[1], n)
    for t in range(n):
        f1 = MarginalForecast(_math.sqrt(dm1[t]) * sigma[t])
        c1 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * dc1[t]))
        f2 = MarginalForecast(_math.sqrt(dm2[t]) * sigma[t])
        c2 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * dc2[t]))
        cols["sm1"].append(s_marg(f1, y[t]))
        cols["sc1"].append(s_cop(c1, f1, y[t]))
        cols["sm2"].append(s_marg(f2, y[t]))
        cols["sc2"].append(s_cop(c2, f2, y[t]))
    # columns s_marg_1, s_cop_1, s_marg_2, s_cop_2 -> scores[:, model, component]
    scores = np.array([cols["sm1"], cols["sc1"], cols["sm2"], cols["sc2"]]).T.reshape(n, 2, 2)
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

    @pytest.mark.parametrize("flag", ["--scores", "--matrix"])
    def test_empty_input_path_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["compare", flag, ""])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--matrix", str(FIXTURES / "synthetic_model_scores"), "--cumdiff", "x.csv"],
             "--cumdiff"),
            (["--matrix", str(FIXTURES / "synthetic_model_scores"), "--format", "densities"],
             "--format densities"),
            (["--scores", str(FIXTURES / "synthetic_scores.csv"), "--out", "m.csv"], "--out"),
        ],
    )
    def test_flag_of_the_other_input_rejected(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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
        assert main(["compare", "--scores", str(dens), "--format", "densities"]) == 0
        from_densities = json.loads(capsys.readouterr().out)
        assert main(["compare", "--scores", str(reduced)]) == 0
        from_scores = json.loads(capsys.readouterr().out)
        for key in ("result", "average_scores", "cumulative_avg_diffs"):
            assert from_densities[key] == from_scores[key]

    def test_compare_accepts_densities(self, tmp_path, capsys):
        p = tmp_path / "dens.csv"
        self._write_density_file(p)
        rc = main(["compare", "--scores", str(p), "--format", "densities"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["format"] == "densities"

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

    def test_needs_two_files(self, tmp_path, capsys):
        d = tmp_path / "one"
        d.mkdir()
        (d / "only.csv").write_text("t,s_marg,s_cop\n1,0,0\n2,0,0\n")
        rc = main(["compare", "--matrix", str(d)])
        assert rc == 1

    def test_mismatched_time_index(self, tmp_path):
        d = tmp_path / "mix"
        d.mkdir()
        (d / "a.csv").write_text("t,s_marg,s_cop\n1,0,1\n2,1,0\n")
        (d / "b.csv").write_text("t,s_marg,s_cop\n1,0,1\n3,1,0\n")
        rc = main(["compare", "--matrix", str(d)])
        assert rc == 1


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

    @pytest.mark.parametrize(
        "flag, value", [("--omega0", "nan"), ("--omega0", "inf"), ("--alpha0", "nan"),
                        ("--beta0", "-inf")]
    )
    def test_non_finite_garch_parameter_exits_before_simulating(
        self, flag, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("simulated"))
        rc = main(["simulate", "--setting", "i", "--n", "50", "--reps", "2", "--seed", "1",
                   f"{flag}={value}", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert flag[2:] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, message",
        [(["--alpha", "1.5"], "alpha must lie in (0, 1)"),
         (["--hac-lags", "400"], "series length 300 must exceed lag cutoff 400")],
    )
    def test_bad_level_or_lag_cutoff_exits_before_simulating(
        self, flags, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            sim_harness, "_experiment_diffs", lambda *a, **k: pytest.fail("simulated")
        )
        rc = main(["simulate", "--setting", "ii", "--n", "300", "--reps", "2000", "--seed", "1",
                   *flags, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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


class TestParser:
    @pytest.mark.parametrize("command", ["compare", "simulate", "cxls-demo"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--help" in capsys.readouterr().out

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
