"""Tests for the data generating process, the contaminated forecasters, and
the rejection-frequency experiment driver."""

import math
import tracemalloc

import numpy as np
import pytest

from copulascore import sim_harness
from copulascore.copulas import GaussianEquiCorr
from copulascore.dist_math import EquiCorr
from copulascore.inference import HacConfig, Hypothesis, ScoreDiffSeries, two_step_test
from copulascore.scoring import MarginalForecast, s_cop, s_marg, score_arrays
from copulascore.sim_harness import (
    SETTINGS,
    VARIANCE_MODES,
    ContaminationSpec,
    DgpSpec,
    Setting,
    _draw_contamination,
    _experiment_diffs,
    _garch_paths,
    _rep_rng,
    run_experiment,
    simulate_path,
)


class TestDgpSpec:
    def test_stationarity_required(self):
        with pytest.raises(ValueError):
            DgpSpec(n=100, alpha0=0.5, beta0=0.5)

    def test_rho_validity_depends_on_dim(self):
        DgpSpec(n=100, dim=2, rho=-0.5)
        with pytest.raises(ValueError):
            DgpSpec(n=100, dim=5, rho=-0.5)

    @pytest.mark.parametrize("field", ["omega0", "alpha0", "beta0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_garch_parameter_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            DgpSpec(n=100, **{field: value})

    def test_stationary_variance(self):
        spec = DgpSpec(n=10)
        assert spec.stationary_variance == pytest.approx(0.001 / 0.4)


class TestSimulatePath:
    def test_shapes_and_determinism(self):
        spec = DgpSpec(n=50, dim=3, burn_in=10)
        y1, s1 = simulate_path(spec, seed=7)
        y2, s2 = simulate_path(spec, seed=7)
        assert y1.shape == s1.shape == (50, 3)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(s1, s2)
        y3, _ = simulate_path(spec, seed=8)
        assert np.any(y3 != y1)

    def test_degenerate_garch_is_iid_normal(self):
        spec = DgpSpec(n=200_000, dim=2, omega0=0.001, alpha0=0.0, beta0=0.0, rho=0.0,
                       burn_in=5)
        y, sigma = simulate_path(spec, seed=1)
        np.testing.assert_allclose(sigma, math.sqrt(0.001), atol=1e-15)
        z = y / math.sqrt(0.001)
        n = z.shape[0]
        assert abs(z.mean()) <= 4 / math.sqrt(2 * n)
        assert z.var() == pytest.approx(1.0, abs=0.02)
        lag1 = np.corrcoef(z[:-1, 0], z[1:, 0])[0, 1]
        assert abs(lag1) <= 4 / math.sqrt(n)

    def test_volatilities_positive_and_consistent(self):
        spec = DgpSpec(n=300)
        y, sigma = simulate_path(spec, seed=2)
        assert np.all(sigma > 0)
        # the recursion ties sigma_{t+1} to (y_t, sigma_t)
        expected = np.sqrt(
            spec.omega0 + spec.alpha0 * y[:-1] ** 2 + spec.beta0 * sigma[:-1] ** 2
        )
        np.testing.assert_allclose(sigma[1:], expected, rtol=1e-12)


MOMENT_BATCHES, MOMENT_STEPS = 50, 20_000


@pytest.fixture(scope="module")
def pooled():
    spec = DgpSpec(n=MOMENT_STEPS, burn_in=200)
    rng = np.random.default_rng(314)
    chol = np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())
    eps = rng.standard_normal((MOMENT_BATCHES, spec.burn_in + MOMENT_STEPS, spec.dim))
    eps = eps @ chol.T
    # _garch_paths is time-major and returns the window: (steps, batches, dim)
    y, sigma2 = _garch_paths(spec, eps.transpose(1, 0, 2))
    return spec, y.transpose(1, 0, 2), sigma2.transpose(1, 0, 2)


class TestLongRunMoments:
    """Moment checks pooled over independent batches totalling 1e6 steps."""

    def test_unconditional_variance_matches_stationary_value(self, pooled):
        spec, y, _ = pooled
        batch_means = (y**2).mean(axis=(1, 2))
        se = batch_means.std(ddof=1) / math.sqrt(MOMENT_BATCHES)
        assert abs(batch_means.mean() - spec.stationary_variance) <= 3 * se

    def test_standardized_residual_correlation(self, pooled):
        spec, y, sigma2 = pooled
        z = y / np.sqrt(sigma2)
        corrs = []
        for i in range(spec.dim):
            for j in range(i + 1, spec.dim):
                corrs.append(np.corrcoef(z[..., i].ravel(), z[..., j].ravel())[0, 1])
        assert np.mean(corrs) == pytest.approx(spec.rho, abs=0.01)


class TestContamination:
    def test_zero_widths_recover_truth(self):
        dm, dc = _draw_contamination(ContaminationSpec(0.0, 0.0), 10, np.random.default_rng(0))
        np.testing.assert_array_equal(dm, np.ones(10))
        np.testing.assert_array_equal(dc, np.ones(10))

    def test_variance_scales_by_draw(self):
        cspec = ContaminationSpec(0.5, 0.2)
        dm, dc = _draw_contamination(cspec, 50, np.random.default_rng(42))
        # replay the documented draw order to recover the disturbances
        rng = np.random.default_rng(42)
        np.testing.assert_array_equal(dm, rng.uniform(0.5, 1.5, size=50))
        np.testing.assert_array_equal(dc, rng.uniform(0.8, 1.2, size=50))
        assert np.all(np.abs(dm - 1.0) <= 0.5) and np.all(np.abs(dc - 1.0) <= 0.2)

    def test_half_width_interval_stays_valid(self):
        spec = DgpSpec(n=10, dim=5, rho=0.5)
        ContaminationSpec(0.0, 0.5).check_against(spec)

    def test_invalid_contaminated_correlation(self):
        spec = DgpSpec(n=10, dim=5, rho=0.5)
        with pytest.raises(ValueError):
            ContaminationSpec(0.0, 1.5).check_against(spec)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            ContaminationSpec(-0.1, 0.0)

    @pytest.mark.parametrize("delta_marg", [1.0, 1.5, math.nan, math.inf])
    def test_marginal_width_below_one(self, delta_marg):
        # a width >= 1 would allow zero or negative forecast variances
        with pytest.raises(ValueError, match="delta_marg"):
            ContaminationSpec(delta_marg, 0.1)

    @pytest.mark.parametrize("delta_cop", [math.nan, math.inf])
    def test_non_finite_copula_width_named(self, delta_cop):
        with pytest.raises(ValueError, match="delta_cop"):
            ContaminationSpec(0.1, delta_cop)


class TestExperimentDiffs:
    def test_rows_depend_only_on_seed_and_index(self):
        spec = DgpSpec(n=40, burn_in=20)
        setting = SETTINGS["ii"]
        dm3, dc3 = _experiment_diffs(spec, setting, reps=3, seed=5)
        dm5, dc5 = _experiment_diffs(spec, setting, reps=5, seed=5)
        np.testing.assert_array_equal(dm3, dm5[:3])
        np.testing.assert_array_equal(dc3, dc5[:3])

    def test_batch_matches_scalar_scoring(self):
        """Rebuild each replication with the scalar scoring API, drawing from
        the same per-replication stream in the documented order."""
        spec = DgpSpec(n=25, dim=3, rho=0.4, burn_in=15)
        setting = Setting("x", ContaminationSpec(0.3, 0.4), ContaminationSpec(0.1, 0.2))
        reps = 4
        d_m, d_c = _experiment_diffs(spec, setting, reps=reps, seed=99)

        chol = np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())
        for r in range(reps):
            rng = _rep_rng(99, r)
            eps = rng.standard_normal((spec.burn_in + spec.n, spec.dim)) @ chol.T
            draws = {}
            for name, width in (
                ("dm1", setting.spec1.delta_marg),
                ("dc1", setting.spec1.delta_cop),
                ("dm2", setting.spec2.delta_marg),
                ("dc2", setting.spec2.delta_cop),
            ):
                draws[name] = rng.uniform(1.0 - width, 1.0 + width, size=spec.n)
            y, sigma2 = _garch_paths(spec, eps)
            sigma = np.sqrt(sigma2)
            for t in range(spec.n):
                f1 = MarginalForecast(math.sqrt(draws["dm1"][t]) * sigma[t])
                c1 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * draws["dc1"][t]))
                f2 = MarginalForecast(math.sqrt(draws["dm2"][t]) * sigma[t])
                c2 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * draws["dc2"][t]))
                dm_ref = s_marg(f1, y[t]) - s_marg(f2, y[t])
                dc_ref = s_cop(c1, f1, y[t]) - s_cop(c2, f2, y[t])
                assert d_m[r, t] == pytest.approx(dm_ref, abs=1e-10)
                assert d_c[r, t] == pytest.approx(dc_ref, abs=1e-10)

    @staticmethod
    def _replication_by_steps(spec, setting, seed, r, mode):
        """Replication r rebuilt on its own: one (steps, dim) path drawn in
        the documented order, then a plain loop over time steps."""
        rng = _rep_rng(seed, r)
        chol = np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())
        eps = rng.standard_normal((spec.burn_in + spec.n, spec.dim)) @ chol.T
        widths = (setting.spec1.delta_marg, setting.spec1.delta_cop,
                  setting.spec2.delta_marg, setting.spec2.delta_cop)
        dm1, dc1, dm2, dc2 = (rng.uniform(1.0 - w, 1.0 + w, size=spec.n) for w in widths)

        y = np.empty((spec.n, spec.dim))
        sigma2 = np.empty_like(y)
        s2 = np.full(spec.dim, spec.stationary_variance)
        for t in range(spec.burn_in + spec.n):
            y_t = np.sqrt(s2) * eps[t]
            if t >= spec.burn_in:
                y[t - spec.burn_in], sigma2[t - spec.burn_in] = y_t, s2
            s2 = spec.omega0 + spec.alpha0 * y_t**2 + spec.beta0 * s2

        d_m, d_c = np.zeros(spec.n), np.zeros(spec.n)
        for sign, dm, dc in ((1.0, dm1, dc1), (-1.0, dm2, dc2)):
            for t in range(spec.n):
                if mode == "one-step" or t == 0:
                    var = dm[t] * sigma2[t]
                else:
                    var = dm[t] * (spec.omega0 + spec.alpha0 * y[t - 1] ** 2 + spec.beta0 * var)
                s_m, s_c = score_arrays(y[t], np.sqrt(var), spec.rho * dc[t])
                d_m[t] += sign * s_m
                d_c[t] += sign * s_c
        return d_m, d_c

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("burn_in", [0, 9])
    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_batch_equals_per_replication_loop(self, mode, burn_in, reps, dim):
        """Bit for bit: batching replications changes only the layout."""
        spec = DgpSpec(n=30, dim=dim, rho=0.4, burn_in=burn_in)
        setting = Setting("x", ContaminationSpec(0.3, 0.4), ContaminationSpec(0.1, 0.2))
        d_m, d_c = _experiment_diffs(spec, setting, reps=reps, seed=17, variance_mode=mode)
        assert d_m.shape == d_c.shape == (reps, spec.n)
        assert d_m.flags.c_contiguous and d_c.flags.c_contiguous
        for r in range(reps):
            ref_m, ref_c = self._replication_by_steps(spec, setting, 17, r, mode)
            np.testing.assert_array_equal(d_m[r], ref_m)
            np.testing.assert_array_equal(d_c[r], ref_c)

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    def test_burn_in_is_not_stored(self, mode):
        """Beyond the innovations, which every replication's stream needs
        drawn up front, the peak holds a few window-sized arrays; storing
        the burn-in of Y and sigma2 would add two more innovation-sized
        arrays."""
        spec = DgpSpec(n=40, burn_in=800)
        reps = 50
        window = spec.n * reps * spec.dim * 8  # one (n, reps, dim) float64 array
        innovations = (spec.burn_in + spec.n) * reps * spec.dim * 8
        tracemalloc.start()
        try:
            _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3, variance_mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < innovations + 6 * window, peak / window

    def test_recursive_mode_differs(self):
        spec = DgpSpec(n=40, burn_in=20)
        setting = SETTINGS["iv"]
        one, _ = _experiment_diffs(spec, setting, reps=2, seed=3)
        rec, _ = _experiment_diffs(spec, setting, reps=2, seed=3, variance_mode="recursive")
        assert np.any(one != rec)

    def test_unknown_mode_rejected(self):
        spec = DgpSpec(n=10, burn_in=5)
        with pytest.raises(ValueError):
            _experiment_diffs(spec, SETTINGS["i"], reps=1, seed=0, variance_mode="bogus")


class TestRunExperiment:
    def test_reproducible_table(self):
        spec = DgpSpec(n=60, burn_in=50)
        t1 = run_experiment(spec, SETTINGS["ii"], reps=40, alpha=0.05, seed=11)
        t2 = run_experiment(spec, SETTINGS["ii"], reps=40, alpha=0.05, seed=11)
        assert t1 == t2

    def test_table_invariants(self):
        spec = DgpSpec(n=60, burn_in=50)
        table = run_experiment(spec, SETTINGS["v"], reps=40, alpha=0.05, seed=12)
        assert {row.hypothesis for row in table} == {"equal", "lex"}
        for row in table:
            assert row.joint_pct == row.marginal_pct + row.copula_pct
            assert 0.0 <= row.joint_pct <= 100.0
            assert row.reps == 40 and row.seed == 12 and row.setting == "v"

    def test_table_matches_manual_tally(self):
        spec = DgpSpec(n=50, burn_in=30)
        setting = SETTINGS["iv"]
        reps, alpha, seed = 25, 0.05, 21
        table = run_experiment(spec, setting, reps=reps, alpha=alpha, seed=seed)
        d_m, d_c = _experiment_diffs(spec, setting, reps=reps, seed=seed)
        for h in Hypothesis:
            m = c = 0
            for r in range(reps):
                res = two_step_test(ScoreDiffSeries(d_m[r], d_c[r]), HacConfig(), alpha, h)
                m += res.attribution == "M"
                c += res.attribution == "C"
            row = next(row for row in table if row.hypothesis == h.value)
            assert row.marginal_pct == pytest.approx(100.0 * m / reps)
            assert row.copula_pct == pytest.approx(100.0 * c / reps)

    def test_invalid_inputs(self):
        spec = DgpSpec(n=30, burn_in=5)
        with pytest.raises(ValueError):
            run_experiment(spec, SETTINGS["i"], reps=0, alpha=0.05, seed=1)
        bad = Setting("bad", ContaminationSpec(0.1, 1.5), ContaminationSpec(0.1, 0.1))
        with pytest.raises(ValueError):
            run_experiment(spec, bad, reps=2, alpha=0.05, seed=1)

    def test_unknown_variance_mode_rejected_before_drawing(self, monkeypatch):
        def no_draws(seed, rep):
            pytest.fail("a replication was drawn before the variance mode was checked")

        monkeypatch.setattr(sim_harness, "_rep_rng", no_draws)
        spec = DgpSpec(n=30, burn_in=5)
        with pytest.raises(ValueError, match="variance mode"):
            run_experiment(spec, SETTINGS["i"], reps=2, alpha=0.05, seed=1, variance_mode="bogus")

    def test_settings_table_matches_study_design(self):
        assert set(SETTINGS) == {"i", "ii", "iii", "iv", "v"}
        s = SETTINGS["iii"]
        assert s.spec1 == ContaminationSpec(0.5, 0.5)
        assert s.spec2 == ContaminationSpec(0.5, 0.1)
        assert SETTINGS["i"].spec1 == SETTINGS["i"].spec2 == ContaminationSpec(0.1, 0.1)


class TestAttributionProperties:
    """Each kind of misspecification is caught at its own step.  Uses the
    shared 2000-replication session cache."""

    def test_marginal_misspecification_lands_in_step_one(self, freq):
        for h in ("equal", "lex"):
            row = freq("iv", 300)[h]
            assert row.marginal_pct / row.joint_pct > 0.9

    def test_copula_misspecification_lands_in_step_two(self, freq):
        for setting in ("ii", "iii"):
            for h in ("equal", "lex"):
                row = freq(setting, 300)[h]
                assert row.copula_pct / row.joint_pct > 0.9

    def test_size_splits_evenly_across_steps(self, freq):
        for h in ("equal", "lex"):
            row = freq("i", 150)[h]
            assert abs(row.marginal_pct - 2.5) <= 1.0
            assert abs(row.copula_pct - 2.5) <= 1.0
