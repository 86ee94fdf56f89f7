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
from copulascore.scoring import MarginalForecast, bivariate_score, score_arrays
from copulascore.sim_harness import (
    SETTINGS,
    VARIANCE_MODES,
    ContaminationSpec,
    DgpSpec,
    Setting,
    _draw_contamination,
    _draw_noise,
    _experiment_diffs,
    _rep_rng,
    _variance_steps,
    run_experiment,
    simulate_path,
)

BLOCK = sim_harness._BLOCK_STEPS


def _window_paths(spec, eps):
    """(Y, sigma2) over the window of the time-major innovations ``eps``,
    shape (burn_in + n, ..., dim), through the one variance recursion: the
    burn-in only advances the state, which starts at the stationary
    variance, and Y is sqrt(sigma2) times the window's innovations."""
    h = np.full((1, *eps.shape[1:]), spec.stationary_variance)
    _variance_steps(spec, eps[: spec.burn_in], h)
    window = eps[spec.burn_in :]
    var = np.empty((len(window), 1, *window.shape[1:]))
    _variance_steps(spec, window, h, var)
    return np.sqrt(var[:, 0]) * window, var[:, 0]


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

    # the least value each length field accepts
    LEAST = {"n": 2, "burn_in": 0}

    @pytest.mark.parametrize("field", ["n", "burn_in"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 300.0, "300"])
    def test_non_integer_length_named(self, field, value):
        message = f"^{field} must be an integer >= {self.LEAST[field]}, got "
        with pytest.raises(ValueError, match=message):
            DgpSpec(**{"n": 100, field: value})

    @pytest.mark.parametrize("field", ["n", "burn_in"])
    def test_length_below_least_named(self, field):
        least = self.LEAST[field]
        message = f"^{field} must be an integer >= {least}, got {least - 1}$"
        with pytest.raises(ValueError, match=message):
            DgpSpec(**{"n": 100, field: least - 1})

    @pytest.mark.parametrize("field", ["n", "burn_in"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_length_named(self, field, value):
        # bool is an int subclass: burn_in=True used to run one burn-in step
        message = f"^{field} must be an integer >= {self.LEAST[field]}, got "
        with pytest.raises(ValueError, match=message):
            DgpSpec(**{"n": 100, field: value})

    def test_numpy_integer_lengths_accepted(self):
        # 600 steps span two superblocks, between which the streams step back
        for n in (30, 600):
            spec = DgpSpec(n=np.int64(n), burn_in=np.int32(5))
            got = _experiment_diffs(spec, SETTINGS["i"], reps=1, seed=0)
            assert got[0].shape == (1, n)
            ref = _experiment_diffs(DgpSpec(n=n, burn_in=5), SETTINGS["i"], reps=1, seed=0)
            np.testing.assert_array_equal(got, ref)

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

    @pytest.mark.parametrize("burn_in", [0, 1, 9])
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_equals_per_step_loop(self, dim, burn_in):
        """Bit for bit: one joint draw of the burn-in and the window, then a
        plain loop over time steps from the stationary variance."""
        spec = DgpSpec(n=30, dim=dim, rho=0.4, burn_in=burn_in)
        chol = np.linalg.cholesky(EquiCorr(dim, spec.rho).matrix())
        eps = np.random.default_rng(23).standard_normal((burn_in + spec.n, dim)) @ chol.T
        y_ref, sigma_ref = np.empty((spec.n, dim)), np.empty((spec.n, dim))
        s2 = np.full(dim, spec.stationary_variance)
        for t in range(burn_in + spec.n):
            y_t = np.sqrt(s2) * eps[t]
            if t >= burn_in:
                y_ref[t - burn_in], sigma_ref[t - burn_in] = y_t, np.sqrt(s2)
            s2 = spec.omega0 + spec.alpha0 * y_t**2 + spec.beta0 * s2
        y, sigma = simulate_path(spec, 23)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(sigma, sigma_ref)


MOMENT_BATCHES, MOMENT_STEPS = 50, 20_000


@pytest.fixture(scope="module")
def pooled():
    spec = DgpSpec(n=MOMENT_STEPS, burn_in=200)
    rng = np.random.default_rng(314)
    chol = np.linalg.cholesky(EquiCorr(spec.dim, spec.rho).matrix())
    eps = rng.standard_normal((MOMENT_BATCHES, spec.burn_in + MOMENT_STEPS, spec.dim))
    eps = eps @ chol.T
    # the recursion is time-major and returns the window: (steps, batches, dim)
    y, sigma2 = _window_paths(spec, eps.transpose(1, 0, 2))
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


class TestSplitDraw:
    @pytest.mark.parametrize("n", [2, 30])
    @pytest.mark.parametrize("burn_in", [0, 1, 2, 3, 9])
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_split_innovations_equal_joint_product(self, dim, burn_in, n):
        """Bit for bit: the burn-in and the window drawn by two calls on
        one stream are the rows of one joint draw of both, and so is the
        window drawn by one call that skips the burn-in; either way the
        stream's next draw is the same.  A one-row burn-in multiplied on
        numpy's matrix-vector path differs from its row of the joint
        product in the last bit for most draws, and the GARCH recursion can
        absorb that, so the innovations themselves are compared."""
        chol = np.linalg.cholesky(EquiCorr(dim, 0.4).matrix())
        for r in range(20):
            # one joint draw, as _draw_noise makes it for burn_in + n >= 2 rows
            ref = _rep_rng(5, r)
            joint = ref.standard_normal((burn_in + n, dim)) @ chol.T
            rng, skipping = _rep_rng(5, r), _rep_rng(5, r)
            burn = _draw_noise(chol, [rng], burn_in)[:, 0]
            window = _draw_noise(chol, [rng], n)[:, 0]
            skipped = _draw_noise(chol, [skipping], n, burn_in)[:, 0]
            assert burn.shape == (burn_in, dim) and window.shape == skipped.shape == (n, dim)
            np.testing.assert_array_equal(burn, joint[:burn_in])
            np.testing.assert_array_equal(window, joint[burn_in:])
            np.testing.assert_array_equal(skipped, joint[burn_in:])
            after = ref.random(3)
            np.testing.assert_array_equal(rng.random(3), after)
            np.testing.assert_array_equal(skipping.random(3), after)

    @pytest.mark.parametrize("steps", [0, 1, 2, 30])
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_streams_equal_each_stream_drawn_alone(self, dim, steps):
        """Bit for bit: drawing several streams at once gives each stream
        the innovations it gives when drawn on its own, time-major."""
        chol = np.linalg.cholesky(EquiCorr(dim, 0.4).matrix())
        eps = _draw_noise(chol, [_rep_rng(5, r) for r in range(4)], steps)
        assert eps.shape == (steps, 4, dim)
        for r in range(4):
            alone = _draw_noise(chol, [_rep_rng(5, r)], steps)[:, 0]
            np.testing.assert_array_equal(eps[:, r], alone)


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

    @pytest.mark.parametrize("width", [0.0, 0.3])
    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_advanced_copy_continues_joint_uniform_draw(self, k, width):
        """The RNG contract that lets a forecaster's (dm, dc) over k steps
        be drawn from its stream a superblock at a time: every uniform takes
        one 64-bit word, whatever the normals before it took, so pieces of
        dm and dc drawn ``k`` minus the piece length apart, each pair
        followed by a step back of k, are the matching slices of one joint
        draw of 2k uniforms."""
        cspec = ContaminationSpec(width, width)
        for r in range(5):
            rng, ref = _rep_rng(11, r), _rep_rng(11, r)
            rng.standard_normal(7)
            ref.standard_normal(7)
            joint = ref.uniform(1.0 - width, 1.0 + width, size=2 * k)
            pieces = []
            for s in range(0, k, 3):  # pieces of 3 steps, the last one shorter
                steps = min(3, k - s)
                pieces.append(_draw_contamination(cspec, steps, rng, k - steps))
                rng.bit_generator.advance(-k)
            dm, dc = np.concatenate(pieces, axis=1)
            np.testing.assert_array_equal(dm, joint[:k])
            np.testing.assert_array_equal(dc, joint[k:])

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
            y, sigma2 = _window_paths(spec, eps)
            sigma = np.sqrt(sigma2)
            for t in range(spec.n):
                f1 = MarginalForecast(math.sqrt(draws["dm1"][t]) * sigma[t])
                c1 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * draws["dc1"][t]))
                f2 = MarginalForecast(math.sqrt(draws["dm2"][t]) * sigma[t])
                c2 = GaussianEquiCorr(EquiCorr(spec.dim, spec.rho * draws["dc2"][t]))
                s1, s2 = bivariate_score(c1, f1, y[t]), bivariate_score(c2, f2, y[t])
                dm_ref = s1.s_marg - s2.s_marg
                dc_ref = s1.s_cop - s2.s_cop
                assert d_m[r, t] == pytest.approx(dm_ref, abs=1e-10)
                assert d_c[r, t] == pytest.approx(dc_ref, abs=1e-10)

    @staticmethod
    def _replication_by_steps(spec, setting, seed, r, mode, standardized=True):
        """Replication r rebuilt on its own: one (steps, dim) path drawn in
        the documented order, then a plain loop over time steps.  Each
        forecaster is scored on the innovations against the square root of
        its variance over the true one or, unstandardized, on the
        observations against the square root of its variance."""
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
                if standardized:  # under one-step the ratio is dm itself
                    ratio = dm[t] if mode == "one-step" else var / sigma2[t]
                    x, sd = eps[spec.burn_in + t], np.sqrt(ratio)
                else:
                    x, sd = y[t], np.sqrt(var)
                s_m, s_c = score_arrays(x, sd, spec.rho * dc[t])
                d_m[t] += sign * s_m
                d_c[t] += sign * s_c
        return d_m, d_c

    def _assert_equals_per_replication_loop(self, spec, reps, mode, atol=0.0):
        setting = Setting("x", ContaminationSpec(0.3, 0.4), ContaminationSpec(0.1, 0.2))
        d_m, d_c = _experiment_diffs(spec, setting, reps=reps, seed=17, variance_mode=mode)
        assert d_m.shape == d_c.shape == (reps, spec.n)
        assert d_m.flags.c_contiguous and d_c.flags.c_contiguous
        for r in range(reps):
            ref_m, ref_c = self._replication_by_steps(spec, setting, 17, r, mode)
            # atol = 0 demands equality
            np.testing.assert_allclose(d_m[r], ref_m, rtol=0.0, atol=atol)
            np.testing.assert_allclose(d_c[r], ref_c, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("burn_in", [0, 1, 9])
    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_batch_equals_per_replication_loop(self, mode, burn_in, reps, dim):
        """Bit for bit up to dimension 7: batching replications changes
        only the layout."""
        spec = DgpSpec(n=30, dim=dim, rho=0.4, burn_in=burn_in)
        # The blocks add their coordinates, whole rows of replications,
        # left to right.  numpy sums the reference's contiguous last axis in
        # that order up to 7 coordinates and pairwise, in eight interleaved
        # partial sums, from 8 on, so there the two differ by rounding.
        self._assert_equals_per_replication_loop(spec, reps, mode, atol=1e-12 if dim >= 8 else 0.0)

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("steps", [1, 5, "n + 3"])
    def test_block_size_does_not_change_results(self, monkeypatch, steps, mode):
        """Bit for bit whatever the block length: the stacked variance
        state, true and forecast rows alike, carries across every block
        boundary, and a single block covers the whole window."""
        spec = DgpSpec(n=23, dim=4, rho=0.4, burn_in=6)
        setting = SETTINGS["iii"]
        ref_m, ref_c = _experiment_diffs(spec, setting, reps=3, seed=8, variance_mode=mode)
        monkeypatch.setattr(sim_harness, "_BLOCK_STEPS", spec.n + 3 if steps == "n + 3" else steps)
        d_m, d_c = _experiment_diffs(spec, setting, reps=3, seed=8, variance_mode=mode)
        np.testing.assert_array_equal(d_m, ref_m)
        np.testing.assert_array_equal(d_c, ref_c)

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("block", [BLOCK, 5])
    @pytest.mark.parametrize("steps", ["one block", "short last", "n", "n + block"])
    def test_superblock_size_does_not_change_results(self, monkeypatch, steps, block, mode):
        """Bit for bit whatever the superblock length: both forecasters'
        dm and dc drawn from each stream n words apart, one superblock at a
        time with a step back of 3n after each, are the draws of one
        whole-window pass, and the blocks end at each superblock's end."""
        spec = DgpSpec(n=4 * BLOCK + 7, dim=3, rho=0.4, burn_in=6)
        setting = SETTINGS["iii"]
        ref_m, ref_c = _experiment_diffs(spec, setting, reps=3, seed=8, variance_mode=mode)
        superblock = {"one block": BLOCK, "short last": 2 * BLOCK, "n": spec.n,
                      "n + block": spec.n + BLOCK}[steps]
        monkeypatch.setattr(sim_harness, "_SUPERBLOCK_STEPS", superblock)
        monkeypatch.setattr(sim_harness, "_BLOCK_STEPS", block)
        d_m, d_c = _experiment_diffs(spec, setting, reps=3, seed=8, variance_mode=mode)
        np.testing.assert_array_equal(d_m, ref_m)
        np.testing.assert_array_equal(d_c, ref_c)

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("burn_in", [0, 1, 9])
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK + 3])
    def test_block_boundaries_equal_per_replication_loop(self, monkeypatch, n, burn_in, mode):
        """Bit for bit: the window split into blocks of time steps, with
        the GARCH state and the recursive forecasts carried across each
        boundary, and into superblocks of two blocks, whose disturbances
        come a superblock at a time, matches one uninterrupted loop over one
        whole draw of each disturbance."""
        monkeypatch.setattr(sim_harness, "_SUPERBLOCK_STEPS", 2 * BLOCK)
        spec = DgpSpec(n=n, dim=3, rho=0.4, burn_in=burn_in)
        self._assert_equals_per_replication_loop(spec, 3, mode)

    @pytest.mark.parametrize("garch", [(0.001, 0.1, 0.5), (0.05, 0.3, 0.65)])
    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_standardized_equals_unstandardized_scoring(self, dim, mode, garch):
        """Scoring the innovations against the square root of each
        forecaster's variance over the true one gives the differences of
        scoring the observations against the forecasters' own standard
        deviations up to rounding: the true variance cancels from d_m, and
        the copula score sees the same standardized observations."""
        omega0, alpha0, beta0 = garch
        spec = DgpSpec(n=40, dim=dim, omega0=omega0, alpha0=alpha0, beta0=beta0, rho=0.4,
                       burn_in=9)
        setting = Setting("x", ContaminationSpec(0.3, 0.4), ContaminationSpec(0.1, 0.2))
        d_m, d_c = _experiment_diffs(spec, setting, reps=3, seed=17, variance_mode=mode)
        for r in range(3):
            ref_m, ref_c = self._replication_by_steps(spec, setting, 17, r, mode, False)
            np.testing.assert_allclose(d_m[r], ref_m, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(d_c[r], ref_c, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    def test_burn_in_is_not_stored(self, mode):
        """The burn-in innovations are freed before the window is drawn, so
        the peak holds the larger of the burn-in innovations and the window
        innovations plus the disturbances, and a few blocks beyond them.
        Holding the burn-in innovations next to the window adds a burn-in's
        worth; storing the burn-in of Y and sigma2 adds two."""
        reps = 50
        for spec in (DgpSpec(n=40, burn_in=800), DgpSpec(n=400, burn_in=400)):
            burn = spec.burn_in * reps * spec.dim * 8
            window = spec.n * reps * spec.dim * 8  # one (n, reps, dim) float64 array
            contamination = 2 * 2 * reps * spec.n * 8  # (dm, dc) of both forecasters
            blocks = 12 * BLOCK * reps * spec.dim * 8
            tracemalloc.start()
            try:
                _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3, variance_mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < max(burn, window + contamination) + blocks, (spec, peak / window)

    def test_one_step_runs_no_variance_recursion(self, monkeypatch):
        """Under ``one-step`` no variance is read, so neither the burn-in
        nor the window runs the recursion; ``recursive`` still does."""
        def no_recursion(*args, **kwargs):
            raise AssertionError("variance recursion ran")

        monkeypatch.setattr(sim_harness, "_variance_steps", no_recursion)
        spec = DgpSpec(n=40, burn_in=30)
        d_m, d_c = _experiment_diffs(spec, SETTINGS["ii"], reps=3, seed=5)
        assert d_m.shape == d_c.shape == (3, 40)
        with pytest.raises(AssertionError, match="recursion ran"):
            _experiment_diffs(spec, SETTINGS["ii"], reps=3, seed=5, variance_mode="recursive")

    def test_one_step_holds_no_burn_in_innovations(self):
        """Under ``one-step`` a long burn-in costs one stream's burn-in and
        window normals at a time: the peak holds the window, the
        disturbances, a few blocks and that one stream's scratch, far below
        the burn-in innovations of all replications (1.6 MB here)."""
        spec, reps = DgpSpec(n=40, burn_in=800), 50
        window = spec.n * reps * spec.dim * 8
        contamination = 2 * 2 * reps * spec.n * 8  # (dm, dc) of both forecasters
        blocks = 12 * BLOCK * reps * spec.dim * 8
        scratch = (spec.burn_in + spec.n) * spec.dim * 8
        tracemalloc.start()
        try:
            _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < window + contamination + blocks + scratch, peak

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    def test_window_is_generated_in_blocks(self, mode):
        """A long window with few replications: beyond the draws, the peak
        holds one block of time steps, far below half a window; the bound
        also leaves room for two (reps, n) outputs.  Generating the whole
        window at once holds Y and sigma2 alone, two windows."""
        spec = DgpSpec(n=2000, burn_in=10)
        reps = 20
        window = spec.n * reps * spec.dim * 8
        innovations = (spec.burn_in + spec.n) * reps * spec.dim * 8
        contamination = 2 * 2 * reps * spec.n * 8  # (dm, dc) of both forecasters
        outputs = 2 * reps * spec.n * 8
        tracemalloc.start()
        try:
            _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3, variance_mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < innovations + contamination + outputs + window / 2, peak / window

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    def test_differences_overwrite_consumed_draws(self, mode):
        """Beyond the draws, the peak holds one block and one replication's
        draw temporaries: each block's differences are written over its own
        first two innovation coordinates, which it has copied, so no output
        arrays are allocated.  At dim 2 two (reps, n) outputs are a whole
        window."""
        spec = DgpSpec(n=2000, dim=2, burn_in=10)
        reps = 20
        window = spec.n * reps * spec.dim * 8
        innovations = (spec.burn_in + spec.n) * reps * spec.dim * 8
        contamination = 2 * 2 * reps * spec.n * 8  # (dm, dc) of both forecasters
        tracemalloc.start()
        try:
            _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3, variance_mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < innovations + contamination + window / 2, peak / window

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    def test_second_forecaster_drawn_a_superblock_at_a_time(self, mode):
        """Beyond the innovations, which become the outputs, the peak holds
        one superblock of both forecasters' draws and one block, far below
        half a window; the bound also leaves room for forecaster 1's
        (dm, dc).  At dim 2, forecaster 2's (dm, dc) drawn whole for the
        window are a whole window."""
        spec = DgpSpec(n=8000, dim=2, burn_in=10)
        reps = 10
        window = spec.n * reps * spec.dim * 8
        innovations = (spec.burn_in + spec.n) * reps * spec.dim * 8
        forecaster1 = 2 * reps * spec.n * 8
        tracemalloc.start()
        try:
            _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3, variance_mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < innovations + forecaster1 + window / 2, peak / window

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    def test_neither_forecaster_drawn_for_the_whole_window(self, mode):
        """Beyond the innovations, the peak stays below a quarter window:
        both forecasters' (dm, dc) are drawn one superblock at a time, and
        the outputs are two planes of the innovations.  At dim 2, one
        forecaster's (dm, dc) drawn whole for the window are a whole
        window."""
        spec = DgpSpec(n=8000, dim=2, burn_in=10)
        reps = 10
        window = spec.n * reps * spec.dim * 8
        innovations = (spec.burn_in + spec.n) * reps * spec.dim * 8
        tracemalloc.start()
        try:
            _experiment_diffs(spec, SETTINGS["ii"], reps=reps, seed=3, variance_mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < innovations + window / 4, (peak - innovations) / window

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("first", [1, 3, 7])
    def test_offset_rows_equal_full_run_rows(self, first, mode):
        """Bit for bit: replications first, first + 1, ... drawn on their
        own are rows first, first + 1, ... of a run from replication 0."""
        spec = DgpSpec(n=35, dim=3, rho=0.4, burn_in=9)
        setting = SETTINGS["iii"]
        ref_m, ref_c = _experiment_diffs(spec, setting, 10, 4, mode)
        d_m, d_c = _experiment_diffs(spec, setting, 10 - first, 4, mode, first)
        assert d_m.flags.c_contiguous and d_c.flags.c_contiguous
        np.testing.assert_array_equal(d_m, ref_m[first:])
        np.testing.assert_array_equal(d_c, ref_c[first:])

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
    def test_one_step_table_ignores_garch_parameters(self):
        """Under ``one-step`` a forecaster's standard deviations are sqrt(dm)
        times the true ones, so each forecaster is scored on the innovations
        against sqrt(dm): the GARCH parameters move neither the differences
        nor the table.  Under ``recursive`` the forecasters run their own
        recursions."""
        specs = DgpSpec(n=300), DgpSpec(n=300, omega0=0.05, alpha0=0.3, beta0=0.65)
        setting = SETTINGS["ii"]
        default, other = (_experiment_diffs(spec, setting, 200, 7) for spec in specs)
        for a, b in zip(default, other):
            np.testing.assert_array_equal(a, b)
        default, other = (run_experiment(spec, setting, 200, 0.05, 7) for spec in specs)
        assert default == other
        default, other = (_experiment_diffs(s, setting, 20, 7, "recursive")[0] for s in specs)
        assert np.abs(default - other).max() > 0.1

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

    @pytest.mark.parametrize("reps", [True, 2.0, 1.5, "3", np.float64(2.0), 0])
    def test_non_integer_reps_named(self, reps):
        # reps=True used to write True into the table's reps column
        spec = DgpSpec(n=30, burn_in=5)
        with pytest.raises(ValueError, match="^reps must be an integer >= 1, got "):
            run_experiment(spec, SETTINGS["i"], reps=reps, alpha=0.05, seed=1)

    def test_numpy_integer_reps_accepted(self):
        spec = DgpSpec(n=30, burn_in=5)
        rows = run_experiment(spec, SETTINGS["i"], reps=np.int64(2), alpha=0.05, seed=1)
        assert rows == run_experiment(spec, SETTINGS["i"], reps=2, alpha=0.05, seed=1)

    def test_unknown_variance_mode_rejected_before_drawing(self, monkeypatch):
        def no_draws(seed, rep):
            pytest.fail("a replication was drawn before the variance mode was checked")

        monkeypatch.setattr(sim_harness, "_rep_rng", no_draws)
        spec = DgpSpec(n=30, burn_in=5)
        with pytest.raises(ValueError, match="variance mode"):
            run_experiment(spec, SETTINGS["i"], reps=2, alpha=0.05, seed=1, variance_mode="bogus")

    def test_smallest_level(self, monkeypatch):
        spec = DgpSpec(n=30, burn_in=5)
        rows = run_experiment(spec, SETTINGS["i"], reps=2, alpha=2e-9, seed=1)
        assert len(rows) == 2
        monkeypatch.setattr(sim_harness, "_rep_rng", lambda *a: pytest.fail("drawn"))
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\) and be at least 2e-09"):
            run_experiment(spec, SETTINGS["i"], reps=2, alpha=math.nextafter(2e-9, 0.0), seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, None, "3", np.float64(1.0), math.nan])
    def test_invalid_seed_named_before_drawing(self, seed, monkeypatch):
        # seed=True used to run and write True into the table's seed column
        def no_draws(seed, rep):
            pytest.fail("a replication was drawn before the seed was checked")

        monkeypatch.setattr(sim_harness, "_rep_rng", no_draws)
        spec = DgpSpec(n=30, burn_in=5)
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            run_experiment(spec, SETTINGS["i"], reps=2, alpha=0.05, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = DgpSpec(n=30, burn_in=5)
        rows = run_experiment(spec, SETTINGS["i"], reps=2, alpha=0.05, seed=np.uint8(1))
        assert rows == run_experiment(spec, SETTINGS["i"], reps=2, alpha=0.05, seed=1)

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


class TestChunkedRuns:
    """run_experiment draws and tests replications in chunks of
    ``_CHUNK_FLOATS`` innovations; rows are independent, so the chunking
    changes neither the table nor anything in it."""

    SPEC = DgpSpec(n=50, dim=3, rho=0.4, burn_in=20)

    def _chunk_reps(self, monkeypatch, reps_per_chunk):
        """Set the chunk size in replications; return the list that records
        (first, reps) of each _experiment_diffs call."""
        monkeypatch.setattr(
            sim_harness,
            "_CHUNK_FLOATS",
            reps_per_chunk * (self.SPEC.burn_in + self.SPEC.n) * self.SPEC.dim,
        )
        calls = []
        diffs = sim_harness._experiment_diffs

        def recorded(spec, setting, reps, seed, variance_mode, first):
            calls.append((first, reps))
            return diffs(spec, setting, reps, seed, variance_mode, first)

        monkeypatch.setattr(sim_harness, "_experiment_diffs", recorded)
        return calls

    @pytest.mark.parametrize("mode", VARIANCE_MODES)
    @pytest.mark.parametrize("reps_per_chunk", [1, 2, 7])
    def test_chunked_table_equals_one_chunk(self, monkeypatch, reps_per_chunk, mode):
        hac = HacConfig(lags=2, weights="bartlett")
        args = (self.SPEC, SETTINGS["v"], 10, 0.2, 6, hac, mode)
        whole = run_experiment(*args)
        calls = self._chunk_reps(monkeypatch, reps_per_chunk)
        assert run_experiment(*args) == whole
        firsts = list(range(0, 10, reps_per_chunk))
        assert calls == [(a, min(reps_per_chunk, 10 - a)) for a in firsts]
        # the rows reject somewhere, so the comparison is not of all zeros
        assert any(row.joint_pct > 0.0 for row in whole)

    def test_peak_does_not_grow_with_reps(self, monkeypatch):
        """Each chunk's draws are freed before the next is drawn: eight
        chunks peak within 10% of one."""
        self._chunk_reps(monkeypatch, 40)
        peaks = []
        for reps in (40, 320):
            tracemalloc.start()
            try:
                run_experiment(self.SPEC, SETTINGS["ii"], reps=reps, alpha=0.05, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks
