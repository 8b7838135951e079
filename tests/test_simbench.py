"""Data generators, truth formulas, kernel baseline, and the MC harness.

Truth values at the fixed query point are frozen from the analytic
change-of-variables formulas (verified independently against scipy.stats
before freezing); generators are checked against the matching CDFs with
DKW bands.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, simpson

from forestdens import estimator
from forestdens.errors import EstimationError, ZeroDenominator
from forestdens.forest import Dataset, ForestConfig
from forestdens.simbench import (DEFAULT_DESIGN_POINTS, DESIGNS, gen_covariates,
                                 gen_outcome, kernel_baseline, report_rows,
                                 run_mc, true_cdf, true_density)

X_QUERY = np.full(4, 0.5)


def truncated_normal_variance():
    """Variance of N(0.5, 1/8) conditioned on [0, 1], by direct quadrature."""
    sd = np.sqrt(1 / 8)
    dens = lambda t: stats.norm.pdf(t, 0.5, sd)
    mass = quad(dens, 0.0, 1.0)[0]
    mean = quad(lambda t: t * dens(t), 0.0, 1.0)[0] / mass
    second = quad(lambda t: t * t * dens(t), 0.0, 1.0)[0] / mass
    return second - mean ** 2


class TestGenCovariates:
    def test_support_and_shape(self):
        x = gen_covariates(10_000, np.random.default_rng(0))
        assert x.shape == (10_000, 4)
        assert np.all(x > 0.0) and np.all(x < 1.0)

    def test_coordinate_means(self):
        x = gen_covariates(100_000, np.random.default_rng(1))
        sd = x.std(axis=0, ddof=1)
        se = sd / np.sqrt(100_000)
        assert np.all(np.abs(x.mean(axis=0) - 0.5) <= 3 * se)

    def test_coordinate_variance_against_quadrature(self):
        target = truncated_normal_variance()
        x = gen_covariates(100_000, np.random.default_rng(2))
        v = x.var(axis=0, ddof=1)
        # fourth-moment-based standard error of a sample variance
        se = np.sqrt((stats.moment(x, 4, axis=0) - v ** 2) / 100_000)
        assert np.all(np.abs(v - target) <= 4 * se)


class TestGenOutcome:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_support(self, design):
        rng = np.random.default_rng(3)
        x = gen_covariates(10_000, rng)
        y = gen_outcome(design, x, rng)
        assert y.shape == (10_000,)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_empirical_cdf_within_dkw_band(self, design):
        # all draws at the same covariate row so the conditional law is fixed
        rng = np.random.default_rng(4)
        m = 10_000
        x = np.tile(X_QUERY, (m, 1))
        y = np.sort(gen_outcome(design, x, rng))
        ecdf = np.arange(1, m + 1) / m
        cdf = true_cdf(design, y, X_QUERY)
        eps = np.sqrt(np.log(2 / 0.01) / (2 * m))  # 99% DKW band
        assert np.max(np.abs(ecdf - cdf)) <= eps

    def test_mixture_symmetry_at_balanced_covariates(self):
        rng = np.random.default_rng(5)
        m = 8_000
        x = np.tile(X_QUERY, (m, 1))
        y = gen_outcome("D3", x, rng)
        y2 = gen_outcome("D3", x, rng)
        stat = stats.ks_2samp(y, 1.0 - y2)
        assert stat.pvalue > 0.01

    def test_fourth_covariate_is_irrelevant(self):
        # replacing the fourth coordinate by fresh uniforms leaves the
        # outcome law unchanged
        failures = 0
        for seed in range(20):
            rng = np.random.default_rng(600 + seed)
            x = gen_covariates(4_000, rng)
            y1 = gen_outcome("D1", x, np.random.default_rng(seed))
            x_mod = x.copy()
            x_mod[:, 3] = rng.random(4_000)
            y2 = gen_outcome("D1", x_mod, np.random.default_rng(1000 + seed))
            if stats.ks_2samp(y1, y2).pvalue <= 0.01:
                failures += 1
        assert failures <= 2

    def test_scalar_covariate_row(self):
        val = gen_outcome("D2", X_QUERY, np.random.default_rng(6))
        assert isinstance(val, float) and 0.0 <= val <= 1.0

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            gen_outcome("D4", X_QUERY, np.random.default_rng(0))


class TestTrueDensity:
    def test_frozen_values_at_query_point(self):
        # analytic change-of-variables values; the D3 column matches the
        # supplementary table rather than the main-text one
        assert true_density("D1", 0.5, X_QUERY) == pytest.approx(1.069, abs=5e-4)
        assert true_density("D2", 0.25, X_QUERY) == pytest.approx(1.275, abs=5e-4)
        assert true_density("D3", 0.125, X_QUERY) == pytest.approx(0.956, abs=5e-4)
        assert true_density("D3", 0.25, X_QUERY) == pytest.approx(1.247, abs=5e-4)
        assert true_density("D3", 0.5, X_QUERY) == pytest.approx(0.901, abs=5e-4)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_normalization(self, design):
        grid = np.linspace(0.0, 1.0, 4001)
        vals = true_density(design, grid, X_QUERY)
        assert simpson(vals, x=grid) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_cdf_matches_density(self, design):
        grid = np.linspace(0.0, 1.0, 2001)
        dens = true_density(design, grid, X_QUERY)
        cdf = true_cdf(design, grid, X_QUERY)
        for k in (500, 1000, 1750):
            integral = simpson(dens[: k + 1], x=grid[: k + 1])
            assert integral == pytest.approx(cdf[k], abs=1e-8)
        assert true_cdf(design, 1.0, X_QUERY) == pytest.approx(1.0, abs=1e-12)


class TestTruthDomain:
    """The true density and CDF take y in [0, 1] only; NaN is not in it."""

    @pytest.mark.parametrize("fn", [true_density, true_cdf])
    @pytest.mark.parametrize("y", [float("nan"), np.array([0.5, np.nan]), float("inf"),
                                   -0.25, np.array([0.5, 1.5])])
    def test_rejects_points_outside_unit_interval(self, fn, y):
        with pytest.raises(ValueError):
            fn("D1", y, X_QUERY)


class TestKernelBaseline:
    def test_single_point_with_explicit_bandwidths(self):
        data = Dataset(np.array([0.4]), np.array([[0.5, 0.5, 0.5, 0.5]]))
        h_y, h_num, h_den = 0.1, np.full(3, 0.2), np.full(3, 0.3)
        got = kernel_baseline(data, 0.4, X_QUERY, bandwidths=(h_y, h_num, h_den))
        k0 = 35 / 32
        expected = (k0 / h_y) * np.prod(np.full(3, k0 / 0.2)) / np.prod(np.full(3, k0 / 0.3))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_default_bandwidth_formula(self):
        rng = np.random.default_rng(7)
        x = gen_covariates(1000, rng)
        y = gen_outcome("D1", x, rng)
        data = Dataset(y, x)
        h_y = 1.06 * np.std(y, ddof=1) * 1000 ** (-1 / 8)
        # reproducing the estimate with explicit bandwidths must agree
        hx_num = 1.06 * np.std(x[:, :3], axis=0, ddof=1) * 1000 ** (-1 / 8)
        hx_den = 1.06 * np.std(x[:, :3], axis=0, ddof=1) * 1000 ** (-1 / 7)
        assert kernel_baseline(data, 0.5, X_QUERY) == pytest.approx(
            kernel_baseline(data, 0.5, X_QUERY, bandwidths=(h_y, hx_num, hx_den)),
            rel=1e-12)

    def test_integrates_to_about_one(self):
        rng = np.random.default_rng(8)
        x = gen_covariates(10_000, rng)
        y = gen_outcome("D1", x, rng)
        data = Dataset(y, x)
        grid = np.linspace(0.0, 1.0, 201)
        vals = np.array([kernel_baseline(data, float(g), X_QUERY) for g in grid])
        assert simpson(vals, x=grid) == pytest.approx(1.0, abs=0.05)

    def test_zero_denominator(self):
        data = Dataset(np.array([0.4, 0.6]), np.full((2, 4), 0.1))
        with pytest.raises(ZeroDenominator):
            kernel_baseline(data, 0.5, np.array([0.9, 0.9, 0.9, 0.9]),
                            bandwidths=(0.1, np.full(3, 0.05), np.full(3, 0.05)))


def small_mc_config(**kw):
    defaults = dict(subsample_size=50, n_trees=64, basis_order=4,
                    initial_parent=[[0.0] * 4, [1.0] * 4], min_child=5,
                    min_fraction=0.05, scheme="mu", seed=2)
    defaults.update(kw)
    return ForestConfig(**defaults)


class TestRunMC:
    def test_identical_rep_seeds_give_zero_dispersion(self, monkeypatch):
        seed_sequence = np.random.SeedSequence

        class Repeated(seed_sequence):
            # the master spawns k copies of one stream; the fits then spawn as usual
            def spawn(self, n_children):
                monkeypatch.undo()
                return [seed_sequence(7) for _ in range(n_children)]

        monkeypatch.setattr(np.random, "SeedSequence", Repeated)
        cfg = small_mc_config()
        report = run_mc("D1", 200, 2, cfg, None, design_points=(0.25, 0.5))
        np.testing.assert_array_equal(report.sd, 0.0)
        assert report.mise >= 0.0

    def test_deterministic_given_seed_and_workers(self):
        cfg = small_mc_config(seed=11)
        r1 = run_mc("D1", 150, 3, cfg, None, design_points=(0.5,))
        r2 = run_mc("D1", 150, 3, cfg, None, design_points=(0.5,), workers=2)
        np.testing.assert_array_equal(r1.bias, r2.bias)
        assert r1.mise == r2.mise

    def test_report_shapes_and_coverage_fields(self):
        cfg = small_mc_config(n_trees=21, seed=13)
        pts = DEFAULT_DESIGN_POINTS
        report = run_mc("D1", 150, 3, cfg, (4, 6), design_points=pts)
        assert report.design_points.size == len(pts)
        assert report.completed == 3
        assert np.all((report.coverage >= 0.0) & (report.coverage <= 1.0))
        assert np.all(report.avg_se >= 0.0)

    def test_mise_grid_refinement_is_stable(self):
        cfg = small_mc_config(seed=17)
        kw = dict(design_points=(0.5,))
        coarse = run_mc("D1", 300, 4, cfg, None, mise_grid_points=141, **kw)
        fine = run_mc("D1", 300, 4, cfg, None, mise_grid_points=281, **kw)
        assert fine.mise == pytest.approx(coarse.mise, rel=0.02)

    def test_coverage_counts_the_intervals_of_confidence_interval(self, monkeypatch):
        # a hit is exactly the interval confidence_interval returns covering the truth
        original = estimator.fit
        fits = []

        def recorded(*args, **kwargs):
            fits.append(original(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(estimator, "fit", recorded)
        pts = (0.25, 0.5, 0.75)
        report = run_mc("D1", 150, 3, small_mc_config(n_trees=21, seed=13), (4, 6),
                        design_points=pts, ci_level=0.8)
        lo, hi = np.array([[estimator.confidence_interval(f, y, 0.8) for y in pts]
                           for f in fits]).transpose(2, 0, 1)
        truth = true_density("D1", np.array(pts), X_QUERY)
        np.testing.assert_array_equal(report.coverage,
                                      ((lo <= truth) & (truth <= hi)).mean(axis=0))

    def test_rows_schema(self):
        cfg = small_mc_config(seed=19)
        report = run_mc("D1", 150, 2, cfg, None, design_points=(0.25, 0.75))
        rows = report_rows(report)
        assert len(rows) == 3
        assert rows[-1][0] == "mise"
        assert float(rows[-1][1]) == report.mise
        assert rows[0][5] == ""  # no coverage without a subsample plan

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_recorded_without_aborting(self, workers):
        # single-tree forests on a thin parent often leave one or zero
        # holdout points, so some replications fail with boundary or
        # empty-leaf errors while the rest still aggregate; the test takes the
        # first master seed from 0 at which some of the eight fail and at
        # least two complete
        for seed in range(40):
            cfg = ForestConfig(subsample_size=30, n_trees=1, basis_order=3,
                               initial_parent=[[0.3] * 4, [0.7] * 4], min_child=3,
                               scheme="mu", seed=seed)
            try:
                serial = run_mc("D1", 150, 8, cfg, None, design_points=(0.5,))
            except EstimationError:  # fewer than two completed
                continue
            if serial.failures:
                break
        else:
            pytest.fail("no master seed in 0..39 gives both failures and two completions")
        report = run_mc("D1", 150, 8, cfg, None, design_points=(0.5,), workers=workers)
        assert report.completed >= 2
        assert report.failures
        assert report.completed + len(report.failures) == 8
        assert all("replication" in msg for msg in report.failures)
        assert np.isfinite(report.mise)
        assert report.failures == serial.failures
        assert report.mise == serial.mise

    def test_rejects_single_replication(self):
        with pytest.raises(ValueError):
            run_mc("D1", 100, 1, small_mc_config(), None)

    @pytest.mark.parametrize("kwargs, match", [
        # Simpson's rule on one point gives an ISE, and so a MISE, of exactly 0
        (dict(mise_grid_points=1), "mise_grid_points"),
        (dict(mise_grid_points=0), "mise_grid_points"),
        (dict(design_points=[[0.25, 0.5]]), "design_points"),
        (dict(design_points=[]), "design_points"),
    ])
    def test_rejects_bad_options_before_any_fit(self, kwargs, match, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the options were checked")

        monkeypatch.setattr(estimator, "fit", no_fit)
        with pytest.raises(ValueError, match=match):
            run_mc("D1", 100, 2, small_mc_config(), None, **kwargs)

    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_rejects_ci_level_outside_unit_interval_before_any_fit(self, level, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the level was checked")

        monkeypatch.setattr(estimator, "fit", no_fit)
        with pytest.raises(ValueError, match="ci_level"):
            run_mc("D1", 100, 2, small_mc_config(), None, ci_level=level)
