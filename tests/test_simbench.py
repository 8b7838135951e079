"""Data generators, truth formulas, kernel baseline, and the MC harness.

Truth values at the fixed query point are frozen from the analytic
change-of-variables formulas (verified independently against scipy.stats
before freezing); generators are checked against the matching CDFs with
DKW bands.
"""

import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad, simpson

from forestdens import estimator, simbench
from forestdens.errors import EstimationError, ZeroDenominator
from forestdens.forest import Dataset, ForestConfig
from forestdens.simbench import (DEFAULT_DESIGN_POINTS, DESIGNS, MISE_INTERVAL,
                                 gen_covariates, gen_outcome, kernel_baseline,
                                 report_rows, run_mc, true_cdf, true_density)

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_a_non_positive_count(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            gen_covariates(n, np.random.default_rng(0))


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


def stats_base_pdf(design, t, params):
    """The designs' base densities written with scipy.stats, as the truth once was."""
    if design == "D1":
        a, b = params
        return stats.beta.pdf(t, a, b)
    if design == "D2":
        mu, sig = params
        return stats.norm.pdf((np.log(t) - mu) / sig) / (sig * t)
    m, sd = params
    return 0.5 * (stats.norm.pdf(t, -m, sd) + stats.norm.pdf(t, m, sd))


class TestTruthAgainstScipyStats:
    """The truth on the MISE grid equals its scipy.stats form: the normal designs
    bit for bit, D1 (log-gamma terms in place of scipy's beta density) to about 2 ulp."""

    GRID = np.linspace(*MISE_INTERVAL, 141)
    ROWS = np.vstack([X_QUERY, gen_covariates(5, np.random.default_rng(12))])

    def stats_form(self, monkeypatch, design, x):
        with monkeypatch.context() as patch:
            patch.setattr(simbench, "_base_pdf", stats_base_pdf)
            return true_density(design, self.GRID, x)

    @pytest.mark.parametrize("design", ["D2", "D3"])
    def test_normal_designs_are_bit_identical(self, monkeypatch, design):
        for x in self.ROWS:
            np.testing.assert_array_equal(true_density(design, self.GRID, x),
                                          self.stats_form(monkeypatch, design, x))

    def test_beta_design_within_roundoff(self, monkeypatch):
        for x in self.ROWS:
            np.testing.assert_allclose(true_density("D1", self.GRID, x),
                                       self.stats_form(monkeypatch, "D1", x), rtol=1e-14, atol=0)


class TestCovariateRowShape:
    """A truth formula takes one row of four coordinates; the generator rows of four."""

    @pytest.mark.parametrize("fn", [true_density, true_cdf])
    @pytest.mark.parametrize("x, shape", [
        ([0.5, 0.5], "(2,)"),
        ([0.5] * 7, "(7,)"),
        ([[0.5] * 4, [0.2] * 4], "(2, 4)"),
    ])
    def test_truth_rejects_anything_but_one_row(self, fn, x, shape):
        for design in DESIGNS:
            with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
                fn(design, 0.5, x)

    @pytest.mark.parametrize("x, shape", [
        (np.full(2, 0.5), "(2,)"),
        (np.full(7, 0.5), "(7,)"),
        (np.full((3, 5), 0.5), "(3, 5)"),
        (np.full((2, 3, 4), 0.5), "(2, 3, 4)"),
    ])
    def test_generator_rejects_rows_without_four_coordinates(self, x, shape):
        with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
            gen_outcome("D1", x, np.random.default_rng(0))

    def test_generator_takes_a_row_or_a_table(self):
        table = gen_outcome("D3", np.full((3, 4), 0.5), np.random.default_rng(0))
        assert table.shape == (3,)
        assert gen_outcome("D3", X_QUERY, np.random.default_rng(0)) == table[0]


class TestTruthDomain:
    """The true density and CDF take y in [0, 1] only; NaN is not in it."""

    @pytest.mark.parametrize("fn", [true_density, true_cdf])
    @pytest.mark.parametrize("y", [float("nan"), np.array([0.5, np.nan]), float("inf"),
                                   -0.25, np.array([0.5, 1.5])])
    def test_rejects_points_outside_unit_interval(self, fn, y):
        with pytest.raises(ValueError):
            fn("D1", y, X_QUERY)


class TestKernelBaseline:
    def test_default_bandwidth_formula(self):
        # two points placed symmetrically about the query in each covariate;
        # only the first lies within the outcome bandwidth of y = 0.45
        y = [0.4, 0.6]
        x = [[0.45, 0.52, 0.47, 0.0], [0.55, 0.48, 0.53, 1.0]]
        data = Dataset(np.array(y), np.array(x))

        def triweight(u):
            return 35 / 32 * (1 - u * u) ** 3 if abs(u) <= 1 else 0.0

        def sample_sd(a, b):  # ddof = 1 with two points
            return abs(a - b) / math.sqrt(2)

        h_y = 1.06 * sample_sd(*y) * 2 ** (-1 / 8)
        sx = [sample_sd(x[0][d], x[1][d]) for d in range(3)]
        num = den = 0.0
        for yi, xi in zip(y, x):
            k_num = k_den = 1.0
            for d in range(3):
                h_num, h_den = 1.06 * sx[d] * 2 ** (-1 / 8), 1.06 * sx[d] * 2 ** (-1 / 7)
                k_num *= triweight((0.5 - xi[d]) / h_num) / h_num
                k_den *= triweight((0.5 - xi[d]) / h_den) / h_den
            num += triweight((0.45 - yi) / h_y) / h_y * k_num / 2
            den += k_den / 2
        assert num > 0.0 and triweight((0.45 - y[1]) / h_y) == 0.0
        assert kernel_baseline(data, 0.45, X_QUERY) == pytest.approx(num / den, rel=1e-12)

    def test_integrates_to_about_one(self):
        rng = np.random.default_rng(8)
        x = gen_covariates(10_000, rng)
        y = gen_outcome("D1", x, rng)
        data = Dataset(y, x)
        grid = np.linspace(0.0, 1.0, 201)
        vals = np.array([kernel_baseline(data, float(g), X_QUERY) for g in grid])
        assert simpson(vals, x=grid) == pytest.approx(1.0, abs=0.05)

    def test_zero_denominator(self):
        # the first three covariates spread over [0, 0.2], far from the query
        x = np.column_stack([np.linspace(0.0, 0.2, 5)] * 4)
        data = Dataset(np.linspace(0.3, 0.7, 5), x)
        with pytest.raises(ZeroDenominator):
            kernel_baseline(data, 0.5, np.full(4, 0.9))

    @pytest.mark.parametrize("column, name", [(0, "outcome"), (1, "covariate 1"),
                                              (3, "covariate 3")])
    def test_constant_column_is_an_error_not_nan(self, column, name):
        rng = np.random.default_rng(9)
        table = rng.random((50, 5))
        table[:, column] = 0.5
        data = Dataset(table[:, 0], table[:, 1:])
        with pytest.raises(ValueError, match=f"^{name} is constant"):
            kernel_baseline(data, 0.5, X_QUERY)

    def test_constant_fourth_covariate_is_ignored(self):
        rng = np.random.default_rng(9)
        x = rng.random((50, 4))
        x[:, 3] = 0.5
        assert kernel_baseline(Dataset(rng.random(50), x), 0.5, X_QUERY) > 0.0

    @pytest.mark.parametrize("x", [np.full(3, 0.5), np.full(5, 0.5), np.full((1, 4), 0.5)])
    def test_rejects_a_query_row_of_another_shape(self, x):
        rng = np.random.default_rng(9)
        data = Dataset(rng.random(50), rng.random((50, 4)))
        with pytest.raises(ValueError, match="one covariate row of 4 coordinates"):
            kernel_baseline(data, 0.5, x)

    @pytest.mark.parametrize("y", [np.nan, 1.5, -0.2])
    def test_rejects_an_outcome_outside_the_unit_interval(self, y):
        rng = np.random.default_rng(9)
        data = Dataset(rng.random(50), rng.random((50, 4)))
        with pytest.raises(ValueError, match=re.escape("must lie in [0, 1]")):
            kernel_baseline(data, y, X_QUERY)

    @pytest.mark.parametrize("y", [np.full(50, 0.5), [0.3], np.array([[0.5]])],
                             ids=["vector", "list", "2-d"])
    def test_rejects_a_y_that_is_not_a_scalar(self, y):
        # an array broadcast against the outcomes once gave a silent number
        rng = np.random.default_rng(9)
        data = Dataset(rng.random(50), rng.random((50, 4)))
        with pytest.raises(ValueError, match="y must be a scalar"):
            kernel_baseline(data, y, X_QUERY)

    def test_accepts_numpy_scalars(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.random(50), rng.random((50, 4)))
        ref = kernel_baseline(data, 0.5, X_QUERY)
        assert kernel_baseline(data, np.float64(0.5), X_QUERY) == ref
        assert kernel_baseline(data, np.array(0.5), X_QUERY) == ref

    def test_rejects_data_without_four_covariates(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.random(50), rng.random((50, 2)))
        with pytest.raises(ValueError, match="data of 2 covariates, not 4"):
            kernel_baseline(data, 0.5, np.full(2, 0.5))


def small_mc_config(**kw):
    defaults = dict(subsample_size=50, n_trees=64, basis_order=4,
                    initial_parent=[[0.0] * 4, [1.0] * 4], min_child=5,
                    min_fraction=0.05, scheme="mu", seed=2)
    defaults.update(kw)
    return ForestConfig(**defaults)


class TestSimpson:
    """``simbench._simpson`` is ``scipy.integrate.simpson(y, x=x)``, bit for bit: odd
    counts take the pair rule alone, 2 the trapezoid, 4 and more Cartwright's last
    interval.  The order of operations is scipy 1.17.1's; a scipy release that
    reorders them fails these tests, and ``_simpson`` then needs matching again."""

    N_POINTS = [2, 3, 4, 140, 141, 281]

    @staticmethod
    def assert_scipy_bits(y, x):
        ours, theirs = simbench._simpson(y, x), simpson(y, x=x)
        assert type(ours) is type(theirs) and np.float64(ours).tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("n_points", N_POINTS)
    def test_random_integrands(self, n_points):
        rng = np.random.default_rng(n_points)
        for _ in range(40):
            y = rng.standard_normal(n_points)
            self.assert_scipy_bits(y, np.linspace(*MISE_INTERVAL, n_points))
            self.assert_scipy_bits(y, np.cumsum(rng.exponential(size=n_points)))

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(52)
        x = gen_covariates(300, rng)
        return estimator.fit(Dataset(gen_outcome("D1", x, rng), x), X_QUERY, small_mc_config())

    @pytest.mark.parametrize("n_points", N_POINTS)
    def test_squared_errors_of_a_fit(self, fitted, n_points):
        # run_mc's integrand: a fit's squared error on the ISE grid
        grid = np.linspace(*MISE_INTERVAL, n_points)
        self.assert_scipy_bits((estimator.pdf(fitted, grid) - true_density("D1", grid, X_QUERY))
                               ** 2, grid)


class TestMCReport:
    @staticmethod
    def report(**kw):
        fields = dict(design="D1", n=150, reps=2, completed=2, design_points=np.array([0.5]),
                      truth=np.array([1.0]), bias=np.zeros(1), sd=np.zeros(1),
                      avg_se=np.full(1, np.nan), coverage=np.full(1, np.nan), mise=0.0,
                      ci_level=0.95, mise_interval=MISE_INTERVAL, mise_grid_points=141,
                      runtime_seconds=0.0, failures=())
        return simbench.MCReport(**dict(fields, **kw))

    def test_bounds_hold_at_their_ends(self):
        self.report(coverage=np.array([0.0, 1.0]))

    def test_negative_mise_raises(self):
        with pytest.raises(ValueError, match="MISE"):
            self.report(mise=-1e-12)

    @pytest.mark.parametrize("coverage", [-0.5, 1.5])
    def test_coverage_outside_the_unit_interval_raises(self, coverage):
        with pytest.raises(ValueError, match="coverage"):
            self.report(coverage=np.array([0.5, coverage]))


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
        (dict(workers=0), "workers must be at least 1, not 0"),
        (dict(workers=-3), "workers must be at least 1, not -3"),
    ])
    def test_rejects_bad_options_before_any_fit(self, kwargs, match, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit or worker process before the options were checked")

        monkeypatch.setattr(estimator, "fit", no_fit)
        monkeypatch.setattr(simbench, "ProcessPoolExecutor", no_fit)
        with pytest.raises(ValueError, match=match):
            run_mc("D1", 100, 2, small_mc_config(), None, **kwargs)

    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_rejects_ci_level_outside_unit_interval_before_any_fit(self, level, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the level was checked")

        monkeypatch.setattr(estimator, "fit", no_fit)
        with pytest.raises(ValueError, match="ci_level"):
            run_mc("D1", 100, 2, small_mc_config(), None, ci_level=level)
