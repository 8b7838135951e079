"""End-to-end fits: reductions, moment matching, intervals, and hooks."""

import math
from dataclasses import replace
from functools import lru_cache
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from forestdens import cli, estimator, expfam, forest
from forestdens.basis import basis_matrix, default_basis
from forestdens.errors import EstimationError
from forestdens.estimator import confidence_interval, fit, pdf, std_error
from forestdens.forest import Dataset, ForestConfig


def acklam_inverse_normal(p: float) -> float:
    """Independent rational approximation of the standard normal quantile."""
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = np.sqrt(-2 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        return -acklam_inverse_normal(1 - p)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def small_dataset(rng, n=60, d=2):
    return Dataset(rng.random(n), rng.random((n, d)))


def small_config(**kw):
    defaults = dict(subsample_size=24, n_trees=12, basis_order=3,
                    initial_parent=[[0.0, 0.0], [1.0, 1.0]], min_child=3,
                    min_fraction=0.05, scheme="mu", seed=3)
    defaults.update(kw)
    return ForestConfig(**defaults)


class TestFit:
    def test_moment_match_on_successful_fit(self):
        rng = np.random.default_rng(0)
        data = small_dataset(rng)
        fitted = fit(data, np.array([0.5, 0.5]), small_config())
        spec = fitted.basis
        resid = expfam.moments(fitted.theta_hat.theta, spec).mu - fitted.mu_hat.mu
        assert np.max(np.abs(resid)) <= 1e-8

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(1)
        data = small_dataset(rng)
        fitted = fit(data, np.array([0.5, 0.5]), small_config(seed=9))
        grid = np.linspace(0.0, 1.0, 1001)
        vals = pdf(fitted, grid)
        assert np.all(vals > 0.0)
        assert simpson(vals, x=grid) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_weights_hook_matches_unconditional_path(self):
        rng = np.random.default_rng(2)
        data = small_dataset(rng, n=80)
        cfg = small_config()
        uniform = np.full(data.n, 1.0 / data.n)
        spec = default_basis(cfg.basis_order)
        # the fit's solve step, given one leaf that holds the whole sample
        w = forest.WeightVector(uniform)
        fitted = estimator._from_trees(np.array([0.5, 0.5]), w,
                                       forest.mu_hat(w, data, spec).mu[None, :], None, cfg)
        expected = expfam.solve_theta(
            forest.mu_hat(forest.WeightVector(uniform), data, spec), spec)
        assert np.array_equal(fitted.theta_hat.theta, expected.theta)
        assert fitted.theta_hat.iterations == expected.iterations

    def test_no_split_mu_is_average_of_holdout_means(self):
        rng = np.random.default_rng(3)
        data = small_dataset(rng, n=30)
        cfg = small_config(subsample_size=12, n_trees=5, min_child=6, seed=17)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        master, tree_rngs = forest._tree_streams(cfg.seed, cfg.n_trees)
        subsamples = forest.draw_subsamples(data.n, cfg, master)
        spec = default_basis(cfg.basis_order)
        phi = basis_matrix(spec, data.y)
        means = []
        for t, idx in enumerate(subsamples):
            res = forest.grow_branch(np.array([0.5, 0.5]), data.y[idx],
                                     data.x[idx], cfg, tree_rngs[t])
            assert res.splits == ()
            means.append(phi[idx[res.holdout_members]].mean(axis=0))
        np.testing.assert_allclose(fitted.mu_hat.mu, np.mean(means, axis=0),
                                   atol=1e-15)

    def test_theta_shrinks_with_sample_size_under_uniform_outcomes(self):
        # uniform outcomes have zero moments, so the solved coefficients
        # should contract as the sample grows; leaf size scales with the
        # subsample so the per-tree noise floor shrinks too
        norms = {200: [], 2000: []}
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            for n in (200, 2000):
                s = n // 5
                data = Dataset(rng.random(n), rng.random((n, 2)))
                cfg = small_config(subsample_size=s, n_trees=64,
                                   min_child=s // 4, seed=seed)
                fitted = fit(data, np.array([0.5, 0.5]), cfg)
                norms[n].append(np.linalg.norm(fitted.theta_hat.theta))
        assert np.median(norms[2000]) < np.median(norms[200])

    def test_rejects_query_outside_parent(self):
        rng = np.random.default_rng(4)
        data = small_dataset(rng)
        cfg = small_config(initial_parent=[[0.4, 0.4], [0.6, 0.6]])
        with pytest.raises(ValueError):
            fit(data, np.array([0.9, 0.9]), cfg)

    def test_all_weights_zero_when_parent_excludes_data(self):
        from forestdens.errors import AllWeightsZero
        rng = np.random.default_rng(13)
        data = Dataset(rng.random(40), 0.8 + 0.2 * rng.random((40, 2)))
        cfg = small_config(subsample_size=16, n_trees=4, min_child=2,
                           initial_parent=[[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(AllWeightsZero):
            fit(data, np.array([0.25, 0.25]), cfg)

    def test_monotone_response_to_weight_perturbation(self):
        # bumping one observation's weight (renormalized) moves the moments
        # along that observation's centered basis direction
        rng = np.random.default_rng(5)
        data = small_dataset(rng, n=40)
        spec = default_basis(3)
        raw = rng.random(40)
        w = raw / raw.sum()
        phi = basis_matrix(spec, data.y)
        mu0 = phi.T @ w
        i = 7
        eps = 1e-7
        bumped = w.copy()
        bumped[i] += eps
        bumped /= bumped.sum()
        mu1 = phi.T @ bumped
        expected = eps * (phi[i] - mu0)  # first-order response
        np.testing.assert_allclose(mu1 - mu0, expected, atol=1e-8)


class TestStdError:
    def test_identical_tree_outputs_give_zero(self):
        rng = np.random.default_rng(7)
        data = small_dataset(rng, n=50)
        cfg = small_config(subsample_size=20, n_trees=10, seed=23)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        forced = object.__new__(type(fitted))
        for name in fitted.__dataclass_fields__:
            object.__setattr__(forced, name, getattr(fitted, name))
        object.__setattr__(forced, "per_tree_h",
                           np.ones_like(fitted.per_tree_h))
        assert std_error(forced, 0.5) == 0.0

    def test_equal_tree_rows_give_exact_zero(self):
        # rows that do not average back to themselves in floating point
        rng = np.random.default_rng(8)
        data = small_dataset(rng, n=50)
        cfg = small_config(subsample_size=20, n_trees=10, seed=23)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        row = np.array([0.1, 1.0 / 3.0, -0.7, np.pi])[:fitted.per_tree_h.shape[1]]
        forced = replace(fitted, per_tree_h=np.tile(row, (10, 1)))
        assert [std_error(forced, y) for y in (0.1, 0.5, 0.9)] == [0.0] * 3

    def test_scales_linearly_in_per_tree_h(self):
        rng = np.random.default_rng(13)
        data = small_dataset(rng, n=80)
        cfg = small_config(subsample_size=25, n_trees=30, seed=29)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        scaled = replace(fitted, per_tree_h=3.0 * fitted.per_tree_h)
        for y in (0.2, 0.5, 0.8):
            assert std_error(scaled, y) == pytest.approx(3.0 * std_error(fitted, y), rel=1e-12)

    def test_positive_on_criterion_9_fit_grid(self):
        # the fit config of acceptance criterion 9 at the first seed from 40
        # where the Monte Carlo correction exceeds the raw variance at y = 0.5
        data = cli._read_input_csv(str(Path(__file__).parent / "data" / "sample200.csv"))
        for seed in range(40, 80):
            cfg = cli._build_forest_config(
                dict(cli._FOREST_DEFAULTS, subsample_size=40, n_trees=40, basis_order=4,
                     min_child=4), seed, data)
            fitted = fit(data, np.full(4, 0.5), cfg)
            raw, corr = fitted._ij_parts
            t_mid = expfam.t_functional(0.5, fitted.theta_hat, fitted.basis)
            if t_mid @ corr @ t_mid > t_mid @ raw @ t_mid:
                break
        else:
            pytest.fail("no seed in 40..79 gives a correction above the raw variance")
        assert t_mid @ corr @ t_mid > t_mid @ raw @ t_mid
        se = np.array([std_error(fitted, float(y)) for y in np.linspace(0.05, 0.95, 19)])
        assert np.all(np.isfinite(se)) and np.all(se > 0.0)

    def test_se_params_only_requests_se(self, monkeypatch):
        # se_params is held only for the benchmark's calls: every fit keeps its
        # trees, so a fit without it gives the same standard errors and
        # intervals, and no fit draws the paired delete-group plan
        def no_plan(*args, **kwargs):
            raise AssertionError("the fit drew a delete-group plan")
        monkeypatch.setattr(forest, "se_subsample_plan", no_plan)
        rng = np.random.default_rng(9)
        data = small_dataset(rng, n=100)
        cfg = small_config(subsample_size=20, n_trees=21, seed=31)
        plain, auto, pair = (fit(data, np.array([0.5, 0.5]), cfg, se_params=p)
                             for p in (None, "auto", (3, 4)))
        grid = np.linspace(0.05, 0.95, 19)  # the fit command's default y_grid
        assert plain.tree_subsamples.shape == (21, 20)
        for fitted in (auto, pair):
            assert fitted.weights.weights.tobytes() == plain.weights.weights.tobytes()
            assert fitted.per_tree_h.tobytes() == plain.per_tree_h.tobytes()
            assert fitted.theta_hat.theta.tobytes() == plain.theta_hat.theta.tobytes()
            assert fitted.tree_subsamples.tobytes() == plain.tree_subsamples.tobytes()
            for y in map(float, grid):
                assert std_error(fitted, y) == std_error(plain, y) >= 0.0
                assert confidence_interval(fitted, y) == confidence_interval(plain, y)

    def test_tree_subsamples_is_a_read_only_table(self):
        rng = np.random.default_rng(10)
        data = small_dataset(rng, n=100)
        cfg = small_config(subsample_size=20, n_trees=21, seed=32)
        subsamples = fit(data, np.array([0.5, 0.5]), cfg).tree_subsamples
        assert isinstance(subsamples, np.ndarray) and subsamples.shape == (21, 20)
        with pytest.raises(ValueError):
            subsamples[0, 0] = 0

    def test_fit_builds_no_per_tree_objects(self, monkeypatch):
        # a fit's trees stay arrays; only the one-tree API builds these objects
        def forbidden(*args, **kwargs):
            raise AssertionError("the fit built a per-tree object")
        rng = np.random.default_rng(11)
        data = small_dataset(rng, n=100)
        cfg = small_config(subsample_size=40, n_trees=12, seed=33)
        for name in ("BranchResult", "SplitRecord", "Box"):
            monkeypatch.setattr(forest, name, forbidden)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        assert std_error(fitted, 0.5) >= 0.0

    @pytest.mark.parametrize("n, s", [(41, 40), (100, 96)])
    def test_auto_se_params_when_few_observations_stay_out(self, n, s):
        # n - s <= n // 20: each tree leaves out only a few observations
        rng = np.random.default_rng(14)
        data = small_dataset(rng, n=n)
        fitted = fit(data, np.array([0.5, 0.5]), small_config(subsample_size=s))
        se = std_error(fitted, 0.5)
        assert np.isfinite(se) and se >= 0.0


    def test_rejects_a_non_scalar_y(self):
        rng = np.random.default_rng(15)
        data = small_dataset(rng, n=60)
        fitted = fit(data, np.array([0.5, 0.5]), small_config(seed=47))
        for y in (np.array([0.2, 0.4]), np.array([0.3]), [0.5]):
            with pytest.raises(ValueError, match="y must be a scalar"):
                std_error(fitted, y)
            with pytest.raises(ValueError, match="y must be a scalar"):
                confidence_interval(fitted, y)
        se = std_error(fitted, 0.4)
        assert std_error(fitted, np.float64(0.4)) == se
        assert std_error(fitted, np.array(0.4)) == se
        for y in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"y must lie in \[0, 1\]"):
                std_error(fitted, y)


class TestConfidenceInterval:
    def test_quantile_against_independent_approximation(self):
        from scipy.special import ndtri
        for level in (0.9, 0.95, 0.99):
            p = 0.5 + level / 2
            assert ndtri(p) == pytest.approx(acklam_inverse_normal(p), abs=1e-6)
        assert ndtri(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_width_and_centering(self):
        rng = np.random.default_rng(10)
        data = small_dataset(rng, n=60)
        cfg = small_config(subsample_size=20, n_trees=13, seed=37)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        lo, hi = confidence_interval(fitted, 0.4, 0.95)
        center = pdf(fitted, 0.4)
        se = std_error(fitted, 0.4)
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * se, rel=1e-12)
        assert 0.5 * (lo + hi) == pytest.approx(center, rel=1e-12)

    def test_degenerate_interval_at_zero_se(self):
        rng = np.random.default_rng(11)
        data = small_dataset(rng, n=50)
        cfg = small_config(subsample_size=20, n_trees=10, seed=41)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        forced = object.__new__(type(fitted))
        for name in fitted.__dataclass_fields__:
            object.__setattr__(forced, name, getattr(fitted, name))
        object.__setattr__(forced, "per_tree_h", np.zeros_like(fitted.per_tree_h))
        lo, hi = confidence_interval(forced, 0.3, 0.95)
        assert lo == hi == pdf(fitted, 0.3)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_level_checked_before_anything_is_evaluated(self, level):
        rng = np.random.default_rng(16)
        data = small_dataset(rng, n=60)
        cfg = small_config(subsample_size=20, n_trees=13, seed=53)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        with pytest.raises(ValueError, match="level"):
            confidence_interval(fitted, 0.5, level)
        assert "_ij_parts" not in fitted.__dict__
        assert "_family" not in fitted.__dict__

    def test_nested_levels(self):
        rng = np.random.default_rng(12)
        data = small_dataset(rng, n=60)
        cfg = small_config(subsample_size=24, n_trees=13, seed=43)
        fitted = fit(data, np.array([0.5, 0.5]), cfg)
        lo90, hi90 = confidence_interval(fitted, 0.5, 0.90)
        lo95, hi95 = confidence_interval(fitted, 0.5, 0.95)
        lo99, hi99 = confidence_interval(fitted, 0.5, 0.99)
        assert lo99 <= lo95 <= lo90 <= hi90 <= hi95 <= hi99


@lru_cache(maxsize=None)
def kept_state_fit():
    rng = np.random.default_rng(17)
    data = small_dataset(rng, n=80)
    return fit(data, np.array([0.4, 0.6]), small_config(n_trees=20, scheme="theta", seed=59))


class TestKeptFamilyState:
    """The fitted density evaluates its family at theta_hat once, and its
    queries give the bits of the public one-theta functions."""

    grid = np.linspace(0.05, 0.95, 19)  # the fit command's default y_grid

    def count_calls(self, monkeypatch):
        calls = {"_one_row": 0, "_inverse_covariances": 0}
        for name in calls:
            original = getattr(expfam, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(expfam, name, counted)
        return calls

    def test_one_family_evaluation_and_one_inverse_per_fit(self, monkeypatch):
        rng = np.random.default_rng(18)
        data = small_dataset(rng, n=80)
        cfg = small_config(n_trees=20, scheme="theta", seed=61)
        fits = [fit(data, np.array([0.5, 0.5]), cfg) for _ in range(2)]
        calls = self.count_calls(monkeypatch)
        for k, fitted in enumerate(fits, start=1):
            for y in self.grid:
                pdf(fitted, float(y))
                std_error(fitted, float(y))
                confidence_interval(fitted, float(y))
            assert calls == {"_one_row": k, "_inverse_covariances": k}

    def test_densities_alone_never_invert_the_covariance(self, monkeypatch):
        rng = np.random.default_rng(19)
        data = small_dataset(rng, n=80)
        fitted = fit(data, np.array([0.5, 0.5]), small_config(seed=67))
        calls = self.count_calls(monkeypatch)
        for y in self.grid:
            pdf(fitted, float(y))
        pdf(fitted, self.grid)
        assert calls == {"_one_row": 1, "_inverse_covariances": 0}

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
           st.sampled_from([0.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_queries_equal_the_public_functions_bit_for_bit(self, ys, end):
        fitted = kept_state_fit()
        theta, spec = fitted.theta_hat, fitted.basis
        raw, corr = fitted._ij_parts
        arr = np.array(ys + [end])
        assert pdf(fitted, arr).tobytes() == expfam.density(arr, theta.theta, spec).tobytes()
        for y in arr:
            assert pdf(fitted, y) == expfam.density(y, theta.theta, spec)
            t_row = expfam.t_functional(y, theta, spec)
            expected = math.sqrt(forest.debiased_variance(
                max(float(t_row @ raw @ t_row), 0.0), max(float(t_row @ corr @ t_row), 0.0),
                fitted.per_tree_h.shape[0]))
            assert std_error(fitted, y) == expected

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_python_and_numpy_floats_give_the_same_bits(self, y):
        # a Python float takes basis_matrix's one-row path, as np.float64 (a
        # float subclass) does; a 0-d array takes the array path
        fitted = kept_state_fit()
        for query in (pdf, std_error, confidence_interval):
            got = {np.array(query(fitted, point)).tobytes()
                   for point in (y, np.float64(y), np.array(y))}
            assert len(got) == 1
        assert np.array(pdf(fitted, y)).tobytes() == pdf(fitted, np.array([y])).tobytes()


class TestPointEstimateRegression:
    """Seeded point estimates recorded before the exponential-family state
    and the growth pipeline were each reduced to one implementation; the
    point estimate must reproduce them bit for bit.  The standard errors are
    those of the bias-corrected infinitesimal jackknife, recorded when
    ``std_error`` moved to it from the paired delete-group formula.  The
    criterion-9 configuration was re-recorded when near-tied split scores
    started to break toward the smallest (dimension, threshold): one of its
    splits had been decided by roundoff between two candidates that give the
    same partition.  Both cases were re-recorded when ``se_params`` stopped
    drawing the paired delete-group plan: a fit that requests standard errors
    now grows the forest of the same fit without them, again when each
    tree's half split and dimension sets became keyed counter-based draws,
    and again when each warm-started child node of growth took one Newton
    step in place of a solve."""

    grid = np.linspace(0.05, 0.95, 19)  # the fit command's default y_grid

    def check(self, fitted, theta_digest, pdf_digest, se):
        assert sha256(fitted.theta_hat.theta.tobytes()).hexdigest() == theta_digest
        assert sha256(pdf(fitted, self.grid).tobytes()).hexdigest() == pdf_digest
        np.testing.assert_allclose([std_error(fitted, float(y)) for y in self.grid],
                                   se, rtol=1e-13, atol=0.0)

    def test_cli_golden_fit_config(self):
        # acceptance criterion 9's fit configuration
        data = cli._read_input_csv(str(Path(__file__).parent / "data" / "sample200.csv"))
        cfg = cli._build_forest_config(
            dict(cli._FOREST_DEFAULTS, subsample_size=40, n_trees=40, basis_order=4,
                 min_child=4), 41, data)
        self.check(
            fit(data, np.full(4, 0.5), cfg),
            "114e6eee864936df5f2ef8ebb0c9e79dbbd1be788eadac75ace17a6f00478a17",
            "414fe49c92682c560f3ec297cd75900d16cc6dfbd12d1896def150974fae18bb",
            [0.36000623373201796, 0.37537442535070253, 0.46343760581216875,
             0.49552451745084886, 0.4845955091845499, 0.47534035986150935,
             0.4802817866845346, 0.4843203272367152, 0.47146550483922955,
             0.43492000390431534, 0.38153193276166714, 0.34503579011603147,
             0.38831287131204756, 0.5232174966161781, 0.674224878228807,
             0.7417976744061502, 0.6501192663528002, 0.4518115873363654,
             0.5115634586557144])

    def test_theta_scheme_with_se_plan(self):
        rng = np.random.default_rng(2026)
        x = rng.random((300, 3))
        data = Dataset(rng.beta(1.0 + 2.0 * x[:, 0], 1.5 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=50, basis_order=6,
                           initial_parent=[[0.0] * 3, [1.0] * 3], min_child=4,
                           scheme="theta", seed=19)
        self.check(
            fit(data, np.array([0.5, 0.4, 0.6]), cfg),
            "64f8d7cce6af2339579a6112ced3cb2c9f76dcc601df8d096cadc5b5df12f535",
            "a95862f1788f503377b6ca6564b4cc165fdc629b4401c8382e37940cc5e0a789",
            [0.5084016354921526, 0.5888872410752022, 0.46357741599267016,
             0.3420350842328012, 0.3046554096438189, 0.31829072182591295,
             0.38385430032532036, 0.5129208122024338, 0.6517977663546235,
             0.6888224593528516, 0.6018820981471268, 0.5053368595566279,
             0.47649983415519015, 0.5228883922341327, 0.7213994523488197,
             0.6597404915339368, 0.4120119141481422, 0.43565297094857514,
             0.030006960290315087])


OUTCOMES = {
    "point mass at 0.5": lambda rng, n: np.full(n, 0.5),
    "y in {0, 1}": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "two-valued y": lambda rng, n: rng.choice([0.3, 0.7], n),
    "uniform y": lambda rng, n: rng.random(n),
}

COVARIATES = {
    "constant x": lambda rng, n, d: np.full((n, d), 0.5),
    "x tied to two values": lambda rng, n, d: rng.choice([0.25, 0.75], (n, d)),
    "uniform x": lambda rng, n, d: rng.random((n, d)),
}


class TestDegenerateInputs:
    """A fit on a degenerate sample raises a typed error or gives a finite,
    positive pdf with finite standard errors; it never returns NaN."""

    grid = np.linspace(0.05, 0.95, 7)

    @given(st.sampled_from(sorted(OUTCOMES)), st.sampled_from(sorted(COVARIATES)),
           st.integers(min_value=1, max_value=3), st.integers(min_value=8, max_value=30),
           st.sampled_from([1, 2, 40]), st.booleans(), st.sampled_from(["theta", "mu"]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_typed_error_or_finite_positive_output(self, outcome, covariate, d, s, extra,
                                                   on_face, scheme, seed):
        # extra = 1 is the smallest sample a subsample of size s allows (n = s + 1)
        rng = np.random.default_rng(seed)
        n = s + extra
        data = Dataset(OUTCOMES[outcome](rng, n), COVARIATES[covariate](rng, n, d))
        x_query = rng.random(d)
        if on_face:
            x_query[rng.integers(d)] = float(rng.integers(2))
        cfg = ForestConfig(subsample_size=s, n_trees=16, basis_order=4,
                           initial_parent=[[0.0] * d, [1.0] * d], min_child=2,
                           scheme=scheme, seed=seed)
        try:
            fitted = fit(data, x_query, cfg)
            dens = pdf(fitted, self.grid)
            se = np.array([std_error(fitted, float(y)) for y in self.grid])
        except EstimationError:
            return
        assert np.all(np.isfinite(dens)) and np.all(dens > 0.0)
        assert np.all(np.isfinite(se)) and np.all(se >= 0.0)
