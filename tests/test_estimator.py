"""End-to-end fits: reductions, moment matching, intervals, and hooks."""

from dataclasses import replace
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from forestdens import cli, estimator, expfam, forest
from forestdens.basis import basis_matrix, default_basis
from forestdens.errors import EstimationError, MissingPlan
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
        fitted = fit(data, np.array([0.5, 0.5]), cfg, weights_override=uniform)
        spec = default_basis(cfg.basis_order)
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
                                     data.x[idx], cfg, tree_rngs[t], index=idx)
            assert res.splits == ()
            means.append(phi[res.holdout_members].mean(axis=0))
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
    def test_missing_plan_raises(self):
        rng = np.random.default_rng(6)
        data = small_dataset(rng)
        fitted = fit(data, np.array([0.5, 0.5]), small_config())
        with pytest.raises(MissingPlan):
            std_error(fitted, 0.5)

    def test_identical_tree_outputs_give_zero(self):
        rng = np.random.default_rng(7)
        data = small_dataset(rng, n=50)
        cfg = small_config(subsample_size=20, n_trees=10, seed=23)
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 4))
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
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 4))
        row = np.array([0.1, 1.0 / 3.0, -0.7, np.pi])[:fitted.per_tree_h.shape[1]]
        forced = replace(fitted, per_tree_h=np.tile(row, (10, 1)))
        assert [std_error(forced, y) for y in (0.1, 0.5, 0.9)] == [0.0] * 3

    def test_scales_linearly_in_per_tree_h(self):
        rng = np.random.default_rng(13)
        data = small_dataset(rng, n=80)
        cfg = small_config(subsample_size=25, n_trees=30, seed=29)
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(4, 5))
        scaled = replace(fitted, per_tree_h=3.0 * fitted.per_tree_h)
        for y in (0.2, 0.5, 0.8):
            assert std_error(scaled, y) == pytest.approx(3.0 * std_error(fitted, y), rel=1e-12)

    def test_positive_on_criterion_9_fit_grid(self):
        # the fit config of acceptance criterion 9 with seed 43, where the
        # Monte Carlo correction exceeds the raw variance near y = 0.5
        data = cli._read_input_csv(str(Path(__file__).parent / "data" / "sample200.csv"))
        cfg = cli._build_forest_config(
            dict(cli._FOREST_DEFAULTS, subsample_size=40, n_trees=40, basis_order=4,
                 min_child=4), 43, data)
        fitted = fit(data, np.full(4, 0.5), cfg, se_params=(8, 9))
        raw, corr = fitted._ij_parts
        t_mid = expfam.t_functional(0.5, fitted.theta_hat, fitted.basis)
        assert t_mid @ corr @ t_mid > t_mid @ raw @ t_mid
        se = np.array([std_error(fitted, float(y)) for y in np.linspace(0.05, 0.95, 19)])
        assert np.all(np.isfinite(se)) and np.all(se > 0.0)

    def test_se_params_only_requests_se(self, monkeypatch):
        # the forest is the same with and without a standard-error request,
        # and no fit draws the paired delete-group plan
        def no_plan(*args, **kwargs):
            raise AssertionError("the fit drew a delete-group plan")
        monkeypatch.setattr(forest, "se_subsample_plan", no_plan)
        rng = np.random.default_rng(9)
        data = small_dataset(rng, n=100)
        cfg = small_config(subsample_size=20, n_trees=21, seed=31)
        plain, auto, pair = (fit(data, np.array([0.5, 0.5]), cfg, se_params=p)
                             for p in (None, "auto", (3, 4)))
        for fitted in (auto, pair):
            assert fitted.weights.weights.tobytes() == plain.weights.weights.tobytes()
            assert fitted.per_tree_h.tobytes() == plain.per_tree_h.tobytes()
            assert fitted.theta_hat.theta.tobytes() == plain.theta_hat.theta.tobytes()
            assert [t.size for t in fitted.tree_subsamples] == [20] * 21
            assert std_error(fitted, 0.5) >= 0.0
        assert plain.tree_subsamples is None

    def test_tree_subsamples_is_a_read_only_table(self):
        rng = np.random.default_rng(10)
        data = small_dataset(rng, n=100)
        cfg = small_config(subsample_size=20, n_trees=21, seed=32)
        subsamples = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 4)).tree_subsamples
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
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params="auto")
        assert std_error(fitted, 0.5) >= 0.0

    @pytest.mark.parametrize("n, s", [(41, 40), (100, 96)])
    def test_auto_se_params_when_few_observations_stay_out(self, n, s):
        # n - s <= n // 20: "auto" names delete groups larger than what a tree leaves out
        rng = np.random.default_rng(14)
        data = small_dataset(rng, n=n)
        fitted = fit(data, np.array([0.5, 0.5]), small_config(subsample_size=s),
                     se_params="auto")
        se = std_error(fitted, 0.5)
        assert np.isfinite(se) and se >= 0.0


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
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 5))
        lo, hi = confidence_interval(fitted, 0.4, 0.95)
        center = pdf(fitted, 0.4)
        se = std_error(fitted, 0.4)
        assert hi - lo == pytest.approx(2 * 1.959963984540054 * se, rel=1e-12)
        assert 0.5 * (lo + hi) == pytest.approx(center, rel=1e-12)

    def test_degenerate_interval_at_zero_se(self):
        rng = np.random.default_rng(11)
        data = small_dataset(rng, n=50)
        cfg = small_config(subsample_size=20, n_trees=10, seed=41)
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 4))
        forced = object.__new__(type(fitted))
        for name in fitted.__dataclass_fields__:
            object.__setattr__(forced, name, getattr(fitted, name))
        object.__setattr__(forced, "per_tree_h", np.zeros_like(fitted.per_tree_h))
        lo, hi = confidence_interval(forced, 0.3, 0.95)
        assert lo == hi == pdf(fitted, 0.3)

    def test_nested_levels(self):
        rng = np.random.default_rng(12)
        data = small_dataset(rng, n=60)
        cfg = small_config(subsample_size=24, n_trees=13, seed=43)
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 5))
        lo90, hi90 = confidence_interval(fitted, 0.5, 0.90)
        lo95, hi95 = confidence_interval(fitted, 0.5, 0.95)
        lo99, hi99 = confidence_interval(fitted, 0.5, 0.99)
        assert lo99 <= lo95 <= lo90 <= hi90 <= hi95 <= hi99


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
    now grows the forest of the same fit without them, and again when each
    tree's half split and dimension sets became keyed counter-based draws."""

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
            fit(data, np.full(4, 0.5), cfg, se_params=(8, 9)),
            "8c318dd05151c502c68c129ec0c6b9d6171d653db1219d137499fa06d7d3bb24",
            "32d1adaca568aef0a091fa13344a2e6b98318a6eddc531158833ad72c2108475",
            [0.5510341022788684, 0.5304535055251526, 0.5711795019198518,
             0.5695079752103523, 0.5245383294332773, 0.48160314532135096,
             0.4711955463995001, 0.4864780809710192, 0.5034169051914572,
             0.5022661946407695, 0.4765017778616874, 0.43886905191283815,
             0.42927332482526975, 0.4875065280111401, 0.5868015224077909,
             0.6515840480889106, 0.6233305016228837, 0.5136308940933788,
             0.4436367059754152])

    def test_theta_scheme_with_se_plan(self):
        rng = np.random.default_rng(2026)
        x = rng.random((300, 3))
        data = Dataset(rng.beta(1.0 + 2.0 * x[:, 0], 1.5 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=50, basis_order=6,
                           initial_parent=[[0.0] * 3, [1.0] * 3], min_child=4,
                           scheme="theta", seed=19)
        self.check(
            fit(data, np.array([0.5, 0.4, 0.6]), cfg, se_params=(10, 12)),
            "c3ef0daf05f6b7019e6566c0295f76e5b1444d8350e9517c14c9d9ce7c10cbf6",
            "205d8c07fe86c70876c10339c6c2c464220d60da402ed1daf7e3c82102b308c3",
            [0.7411702255949064, 0.9961871792682491, 0.636939226383341,
             0.37794406555509086, 0.34588029831713873, 0.3698785758211637,
             0.4224538741920255, 0.5329957377875959, 0.6698073761322368,
             0.7105306762860439, 0.6600270058475523, 0.6309070028019784,
             0.6200937261253424, 0.6200467803501128, 0.6748633748347672,
             0.8367312039271577, 0.7790866489300464, 0.4499135194851851,
             0.30661564154148513])


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
            fitted = fit(data, x_query, cfg, se_params="auto")
            dens = pdf(fitted, self.grid)
            se = np.array([std_error(fitted, float(y)) for y in self.grid])
        except EstimationError:
            return
        assert np.all(np.isfinite(dens)) and np.all(dens > 0.0)
        assert np.all(np.isfinite(se)) and np.all(se >= 0.0)
