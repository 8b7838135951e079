"""End-to-end fits: reductions, moment matching, intervals, and hooks."""

from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from forestdens import cli, estimator, expfam, forest
from forestdens.basis import basis_matrix, default_basis
from forestdens.errors import MissingPlan
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

    def test_scales_with_t_row_hook(self):
        rng = np.random.default_rng(8)
        data = small_dataset(rng, n=50)
        cfg = small_config(subsample_size=20, n_trees=10, seed=29)
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params=(3, 4))
        row = expfam.t_functional(0.5, fitted.theta_hat, fitted.basis)
        base = std_error(fitted, 0.5, t_row=row)
        assert std_error(fitted, 0.5, t_row=-2.0 * row) == pytest.approx(2.0 * base,
                                                                         rel=1e-12)
        assert std_error(fitted, 0.5) == pytest.approx(base, rel=1e-12)

    def test_auto_se_params(self):
        rng = np.random.default_rng(9)
        data = small_dataset(rng, n=100)
        cfg = small_config(subsample_size=20, n_trees=21, seed=31)
        fitted = fit(data, np.array([0.5, 0.5]), cfg, se_params="auto")
        assert fitted.plan is not None
        assert fitted.plan.n_sigma == 21 // 4
        assert fitted.plan.d_sigma == 100 // 20
        assert std_error(fitted, 0.5) >= 0.0


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
    """Seeded point estimates and standard errors recorded before the
    exponential-family state and the growth pipeline were each reduced to
    one implementation; the point estimate must reproduce them bit for bit."""

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
            "2c4662f44644ef39da268ad1ea05d4c3b90f36818e9978ed5c84b4da10c813c3",
            "51532a64e4a64ac4ae68677b1b20c29f179583a0aab249b0b8ec0c0327dc335b",
            [1.1052617679777639, 1.3516853213594127, 1.5661491649008117,
             1.3804218654431555, 0.9665052807744037, 0.6771879169043342,
             0.6976180569490293, 0.8241235997224667, 0.9014191277322325,
             0.9006585812130697, 0.8195448765586981, 0.6703427142783425,
             0.5742873546915084, 0.8275392015948266, 1.3284988508770361,
             1.68540024500335, 1.6192956892488073, 1.7071886876277707,
             2.582340329308126])

    def test_theta_scheme_with_se_plan(self):
        rng = np.random.default_rng(2026)
        x = rng.random((300, 3))
        data = Dataset(rng.beta(1.0 + 2.0 * x[:, 0], 1.5 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=50, basis_order=6,
                           initial_parent=[[0.0] * 3, [1.0] * 3], min_child=4,
                           scheme="theta", seed=19)
        self.check(
            fit(data, np.array([0.5, 0.4, 0.6]), cfg, se_params=(10, 12)),
            "1954f7ba242a16d9bcc664c9da8b12dc501b88eb49fb8312ceef8e874bb22546",
            "08c9fc3f31bc83e810f3a5a923ab7a7cbe55f06a0ee4286a84114c5556972385",
            [1.6534284126650325, 1.0295864439179667, 1.6229251134210523,
             1.5665760324353768, 1.4067198319167042, 1.2260011748639141,
             1.2346576404835976, 2.1738932021403254, 3.4803693362544155,
             4.023488679153855, 3.2312371889256584, 1.742165879888135,
             1.9653226095371985, 3.3003773493677033, 4.001970639216026,
             3.658250698033487, 2.30627738680205, 0.9304903543441447,
             0.5384392151047599])
