"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Criteria 7 and 8 share a single benchmark run (100 replications of design
D1 at n = 1000 with standard errors) cached at session scope;
its seed is frozen so the whole suite is reproducible bit-for-bit.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

import forestdens as fd
from forestdens import estimator, expfam, forest
from forestdens.basis import basis_matrix, default_basis, make_quadrature
from forestdens.forest import Dataset, ForestConfig


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} :: {detail}")


# ----------------------------------------------------------------------
# criterion 1: basis correctness
# ----------------------------------------------------------------------

def binomial_sum(ell: int, y: float) -> float:
    acc = Fraction(0)
    for k in range(ell + 1):
        acc += comb(ell, k) * comb(ell + k, k) * (-Fraction(y)) ** k
    return float((-1) ** ell * acc) * np.sqrt(2 * ell + 1)


def test_criterion_1_basis_correctness():
    t0 = time.perf_counter()
    nodes, weights = make_quadrature(64)
    table = np.column_stack([fd.legendre_eval(ell, nodes) for ell in range(13)])
    gram = (table * weights[:, None]).T @ table
    ortho_err = float(np.max(np.abs(gram - np.eye(13))))

    grid = np.linspace(0.0, 1.0, 101)
    rec_err = 0.0
    for ell in range(13):
        oracle = np.array([binomial_sum(ell, y) for y in grid])
        rec_err = max(rec_err, float(np.max(np.abs(fd.legendre_eval(ell, grid) - oracle))))
    elapsed = time.perf_counter() - t0

    ok = ortho_err < 1e-10 and rec_err < 1e-9 and elapsed < 1.0
    report("1 basis", ok,
           f"orthonormality {ortho_err:.2e} (<1e-10), recurrence {rec_err:.2e} "
           f"(<1e-9), {elapsed:.2f}s (<1s)")
    assert ortho_err < 1e-10
    assert rec_err < 1e-9
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# criterion 2: exponential-family calculus
# ----------------------------------------------------------------------

def test_criterion_2_expfam_calculus():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    spec = default_basis(4)

    grad_err = hess_err = 0.0
    for _ in range(5):
        theta = rng.standard_normal(4)
        theta *= rng.random() / np.linalg.norm(theta)
        h = 1e-6
        for a in range(4):
            e = np.eye(4)[a] * h
            fdg = (expfam.log_partition(theta + e, spec)
                   - expfam.log_partition(theta - e, spec)) / (2 * h)
            grad_err = max(grad_err, abs(expfam.moments(theta, spec).mu[a] - fdg))
        h2 = 1e-4
        v = expfam.covariance(theta, spec)
        for a in range(4):
            for b in range(4):
                ea, eb = np.eye(4)[a] * h2, np.eye(4)[b] * h2
                fdh = (expfam.log_partition(theta + ea + eb, spec)
                       - expfam.log_partition(theta + ea - eb, spec)
                       - expfam.log_partition(theta - ea + eb, spec)
                       + expfam.log_partition(theta - ea - eb, spec)) / (4 * h2 * h2)
                hess_err = max(hess_err, abs(v[a, b] - fdh))

    norm_err = 0.0
    spec8 = default_basis(8)
    for _ in range(100):
        theta = rng.standard_normal(8)
        theta *= 2.0 * rng.random() / np.linalg.norm(theta)
        total = spec8.weights @ expfam.density(spec8.nodes, theta, spec8)
        norm_err = max(norm_err, abs(total - 1.0))
    elapsed = time.perf_counter() - t0

    ok = grad_err < 1e-6 and hess_err < 1e-5 and norm_err < 1e-10 and elapsed < 10.0
    report("2 expfam calculus", ok,
           f"gradient {grad_err:.2e} (<1e-6), hessian {hess_err:.2e} (<1e-5), "
           f"normalization {norm_err:.2e} (<1e-10), {elapsed:.1f}s (<10s)")
    assert grad_err < 1e-6
    assert hess_err < 1e-5
    assert norm_err < 1e-10
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# criterion 3: Newton round trip
# ----------------------------------------------------------------------

def test_criterion_3_newton_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for case in range(100):
        j = int(rng.integers(1, 9))
        spec = default_basis(j)
        theta_star = rng.standard_normal(j)
        theta_star *= rng.random() / np.linalg.norm(theta_star)
        sol = expfam.solve_theta(expfam.moments(theta_star, spec), spec)
        assert sol.converged
        worst = max(worst, float(np.max(np.abs(sol.theta - theta_star))))

    spec1 = default_basis(1)
    target = 0.8
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expfam.moments(np.array([mid]), spec1).mu[0] < target:
            lo = mid
        else:
            hi = mid
    bisect_err = abs(expfam.solve_theta(np.array([target]), spec1).theta[0]
                     - 0.5 * (lo + hi))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-6 and bisect_err < 1e-8 and elapsed < 30.0
    report("3 newton round trip", ok,
           f"round-trip {worst:.2e} (<1e-6), bisection {bisect_err:.2e} (<1e-8), "
           f"{elapsed:.1f}s (<30s)")
    assert worst < 1e-6
    assert bisect_err < 1e-8
    assert elapsed < 30.0


# ----------------------------------------------------------------------
# criterion 4: forest structural suite
# ----------------------------------------------------------------------

def test_criterion_4_forest_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    checked_splits = 0
    for i in range(1000):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(24, 60))
        data = Dataset(rng.random(n), rng.random((n, d)))
        s = int(rng.integers(10, min(n, 30)))
        cfg = ForestConfig(
            subsample_size=s,
            n_trees=int(rng.integers(1, 5)),
            basis_order=int(rng.integers(1, 4)),
            initial_parent=[[0.0] * d, [1.0] * d],
            min_child=int(rng.integers(2, max(3, s // 4))),
            min_fraction=float(rng.uniform(0.05, 0.3)),
            scheme="theta" if i % 3 == 0 else "mu",
            seed=i,
        )
        x_query = rng.random(d)

        w = forest.weights(x_query, data, cfg)
        assert np.all(w.weights >= 0.0)
        assert w.total <= 1.0 + 1e-12

        master, tree_rngs = forest._tree_streams(cfg.seed, cfg.n_trees)
        subsamples = forest.draw_subsamples(data.n, cfg, master)
        nonempty = 0
        total_mass = 0.0
        alone = np.zeros(data.n)
        for t, idx in enumerate(subsamples):
            res = forest.grow_branch(x_query, data.y[idx], data.x[idx], cfg,
                                     tree_rngs[t], index=idx)
            # honesty: holdout indices never seen by the split search
            assert not set(res.holdout_members) & set(res.split_members)
            # query containment and parent nesting
            assert res.leaf_box.contains(x_query)
            assert np.all(res.leaf_box.lower >= 0.0)
            assert np.all(res.leaf_box.upper <= 1.0)
            for rec in res.splits:
                bound = max(cfg.min_fraction * rec.n_parent, cfg.min_child)
                assert min(rec.n_left, rec.n_right) >= bound
                assert rec.n_left + rec.n_right == rec.n_parent
                checked_splits += 1
            if res.holdout_members.size:
                nonempty += 1
                total_mass += 1.0 / cfg.n_trees
                alone[res.holdout_members] += 1.0 / (cfg.n_trees * res.holdout_members.size)
        # the forest, all trees grown together, has the weights of its trees
        # grown one at a time, shares added in tree order
        assert np.array_equal(w.weights, alone), "forest equals its trees grown alone"
        # 0/0 convention: mass equals the fraction of trees with nonempty leaves
        assert w.total == pytest.approx(total_mass, abs=1e-12)
        if nonempty == len(subsamples):
            assert w.total == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - t0

    ok = elapsed < 300.0
    report("4 forest structure", ok,
           f"1000 instances, {checked_splits} splits audited, {elapsed:.0f}s (<300s)")
    assert elapsed < 300.0


# ----------------------------------------------------------------------
# criterion 5: degenerate-kernel oracle
# ----------------------------------------------------------------------

def test_criterion_5_degenerate_kernel():
    rng = np.random.default_rng(5)
    worst_exact = 0.0
    mc_ok = True
    for s in (4, 6):
        y = rng.random(s)
        x = rng.random((s, 2))
        cfg = ForestConfig(subsample_size=s, n_trees=1, basis_order=3,
                           initial_parent=[[0.0, 0.0], [1.0, 1.0]],
                           min_child=s // 2, scheme="mu", seed=0)
        spec = default_basis(3)
        phi = basis_matrix(spec, y)
        x_query = np.array([0.5, 0.5])

        def tree_output(holdout, deciding):
            res = forest.grow_from_halves(x_query, y, x, cfg,
                                          np.array(holdout), np.array(deciding),
                                          np.random.default_rng(0))
            assert res.splits == ()
            return phi[res.holdout_members].mean(axis=0)

        outputs = [tree_output([i for i in range(s) if i not in dec], dec)
                   for dec in combinations(range(s), s // 2)]
        exact = np.mean(outputs, axis=0)
        worst_exact = max(worst_exact,
                          float(np.max(np.abs(exact - phi.mean(axis=0)))))

        draws = []
        sub_rng = np.random.default_rng(50 + s)
        for _ in range(4000):
            holdout, deciding = forest.split_half(np.arange(s), sub_rng)
            draws.append(tree_output(holdout, deciding))
        draws = np.asarray(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        mc_ok = mc_ok and bool(np.all(np.abs(draws.mean(axis=0) - exact)
                                      <= 3 * se + 1e-12))

    report("5 degenerate kernel", worst_exact < 1e-12 and mc_ok,
           f"enumerated-average error {worst_exact:.2e} (<1e-12), "
           f"sampled average within 3 SE: {mc_ok}")
    assert worst_exact < 1e-12
    assert mc_ok


# ----------------------------------------------------------------------
# criterion 6: unconditional-series reduction
# ----------------------------------------------------------------------

def test_criterion_6_uniform_weights_reduction():
    rng = np.random.default_rng(6)
    data = Dataset(rng.random(120), rng.random((120, 3)))
    cfg = ForestConfig(subsample_size=30, n_trees=8, basis_order=5,
                       initial_parent=[[0.0] * 3, [1.0] * 3], min_child=3, seed=0)
    uniform = np.full(data.n, 1.0 / data.n)
    spec = default_basis(5)
    # the fit's solve step, given one leaf that holds the whole sample
    w = forest.WeightVector(uniform)
    fitted = estimator._from_trees(np.full(3, 0.5), w, forest.mu_hat(w, data, spec).mu[None, :],
                                   None, cfg)
    unconditional = expfam.solve_theta(
        forest.mu_hat(forest.WeightVector(uniform), data, spec), spec)
    bit_equal = (np.array_equal(fitted.theta_hat.theta, unconditional.theta)
                 and fitted.theta_hat.residual_inf_norm
                 == unconditional.residual_inf_norm)
    report("6 unconditional reduction", bit_equal,
           "uniform-weight fit bit-equal to the series estimate at the "
           "sample basis mean")
    assert bit_equal


# ----------------------------------------------------------------------
# criteria 7 and 8: benchmark reproduction at desk scale
# ----------------------------------------------------------------------

BENCH_SEED = 20260810


@pytest.fixture(scope="session")
def d1_benchmark():
    """Shared 100-replication D1 run with standard errors."""
    cfg = ForestConfig(subsample_size=200, n_trees=2240, basis_order=8,
                       min_child=10, min_fraction=0.05, scheme="theta",
                       initial_parent=[[0.0] * 4, [1.0] * 4], seed=BENCH_SEED)
    return fd.run_mc("D1", 1000, 100, cfg, (560, 50), workers=2)


@pytest.mark.slow
def test_criterion_7_d1_reproduction(d1_benchmark):
    rep = d1_benchmark
    i25 = int(np.flatnonzero(rep.design_points == 0.25)[0])
    i50 = int(np.flatnonzero(rep.design_points == 0.5)[0])
    mise_ok = 0.004 <= rep.mise <= 0.015
    bias_ok = -0.06 <= rep.bias[i25] <= 0.0
    sd_ok = 0.06 <= rep.sd[i50] <= 0.15

    t0 = time.perf_counter()
    smoke_cfg = ForestConfig(subsample_size=125, n_trees=560, basis_order=8,
                             min_child=10, min_fraction=0.05, scheme="theta",
                             initial_parent=[[0.0] * 4, [1.0] * 4], seed=77)
    smoke = fd.run_mc("D1", 500, 20, smoke_cfg, None, workers=2)
    smoke_elapsed = time.perf_counter() - t0
    smoke_ok = smoke_elapsed < 1800.0 and smoke.mise < 0.05

    ok = mise_ok and bias_ok and sd_ok and smoke_ok
    report("7 D1 reproduction", ok,
           f"MISE {rep.mise:.4f} in [0.004,0.015]; bias(0.25) {rep.bias[i25]:+.4f} "
           f"in [-0.06,0.00]; sd(0.50) {rep.sd[i50]:.3f} in [0.06,0.15]; "
           f"smoke MISE {smoke.mise:.4f} (<0.05) in {smoke_elapsed:.0f}s (<1800s)")
    assert mise_ok
    assert bias_ok
    assert sd_ok
    assert smoke_ok


@pytest.mark.slow
def test_criterion_8_coverage_and_se(d1_benchmark):
    rep = d1_benchmark
    i25 = int(np.flatnonzero(rep.design_points == 0.25)[0])
    i50 = int(np.flatnonzero(rep.design_points == 0.5)[0])
    coverage_ok = rep.coverage[i25] >= 0.90
    se_ok = 0.05 <= rep.avg_se[i50] <= 0.20
    at_points = ", ".join(f"{y:.3g}: {c:.2f}/{se:.3f}" for y, c, se
                          in zip(rep.design_points, rep.coverage, rep.avg_se))
    report("8 coverage and std. error", coverage_ok and se_ok,
           f"coverage(0.25) {rep.coverage[i25]:.2f} (>=0.90); "
           f"avg se(0.50) {rep.avg_se[i50]:.3f} in [0.05,0.20]; "
           f"coverage/avg se at y = {at_points}")
    assert coverage_ok
    assert se_ok


# ----------------------------------------------------------------------
# criterion 9: CLI golden determinism
# ----------------------------------------------------------------------

def test_criterion_9_cli_golden(tmp_path):
    import json

    from forestdens.cli import main
    from pathlib import Path

    data = Path(__file__).parent / "data" / "sample200.csv"
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({
        "input": str(data),
        "query_x": [0.5, 0.5, 0.5, 0.5],
        "seed": 41,
        "se": "auto",
        "forest": {"subsample_size": 40, "n_trees": 40, "basis_order": 4,
                   "min_child": 4},
    }))
    mc_cfg = tmp_path / "mc.json"
    mc_cfg.write_text(json.dumps({
        "design": "D1", "n": 150, "reps": 2, "seed": 43, "se": None,
        "design_points": [0.25, 0.5, 0.75],
        "forest": {"subsample_size": 30, "n_trees": 24, "basis_order": 4,
                   "min_child": 3, "initial_parent": [[0.0] * 4, [1.0] * 4]},
    }))

    pairs = []
    for cmd, cfg, fname in (("fit", fit_cfg, "fit.csv"),
                            ("mc", mc_cfg, "mc_report.csv"),
                            ("mc", mc_cfg, "mc_report.json")):
        out1 = tmp_path / f"{cmd}_{fname}_1"
        out2 = tmp_path / f"{cmd}_{fname}_2"
        assert main([cmd, "--config", str(cfg), "--out", str(out1)]) == 0
        assert main([cmd, "--config", str(cfg), "--out", str(out2)]) == 0
        pairs.append((out1 / fname).read_bytes() == (out2 / fname).read_bytes())

    ok = all(pairs)
    report("9 cli golden", ok, f"byte-identical reruns for fit and mc: {pairs}")
    assert ok
