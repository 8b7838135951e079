"""Exponential-family calculus and Newton solver, checked against
closed forms, finite differences, and a scalar bisection oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestdens import expfam
from forestdens.basis import basis_matrix, default_basis
from forestdens.errors import BoundaryMoment, NonConvergence
from forestdens.expfam import (BOUNDARY, NO_CONVERGENCE, SOLVED, MomentVector,
                               ThetaSolution, covariance, density,
                               log_partition, moments, pseudo_outcomes_theta,
                               solve_theta, solve_theta_batch, t_functional)


def closed_form_logz_first_component(c: float) -> float:
    # integral of exp(c * sqrt(3) * (2y - 1)) over [0, 1]
    r = c * np.sqrt(3.0)
    return float(np.log((np.exp(r) - np.exp(-r)) / (2.0 * r)))


def random_theta(rng, j, radius):
    v = rng.standard_normal(j)
    return radius * rng.random() * v / np.linalg.norm(v)


class TestLogPartition:
    def test_zero_theta(self):
        assert log_partition(np.zeros(3), default_basis(3)) == pytest.approx(0.0, abs=1e-14)

    def test_first_component_closed_form(self):
        spec = default_basis(4)
        theta = np.array([0.5, 0.0, 0.0, 0.0])
        assert log_partition(theta, spec) == pytest.approx(
            closed_form_logz_first_component(0.5), abs=1e-10)

    def test_reflection_symmetry_odd_components(self):
        # flipping y to 1 - y negates odd-degree components only
        spec = default_basis(4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = np.zeros(4)
            theta[[0, 2]] = rng.standard_normal(2)  # degrees 1 and 3
            assert log_partition(theta, spec) == pytest.approx(
                log_partition(-theta, spec), abs=1e-12)


class TestDensity:
    def test_uniform_at_zero_theta(self):
        spec = default_basis(5)
        for y in (0.0, 0.31, 1.0):
            assert density(y, np.zeros(5), spec) == pytest.approx(1.0, abs=1e-14)

    def test_normalization_random_theta(self):
        spec = default_basis(6)
        rng = np.random.default_rng(1)
        for _ in range(25):
            theta = random_theta(rng, 6, 1.0)
            total = spec.weights @ density(spec.nodes, theta, spec)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_midpoint_value_from_closed_form(self):
        spec = default_basis(3)
        theta = np.array([0.5, 0.0, 0.0])
        z = np.exp(closed_form_logz_first_component(0.5))
        assert density(0.5, theta, spec) == pytest.approx(1.0 / z, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            density(1.5, np.zeros(2), default_basis(2))


class TestMoments:
    def test_zero_theta_gives_zero_moments(self):
        mu = moments(np.zeros(4), default_basis(4)).mu
        np.testing.assert_allclose(mu, 0.0, atol=1e-14)

    def test_matches_gradient_of_log_partition(self):
        spec = default_basis(1)
        theta = np.array([0.5])
        h = 1e-6
        fd = (log_partition(theta + h, spec) - log_partition(theta - h, spec)) / (2 * h)
        assert moments(theta, spec).mu[0] == pytest.approx(fd, abs=1e-7)

    def test_odd_moments_flip_under_reflection(self):
        spec = default_basis(4)
        rng = np.random.default_rng(2)
        theta = random_theta(rng, 4, 1.0)
        reflected = theta * np.array([-1.0, 1.0, -1.0, 1.0])
        mu = moments(theta, spec).mu
        mu_ref = moments(reflected, spec).mu
        np.testing.assert_allclose(mu_ref, mu * np.array([-1.0, 1.0, -1.0, 1.0]),
                                   atol=1e-12)


class TestCovariance:
    def test_identity_at_zero_theta(self):
        v = covariance(np.zeros(6), default_basis(6))
        np.testing.assert_allclose(v, np.eye(6), atol=1e-10)

    def test_matches_finite_difference_hessian(self):
        spec = default_basis(3)
        rng = np.random.default_rng(3)
        theta = random_theta(rng, 3, 1.0)
        h = 1e-5
        hess = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                ea = np.eye(3)[a] * h
                eb = np.eye(3)[b] * h
                hess[a, b] = (log_partition(theta + ea + eb, spec)
                              - log_partition(theta + ea - eb, spec)
                              - log_partition(theta - ea + eb, spec)
                              + log_partition(theta - ea - eb, spec)) / (4 * h * h)
        np.testing.assert_allclose(covariance(theta, spec), hess, atol=1e-5)

    def test_cholesky_succeeds_on_ball(self):
        spec = default_basis(8)
        rng = np.random.default_rng(4)
        for _ in range(40):
            theta = random_theta(rng, 8, 5.0)
            np.linalg.cholesky(covariance(theta, spec))


class TestSolveTheta:
    def test_exact_zero_target_short_circuits(self):
        sol = solve_theta(np.zeros(4), default_basis(4))
        assert sol.converged and sol.iterations == 0
        np.testing.assert_array_equal(sol.theta, np.zeros(4))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for j in (1, 3, 8):
            spec = default_basis(j)
            for _ in range(10):
                theta_star = random_theta(rng, j, 1.0)
                sol = solve_theta(moments(theta_star, spec), spec)
                assert sol.converged
                np.testing.assert_allclose(sol.theta, theta_star, atol=1e-6)

    def test_scalar_case_against_bisection(self):
        spec = default_basis(1)
        target = 0.8
        lo, hi = 0.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if moments(np.array([mid]), spec).mu[0] < target:
                lo = mid
            else:
                hi = mid
        sol = solve_theta(np.array([target]), spec)
        assert sol.theta[0] == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_converges_from_far_target(self):
        # a target deep in the moment space forces the line search to engage
        spec = default_basis(2)
        target = moments(np.array([12.0, -6.0]), spec)
        sol = solve_theta(target, spec)
        assert sol.converged
        assert sol.residual_inf_norm <= 1e-10
        np.testing.assert_allclose(sol.theta, [12.0, -6.0], atol=1e-8)

    def test_boundary_target_raises(self):
        spec = default_basis(2)
        for bad in (np.array([np.sqrt(3.0), 0.0]), np.array([-1.9, 0.0])):
            with pytest.raises(BoundaryMoment):
                solve_theta(bad, spec)

    def test_near_boundary_target_escapes_box(self):
        # inside the basis range but only attainable beyond the box bound
        spec = default_basis(1)
        with pytest.raises(BoundaryMoment):
            solve_theta(np.array([1.72]), spec)

    def test_nonconvergence_payload(self):
        spec = default_basis(3)
        with pytest.raises(NonConvergence) as excinfo:
            solve_theta(moments(np.array([2.0, -1.0, 0.5]), spec), spec, max_iter=2)
        sol = excinfo.value.solution
        assert sol is not None and not sol.converged


def mixed_targets(rng, j, m):
    """Attainable targets, few-point sample means (often at or beyond the
    moment-space boundary) and targets on the basis range."""
    sup = np.sqrt(2.0 * np.arange(1, j + 1) + 1.0)
    rows = []
    for kind in rng.integers(3, size=m):
        if kind == 0:
            rows.append(moments(random_theta(rng, j, 4.0), default_basis(j)).mu)
        elif kind == 1:
            rows.append(basis_matrix(default_basis(j), rng.random(rng.integers(1, 4))).mean(axis=0))
        else:
            rows.append(sup * rng.uniform(0.9, 1.0, j) * rng.choice([-1.0, 1.0], j))
    return np.array(rows)


class TestSolveThetaBatch:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_each_row_alone(self, j, m, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        targets = mixed_targets(rng, j, m)
        batch = solve_theta_batch(targets, spec)
        raises = {BOUNDARY: BoundaryMoment, NO_CONVERGENCE: NonConvergence}
        for i, target in enumerate(targets):
            alone = solve_theta_batch(target[None, :], spec)
            np.testing.assert_array_equal(batch.theta[i], alone.theta[0])
            assert batch.residual[i] == alone.residual[0]
            assert batch.iterations[i] == alone.iterations[0]
            assert batch.status[i] == alone.status[0]
            if batch.status[i] == SOLVED:
                sol = solve_theta(target, spec)
                np.testing.assert_array_equal(sol.theta, batch.theta[i])
                assert sol.iterations == batch.iterations[i]
            else:
                with pytest.raises(raises[batch.status[i]]):
                    solve_theta(target, spec)

    def test_slices_do_not_change_rows(self, monkeypatch):
        rng = np.random.default_rng(9)
        spec = default_basis(4)
        targets = mixed_targets(rng, 4, 40)
        whole = solve_theta_batch(targets, spec)
        assert {SOLVED, BOUNDARY} <= set(whole.status.tolist())
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", 1)  # one row per slice
        sliced = solve_theta_batch(targets, spec)
        for field in ("theta", "residual", "iterations", "status"):
            np.testing.assert_array_equal(getattr(sliced, field), getattr(whole, field))

    def test_nonconvergence_keeps_last_iterate(self):
        spec = default_basis(3)
        target = moments(np.array([2.0, -1.0, 0.5]), spec).mu
        res = solve_theta_batch(np.stack([target, np.zeros(3)]), spec, max_iter=2)
        assert res.status.tolist() == [NO_CONVERGENCE, SOLVED]
        assert res.iterations.tolist() == [2, 0]
        assert res.residual[0] > 1e-10 and np.any(res.theta[0] != 0.0)


class TestPseudoOutcomes:
    def test_zero_theta_returns_basis_values(self):
        spec = default_basis(3)
        sol = solve_theta(np.zeros(3), spec)
        y = 0.77
        from forestdens.basis import basis_vector
        np.testing.assert_allclose(pseudo_outcomes_theta(sol, y, spec),
                                   basis_vector(spec, y), atol=1e-12)

    def test_scalar_hand_case(self):
        spec = default_basis(1)
        sol = solve_theta(np.zeros(1), spec)
        np.testing.assert_allclose(pseudo_outcomes_theta(sol, 1.0, spec),
                                   [np.sqrt(3.0)], atol=1e-12)

    def test_mean_zero_at_matching_sample(self):
        # when the empirical basis mean equals the model moments, residuals
        # average to zero by linearity
        spec = default_basis(4)
        rng = np.random.default_rng(6)
        theta_star = random_theta(rng, 4, 0.8)
        sol = solve_theta(moments(theta_star, spec), spec)
        ys = rng.random(200)
        rho = pseudo_outcomes_theta(sol, ys, spec)
        from forestdens.basis import basis_matrix
        phi = basis_matrix(spec, ys)
        shift = phi.mean(axis=0) - moments(sol.theta, spec).mu
        expected_mean = np.linalg.solve(covariance(sol.theta, spec), shift)
        np.testing.assert_allclose(rho.mean(axis=0), expected_mean, atol=1e-10)


class TestTFunctional:
    def test_zero_theta_reduces_to_basis_vector(self):
        spec = default_basis(4)
        sol = solve_theta(np.zeros(4), spec)
        from forestdens.basis import basis_vector
        np.testing.assert_allclose(t_functional(0.3, sol, spec),
                                   basis_vector(spec, 0.3), atol=1e-10)

    def test_first_order_taylor_accuracy(self):
        spec = default_basis(4)
        rng = np.random.default_rng(7)
        theta = random_theta(rng, 4, 0.7)
        sol = solve_theta(moments(theta, spec), spec)
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        theta2 = sol.theta + 1e-4 * direction
        y = 0.42
        row = t_functional(y, sol, spec)
        lhs = density(y, theta2, spec) - density(y, sol.theta, spec)
        rhs = row @ (moments(theta2, spec).mu - moments(sol.theta, spec).mu)
        assert abs(lhs - rhs) <= 1e-6

    def test_integrates_to_zero_row(self):
        # the row vector already carries the density factor, so its plain
        # integral reduces to the centering identity and vanishes
        spec = default_basis(3)
        rng = np.random.default_rng(8)
        theta = random_theta(rng, 3, 1.0)
        sol = solve_theta(moments(theta, spec), spec)
        total = np.zeros(3)
        for node, w in zip(spec.nodes, spec.weights):
            total += w * t_functional(float(node), sol, spec)
        np.testing.assert_allclose(total, 0.0, atol=1e-9)


class TestMomentVectorType:
    def test_rejects_out_of_range_component(self):
        with pytest.raises(ValueError):
            MomentVector(np.array([2.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            MomentVector(np.array([np.nan]))


class TestThetaSolutionType:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ThetaSolution(np.array([np.inf]), 0.0, 0, True)

    def test_rejects_escaped_box(self):
        with pytest.raises(ValueError):
            ThetaSolution(np.array([60.0]), 0.0, 0, True)
