"""Exponential-family calculus and Newton solver, checked against
closed forms, finite differences, and a scalar bisection oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestdens import expfam
from forestdens.basis import basis_matrix, default_basis
from forestdens.basis import basis_range
from forestdens.errors import BoundaryMoment, NonConvergence
from forestdens.expfam import (CAPPED, ESCAPED, RANGE, SINGULAR, SOLVED, STALLED,
                               MomentVector, ThetaSolution, covariance, density,
                               log_partition, moments, row_pseudo_outcomes,
                               solve_theta, t_functional)


def solve_from_zero(targets, spec, max_iter=expfam.NEWTON_MAX_ITER):
    """The batched Newton solve of every row of ``targets``, each from zero coefficients."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    return expfam._solve_from(targets, np.zeros_like(targets), spec, max_iter)


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
            with pytest.raises(BoundaryMoment, match="attainable range") as excinfo:
                solve_theta(bad, spec)
            np.testing.assert_array_equal(excinfo.value.target, bad)

    def test_near_boundary_target_escapes_box(self):
        # inside the basis range but only attainable beyond the box bound
        spec = default_basis(1)
        with pytest.raises(BoundaryMoment, match="escaped the box bound") as excinfo:
            solve_theta(np.array([1.72]), spec)
        np.testing.assert_array_equal(excinfo.value.target, [1.72])

    def test_zero_cap_takes_no_step(self, monkeypatch):
        monkeypatch.setattr(expfam, "NEWTON_MAX_ITER", 0)
        spec = default_basis(3)
        with pytest.raises(NonConvergence) as excinfo:
            solve_theta(moments(np.array([1.0, -0.5, 0.3]), spec), spec)
        assert excinfo.value.solution.iterations == 0

    def test_nonconvergence_payload(self, monkeypatch):
        monkeypatch.setattr(expfam, "NEWTON_MAX_ITER", 2)
        spec = default_basis(3)
        with pytest.raises(NonConvergence) as excinfo:
            solve_theta(moments(np.array([2.0, -1.0, 0.5]), spec), spec)
        sol = excinfo.value.solution
        assert sol is not None and not sol.converged


#: At this J = 8 start the family sits on one quadrature node: its
#: covariance is zero up to roundoff and LAPACK finds it singular.
COLLAPSED = np.array([-34.25104516095402, -45.11528741850862, -45.295558477592614,
                      45.635422988204745, -26.94538811548156, -41.60605340176012,
                      -47.516226014044236, 49.5])


class TestRowCodes:
    """One constructed row per code: ``_solve_from`` writes the code where its
    cause is decided, and ``solve_theta`` raises that code's exception with a
    message naming the cause (a singular covariance is not reached from zero)."""

    @pytest.mark.parametrize("code, max_iter, raises, match", [
        (SOLVED, 100, None, None),
        (RANGE, 100, BoundaryMoment, "attainable range of the basis"),
        (ESCAPED, 100, BoundaryMoment, "escaped the box bound"),
        (SINGULAR, 100, None, None),
        (STALLED, 100, NonConvergence, "stalled at residual 1.274e-01"),
        (STALLED, 2, NonConvergence, "stalled at residual 1.274e-01"),  # on the last round
        (CAPPED, 2, NonConvergence, r"^residual .* above tol 1\.0e-10 after 2 iterations$"),
    ], ids=["solved", "range", "escaped", "singular", "stalled", "stalled-at-cap", "capped"])
    def test_solve_from_writes_the_code_solve_theta_raises_it(self, code, max_iter, raises,
                                                               match, monkeypatch):
        monkeypatch.setattr(expfam, "NEWTON_MAX_ITER", max_iter)
        spec3, spec8 = default_basis(3), default_basis(8)
        solvable = moments(random_theta(np.random.default_rng(0), 8, 1.0), spec8).mu
        target, spec = {
            SOLVED: (solvable, spec8),
            RANGE: (basis_range(8), spec8),
            ESCAPED: (np.array([1.72]), default_basis(1)),
            SINGULAR: (solvable, spec8),
            STALLED: (0.95 * basis_range(8), spec8),
            CAPPED: (moments(np.array([2.0, -1.0, 0.5]), spec3).mu, spec3),
        }[code]
        start = COLLAPSED if code == SINGULAR else np.zeros(target.size)
        batch = expfam._solve_from(target[None, :], start[None, :], spec, max_iter)
        assert batch.status[0] == code
        if code == SOLVED:
            assert solve_theta(target, spec).converged
        elif raises is not None:
            with pytest.raises(raises, match=match) as excinfo:
                solve_theta(target, spec)
            if raises is NonConvergence:
                assert excinfo.value.solution.iterations == batch.iterations[0]
        if code == STALLED:
            assert batch.iterations[0] == 2


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
        batch = solve_from_zero(targets, spec)
        for i, target in enumerate(targets):
            alone = solve_from_zero(target[None, :], spec)
            np.testing.assert_array_equal(batch.theta[i], alone.theta[0])
            assert batch.residual[i] == alone.residual[0]
            assert batch.iterations[i] == alone.iterations[0]
            assert batch.status[i] == alone.status[0]
            if batch.status[i] == SOLVED:
                sol = solve_theta(target, spec)
                np.testing.assert_array_equal(sol.theta, batch.theta[i])
                assert sol.iterations == batch.iterations[i]
            else:
                with pytest.raises(expfam._FAILURES[batch.status[i]][0]):
                    solve_theta(target, spec)

    def test_slices_do_not_change_rows(self, monkeypatch):
        rng = np.random.default_rng(9)
        spec = default_basis(4)
        targets = mixed_targets(rng, 4, 40)
        whole = solve_from_zero(targets, spec)
        assert {SOLVED, ESCAPED} <= set(whole.status.tolist())
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", 1)  # one row per slice
        sliced = solve_from_zero(targets, spec)
        for field in ("theta", "residual", "iterations", "status"):
            np.testing.assert_array_equal(getattr(sliced, field), getattr(whole, field))

    def test_nonconvergence_keeps_last_iterate(self):
        spec = default_basis(3)
        target = moments(np.array([2.0, -1.0, 0.5]), spec).mu
        res = solve_from_zero(np.stack([target, np.zeros(3)]), spec, max_iter=2)
        assert res.status.tolist() == [CAPPED, SOLVED]
        assert res.iterations.tolist() == [2, 0]
        assert res.residual[0] > 1e-10 and np.any(res.theta[0] != 0.0)


def sequential_newton(target, spec, max_iter=expfam.NEWTON_MAX_ITER, accepted=None, start=None):
    """Reference solver: one row, the step halved once per family evaluation.

    The plain loop the blocked line search must reproduce, on the same
    family kernels: a length is accepted when it lowers the dual
    L = log Z - theta . target by the Armijo amount or lowers the residual
    sup-norm.  The iteration starts from ``start`` (zero by default); a
    singular covariance ends it as SINGULAR without a step.
    Returns ``(theta, residual, iterations, status, halvings)`` with
    ``halvings`` the most halvings any accepted step needed.  When
    ``accepted`` is a list, each accepted step appends ``(theta, length, step)``.
    """
    j = target.size
    theta = np.zeros((1, j))
    if np.any(np.abs(target) >= basis_range(j)):
        return theta[0], 0.0, 0, RANGE, 0
    if not target.any():
        return theta[0], 0.0, 0, SOLVED, 0
    if start is not None:
        theta = np.array(start, dtype=float)[None, :]
    dens, mu, logz = expfam._row_states(theta, spec)
    dual = logz - (theta[:, None, :] @ target[None, :, None])[:, 0, 0]  # L = log Z - theta . target
    resid = target - mu
    rnorm = np.abs(resid).max()
    halvings = 0
    for it in range(1, max_iter + 1):
        if rnorm <= expfam.NEWTON_TOL:
            return theta[0], rnorm, it - 1, SOLVED, halvings
        cov = expfam._row_covariances(dens, mu, spec)
        try:
            step = np.linalg.solve(cov, resid[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # collapsed family: no step is taken
            return theta[0], rnorm, it, SINGULAR, halvings
        armijo = expfam._ARMIJO_C * (resid[:, None, :] @ step[:, :, None])[:, 0, 0]
        lam = 1.0
        for tries in range(31):
            cand = theta + lam * step
            cand_dens, cand_mu, cand_logz = expfam._row_states(cand, spec)
            cand_resid = target - cand_mu
            cand_rnorm = np.abs(cand_resid).max()
            cand_dual = cand_logz - (cand[:, None, :] @ target[None, :, None])[:, 0, 0]
            if cand_rnorm < rnorm or cand_dual[0] <= dual[0] - lam * armijo[0]:
                break
            lam *= 0.5
        else:
            return theta[0], rnorm, it, STALLED, halvings
        if accepted is not None:
            accepted.append((theta[0], lam, step[0]))
        halvings = max(halvings, tries)
        theta, dens, mu, resid, rnorm = cand, cand_dens, cand_mu, cand_resid, cand_rnorm
        dual = cand_dual
        if np.abs(theta).max() > expfam.THETA_BOX_BOUND:
            return theta[0], rnorm, it, ESCAPED, halvings
    status = SOLVED if rnorm <= expfam.NEWTON_TOL else CAPPED
    return theta[0], rnorm, max_iter, status, halvings


def dual_and_residual(theta, target, spec):
    """The dual L = log Z - theta . target and the residual sup-norm, from the one-row functions."""
    return (log_partition(theta, spec) - theta @ target,
            np.abs(target - moments(theta, spec).mu).max())


def assert_row_is(batch, i, theta, residual, iterations, status):
    assert batch.theta[i].tobytes() == np.asarray(theta, dtype=float).tobytes()
    assert batch.residual[i].tobytes() == np.float64(residual).tobytes()
    assert batch.iterations[i] == iterations
    assert batch.status[i] == status


class TestBlockedLineSearch:
    """The batched step-halving search, one length per evaluation of the rows
    still pending, accepts the step of one row halved alone: the first length
    that passes the Armijo test on the dual or lowers the residual sup-norm."""

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=12),
           st.sampled_from([1, 2, 3, 5, 100]), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_equals_sequential_halving(self, j, m, max_iter, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        far = [moments(random_theta(rng, j, 14.0), spec).mu for _ in range(m)]
        targets = np.vstack([mixed_targets(rng, j, m), far])
        batch = solve_from_zero(targets, spec, max_iter)
        for i, target in enumerate(targets):
            assert_row_is(batch, i, *sequential_newton(target, spec, max_iter)[:4])

    @pytest.mark.parametrize("case", ["solved", "box escape", "stall", "iteration cap"])
    def test_each_outcome_equals_sequential_halving(self, case):
        spec3, spec8 = default_basis(3), default_basis(8)
        target, spec, max_iter, status = {
            # a far target whose steps need up to 28 halvings (29 evaluations), and
            # whose full step is once taken on the Armijo test alone
            "solved": (moments(np.array([-1.0, 3.0, 2.0, 1.5, -0.3, -0.1, 1.5, 1.2]), spec8).mu,
                       spec8, 100, SOLVED),
            "box escape": (np.array([1.72]), default_basis(1), 100, ESCAPED),
            "stall": (0.95 * basis_range(8), spec8, 100, STALLED),
            "iteration cap": (moments(np.array([2.0, -1.0, 0.5]), spec3).mu, spec3, 2, CAPPED),
        }[case]
        steps = []
        ref = sequential_newton(target, spec, max_iter, steps)
        assert ref[3] == status
        if case == "solved":
            assert ref[4] == 28
            assert any(dual_and_residual(theta + lam * step, target, spec)[1]
                       >= dual_and_residual(theta, target, spec)[1] for theta, lam, step in steps)
        if case == "stall":
            assert ref[2] < max_iter
        # the row alone, and among other rows whose searches end elsewhere
        others = mixed_targets(np.random.default_rng(31), target.size, 30)
        for targets in (target[None, :], np.vstack([others, target])):
            batch = solve_from_zero(targets, spec, max_iter)
            assert_row_is(batch, targets.shape[0] - 1, *ref[:4])

    @given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_accepted_steps_descend_dual_or_residual(self, j, pyrandom):
        # Armijo on the convex dual, L(theta + lam p) <= L(theta) + c lam grad L . p,
        # or a strictly lower residual sup-norm, recomputed from the one-row functions
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        far = moments(random_theta(rng, j, 14.0), spec).mu
        for target in np.vstack([mixed_targets(rng, j, 3), far]):
            steps = []
            sequential_newton(target, spec, accepted=steps)
            for theta, lam, step in steps:
                dual, rnorm = dual_and_residual(theta, target, spec)
                new_dual, new_rnorm = dual_and_residual(theta + lam * step, target, spec)
                slope = (moments(theta, spec).mu - target) @ step
                bound = dual + expfam._ARMIJO_C * lam * slope + 1e-12 * max(1.0, abs(dual))
                assert new_dual <= bound or new_rnorm < rnorm

    def test_large_batch_equals_one_row_slices(self, monkeypatch):
        # more rows than any level of the reference fit: one pass at J = 8
        rng = np.random.default_rng(47)
        spec = default_basis(8)
        targets = mixed_targets(rng, 8, 2304)
        whole = solve_from_zero(targets, spec)
        assert {SOLVED, ESCAPED, STALLED} <= set(whole.status.tolist())
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", 1)  # one row per pass and evaluation
        sliced = solve_from_zero(targets, spec)
        for field in ("theta", "residual", "iterations", "status"):
            assert getattr(sliced, field).tobytes() == getattr(whole, field).tobytes()


def mixed_starts(rng, j, m):
    """Zero starts, moderate starts and starts within 1 % of the box bound."""
    rows = []
    for kind in rng.integers(3, size=m):
        if kind == 0:
            rows.append(np.zeros(j))
        elif kind == 1:
            rows.append(random_theta(rng, j, 8.0))
        else:
            v = rng.standard_normal(j)
            rows.append(0.99 * expfam.THETA_BOX_BOUND * v / np.abs(v).max())
    return np.array(rows)


class TestWarmStart:
    """The private entry forest growth uses to start each child node's
    Newton iteration from its parent's iterate, with a cap per row."""

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=10),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_each_row_alone_from_its_start(self, j, m, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        roots = [random_theta(rng, j, 4.0) for _ in range(2)]
        targets = np.vstack([mixed_targets(rng, j, m), [moments(r, spec).mu for r in roots]])
        starts = np.vstack([mixed_starts(rng, j, m), roots])
        batch = expfam._solve_from(targets, starts, spec, 100)
        for i, (target, start) in enumerate(zip(targets, starts)):
            alone = expfam._solve_from(target[None, :], start[None, :], spec, 100)
            assert_row_is(batch, i, alone.theta[0], alone.residual[0], alone.iterations[0],
                          alone.status[0])
            assert_row_is(batch, i, *sequential_newton(target, spec, start=start)[:4])
        # a start at the exact root is returned as it is
        for i in (m, m + 1):
            assert batch.status[i] == SOLVED and batch.iterations[i] == 0
            assert batch.theta[i].tobytes() == starts[i].tobytes()

    def test_start_collapsed_onto_a_node_stops_without_a_step(self):
        spec = default_basis(8)
        target = moments(random_theta(np.random.default_rng(0), 8, 1.0), spec).mu
        targets = np.vstack([target, target])
        starts = np.vstack([COLLAPSED, np.zeros(8)])
        batch = expfam._solve_from(targets, starts, spec, 100)
        assert batch.status[0] == SINGULAR and batch.iterations[0] == 1
        assert batch.theta[0].tobytes() == COLLAPSED.tobytes()
        assert_row_is(batch, 0, *sequential_newton(target, spec, start=COLLAPSED)[:4])
        # the other row of the stack is solved as it is alone
        alone = expfam._solve_from(target[None, :], np.zeros((1, 8)), spec, 100)
        assert batch.status[1] == SOLVED
        assert_row_is(batch, 1, alone.theta[0], alone.residual[0], alone.iterations[0],
                      alone.status[0])

    @pytest.mark.parametrize("j", [1, 3, 8])
    def test_target_outside_basis_range_is_boundary_from_any_start(self, j):
        rng = np.random.default_rng(j)
        spec = default_basis(j)
        starts = mixed_starts(rng, j, 12)
        target = np.zeros(j)
        target[-1] = 1.001 * basis_range(j)[-1]
        res = expfam._solve_from(np.tile(target, (12, 1)), starts, spec, 100)
        assert np.all(res.status == RANGE) and np.all(res.iterations == 0)


    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=10),
           st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_rows_with_their_own_caps_equal_each_row_alone_at_its_cap(
            self, j, m, data, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        targets = mixed_targets(rng, j, m)
        starts = mixed_starts(rng, j, m)
        caps = np.array(data.draw(st.lists(st.sampled_from([0, 1, 2, 3, 100]),
                                           min_size=m, max_size=m)))
        batch = expfam._solve_from(targets, starts, spec, caps, expfam.GROWTH_TOL)
        for i in range(m):
            alone = expfam._solve_from(targets[i:i + 1], starts[i:i + 1], spec, int(caps[i]),
                                       expfam.GROWTH_TOL)
            for field in ("theta", "residual", "iterations", "status", "dens", "mu"):
                assert getattr(batch, field)[i].tobytes() == getattr(alone, field)[0].tobytes()
            assert batch.iterations[i] <= caps[i]


class TestKeptState:
    """Growth builds each usable node's pseudo-outcomes from the density and
    moments the Newton solve kept at its last iterate: a SOLVED row's root, or
    a CAPPED row's last step."""

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=10),
           st.integers(min_value=2, max_value=6), st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_pseudo_outcomes_from_the_kept_state_are_row_pseudo_outcomes(
            self, j, m, k, data, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        roots = [random_theta(rng, j, 4.0) for _ in range(2)]
        v = rng.standard_normal(j)
        far = 3.0 * v / np.linalg.norm(v)  # one step from zero leaves it above GROWTH_TOL
        targets = np.vstack([mixed_targets(rng, j, m), [moments(r, spec).mu for r in roots],
                             np.zeros(j),  # an exact zero target is solved without iterating
                             moments(far, spec).mu])
        starts = np.vstack([mixed_starts(rng, j, m), roots, mixed_starts(rng, j, 1),
                            np.zeros(j)])
        caps = np.r_[rng.choice([expfam.GROWTH_STEPS, 100], m), 100, 100, 100,
                     expfam.GROWTH_STEPS]
        cut = data.draw(st.integers(min_value=0, max_value=targets.shape[0]))
        # the rows solved in two batches, split anywhere
        parts = [expfam._solve_from(targets[sl], starts[sl], spec, caps[sl], expfam.GROWTH_TOL)
                 for sl in (slice(0, cut), slice(cut, None))]
        theta, dens, mu, status = (np.concatenate([getattr(b, f) for b in parts])
                                   for f in ("theta", "dens", "mu", "status"))
        assert np.count_nonzero(status == SOLVED) >= 3 and status[-1] == CAPPED
        usable = np.flatnonzero((status == SOLVED) | (status == CAPPED))
        phi = basis_matrix(spec, rng.random(usable.size * k)).reshape(usable.size, k, j)
        vinv = expfam._inverse_covariances(dens[usable], mu[usable], spec)
        kept = (phi - mu[usable][:, None, :]) @ vinv.transpose(0, 2, 1)
        expected = expfam.row_pseudo_outcomes(theta[usable], phi, spec)
        assert kept.tobytes() == expected.tobytes()


class TestPseudoOutcomes:
    @pytest.mark.parametrize("k", [2, 3, 8, 40, 129])
    def test_stack_rows_equal_each_row_alone(self, k):
        # one (k, J) @ (J, J) product per row, whatever the other rows are
        rng = np.random.default_rng(k)
        spec = default_basis(8)
        theta = np.array([random_theta(rng, 8, r) for r in (0.0, 1.0, 4.0, 9.0)])
        phi = basis_matrix(spec, rng.random(4 * k)).reshape(4, k, 8)
        stack = expfam.row_pseudo_outcomes(theta, phi, spec)
        for i in range(4):
            alone = expfam.row_pseudo_outcomes(theta[i:i + 1], phi[i:i + 1], spec)
            assert stack[i].tobytes() == alone[0].tobytes()
        # and the row's members agree with the definition V^-1 (phi - mu)
        for i in range(4):
            rho = np.linalg.solve(covariance(theta[i], spec),
                                  (phi[i] - moments(theta[i], spec).mu).T).T
            np.testing.assert_allclose(stack[i], rho, rtol=1e-9, atol=1e-9)

    def test_zero_theta_returns_basis_values(self):
        spec = default_basis(3)
        sol = solve_theta(np.zeros(3), spec)
        y = 0.77
        rho = row_pseudo_outcomes(sol.theta, basis_matrix(spec, y)[None], spec)[0, 0]
        np.testing.assert_allclose(rho, basis_matrix(spec, y)[0], atol=1e-12)

    def test_scalar_hand_case(self):
        spec = default_basis(1)
        sol = solve_theta(np.zeros(1), spec)
        rho = row_pseudo_outcomes(sol.theta, basis_matrix(spec, 1.0)[None], spec)[0, 0]
        np.testing.assert_allclose(rho, [np.sqrt(3.0)], atol=1e-12)

    def test_mean_zero_at_matching_sample(self):
        # when the empirical basis mean equals the model moments, residuals
        # average to zero by linearity
        spec = default_basis(4)
        rng = np.random.default_rng(6)
        theta_star = random_theta(rng, 4, 0.8)
        sol = solve_theta(moments(theta_star, spec), spec)
        ys = rng.random(200)
        phi = basis_matrix(spec, ys)
        rho = row_pseudo_outcomes(sol.theta, phi[None], spec)[0]
        shift = phi.mean(axis=0) - moments(sol.theta, spec).mu
        expected_mean = np.linalg.solve(covariance(sol.theta, spec), shift)
        np.testing.assert_allclose(rho.mean(axis=0), expected_mean, atol=1e-10)


class TestTFunctional:
    def test_zero_theta_reduces_to_basis_vector(self):
        spec = default_basis(4)
        sol = solve_theta(np.zeros(4), spec)
        from forestdens.basis import basis_matrix
        np.testing.assert_allclose(t_functional(0.3, sol, spec),
                                   basis_matrix(spec, 0.3)[0], atol=1e-10)

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

    def test_rejects_a_table(self):
        with pytest.raises(ValueError, match=r"moment vector of shape \(1, 4\) is not 1-D"):
            MomentVector(np.zeros((1, 4)))

    def test_solve_theta_rejects_a_table_target(self):
        with pytest.raises(ValueError, match=r"target moments must be 1-D, not shape \(1, 4\)"):
            solve_theta(np.zeros((1, 4)), default_basis(4))


class TestThetaSolutionType:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ThetaSolution(np.array([np.inf]), 0.0, 0, True)

    def test_rejects_escaped_box(self):
        with pytest.raises(ValueError):
            ThetaSolution(np.array([60.0]), 0.0, 0, True)

    def test_rejects_a_table(self):
        with pytest.raises(ValueError, match=r"coefficients of shape \(2, 3\) are not 1-D"):
            ThetaSolution(np.zeros((2, 3)), 0.0, 0, True)
