"""Exponential-family densities on [0, 1] and the moment-matching solver.

The family is

    dens(y; theta) = exp(theta . phi(y)) / Z(theta),
    Z(theta) = integral_0^1 exp(theta . phi(t)) dt,

with ``phi`` the orthonormal shifted Legendre basis of :mod:`.basis`.  The
coefficient vector matching a moment target ``mu`` solves

    integral phi(y) dens(y; theta) dy = mu,

the gradient system of the convex dual L(theta) = log Z(theta) - theta . mu,
handled by Newton's method with the exact Jacobian (the basis covariance
under the current density) and a step-halving line search on L and the
residual.  A batch of systems is solved in one pass: each round evaluates the
full step of every row at once, then halves the step of the rows that reject
it, one length per evaluation of the rows still pending.  The public solvers
start from zero coefficients and stop at :data:`NEWTON_TOL`; forest growth
starts each child node from its parent's root, stops at :data:`GROWTH_TOL`
and keeps each root's density and moments for its pseudo-outcomes.

One batched row kernel evaluates the family: the density at the quadrature
nodes, mu(theta), log Z(theta) and the covariance V(theta), for each row of
a stack of coefficient vectors.  The Newton solver, the forest's
pseudo-outcomes and the one-row functions all call it.  Solutions carry no
cached state: a one-row evaluation costs less than a cache lookup did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, basis_matrix, basis_range
from .errors import BoundaryMoment, NonConvergence

__all__ = [
    "MomentVector",
    "ThetaSolution",
    "THETA_BOX_BOUND",
    "NEWTON_TOL",
    "GROWTH_TOL",
    "log_partition",
    "density",
    "moments",
    "covariance",
    "solve_theta",
    "solve_theta_batch",
    "NewtonBatch",
    "SOLVED",
    "BOUNDARY",
    "NO_CONVERGENCE",
    "row_pseudo_outcomes",
    "pseudo_outcomes_theta",
    "t_functional",
]

#: Iterates with sup-norm beyond this bound signal a target at or outside
#: the moment-space boundary.
THETA_BOX_BOUND = 50.0

#: Newton's convergence threshold on the moment residual sup-norm.
NEWTON_TOL = 1e-10

#: The threshold of forest growth's node solves, whose roots only feed split
#: scores; a fit's final solve keeps :data:`NEWTON_TOL`.
GROWTH_TOL = 1e-6

_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search's Armijo test


@dataclass(frozen=True, eq=False)
class MomentVector:
    """A vector of basis moments, one entry per non-constant basis function.

    Component ``j`` of any attainable moment vector is bounded by the basis
    sup-norm sqrt(2j + 1); construction enforces this up to roundoff.
    """

    mu: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if not np.all(np.isfinite(mu)):
            raise ValueError("moment vector must be finite")
        if np.any(np.abs(mu) > basis_range(mu.size) + 1e-9):
            raise ValueError("moment component exceeds the basis range")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    def __len__(self) -> int:
        return self.mu.size


@dataclass(frozen=True, eq=False)
class ThetaSolution:
    """Solved coefficient vector with residual diagnostics.

    ``converged`` is True only when the final moment residual sup-norm is
    within :data:`NEWTON_TOL`.  Instances are immutable and hold only the
    coefficients and the diagnostics; the moments, covariance and density
    at ``theta`` are evaluated afresh by the functions that need them.
    """

    theta: np.ndarray
    residual_inf_norm: float
    iterations: int
    converged: bool

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if not np.all(np.isfinite(theta)):
            raise ValueError("coefficients must be finite")
        if np.max(np.abs(theta), initial=0.0) > THETA_BOX_BOUND:
            raise ValueError("coefficients exceed the solver box bound")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


def _row_states(theta: np.ndarray, spec: BasisSpec):
    """Density at the quadrature nodes, basis moments and log Z for each row of ``theta``.

    Returns ``(dens, mu, logz)``.  Every product is a stacked matmul whose
    core is one row, so a row's result does not depend on the other rows in
    the batch.
    """
    phi, w = spec.phi_nodes, spec.weights
    g = (phi @ theta[:, :, None])[:, :, 0]
    top = g.max(axis=1, keepdims=True)
    e = np.exp(g - top)
    z = (e[:, None, :] @ w[:, None])[:, 0]
    dens = e / z
    mu = (phi.T @ (w * dens)[:, :, None])[:, :, 0]
    return dens, mu, top[:, 0] + np.log(z[:, 0])


def _row_covariances(dens: np.ndarray, mu: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Basis covariance for each row, from :func:`_row_states` output."""
    j = mu.shape[1]
    second = ((spec.weights * dens)[:, None, :] @ spec.outer_nodes).reshape(-1, j, j)
    v = second - mu[:, :, None] * mu[:, None, :]
    return 0.5 * (v + v.transpose(0, 2, 1))


def _one_row(theta, spec: BasisSpec):
    """``(dens, mu, log Z)`` of one coefficient vector; ``dens`` and ``mu`` keep a row axis."""
    dens, mu, logz = _row_states(np.asarray(theta, dtype=float)[None, :], spec)
    if not np.all(np.isfinite(dens)):
        raise OverflowError("exponent is not finite at a quadrature node")
    return dens, mu, logz[0]


def _inverse_covariances(dens: np.ndarray, mu: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """``V(theta)^{-1}`` for each row, from :func:`_row_states` output: one stacked inverse."""
    return np.linalg.inv(_row_covariances(dens, mu, spec))


def _pseudo_outcomes(dens, mu, phi: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """:func:`row_pseudo_outcomes` from the rows' :func:`_row_states` output.

    One matrix product per row maps all of its members at once: a stacked
    matmul whose core is the row's ``(k, J) @ (J, J)`` product.
    """
    return (phi - mu[:, None, :]) @ _inverse_covariances(dens, mu, spec).transpose(0, 2, 1)


def row_pseudo_outcomes(theta, phi, spec: BasisSpec) -> np.ndarray:
    """Influence residuals ``V(theta_k)^{-1} (phi[k, i] - mu(theta_k))`` for each row ``k``.

    ``theta`` has shape ``(m, J)`` and ``phi`` shape ``(m, k, J)``, as does the
    result.  Each row is one ``(k, J) @ (J, J)`` product, so with ``k >= 2``
    members a row is computed exactly as when it is passed alone (a one-member
    product takes the matrix-vector path instead).
    """
    dens, mu, _ = _row_states(np.atleast_2d(np.asarray(theta, dtype=float)), spec)
    return _pseudo_outcomes(dens, mu, phi, spec)


def log_partition(theta, spec: BasisSpec) -> float:
    """log of the normalizing integral, computed with max-subtraction."""
    return _one_row(theta, spec)[2]


def density(y, theta, spec: BasisSpec):
    """Evaluate dens(y; theta); strictly positive on [0, 1]."""
    theta = np.asarray(theta, dtype=float)
    arr = np.asarray(y, dtype=float)
    logz = log_partition(theta, spec)
    vals = np.exp(basis_matrix(spec, arr) @ theta - logz)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def moments(theta, spec: BasisSpec) -> MomentVector:
    """Basis moments of dens(.; theta), by quadrature."""
    return MomentVector(_one_row(theta, spec)[1][0])


def covariance(theta, spec: BasisSpec) -> np.ndarray:
    """Covariance of the basis vector under dens(.; theta).

    Symmetric positive definite for every finite ``theta``; equals the
    Hessian of :func:`log_partition`.  A downstream factorization failure
    indicates the quadrature rule is under-resolving the integrands.
    """
    dens, mu, _ = _one_row(theta, spec)
    return _row_covariances(dens, mu, spec)[0]


def _as_moment_array(mu_target) -> np.ndarray:
    if isinstance(mu_target, MomentVector):
        return mu_target.mu
    return np.atleast_1d(np.asarray(mu_target, dtype=float))


#: Row status codes returned by :func:`solve_theta_batch`.
SOLVED, BOUNDARY, NO_CONVERGENCE = 0, 1, 2

#: Elements allowed in any one batched temporary (not in their sum): larger
#: Newton batches, and the levels of forest growth, go in slices of rows.
BATCH_ELEMENTS = 1 << 18


@dataclass(frozen=True, eq=False)
class NewtonBatch:
    """Per-row outcome of :func:`solve_theta_batch`.

    ``status`` holds :data:`SOLVED`, :data:`BOUNDARY` or
    :data:`NO_CONVERGENCE` for each row.  ``theta``, ``residual`` and
    ``iterations`` are the root, its residual sup-norm and the Newton
    iterations for solved rows, and the last accepted iterate for rows that
    did not converge.  ``dens`` (at the quadrature nodes) and ``mu`` are the
    family's state at a solved row's root, the bits :func:`_row_states` gives.
    """

    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    dens: np.ndarray
    mu: np.ndarray


def solve_theta_batch(mu_targets, spec: BasisSpec, max_iter: int = 100) -> NewtonBatch:
    """Solve the moment-matching system for every row of ``mu_targets``.

    Each row runs the Newton iteration described in :func:`solve_theta`,
    from zero coefficients, with its own line search, tolerance check and
    box bound; rows leave the batch as soon as they converge or fail.  Rows
    that reject the full step halve it, up to 30 times, in one evaluation
    per length of the rows still pending, and take the first length that
    passes the test of :func:`solve_theta`, so a row's result is
    bit-identical to solving it alone.  Failures do not raise: they are
    reported per row in :attr:`NewtonBatch.status`.  A row whose covariance is singular (the
    family has collapsed onto one quadrature node) takes no step and stops
    as :data:`NO_CONVERGENCE`.

    Forest growth starts each child node's iteration from its parent's
    solved coefficients instead, and stops it at :data:`GROWTH_TOL`,
    through the private :func:`_solve_from`.
    """
    targets = np.atleast_2d(np.asarray(mu_targets, dtype=float))
    return _solve_from(targets, np.zeros_like(targets), spec, max_iter)


def _solve_from(targets: np.ndarray, start: np.ndarray, spec: BasisSpec,
                max_iter: int, tol: float = NEWTON_TOL) -> NewtonBatch:
    """:func:`solve_theta_batch` with row ``k``'s iteration started from ``start[k]``.

    The dual at the start is ``log Z(start) - start . target``; the
    exact-zero-target shortcut, box bound, iteration cap, line search and
    status codes are those of :func:`solve_theta_batch`, the tolerance is
    ``tol``, and a row's result is bit-identical to solving it alone from its
    start.  A start at the exact root returns it as SOLVED after 0
    iterations.  Solved rows keep the state their last evaluation computed.
    """
    if not np.all(np.isfinite(targets)):
        raise ValueError("moment target must be finite")
    m, j = targets.shape
    if spec.order != j:
        raise ValueError(f"target has {j} components but basis order is {spec.order}")
    out = NewtonBatch(np.zeros((m, j)), np.zeros(m), np.zeros(m, dtype=np.intp),
                      np.full(m, SOLVED, dtype=np.int8), np.zeros((m, spec.nodes.size)),
                      np.zeros((m, j)))
    out.status[(np.abs(targets) >= basis_range(j)).any(axis=1)] = BOUNDARY
    # an exact zero target has the exact root zero: no iteration
    zero = (out.status == SOLVED) & ~targets.any(axis=1)
    if zero.any():
        out.dens[zero], out.mu[zero] = _row_states(np.zeros((1, j)), spec)[:2]
    rows = np.flatnonzero((out.status == SOLVED) & ~zero)
    chunk = max(1, BATCH_ELEMENTS // max(spec.nodes.size, j * j))
    for lo in range(0, rows.size, chunk):
        _newton_rows(targets, start, rows[lo:lo + chunk], spec, max_iter, tol, out)
    return out


def _newton_steps(cov: np.ndarray, resid: np.ndarray):
    """Newton steps ``V^-1 r`` for each row, and the rows whose ``V`` is singular.

    A family that has collapsed onto one quadrature node has a covariance
    that is zero up to roundoff, which LAPACK can find exactly singular.
    Such a row gets a zero step and ``True`` in the returned mask; the
    other rows' steps are those of the stacked solve, solved one at a time.
    """
    singular = np.zeros(len(cov), dtype=bool)
    try:
        return np.linalg.solve(cov, resid[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        step = np.zeros_like(resid)
        for i in range(len(cov)):
            try:
                step[i] = np.linalg.solve(cov[i:i + 1], resid[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                singular[i] = True
        return step, singular


def _dual_states(theta: np.ndarray, target: np.ndarray, spec: BasisSpec):
    """``(dens, mu, resid, rnorm, dual)`` of each row: :func:`_row_states`, the
    residual ``target - mu`` with its sup-norm, and the dual ``log Z - theta . target``."""
    dens, mu, logz = _row_states(theta, spec)
    resid = target - mu
    dual = logz - (theta[:, None, :] @ target[:, :, None])[:, 0, 0]
    return dens, mu, resid, np.abs(resid).max(axis=1), dual


def _newton_rows(targets, start, rows, spec, max_iter, tol, out: NewtonBatch) -> None:
    """Run the Newton iteration on ``targets[rows]`` from ``start[rows]``, writing into ``out``.

    The state arrays are copies, updated in place as each row accepts a length.
    """
    target = targets[rows]
    theta = start[rows]
    dens, mu, resid, rnorm, dual = _dual_states(theta, target, spec)

    def finish(sel, status, iterations):
        done = rows[sel]
        out.theta[done], out.dens[done], out.mu[done] = theta[sel], dens[sel], mu[sel]
        out.residual[done] = rnorm[sel]
        out.iterations[done] = iterations
        out.status[done] = status
        return ~sel

    for it in range(1, max_iter + 1):
        keep = finish(rnorm <= tol, SOLVED, it - 1)
        rows, target, theta, dens, mu, resid, rnorm, dual = (
            a[keep] for a in (rows, target, theta, dens, mu, resid, rnorm, dual))
        if rows.size == 0:
            return
        step, singular = _newton_steps(_row_covariances(dens, mu, spec), resid)
        armijo = _ARMIJO_C * (resid[:, None, :] @ step[:, :, None])[:, 0, 0]  # -c grad L . step
        # one evaluation tries the full step of every non-singular row (a
        # singular row takes no step); the rows that reject it halve it,
        # 2^-1 ... 2^-30, in one evaluation per length
        pending = np.flatnonzero(~singular)
        for lam in np.ldexp(1.0, -np.arange(31)):
            if pending.size == 0:
                break
            cand = theta[pending] + lam * step[pending]
            state = _dual_states(cand, target[pending], spec)
            bound = dual[pending] - lam * armijo[pending]  # L + c lam grad L . step
            hit = (state[3] < rnorm[pending]) | (state[4] <= bound)  # lower residual, or Armijo
            for a, b in zip((theta, dens, mu, resid, rnorm, dual), (cand, *state)):
                a[pending[hit]] = b[hit]
            pending = pending[~hit]
        stalled = singular.copy()
        stalled[pending] = True
        keep = finish(stalled, NO_CONVERGENCE, it)
        escaped = keep & (np.abs(theta).max(axis=1) > THETA_BOX_BOUND)
        keep = finish(escaped, BOUNDARY, it) & keep
        rows, target, theta, dens, mu, resid, rnorm, dual = (
            a[keep] for a in (rows, target, theta, dens, mu, resid, rnorm, dual))
    converged = rnorm <= tol
    finish(converged, SOLVED, max_iter)
    finish(~converged, NO_CONVERGENCE, max_iter)


def solve_theta(mu_target, spec: BasisSpec, max_iter: int = 100) -> ThetaSolution:
    """Solve the moment-matching system by Newton's method.

    Starts from zero coefficients and iterates
    ``theta <- theta + lam V(theta)^{-1} (mu_target - mu(theta))``: Newton's
    method on the convex dual L(theta) = log Z(theta) - theta . mu_target,
    whose gradient is minus the residual.  ``lam`` is halved from 1 (up to 30
    times) until L falls by the Armijo amount, 1e-4 lam |grad L . step|, or
    the residual sup-norm strictly falls, so every accepted step lowers one
    of the two (not always both).  This is the one-row case of
    :func:`solve_theta_batch`.

    Parameters
    ----------
    mu_target : MomentVector or array_like
        Target moments, one per basis function.
    spec : BasisSpec
    max_iter : int
        Iteration cap.

    Returns
    -------
    ThetaSolution
        With ``converged=True``.

    Raises
    ------
    BoundaryMoment
        If a target component exceeds the basis range, or the iterate
        escapes the box bound ``THETA_BOX_BOUND`` (the target sits at or
        outside the boundary of the attainable moment space).
    NonConvergence
        If the residual is still above ``NEWTON_TOL`` after ``max_iter``
        iterations, or the iteration stalls: no length passes the line
        search, or the covariance at the iterate is singular.
    """
    mu_target = _as_moment_array(mu_target)
    res = solve_theta_batch(mu_target[None, :], spec, max_iter)
    theta, rnorm, iters = res.theta[0], float(res.residual[0]), int(res.iterations[0])
    status = res.status[0]
    if status == SOLVED:
        return ThetaSolution(theta, rnorm, iters, True)
    if status == BOUNDARY:
        if np.any(np.abs(mu_target) >= basis_range(mu_target.size)):
            raise BoundaryMoment(
                "moment target at or outside the attainable range of the basis",
                target=mu_target,
            )
        raise BoundaryMoment(
            "coefficient iterate escaped the box bound; moment target is "
            "at or outside the moment-space boundary",
            target=mu_target,
        )
    if iters < max_iter:
        message = f"Newton iteration stalled at residual {rnorm:.3e}"
    else:
        message = f"residual {rnorm:.3e} above tol {NEWTON_TOL:.1e} after {max_iter} iterations"
    raise NonConvergence(message, solution=ThetaSolution(theta, rnorm, iters, False))


def pseudo_outcomes_theta(theta: ThetaSolution, y, spec: BasisSpec) -> np.ndarray:
    """Influence-style residuals -V(theta)^{-1} (mu(theta) - phi(y)).

    Accepts a scalar ``y`` (returns shape ``(J,)``) or an array of
    outcomes (returns shape ``(m, J)``).  This is the one-row case of
    :func:`row_pseudo_outcomes`.
    """
    if not theta.converged:
        raise ValueError("pseudo-outcomes require a converged solution")
    arr = np.asarray(y, dtype=float)
    rho = row_pseudo_outcomes(theta.theta, basis_matrix(spec, arr)[None], spec)[0]
    return rho[0] if arr.ndim == 0 else rho


def t_functional(y: float, theta: ThetaSolution, spec: BasisSpec) -> np.ndarray:
    """Delta-method row vector mapping moment perturbations to density changes.

    Returns ``dens(y; theta) * (phi(y) - mu(theta))^T V(theta)^{-1}`` as a
    1-D array of length J: the density at ``y`` times the pseudo-outcome of
    ``y``, from one evaluation of the family at ``theta`` and of ``phi(y)``.
    """
    if not theta.converged:
        raise ValueError("t_functional requires a converged solution")
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    phi = basis_matrix(spec, y)
    dens, mu, logz = _one_row(theta.theta, spec)
    return np.exp(phi @ theta.theta - logz) * _pseudo_outcomes(dens, mu, phi[None], spec)[0, 0]
