"""Exponential-family densities on [0, 1] and the moment-matching solver.

The family is

    dens(y; theta) = exp(theta . phi(y)) / Z(theta),
    Z(theta) = integral_0^1 exp(theta . phi(t)) dt,

with ``phi`` the orthonormal shifted Legendre basis of :mod:`.basis`.  The
coefficient vector matching a moment target ``mu`` solves

    integral phi(y) dens(y; theta) dy = mu,

a smooth convex-dual root-finding problem handled by Newton's method with
the exact Jacobian (the basis covariance under the current density).

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
    within the solver tolerance.  Instances are immutable and hold only the
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

    Returns ``(dens, mu, top, z)`` with log Z = ``top + log(z)``, left unformed
    so that the Newton iteration does not pay for it.  Every product is a
    stacked matmul whose core is one row, so a row's result does not depend
    on the other rows in the batch.
    """
    phi, w = spec.phi_nodes, spec.weights
    g = (phi @ theta[:, :, None])[:, :, 0]
    top = g.max(axis=1, keepdims=True)
    e = np.exp(g - top)
    z = (e[:, None, :] @ w[:, None])[:, 0]
    dens = e / z
    mu = (phi.T @ (w * dens)[:, :, None])[:, :, 0]
    return dens, mu, top[:, 0], z[:, 0]


def _outer_products(spec: BasisSpec) -> np.ndarray:
    """Outer products phi(t) phi(t)^T at the quadrature nodes, flattened: (Q, J*J)."""
    phi = spec.phi_nodes
    return (phi[:, :, None] * phi[:, None, :]).reshape(phi.shape[0], -1)


def _row_covariances(dens: np.ndarray, mu: np.ndarray, spec: BasisSpec,
                     outer: np.ndarray) -> np.ndarray:
    """Basis covariance for each row, from :func:`_row_states` output."""
    j = mu.shape[1]
    second = ((spec.weights * dens)[:, None, :] @ outer).reshape(-1, j, j)
    v = second - mu[:, :, None] * mu[:, None, :]
    return 0.5 * (v + v.transpose(0, 2, 1))


def _one_row(theta, spec: BasisSpec):
    """``(dens, mu, log Z)`` of one coefficient vector; ``dens`` and ``mu`` keep a row axis."""
    dens, mu, top, z = _row_states(np.asarray(theta, dtype=float)[None, :], spec)
    if not np.all(np.isfinite(dens)):
        raise OverflowError("exponent is not finite at a quadrature node")
    return dens, mu, top[0] + np.log(z[0])


def _pseudo_outcomes(dens, mu, phi: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """:func:`row_pseudo_outcomes` from the rows' :func:`_row_states` output.

    One matrix-vector product per member keeps every row batch-independent.
    """
    cov = _row_covariances(dens, mu, spec, _outer_products(spec))
    inv_t = np.linalg.inv(cov).transpose(0, 2, 1)[:, None, :, :]
    dev = phi - mu[:, None, :]
    return (dev[:, :, None, :] @ inv_t)[:, :, 0, :]


def row_pseudo_outcomes(theta, phi, spec: BasisSpec) -> np.ndarray:
    """Influence residuals ``V(theta_k)^{-1} (phi[k, i] - mu(theta_k))`` for each row ``k``.

    ``theta`` has shape ``(m, J)`` and ``phi`` shape ``(m, k, J)``, as does the
    result; each row is computed exactly as when it is passed alone.
    """
    dens, mu, _, _ = _row_states(np.atleast_2d(np.asarray(theta, dtype=float)), spec)
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
    return _row_covariances(dens, mu, spec, _outer_products(spec))[0]


def _as_moment_array(mu_target) -> np.ndarray:
    if isinstance(mu_target, MomentVector):
        return mu_target.mu
    return np.atleast_1d(np.asarray(mu_target, dtype=float))


#: Row status codes returned by :func:`solve_theta_batch`.
SOLVED, BOUNDARY, NO_CONVERGENCE = 0, 1, 2

#: Elements allowed in one batched temporary: larger Newton batches, and
#: the levels of forest growth, are processed in consecutive slices of rows.
BATCH_ELEMENTS = 1 << 18


@dataclass(frozen=True, eq=False)
class NewtonBatch:
    """Per-row outcome of :func:`solve_theta_batch`.

    ``status`` holds :data:`SOLVED`, :data:`BOUNDARY` or
    :data:`NO_CONVERGENCE` for each row.  ``theta``, ``residual`` and
    ``iterations`` are the root, its residual sup-norm and the Newton
    iterations for solved rows, and the last accepted iterate for rows that
    did not converge.
    """

    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    status: np.ndarray


def solve_theta_batch(mu_targets, spec: BasisSpec, tol: float = 1e-10,
                      max_iter: int = 100) -> NewtonBatch:
    """Solve the moment-matching system for every row of ``mu_targets``.

    Each row runs the Newton iteration described in :func:`solve_theta`,
    with its own step-halving line search, tolerance check and box bound;
    rows leave the batch as soon as they converge or fail.  A row's result
    is bit-identical to solving it alone.  Failures do not raise: they are
    reported per row in :attr:`NewtonBatch.status`.
    """
    targets = np.atleast_2d(np.asarray(mu_targets, dtype=float))
    if not np.all(np.isfinite(targets)):
        raise ValueError("moment target must be finite")
    m, j = targets.shape
    if spec.order != j:
        raise ValueError(f"target has {j} components but basis order is {spec.order}")
    out = NewtonBatch(np.zeros((m, j)), np.zeros(m), np.zeros(m, dtype=np.intp),
                      np.full(m, SOLVED, dtype=np.int8))
    out.status[(np.abs(targets) >= basis_range(j)).any(axis=1)] = BOUNDARY
    # an exact zero target has the exact root zero: no iteration
    rows = np.flatnonzero((out.status == SOLVED) & targets.any(axis=1))
    outer = _outer_products(spec)
    chunk = max(1, BATCH_ELEMENTS // (8 * spec.nodes.size + j * j))
    for lo in range(0, rows.size, chunk):
        _newton_rows(targets, rows[lo:lo + chunk], spec, outer, tol, max_iter, out)
    return out


def _newton_rows(targets, rows, spec, outer, tol, max_iter, out: NewtonBatch) -> None:
    """Run the Newton iteration on ``targets[rows]``, writing into ``out``."""
    target = targets[rows]
    theta = np.zeros_like(target)
    dens, mu, _, _ = _row_states(theta, spec)
    resid = target - mu
    rnorm = np.abs(resid).max(axis=1)

    def finish(sel, status, iterations):
        out.theta[rows[sel]] = theta[sel]
        out.residual[rows[sel]] = rnorm[sel]
        out.iterations[rows[sel]] = iterations
        out.status[rows[sel]] = status
        return ~sel

    for it in range(1, max_iter + 1):
        keep = finish(rnorm <= tol, SOLVED, it - 1)
        rows, target, theta, dens, mu, resid, rnorm = (
            a[keep] for a in (rows, target, theta, dens, mu, resid, rnorm))
        if rows.size == 0:
            return
        cov = _row_covariances(dens, mu, spec, outer)
        step = np.linalg.solve(cov, resid[:, :, None])[:, :, 0]
        lam = np.ones(rows.size)
        pending = np.arange(rows.size)
        new = [theta.copy(), dens.copy(), mu.copy(), resid.copy(), rnorm.copy()]
        for _ in range(31):
            cand = theta[pending] + lam[pending, None] * step[pending]
            cand_dens, cand_mu, _, _ = _row_states(cand, spec)
            cand_resid = target[pending] - cand_mu
            cand_rnorm = np.abs(cand_resid).max(axis=1)
            better = cand_rnorm < rnorm[pending]
            done = pending[better]
            for a, b in zip(new, (cand, cand_dens, cand_mu, cand_resid, cand_rnorm)):
                a[done] = b[better]
            pending = pending[~better]
            if pending.size == 0:
                break
            lam[pending] *= 0.5
        stalled = np.zeros(rows.size, dtype=bool)
        stalled[pending] = True
        keep = finish(stalled, NO_CONVERGENCE, it)
        theta, dens, mu, resid, rnorm = new
        escaped = keep & (np.abs(theta).max(axis=1) > THETA_BOX_BOUND)
        keep = finish(escaped, BOUNDARY, it) & keep
        rows, target, theta, dens, mu, resid, rnorm = (
            a[keep] for a in (rows, target, theta, dens, mu, resid, rnorm))
    converged = rnorm <= tol
    finish(converged, SOLVED, max_iter)
    finish(~converged, NO_CONVERGENCE, max_iter)


def solve_theta(mu_target, spec: BasisSpec, tol: float = 1e-10,
                max_iter: int = 100) -> ThetaSolution:
    """Solve the moment-matching system by Newton's method.

    Starts from zero coefficients and iterates
    ``theta <- theta + V(theta)^{-1} (mu_target - mu(theta))`` with a
    step-halving line search: the step is halved (up to 30 times) until the
    residual sup-norm strictly decreases, so the residual is non-increasing
    across accepted iterations.  This is the one-row case of
    :func:`solve_theta_batch`.

    Parameters
    ----------
    mu_target : MomentVector or array_like
        Target moments, one per basis function.
    spec : BasisSpec
    tol : float
        Convergence threshold on the residual sup-norm.
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
        If the residual is still above ``tol`` after ``max_iter``
        iterations, or the line search cannot reduce it.
    """
    mu_target = _as_moment_array(mu_target)
    res = solve_theta_batch(mu_target[None, :], spec, tol, max_iter)
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
        message = f"line search stalled at residual {rnorm:.3e}"
    else:
        message = f"residual {rnorm:.3e} above tol {tol:.1e} after {max_iter} iterations"
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
