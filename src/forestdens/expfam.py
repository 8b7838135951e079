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
residual (:func:`solve_theta`), for a batch of rows at once, chunk by chunk
(:func:`_solve_from`).  Forest growth solves each root node to
:data:`GROWTH_TOL`, gives each child node :data:`GROWTH_STEPS` Newton step
from its parent's iterate (the one-step estimator), and keeps the density
and moments at each row's last iterate for its pseudo-outcomes.

One batched row kernel evaluates the family: the density at the quadrature
nodes, mu(theta), log Z(theta) and the covariance V(theta), for each row of
a stack of coefficient vectors.  The Newton solver, the forest's
pseudo-outcomes and the one-row functions all call it.  A :class:`ThetaSolution`
carries no state; the fitted density of :mod:`.estimator` keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, basis_matrix, basis_range
from .errors import BoundaryMoment, NonConvergence

__all__ = ["MomentVector", "ThetaSolution", "THETA_BOX_BOUND", "NEWTON_TOL", "GROWTH_TOL",
           "log_partition", "density", "moments", "covariance", "solve_theta",
           "row_pseudo_outcomes", "t_functional"]

#: Iterates with sup-norm beyond this bound signal a target at or outside
#: the moment-space boundary.
THETA_BOX_BOUND = 50.0

#: Newton's convergence threshold on the moment residual sup-norm.
NEWTON_TOL = 1e-10

#: The Newton steps of a solve from zero coefficients: :func:`solve_theta`'s
#: and each growth root's; a row still above its tolerance after them is CAPPED.
NEWTON_MAX_ITER = 100

#: The threshold of forest growth's node solves, whose roots only feed split
#: scores; a fit's final solve keeps :data:`NEWTON_TOL`.
GROWTH_TOL = 1e-6

#: The Newton steps of a growth node warm-started from its parent's
#: iterate; it ends SOLVED within :data:`GROWTH_TOL` or CAPPED after them.
GROWTH_STEPS = 1

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
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise ValueError(f"moment vector of shape {mu.shape} is not 1-D and finite")
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
        if theta.ndim != 1 or not np.all(np.isfinite(theta)):
            raise ValueError(f"coefficients of shape {theta.shape} are not 1-D and finite")
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


def _pseudo_outcomes(mu: np.ndarray, vinv: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """:func:`row_pseudo_outcomes` from the rows' moments and :func:`_inverse_covariances`:
    one stacked matmul, whose core is a row's ``(k, J) @ (J, J)`` product, maps all members."""
    return (phi - mu[:, None, :]) @ vinv.transpose(0, 2, 1)


def row_pseudo_outcomes(theta, phi, spec: BasisSpec) -> np.ndarray:
    """Influence residuals ``V(theta_k)^{-1} (phi[k, i] - mu(theta_k))`` for each row ``k``.

    ``theta`` has shape ``(m, J)`` and ``phi`` shape ``(m, k, J)``, as does the
    result.  Each row is one ``(k, J) @ (J, J)`` product, so with ``k >= 2``
    members a row is computed exactly as when it is passed alone (a one-member
    product takes the matrix-vector path instead).
    """
    dens, mu, _ = _row_states(np.atleast_2d(np.asarray(theta, dtype=float)), spec)
    return _pseudo_outcomes(mu, _inverse_covariances(dens, mu, spec), phi)


def log_partition(theta, spec: BasisSpec) -> float:
    """log of the normalizing integral, computed with max-subtraction."""
    return _one_row(theta, spec)[2]


def density(y, theta, spec: BasisSpec):
    """Evaluate dens(y; theta); strictly positive on [0, 1].  One log Z, then
    :func:`_density`, which the fitted density applies to its kept log Z."""
    return _density(y, np.asarray(theta, dtype=float), log_partition(theta, spec), spec)


def _density(y, theta: np.ndarray, logz: float, spec: BasisSpec):
    """dens(y; theta) from ``log Z(theta)``: a float for scalar ``y``, else ``y``'s shape."""
    arr = y if isinstance(y, float) else np.asarray(y, dtype=float)  # floats: one-row path
    vals = np.exp(basis_matrix(spec, arr) @ theta - logz)
    return float(vals[0]) if isinstance(arr, float) or arr.ndim == 0 else vals.reshape(arr.shape)


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


#: Row status codes of :func:`_solve_from`, one per way a row ends.
SOLVED, RANGE, ESCAPED, SINGULAR, STALLED, CAPPED = range(6)

#: :func:`solve_theta`'s exception class and message format for each failure code.
_FAILURES = {
    RANGE: (BoundaryMoment, "moment target at or outside the attainable range of the basis"),
    ESCAPED: (BoundaryMoment, "coefficient iterate escaped the box bound; moment target is "
                              "at or outside the moment-space boundary"),
    SINGULAR: (NonConvergence, "Newton iteration stopped at residual {rnorm:.3e}: the "
                               "covariance at the iterate is singular"),
    STALLED: (NonConvergence, "Newton iteration stalled at residual {rnorm:.3e}"),
    CAPPED: (NonConvergence, "residual {rnorm:.3e} above tol {tol:.1e} after {iterations} "
                             "iterations"),
}

#: Elements allowed in any one batched temporary.  Row chunks keep to it: Newton
#: batches (:func:`_row_chunks`), V^-1 and the Newton state of a growth level, the
#: split search's node slices, the tree half split, the per-tree means, and the
#: infinitesimal jackknife's blocks of trees.
BATCH_ELEMENTS = 1 << 18


@dataclass(frozen=True, eq=False)
class NewtonBatch:
    """Per-row outcome of :func:`_solve_from`; ``status`` holds each row's code,
    written in the round that decides it:

    * :data:`SOLVED`: the residual sup-norm is within the tolerance; after 0
      iterations for an exact zero target (whose root is zero) or a start at the root;
    * :data:`RANGE`: a target component is at or beyond the basis range (0 iterations);
    * :data:`ESCAPED`: an accepted step left the box :data:`THETA_BOX_BOUND`;
    * :data:`SINGULAR`: the covariance at the iterate is singular (the family
      has collapsed onto one quadrature node), and the round takes no step;
    * :data:`STALLED`: the line search accepted no length;
    * :data:`CAPPED`: the residual is above the tolerance after the row's cap of steps.

    ``theta``, ``residual`` and ``iterations`` are the root, its residual
    sup-norm and the Newton iterations for solved rows, and the last accepted
    iterate for the others.  ``dens`` (at the quadrature nodes) and ``mu`` are
    the family's state at a solved row's root and at a capped row's last
    iterate, the bits :func:`_row_states` gives.
    """

    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    status: np.ndarray
    dens: np.ndarray
    mu: np.ndarray


def _solve_from(targets: np.ndarray, start: np.ndarray, spec: BasisSpec,
                max_iter, tol: float = NEWTON_TOL) -> NewtonBatch:
    """Solve the moment-matching system for every row of ``targets``, row ``k`` from ``start[k]``.

    Each row runs the Newton iteration described in :func:`solve_theta`, with
    its own line search, tolerance ``tol`` and box bound; its result is
    bit-identical to solving it alone from its start, whatever the other rows
    are.  ``max_iter`` caps the steps of every row (an int) or of each row
    (an array of ``len(targets)`` ints).  Each row ends with one code of
    :class:`NewtonBatch`; failures do not raise.  Rows run in
    :func:`_row_chunks`; solved rows keep the state their last evaluation computed.
    """
    if not np.all(np.isfinite(targets)):
        raise ValueError("moment target must be finite")
    m, j = targets.shape
    if spec.order != j:
        raise ValueError(f"target has {j} components but basis order is {spec.order}")
    out = NewtonBatch(np.zeros((m, j)), np.zeros(m), np.zeros(m, dtype=np.intp),
                      np.full(m, SOLVED, dtype=np.int8), np.zeros((m, spec.nodes.size)),
                      np.zeros((m, j)))
    out.status[(np.abs(targets) >= spec.scale).any(axis=1)] = RANGE
    zero = (out.status == SOLVED) & ~targets.any(axis=1)
    if zero.any():
        out.dens[zero], out.mu[zero] = _row_states(np.zeros((1, j)), spec)[:2]
    rows = np.flatnonzero((out.status == SOLVED) & ~zero)
    cap = np.broadcast_to(max_iter, (m,))
    for lo, hi in _row_chunks(rows.size, max(spec.nodes.size, j * j)):
        _newton_rows(targets, start, rows[lo:hi], spec, cap, tol, out)
    return out


def _row_chunks(m: int, width: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges covering ``m`` rows of ``width`` elements, a quarter of
    :data:`BATCH_ELEMENTS` per chunk, since several such arrays are alive at once."""
    step = max(1, BATCH_ELEMENTS // (4 * max(width, 1)))
    return [(lo, min(m, lo + step)) for lo in range(0, m, step)]


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


def _newton_rows(targets, start, rows, spec, cap, tol, out: NewtonBatch) -> None:
    """Run the Newton iteration on ``targets[rows]`` from ``start[rows]``, writing into ``out``.

    The state arrays are copies, updated in place as each row accepts a length.
    At the top of each round the rows that ended in the last round, or are now
    within ``tol``, are written out and dropped; a row still running after
    ``cap[row]`` rounds ends as CAPPED.
    """
    target = targets[rows]
    theta = start[rows]
    cap = cap[rows]
    dens, mu, resid, rnorm, dual = _dual_states(theta, target, spec)
    status = np.full(rows.size, -1, dtype=np.int8)  # -1: still running
    for it in range(1, cap.max() + 2):
        status[(status < 0) & (rnorm <= tol)] = SOLVED
        status[(status < 0) & (it > cap)] = CAPPED
        ended = status >= 0
        done = rows[ended]
        out.theta[done], out.dens[done], out.mu[done] = theta[ended], dens[ended], mu[ended]
        out.residual[done] = rnorm[ended]
        out.iterations[done] = it - 1
        out.status[done] = status[ended]
        rows, target, theta, dens, mu, resid, rnorm, dual, status, cap = (
            a[~ended] for a in (rows, target, theta, dens, mu, resid, rnorm, dual, status, cap))
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
        status[singular] = SINGULAR
        status[pending] = STALLED
        status[(status < 0) & (np.abs(theta).max(axis=1) > THETA_BOX_BOUND)] = ESCAPED


def solve_theta(mu_target, spec: BasisSpec) -> ThetaSolution:
    """Solve the moment-matching system by Newton's method.

    Starts from zero coefficients and iterates
    ``theta <- theta + lam V(theta)^{-1} (mu_target - mu(theta))``: Newton's
    method on the convex dual L(theta) = log Z(theta) - theta . mu_target,
    whose gradient is minus the residual.  ``lam`` is halved from 1 (up to 30
    times) until L falls by the Armijo amount, 1e-4 lam |grad L . step|, or
    the residual sup-norm strictly falls, so every accepted step lowers one
    of the two (not always both), for at most :data:`NEWTON_MAX_ITER` steps.
    This is the one-row case of :func:`_solve_from`.

    Parameters
    ----------
    mu_target : MomentVector or array_like
        Target moments, one per basis function.
    spec : BasisSpec

    Returns
    -------
    ThetaSolution
        With ``converged=True``.

    Raises
    ------
    BoundaryMoment
        For a :data:`RANGE` or :data:`ESCAPED` row: the target sits at or
        outside the boundary of the attainable moment space.
    NonConvergence
        For a :data:`SINGULAR`, :data:`STALLED` or :data:`CAPPED` row, with
        the last iterate as ``solution``.
    """
    mu_target = np.atleast_1d(np.asarray(
        mu_target.mu if isinstance(mu_target, MomentVector) else mu_target, dtype=float))
    if mu_target.ndim != 1:
        raise ValueError(f"target moments must be 1-D, not shape {mu_target.shape}")
    res = _solve_from(mu_target[None, :], np.zeros((1, mu_target.size)), spec, NEWTON_MAX_ITER)
    theta, rnorm, iters = res.theta[0], float(res.residual[0]), int(res.iterations[0])
    if res.status[0] == SOLVED:
        return ThetaSolution(theta, rnorm, iters, True)
    error, message = _FAILURES[res.status[0]]
    message = message.format(rnorm=rnorm, iterations=iters, tol=NEWTON_TOL)
    if error is BoundaryMoment:  # an escaped iterate is outside the box ThetaSolution allows
        raise error(message, target=mu_target)
    raise error(message, solution=ThetaSolution(theta, rnorm, iters, False))


def t_functional(y: float, theta: ThetaSolution, spec: BasisSpec) -> np.ndarray:
    """Delta-method row vector mapping moment perturbations to density changes.

    Returns ``dens(y; theta) * (phi(y) - mu(theta))^T V(theta)^{-1}`` as a
    1-D array of length J: the density at the scalar ``y`` in [0, 1] times
    its pseudo-outcome, from the family state at ``theta`` (:func:`_t_row`).
    """
    if not theta.converged:
        raise ValueError("t_functional requires a converged solution")
    family = _one_row(theta.theta, spec)
    return _t_row(y, theta.theta, family, _inverse_covariances(*family[:2], spec), spec)


def _t_row(y, theta: np.ndarray, family, vinv: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """:func:`t_functional` from ``(dens, mu, log Z)`` (:func:`_one_row`) and V^-1 at ``theta``."""
    if np.ndim(y) != 0:
        raise ValueError(f"y must be a scalar, not an array of shape {np.shape(y)}")
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    phi = basis_matrix(spec, y)
    return np.exp(phi @ theta - family[2]) * _pseudo_outcomes(family[1], vinv, phi[None])[0, 0]
