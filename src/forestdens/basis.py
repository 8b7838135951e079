"""Orthonormal shifted Legendre polynomials on [0, 1] and fixed-node quadrature.

The basis functions are

    phi_l(y) = sqrt(2l + 1) * P_l(2y - 1),    l = 0, 1, 2, ...

where ``P_l`` is the classical Legendre polynomial on [-1, 1].  They are
orthonormal in L2([0, 1]); ``phi_0`` is the constant 1 and is excluded from
basis vectors (it is absorbed by the normalizing constant of the density
family built on top of this module).

Evaluation uses the three-term recurrence, which is stable at moderate
degree; the alternating binomial-sum form of the same polynomials loses
precision and is kept only as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "BasisSpec",
    "default_basis",
    "legendre_eval",
    "basis_matrix",
    "basis_range",
    "make_quadrature",
    "integrate",
]


def _check_unit_interval(y: np.ndarray) -> None:
    if not np.all((y >= 0.0) & (y <= 1.0)):  # NaN fails both
        raise ValueError("evaluation points must lie in [0, 1]")


def _legendre_table(t: np.ndarray, ell_max: int) -> np.ndarray:
    """Classical Legendre values P_0..P_ell_max at t in [-1, 1], shape (m, ell_max+1)."""
    t = np.atleast_1d(t)
    out = np.empty((t.size, ell_max + 1))
    out[:, 0] = 1.0
    if ell_max >= 1:
        out[:, 1] = t
    for k in range(2, ell_max + 1):
        out[:, k] = ((2 * k - 1) * t * out[:, k - 1] - (k - 1) * out[:, k - 2]) / k
    return out


def legendre_eval(ell: int, y):
    """Evaluate the orthonormal shifted Legendre polynomial of degree ``ell``.

    Parameters
    ----------
    ell : int
        Degree, ``ell >= 0``.  Degree 0 is the constant 1.
    y : float or array_like
        Points in [0, 1].

    Returns
    -------
    float or ndarray
        ``sqrt(2*ell + 1) * P_ell(2*y - 1)``, computed by the three-term
        recurrence.
    """
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    arr = np.asarray(y, dtype=float)
    _check_unit_interval(arr)
    vals = np.sqrt(2 * ell + 1) * _legendre_table(2.0 * arr - 1.0, ell)[:, ell]
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def basis_range(order: int) -> np.ndarray:
    """Sup-norms sqrt(2j + 1) of phi_1..phi_order: the basis scale and each moment's range."""
    return np.sqrt(2.0 * np.arange(1, order + 1) + 1.0)


def basis_matrix(spec: "BasisSpec", y) -> np.ndarray:
    """Stack the non-constant basis values phi_1..phi_J at each point.

    Returns an array of shape ``(len(y), J)``; row ``i`` is the basis vector
    at ``y[i]``.
    """
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    _check_unit_interval(arr)
    table = _legendre_table(2.0 * arr - 1.0, spec.order)
    return table[:, 1:] * basis_range(spec.order)


def make_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped affinely from [-1, 1] to [0, 1].

    The rule integrates polynomials up to degree ``2*n_nodes - 1`` exactly;
    weights are positive and sum to one.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (t + 1.0), 0.5 * w


def integrate(f: Callable[[np.ndarray], np.ndarray], quad) -> float:
    """Apply a fixed-node rule: sum of w_i * f(t_i).

    ``quad`` is either a ``(nodes, weights)`` pair or a :class:`BasisSpec`.
    Non-finite integrand values raise instead of propagating silently.
    """
    if isinstance(quad, BasisSpec):
        nodes, weights = quad.nodes, quad.weights
    else:
        nodes, weights = quad
    vals = np.asarray(f(np.asarray(nodes)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("integrand is not finite at a quadrature node")
    return float(weights @ vals)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """Basis order plus the quadrature rule used for every integral.

    Parameters
    ----------
    order : int
        Number of non-constant basis functions J (indexing starts at 1).

    Notes
    -----
    The rule (``nodes``, ``weights``) is Gauss-Legendre on (0, 1) with
    ``max(64, 4*order + 16)`` nodes, enough for the smooth exponential
    integrands this package produces at the tolerances it verifies.
    Construction checks that it reproduces the basis orthonormality
    relations to 1e-10.  The matrix of basis values at the nodes is
    precomputed and shared by all downstream integrals; instances are
    immutable and safe to use concurrently.
    """

    order: int
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    phi_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("basis order must be at least 1")
        nodes, weights = make_quadrature(max(64, 4 * self.order + 16))
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        phi = basis_matrix(self, nodes)
        phi.setflags(write=False)
        object.__setattr__(self, "phi_nodes", phi)
        gram = (phi * weights[:, None]).T @ phi
        if np.max(np.abs(gram - np.eye(self.order))) > 1e-10:
            raise ValueError("quadrature does not resolve basis orthonormality")


@lru_cache(maxsize=32)
def default_basis(order: int) -> BasisSpec:
    """Shared :class:`BasisSpec` for a given order."""
    return BasisSpec(order=order)
