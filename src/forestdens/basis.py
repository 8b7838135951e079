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

import numpy as np

__all__ = [
    "BasisSpec",
    "default_basis",
    "legendre_eval",
    "basis_matrix",
    "basis_range",
    "make_quadrature",
]


def _check_unit_interval(y: np.ndarray) -> None:
    if not np.all((y >= 0.0) & (y <= 1.0)):  # NaN fails both
        raise ValueError("evaluation points must lie in [0, 1]")


def _legendre_table(t: np.ndarray, ell_max: int) -> np.ndarray:
    """Classical Legendre values P_0..P_ell_max at t in [-1, 1], shape (m, ell_max+1).

    The recurrence runs on columns, Python floats for a lone point: they round
    as float64 arrays do, so the bits are the same without numpy's per-call cost.
    """
    t = np.ravel(t)
    cols = [1.0, float(t[0])] if t.size == 1 else [np.ones_like(t), t]
    for k in range(2, ell_max + 1):
        cols.append(((2 * k - 1) * cols[1] * cols[k - 1] - (k - 1) * cols[k - 2]) / k)
    return np.atleast_2d(np.stack(cols[:ell_max + 1], axis=-1))


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
    return table[:, 1:] * spec.scale


def make_quadrature(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped affinely from [-1, 1] to [0, 1].

    The rule integrates polynomials up to degree ``2*n_nodes - 1`` exactly;
    weights are positive and sum to one.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (t + 1.0), 0.5 * w


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
    relations to 1e-10.  The scale :func:`basis_range`, the basis values at
    the nodes and their outer products ``phi(t) phi(t)^T`` flattened to
    ``(Q, J*J)`` are built once, read-only, and shared by all evaluations;
    instances are immutable and safe to use concurrently.
    """

    order: int
    nodes: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    scale: np.ndarray = field(init=False, repr=False, compare=False)
    phi_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    outer_nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("basis order must be at least 1")
        object.__setattr__(self, "scale", basis_range(self.order))  # basis_matrix reads it
        nodes, weights = make_quadrature(max(64, 4 * self.order + 16))
        phi = basis_matrix(self, nodes)
        outer = (phi[:, :, None] * phi[:, None, :]).reshape(phi.shape[0], -1)
        for name, a in (("scale", self.scale), ("nodes", nodes), ("weights", weights),
                        ("phi_nodes", phi), ("outer_nodes", outer)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        gram = (phi * weights[:, None]).T @ phi
        if np.max(np.abs(gram - np.eye(self.order))) > 1e-10:
            raise ValueError("quadrature does not resolve basis orthonormality")


@lru_cache(maxsize=32)
def default_basis(order: int) -> BasisSpec:
    """Shared :class:`BasisSpec` for a given order."""
    return BasisSpec(order=order)
