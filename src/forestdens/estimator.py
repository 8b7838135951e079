"""End-to-end conditional density estimation at a query point.

``fit`` chains the pipeline: similarity weights -> weighted basis moments
-> solved coefficients; the fitted object then evaluates the density,
infinitesimal-jackknife standard errors, and normal-quantile confidence
intervals without re-growing any trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import expfam, forest
# basis_matrix stays a module attribute here: the traced benchmark wraps it
from .basis import BasisSpec, basis_matrix, default_basis  # noqa: F401
from .errors import AllWeightsZero
from .forest import Dataset, ForestConfig, WeightVector

__all__ = ["FittedConditionalDensity", "fit", "pdf", "std_error",
           "confidence_interval"]


@dataclass(frozen=True, eq=False)
class FittedConditionalDensity:
    """Everything needed to evaluate the estimate at one query point.

    ``per_tree_h`` holds each tree's holdout basis mean, and
    ``tree_subsamples`` is the read-only ``(n_trees, subsample_size)`` table of
    the trees' index sets (each row the tree's deciding half, then its holdout
    half, each sorted), so that standard errors reuse the trees grown for the
    point estimate.  Instances are immutable; evaluation methods are safe for
    concurrent reads.  The first :func:`pdf` keeps log Z and mu at
    ``theta_hat``; the first :func:`std_error` keeps ``V(theta_hat)^{-1}`` and
    the two ``(J, J)`` matrices of :func:`~forestdens.forest.infinitesimal_jackknife`
    (whose docstring says when they keep the single pass's bits), so densities
    alone never invert V.
    """

    query_x: np.ndarray
    mu_hat: expfam.MomentVector
    theta_hat: expfam.ThetaSolution
    per_tree_h: np.ndarray
    tree_subsamples: np.ndarray
    config: ForestConfig
    weights: WeightVector

    @cached_property
    def basis(self) -> BasisSpec:
        """The fit's one basis, ``default_basis(config.basis_order)``."""
        return default_basis(self.config.basis_order)

    @cached_property
    def _family(self) -> tuple[np.ndarray, np.ndarray, float]:
        return expfam._one_row(self.theta_hat.theta, self.basis)

    @cached_property
    def _vinv(self) -> np.ndarray:
        return expfam._inverse_covariances(*self._family[:2], self.basis)

    @cached_property
    def _ij_parts(self) -> tuple[np.ndarray, np.ndarray]:
        return forest.infinitesimal_jackknife(self.tree_subsamples, self.per_tree_h,
                                              self.weights.weights.size)


def fit(data: Dataset, x, cfg: ForestConfig, se_params=None,
        workers: int = 1) -> FittedConditionalDensity:
    """Fit the conditional density of the outcome at covariate value ``x``.

    Parameters
    ----------
    data : Dataset
        Outcomes in [0, 1] with covariate rows.
    x : array_like
        Query point; must lie inside ``cfg.initial_parent``.
    cfg : ForestConfig
        ``cfg.seed`` is the fit's only source of randomness; ``cfg.basis_order`` sets its basis.
    se_params, workers
        Have no effect: every fit keeps its tree subsamples for ``std_error``,
        and all trees grow together in the calling thread, one level at a
        time.  Kept because ``bench/worker.py`` passes both.

    Raises
    ------
    AllWeightsZero, NonConvergence, BoundaryMoment
        Propagated with diagnostic payloads when the pipeline fails.
    """
    x = np.asarray(x, dtype=float)
    return _from_trees(x, *forest.grow_forest(x, data, cfg), cfg)


def _from_trees(x, w: WeightVector, per_tree_h: np.ndarray, tree_subsamples,
                cfg: ForestConfig) -> FittedConditionalDensity:
    """The fit from its trees: the per-tree rows' mean is the moment vector, then one solve.

    ``fit`` ends here, in the basis ``default_basis(cfg.basis_order)``.  One row is
    one leaf holding the weights' basis mean: uniform weights give the
    unconditional series estimate through the fit's own solve.
    """
    if w.total <= 0.0:
        raise AllWeightsZero("every tree produced an empty leaf at this query point")
    mu = expfam.MomentVector(per_tree_h.mean(axis=0))
    theta = expfam.solve_theta(mu, default_basis(cfg.basis_order))
    return FittedConditionalDensity(x, mu, theta, per_tree_h, tree_subsamples, cfg, w)


def pdf(fitted: FittedConditionalDensity, y):
    """Evaluate the fitted density at ``y`` (scalar or array); strictly positive."""
    return expfam._density(y, fitted.theta_hat.theta, fitted._family[2], fitted.basis)


def std_error(fitted: FittedConditionalDensity, y: float) -> float:
    """Bias-corrected infinitesimal-jackknife standard error of the density at ``y``.

    Every tree of the fit enters: the raw and Monte Carlo correction
    matrices of :func:`~forestdens.forest.infinitesimal_jackknife` are
    mapped to the density by the delta-method row
    :func:`~forestdens.expfam.t_functional`, and their difference is made
    positive by :func:`~forestdens.forest.debiased_variance` with the tree
    count as its noise count.  The result is finite and non-negative, and
    0 only when every tree's holdout mean maps to the same value at ``y``.
    """
    t_row = expfam._t_row(y, fitted.theta_hat.theta, fitted._family, fitted._vinv, fitted.basis)
    raw, corr = fitted._ij_parts
    # both forms are positive semidefinite; the clip only absorbs roundoff
    return math.sqrt(forest.debiased_variance(max(float(t_row @ raw @ t_row), 0.0),
                                              max(float(t_row @ corr @ t_row), 0.0),
                                              fitted.per_tree_h.shape[0]))


def confidence_interval(fitted: FittedConditionalDensity, y: float,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-quantile interval ``pdf -/+ z * std_error`` at ``y``; ``level`` is checked first."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return _interval(pdf(fitted, y), std_error(fitted, y), level)


def _interval(center: float, se: float, level: float) -> tuple[float, float]:
    """``center`` -/+ the ``NormalDist().inv_cdf`` quantile of a checked ``level`` times ``se``.

    ``cli.cmd_fit``, which writes the density and SE columns too, calls it with
    the values it already holds, so each grid point evaluates them once.
    """
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * se
    return center - half, center + half
