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
from .errors import AllWeightsZero, MissingPlan
from .forest import Dataset, ForestConfig, WeightVector

__all__ = ["FittedConditionalDensity", "fit", "pdf", "std_error",
           "confidence_interval"]


@dataclass(frozen=True, eq=False)
class FittedConditionalDensity:
    """Everything needed to evaluate the estimate at one query point.

    ``per_tree_h`` holds each tree's holdout basis mean, and
    ``tree_subsamples`` (None without ``se_params``) is the read-only
    ``(n_trees, subsample_size)`` table of the trees' index sets (each row the tree's
    deciding half, then its holdout half, each sorted), so that standard errors
    reuse the trees grown for the point estimate.  Instances are
    immutable; evaluation methods are safe for concurrent reads.  The first
    :func:`pdf` keeps log Z and mu at ``theta_hat``; the first :func:`std_error`
    keeps ``V(theta_hat)^{-1}`` and the two ``(J, J)`` matrices of
    :func:`~forestdens.forest.infinitesimal_jackknife`, so densities alone never invert V.
    Those are built in blocks of trees, one incidence and one GEMM a block while the
    sample size is at most ``J * subsample_size``, and have the single pass's bits while
    ``J * n_trees * subsample_size <= expfam.BATCH_ELEMENTS`` (one block) and the block
    fits the BLAS kernel's K panel (on OpenBLAS 256 or 384 trees), and differ by roundoff otherwise.
    """

    query_x: np.ndarray
    mu_hat: expfam.MomentVector
    theta_hat: expfam.ThetaSolution
    per_tree_h: np.ndarray
    tree_subsamples: np.ndarray | None
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
    se_params : None, or any other value to keep the subsamples
        Any value but None makes the fit keep its tree subsamples for
        ``std_error``.  The value is not otherwise read: the forest is the
        same either way.
    workers : int
        Has no effect: all trees grow together in the calling thread, one
        level at a time.  Kept because ``bench/worker.py`` passes it.

    Raises
    ------
    AllWeightsZero, NonConvergence, BoundaryMoment
        Propagated with diagnostic payloads when the pipeline fails.
    """
    x = np.asarray(x, dtype=float)
    w, per_tree_h, subsamples = forest.grow_forest(x, data, cfg)
    return _from_trees(x, w, per_tree_h, None if se_params is None else subsamples, cfg)


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
    A fit without ``se_params`` raises :class:`~forestdens.errors.MissingPlan`.
    The paper's delete-group jackknife over ``L`` groups of ``d`` observations,
    ``sqrt((n - d) / (d L) sum_l [t_row . (mu_minus_l - mean_l mu_minus_l)]^2)``,
    is not implemented: each leave-group-out mean ``mu_minus_l`` is guaranteed
    only two trees, whose noise made it an order of magnitude too large.
    """
    if fitted.tree_subsamples is None:
        raise MissingPlan("fit was built without se_params; no tree subsamples stored")
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


def _interval(center, se, level: float):
    """``center`` -/+ the ``NormalDist().inv_cdf`` quantile of a checked ``level`` times ``se``.

    Elementwise on arrays; callers that hold the density and SE call it directly.
    """
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * se
    return center - half, center + half
