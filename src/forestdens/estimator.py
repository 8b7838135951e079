"""End-to-end conditional density estimation at a query point.

``fit`` chains the pipeline: similarity weights -> weighted basis moments
-> solved coefficients; the fitted object then evaluates the density,
jackknife standard errors, and normal-quantile confidence intervals without
re-growing any trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import expfam, forest
# basis_matrix stays a module attribute here: the traced benchmark wraps it
from .basis import BasisSpec, basis_matrix, default_basis  # noqa: F401
from .errors import AllWeightsZero, MissingPlan
from .forest import Dataset, ForestConfig, SESubsamplePlan, WeightVector

__all__ = ["FittedConditionalDensity", "fit", "pdf", "std_error",
           "confidence_interval", "resolve_se_params"]


@dataclass(frozen=True, eq=False)
class FittedConditionalDensity:
    """Everything needed to evaluate the estimate at one query point.

    ``per_tree_h`` holds each tree's holdout basis mean so that standard
    errors reuse the trees grown for the point estimate.  Instances are
    immutable; evaluation methods are safe for concurrent reads.  The first
    :func:`std_error` builds the jackknife deviation matrix, later ones reuse it.
    """

    query_x: np.ndarray
    mu_hat: expfam.MomentVector
    theta_hat: expfam.ThetaSolution
    per_tree_h: np.ndarray
    plan: SESubsamplePlan | None
    config: ForestConfig
    basis: BasisSpec
    weights: WeightVector

    @cached_property
    def _jackknife_deviations(self) -> np.ndarray:
        return forest.jackknife_deviations(self.plan, self.per_tree_h,
                                           self.weights.weights.size)


def resolve_se_params(se_params, cfg: ForestConfig, n: int):
    """Normalize the SE request: None, "auto", or an (n_sigma, d_sigma) pair.

    The automatic choice uses a quarter of the trees as delete-groups and
    deletes a twentieth of the sample per group.
    """
    if se_params is None:
        return None
    if se_params == "auto":
        return max(1, cfg.n_trees // 4), max(1, n // 20)
    n_sigma, d_sigma = se_params
    return int(n_sigma), int(d_sigma)


def fit(data: Dataset, x, cfg: ForestConfig, se_params=None, rng=None,
        workers: int = 1, weights_override=None) -> FittedConditionalDensity:
    """Fit the conditional density of the outcome at covariate value ``x``.

    Parameters
    ----------
    data : Dataset
        Outcomes in [0, 1] with covariate rows.
    x : array_like
        Query point; must lie inside ``cfg.initial_parent``.
    cfg : ForestConfig
    se_params : None, "auto", or (n_sigma, d_sigma)
        When given, tree subsamples follow the paired delete-group plan so
        that ``std_error`` is available afterwards.
    rng : int or numpy Generator, optional
        Overrides ``cfg.seed`` as the source of randomness.
    workers : int
        Accepted for compatibility and has no effect: all trees grow
        together in the calling thread, one level at a time.
    weights_override : array_like, optional
        Test hook: skip the forest and use these weights directly (e.g.
        uniform weights reproduce the unconditional series estimate through
        the same solver path).

    Raises
    ------
    AllWeightsZero, NonConvergence, BoundaryMoment
        Propagated with diagnostic payloads when the pipeline fails.
    """
    x = np.asarray(x, dtype=float)
    spec = default_basis(cfg.basis_order)

    if weights_override is not None:
        w = WeightVector(np.asarray(weights_override, dtype=float))
        mu = forest.mu_hat(w, data, spec)
        theta = expfam.solve_theta(mu, spec)
        return FittedConditionalDensity(x, mu, theta,
                                        np.zeros((0, cfg.basis_order)),
                                        None, cfg, spec, w)

    w, branches, phi, plan = forest.grow_forest(
        x, data, cfg, spec, resolve_se_params(se_params, cfg, data.n), rng)
    if w.total <= 0.0:
        raise AllWeightsZero("every tree produced an empty leaf at this query point")
    per_tree_h = forest.per_tree_means(branches, phi)
    mu = expfam.MomentVector(per_tree_h.mean(axis=0))
    theta = expfam.solve_theta(mu, spec)
    return FittedConditionalDensity(x, mu, theta, per_tree_h, plan, cfg, spec, w)


def pdf(fitted: FittedConditionalDensity, y):
    """Evaluate the fitted density at ``y`` (scalar or array); strictly positive."""
    return expfam.density(y, fitted.theta_hat.theta, fitted.basis)


def std_error(fitted: FittedConditionalDensity, y: float,
              t_row: np.ndarray = None) -> float:
    """Jackknife standard error of the fitted density at ``y``.

    ``t_row`` replaces the delta-method row vector when given (diagnostics
    hook); the value scales linearly in it.
    """
    if fitted.plan is None:
        raise MissingPlan("fit was built without se_params; no subsample plan stored")
    if t_row is None:
        t_row = expfam.t_functional(y, fitted.theta_hat, fitted.basis)
    plan = fitted.plan
    n = fitted.weights.weights.size
    return forest.se_from_deviations(fitted._jackknife_deviations, t_row, n,
                                     plan.d_sigma, plan.n_sigma)


def confidence_interval(fitted: FittedConditionalDensity, y: float,
                        level: float = 0.95) -> tuple[float, float]:
    """Symmetric interval for the density at ``y``; the quantile is ``NormalDist().inv_cdf``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    center = pdf(fitted, y)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * std_error(fitted, y)
    return center - half, center + half
