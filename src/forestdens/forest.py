"""Honest forest branch growth, similarity weights, and the variance subsample plan.

A tree here is grown only along the branch containing the query point: each
subsample is split into a holdout half and a split-deciding half, splits are
chosen on the deciding half by maximizing a heterogeneity score over an
axis-aligned threshold grid, and the prediction at the leaf uses only the
holdout half (honesty).  Per-observation similarity weights average the
normalized leaf co-membership indicator over trees, with the convention
0/0 = 0 for trees whose leaf captures no holdout point.

:func:`grow_forest` is the one growth pipeline.  The seed gives a master
stream, which draws the subsamples (or the jackknife's delete-group plan),
and one stream per tree, which draws the tree's half split and then, node by
node, its eligible dimensions.  All branches grow together, one level at a
time, and a level is processed as arrays: the nodes' target moments, one
batched Newton solve (:func:`~forestdens.expfam.solve_theta_batch`), the
pseudo-outcomes (:func:`~forestdens.expfam.row_pseudo_outcomes`), and the
threshold scores from padded, per-node sorted cumulative sums.  No node's
computation depends on the batch it is in, so growing one tree alone
(:func:`grow_branch`) gives the same branch as growing it in a forest.
Batched temporaries are capped by :data:`forestdens.expfam.BATCH_ELEMENTS`.

Two splitting schemes are supported:

* ``"theta"``: pseudo-outcomes are the influence residuals of the
  exponential-family coefficients solved at the current node; a node whose
  solve fails (``BoundaryMoment`` or ``NonConvergence``) uses the centered
  basis values instead,
* ``"mu"``: pseudo-outcomes are centered basis values, a cheap alternative
  that skips the per-node solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expfam
from .basis import BasisSpec, basis_matrix, default_basis
from .errors import AllWeightsZero, NoCleanTrees

__all__ = [
    "Box",
    "Dataset",
    "ForestConfig",
    "SplitRecord",
    "BranchResult",
    "WeightVector",
    "SESubsamplePlan",
    "poisson_dim_law",
    "draw_subsamples",
    "split_half",
    "delta_tilde",
    "best_split",
    "grow_branch",
    "grow_from_halves",
    "grow_forest",
    "weights",
    "mu_hat",
    "se_subsample_plan",
    "jackknife_deviations",
    "se_from_deviations",
    "sigma_fe",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box; lower faces opened by splits are tracked per dimension."""

    lower: np.ndarray
    upper: np.ndarray
    lower_open: np.ndarray = None

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box has empty extent")
        open_ = (np.zeros(lo.size, dtype=bool) if self.lower_open is None
                 else np.asarray(self.lower_open, dtype=bool))
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(hi))
        object.__setattr__(self, "lower_open", _readonly(open_))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for rows of ``points`` (shape ``(m, d)`` or ``(d,)``)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        above = np.where(self.lower_open, pts > self.lower, pts >= self.lower)
        inside = above.all(axis=1) & (pts <= self.upper).all(axis=1)
        return inside if np.asarray(points).ndim > 1 else bool(inside[0])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed outcomes in [0, 1] with their covariate rows."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if y.ndim != 1 or x.shape[0] != y.size:
            raise ValueError("outcomes and covariates must have matching length")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise ValueError("dataset contains non-finite values")
        if np.any(y < 0.0) or np.any(y > 1.0):
            raise ValueError("outcomes must lie in [0, 1]")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "x", _readonly(x))

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def poisson_dim_law(rng: np.random.Generator, d: int) -> np.ndarray:
    """Default split-dimension law: min(max(Poisson(5), 1), d) distinct dims.

    Every singleton has positive probability, so any direction can be split
    regardless of the score function.
    """
    k = min(max(int(rng.poisson(5)), 1), d)
    return np.sort(rng.choice(d, size=k, replace=False))


@dataclass(frozen=True, eq=False)
class ForestConfig:
    """Tuning parameters for branch growth and weighting.

    Parameters
    ----------
    subsample_size : int
        Observations drawn per tree (without replacement); must satisfy
        ``2 * min_child <= subsample_size`` and be below the sample size.
    n_trees : int
        Number of subsamples / trees.
    basis_order : int
        Number of non-constant basis functions used by the splitting scores.
    initial_parent : Box or array_like
        The root node; the query point must lie inside it.  An array of
        shape ``(2, d)`` is read as (lower, upper).
    min_child : int
        Minimum deciding-half count per child.
    min_fraction : float
        Minimum fraction of the parent's deciding-half members per child,
        in (0, 1/2).
    split_dim_law : callable(rng, d) -> array of dims
        Law of the random set of dimensions eligible at each split.  Must
        never return the empty set and should give every singleton positive
        mass.
    scheme : {"theta", "mu"}
        Splitting scheme.
    n_grid : int
        Candidate thresholds per eligible dimension.
    seed : int
        Base seed; per-tree streams are derived from (seed, tree index).
    """

    subsample_size: int
    n_trees: int
    basis_order: int
    initial_parent: Box
    min_child: int = 10
    min_fraction: float = 0.05
    split_dim_law: Callable[[np.random.Generator, int], np.ndarray] = poisson_dim_law
    scheme: str = "theta"
    n_grid: int = 32
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.initial_parent, Box):
            bounds = np.asarray(self.initial_parent, dtype=float)
            object.__setattr__(self, "initial_parent", Box(bounds[0], bounds[1]))
        if self.min_child < 2:
            raise ValueError("min_child must be at least 2")
        if self.subsample_size < 2 * self.min_child:
            raise ValueError("subsample_size must be at least 2 * min_child")
        if not 0.0 < self.min_fraction < 0.5:
            raise ValueError("min_fraction must lie in (0, 1/2)")
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.basis_order < 1:
            raise ValueError("basis_order must be positive")
        if self.n_grid < 1:
            raise ValueError("n_grid must be positive")
        if self.scheme not in ("theta", "mu"):
            raise ValueError("scheme must be 'theta' or 'mu'")

    @property
    def dim(self) -> int:
        return self.initial_parent.dim


@dataclass(frozen=True, eq=False)
class SplitRecord:
    """One executed split, with deciding-half counts for auditability."""

    dim: int
    threshold: float
    n_parent: int
    n_left: int
    n_right: int


@dataclass(frozen=True, eq=False)
class BranchResult:
    """Leaf of the branch containing the query point.

    ``holdout_members`` are the holdout-half indices whose covariates fall
    in ``leaf_box``; ``split_members`` are the deciding-half indices whose
    outcomes were visible to the split search.  Honesty requires the two
    sets to be disjoint.
    """

    leaf_box: Box
    holdout_members: np.ndarray
    split_members: np.ndarray
    splits: tuple[SplitRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "holdout_members",
                           _readonly(np.asarray(self.holdout_members, dtype=np.intp)))
        object.__setattr__(self, "split_members",
                           _readonly(np.asarray(self.split_members, dtype=np.intp)))


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-observation similarity weights on the simplex (up to empty-leaf mass)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if w.sum() > 1.0 + 1e-12:
            raise ValueError("weights must sum to at most 1")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True, eq=False)
class SESubsamplePlan:
    """Paired delete-groups and tree subsamples for the jackknife variance.

    For each delete-group ``l``, trees ``2l`` and ``2l + 1`` (0-based) are
    drawn from the complement of the group, guaranteeing at least two clean
    trees per group; the remaining trees are drawn from the full index set.
    """

    delete_groups: tuple[np.ndarray, ...]
    tree_subsamples: tuple[np.ndarray, ...]

    def __post_init__(self):
        groups = tuple(_readonly(np.asarray(g, dtype=np.intp)) for g in self.delete_groups)
        trees = tuple(_readonly(np.asarray(t, dtype=np.intp)) for t in self.tree_subsamples)
        if 2 * len(groups) >= len(trees) - 1:
            raise ValueError("need 2 * n_sigma < n_trees - 1")
        if groups:
            # a membership table per group, read at its trees 2l and 2l + 1
            paired = trees[:2 * len(groups)]
            flat = np.concatenate(groups + paired)
            lo = int(flat.min(initial=0))
            member = np.zeros((len(groups), int(flat.max(initial=0)) - lo + 1), dtype=bool)
            member[np.repeat(np.arange(len(groups)), [g.size for g in groups]),
                   np.concatenate(groups) - lo] = True
            owner = np.repeat(np.arange(len(paired)), [t.size for t in paired])
            hits = owner[member[owner // 2, np.concatenate(paired) - lo]]
            if hits.size:
                raise ValueError(f"tree {hits[0]} overlaps delete group {hits[0] // 2}")
        object.__setattr__(self, "delete_groups", groups)
        object.__setattr__(self, "tree_subsamples", trees)

    @property
    def n_sigma(self) -> int:
        return len(self.delete_groups)

    @property
    def d_sigma(self) -> int:
        return self.delete_groups[0].size if self.delete_groups else 0


def draw_subsamples(n: int, cfg: ForestConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Draw ``cfg.n_trees`` sorted index sets of size ``cfg.subsample_size``."""
    if cfg.subsample_size >= n:
        raise ValueError("subsample_size must be smaller than the sample size")
    return [np.sort(rng.choice(n, size=cfg.subsample_size, replace=False))
            for _ in range(cfg.n_trees)]


def split_half(index_set, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Divide an index set into holdout and split-deciding halves.

    The deciding half gets ``floor(s / 2)`` elements chosen uniformly among
    all such subsets; the holdout half is the complement.
    """
    idx = np.asarray(index_set, dtype=np.intp)
    s = idx.size
    if s < 2:
        raise ValueError("need at least two indices to split")
    mask = np.zeros(s, dtype=bool)
    mask[rng.choice(s, size=s // 2, replace=False)] = True
    return np.sort(idx[~mask]), np.sort(idx[mask])


def delta_tilde(rho_by_child) -> float:
    """Heterogeneity score of a candidate split.

    ``rho_by_child`` is a pair of pseudo-outcome stacks, one per child.
    The score sums, over basis components, the squared within-child column
    sums scaled by the inverse child counts.
    """
    rho1, rho2 = (np.atleast_2d(np.asarray(r, dtype=float)) for r in rho_by_child)
    if rho1.shape[0] == 0 or rho2.shape[0] == 0:
        raise ValueError("both children must be nonempty")
    s1 = rho1.sum(axis=0)
    s2 = rho2.sum(axis=0)
    return float(s1 @ s1 / rho1.shape[0] + s2 @ s2 / rho2.shape[0])


def _member_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of ``values[k, :counts[k]]`` over its members, for every row ``k``.

    Rows of equal count are reduced together, so every sum is bit-identical
    to ``values[k, :counts[k]].sum(axis=0)`` on the unpadded row.
    """
    out = np.empty((values.shape[0], values.shape[2]))
    for c in np.unique(counts):
        rows = counts == c
        out[rows] = values[rows, :c].sum(axis=1)
    return out


def _node_splits(x_ext, phi_ext, members, counts, row_node, row_dim,
                 means, theta, solved, cfg: ForestConfig, spec: BasisSpec):
    """Score the threshold grid of every node and pick each node's best split.

    ``members`` holds each node's deciding-half positions into ``x_ext`` /
    ``phi_ext`` in their original order, padded with the sentinel last row
    (coordinates +inf, basis values 0).  Pseudo-outcomes are
    ``V(theta)^{-1} (phi - mu(theta))`` on ``solved`` nodes and centered
    basis values ``phi - mean`` elsewhere.  There is one scoring row per
    (node, eligible dimension) pair, ``row_node`` ascending and
    ``row_dim`` ascending within a node, so the first maximum of a node is
    its lexicographically smallest (dimension, threshold) among the best
    scores.  Returns ``(dim, threshold)`` arrays, ``dim = -1`` where no
    candidate is feasible.
    """
    phi = phi_ext[members]
    rho = phi - means[:, None, :]
    if solved.any():
        rho[solved] = expfam.row_pseudo_outcomes(theta[solved], phi[solved], spec)
    totals = _member_sums(rho, counts)

    coords = x_ext[members[row_node], row_dim[:, None]]
    order = np.argsort(coords, axis=1, kind="stable")
    coords = np.take_along_axis(coords, order, axis=1)
    c = counts[row_node]
    lo, hi = coords[:, 0], coords[np.arange(c.size), c - 1]
    spread = hi > lo
    thresholds = np.linspace(np.where(spread, lo, 0.0), np.where(spread, hi, 1.0),
                             cfg.n_grid + 2, axis=1)[:, 1:-1]
    n_left = (coords[:, None, :] <= thresholds[:, :, None]).sum(axis=2)
    n_right = c[:, None] - n_left
    bound = np.maximum(cfg.min_fraction * c, cfg.min_child)[:, None]
    feasible = spread[:, None] & (n_left >= bound) & (n_right >= bound)
    csum = np.cumsum(rho[row_node[:, None], order], axis=1)
    row, grid = np.nonzero(feasible)
    nl, nr = n_left[row, grid], n_right[row, grid]
    left = csum[row, nl - 1]
    right = totals[row_node[row]] - left
    score = np.full(n_left.shape, -np.inf)
    score[row, grid] = (left * left).sum(axis=1) / nl + (right * right).sum(axis=1) / nr

    row_best = score.argmax(axis=1)
    row_score = score[np.arange(row_best.size), row_best]
    node_score = np.maximum.reduceat(row_score, np.searchsorted(row_node, np.arange(counts.size)))
    hits = np.flatnonzero(row_score == node_score[row_node])
    chosen = hits[np.unique(row_node[hits], return_index=True)[1]]
    dim = np.where(node_score > -np.inf, row_dim[chosen], -1)
    return dim, thresholds[chosen, row_best[chosen]]


def _level_slices(counts: np.ndarray, j: int, d: int, n_grid: int):
    """Consecutive node ranges whose split-search temporaries fit the batch cap.

    ``counts`` is non-increasing, so a range's widest node is its first.
    """
    a = 0
    while a < counts.size:
        per_node = int(counts[a]) * (4 * j + d * (3 + 2 * j + n_grid // 8)) + 4 * d * n_grid * j
        b = min(counts.size, a + max(1, expfam.BATCH_ELEMENTS // per_node))
        yield a, b
        a = b


def _eligible_rows(drawn, d: int):
    """Scoring rows ``(row_node, row_dim)`` from each node's drawn dimension set.

    Rows are sorted by node, then dimension, without repeats.
    """
    row_node = np.repeat(np.arange(len(drawn)), [a.size for a in drawn])
    row_dim = np.concatenate(drawn)
    if (np.bincount(row_node, minlength=len(drawn)) == 0).any() or (
            row_dim.min() < 0 or row_dim.max() >= d):
        raise ValueError("split_dim_law returned an invalid dimension set")
    order = np.lexsort((row_dim, row_node))
    row_node, row_dim = row_node[order], row_dim[order]
    new = np.ones(row_node.size, dtype=bool)
    new[1:] = (row_node[1:] != row_node[:-1]) | (row_dim[1:] != row_dim[:-1])
    return row_node[new], row_dim[new]


def _split_level(x_ext, phi_ext, members, counts, row_node, row_dim,
                 cfg: ForestConfig, spec: BasisSpec):
    """Best split of every active node of one level (nodes by decreasing count).

    The node targets are the deciding members' basis means; under the
    "theta" scheme they go through one batched Newton solve, and nodes whose
    solve fails (``BoundaryMoment`` or ``NonConvergence``) are scored with
    centered basis values instead.
    """
    j = spec.order
    slices = list(_level_slices(counts, j, x_ext.shape[1], cfg.n_grid))
    means = np.empty((counts.size, j))
    for a, b in slices:
        sums = _member_sums(phi_ext[members[a:b, :counts[a]]], counts[a:b])
        means[a:b] = sums / counts[a:b, None]
    theta = np.zeros_like(means)
    solved = np.zeros(counts.size, dtype=bool)
    if cfg.scheme == "theta":
        batch = expfam.solve_theta_batch(means, spec)
        theta, solved = batch.theta, batch.status == expfam.SOLVED
    dim = np.empty(counts.size, dtype=np.intp)
    thr = np.empty(counts.size)
    row_bounds = np.searchsorted(row_node, [a for a, _ in slices] + [counts.size])
    for (a, b), r0, r1 in zip(slices, row_bounds[:-1], row_bounds[1:]):
        dim[a:b], thr[a:b] = _node_splits(
            x_ext, phi_ext, members[a:b, :counts[a]], counts[a:b],
            row_node[r0:r1] - a, row_dim[r0:r1], means[a:b], theta[a:b],
            solved[a:b], cfg, spec)
    return dim, thr


def _with_sentinel(x: np.ndarray, phi: np.ndarray):
    """Append the padding row: coordinates +inf (outside every box), basis 0."""
    return (np.vstack([x, np.full((1, x.shape[1]), np.inf)]),
            np.vstack([phi, np.zeros((1, phi.shape[1]))]))


def _padded(rows, fill: int) -> np.ndarray:
    """Stack index arrays of unequal length as rows, padded with ``fill``."""
    out = np.full((len(rows), max((r.size for r in rows), default=0)), fill, dtype=np.intp)
    for k, r in enumerate(rows):
        out[k, :r.size] = r
    return out


def _compact(members: np.ndarray, keep: np.ndarray, fill: int):
    """Move each row's kept members to the front, in order, and re-pad."""
    counts = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :counts.max(initial=0)]
    members = np.take_along_axis(members, order, axis=1)
    members[np.arange(members.shape[1]) >= counts[:, None]] = fill
    return members, counts


def _inside(x_ext, members, lower, upper, lower_open) -> np.ndarray:
    """Which padded members lie in their row's box, as :meth:`Box.contains`."""
    out = np.ones(members.shape, dtype=bool)
    for k in range(x_ext.shape[1]):
        pts = x_ext[members, k]
        lo = lower[:, k, None]
        out &= np.where(lower_open[:, k, None], pts > lo, pts >= lo) & (pts <= upper[:, k, None])
    return out


def _grow_branches(x, x_pts, phi, holdouts, decidings, rngs,
                   cfg: ForestConfig, spec: BasisSpec) -> list[BranchResult]:
    """Grow the branch containing ``x`` in every tree, one level at a time.

    ``holdouts`` / ``decidings`` hold each tree's half positions into
    ``x_pts`` / ``phi``.  Each level draws every active node's eligible
    dimensions from its tree's stream, then splits all nodes together
    (:func:`_split_level`); a tree stops when fewer than ``2 * min_child``
    deciding members remain in its node or no split is feasible.
    """
    x = np.asarray(x, dtype=float)
    if not cfg.initial_parent.contains(x):
        raise ValueError("query point lies outside the initial parent node")
    n, d = x_pts.shape
    n_trees = len(decidings)
    x_ext, phi_ext = _with_sentinel(x_pts, phi)
    root = cfg.initial_parent
    lower = np.tile(root.lower, (n_trees, 1))
    upper = np.tile(root.upper, (n_trees, 1))
    lower_open = np.tile(root.lower_open, (n_trees, 1))
    records: list[list[SplitRecord]] = [[] for _ in range(n_trees)]

    members = _padded(decidings, n)
    members, counts = _compact(members, _inside(x_ext, members, lower, upper, lower_open), n)
    trees = np.arange(n_trees)
    while True:
        live = np.flatnonzero(counts >= 2 * cfg.min_child)
        live = live[np.argsort(-counts[live], kind="stable")]
        trees, members, counts = trees[live], members[live], counts[live]
        if trees.size == 0:
            break
        members = members[:, :counts[0]]
        drawn = [np.asarray(cfg.split_dim_law(rngs[t], d), dtype=np.intp)
                 for t in trees.tolist()]
        row_node, row_dim = _eligible_rows(drawn, d)
        dim, thr = _split_level(x_ext, phi_ext, members, counts, row_node, row_dim,
                                cfg, spec)

        split = dim >= 0
        trees, members, counts, dim, thr = (a[split] for a in (trees, members, counts, dim, thr))
        coords = x_ext[members, dim[:, None]]
        go_left = x[dim] <= thr
        keep = np.where(go_left[:, None], coords <= thr[:, None], coords > thr[:, None])
        keep &= np.arange(members.shape[1]) < counts[:, None]
        n_keep = keep.sum(axis=1)
        for t, dd, tt, m, k, gl in zip(trees.tolist(), dim.tolist(), thr.tolist(),
                                       counts.tolist(), n_keep.tolist(), go_left.tolist()):
            records[t].append(SplitRecord(dd, tt, m, k if gl else m - k, m - k if gl else k))
        upper[trees[go_left], dim[go_left]] = thr[go_left]
        lower[trees[~go_left], dim[~go_left]] = thr[~go_left]
        lower_open[trees[~go_left], dim[~go_left]] = True
        members, counts = _compact(members, keep, n)

    held = _padded(holdouts, n)
    in_leaf = _inside(x_ext, held, lower, upper, lower_open)
    return [BranchResult(Box(lower[t], upper[t], lower_open[t]), held[t][in_leaf[t]],
                         decidings[t], tuple(records[t]))
            for t in range(n_trees)]


def best_split(x_members: np.ndarray, y_members: np.ndarray, pivot,
               cfg: ForestConfig, allowed_dims, spec: BasisSpec = None):
    """Search the threshold grid for the feasible split with the highest score.

    For each allowed dimension, ``cfg.n_grid`` equally spaced interior
    thresholds between the members' min and max coordinate are scored; a
    candidate is feasible only when both children keep at least
    ``max(min_fraction * m, min_child)`` members.  Ties break toward the
    lexicographically smallest (dimension, threshold).  Pseudo-outcomes are
    derived from ``pivot``: a :class:`~forestdens.expfam.ThetaSolution`
    gives the influence residuals, a
    :class:`~forestdens.expfam.MomentVector` the centered basis values.

    Returns ``(dim, threshold)`` or ``None`` when no candidate is feasible.
    This is the one-node case of the split search used by branch growth.
    """
    x_members = np.atleast_2d(np.asarray(x_members, dtype=float))
    m = x_members.shape[0]
    if spec is None:
        spec = default_basis(cfg.basis_order)
    zero = np.zeros((1, spec.order))
    if isinstance(pivot, expfam.ThetaSolution):
        means, theta, solved = zero, pivot.theta[None, :], True
    elif isinstance(pivot, expfam.MomentVector):
        means, theta, solved = pivot.mu[None, :], zero, False
    else:
        raise TypeError("pivot must be a ThetaSolution or a MomentVector")
    x_ext, phi_ext = _with_sentinel(
        x_members, basis_matrix(spec, np.asarray(y_members, dtype=float)))
    dims = np.unique(np.asarray(allowed_dims, dtype=np.intp))
    if dims.size == 0:
        return None
    dim, thr = _node_splits(x_ext, phi_ext, np.arange(m)[None, :], np.array([m]),
                            np.zeros(dims.size, dtype=np.intp), dims, means, theta,
                            np.array([solved]), cfg, spec)
    return None if dim[0] < 0 else (int(dim[0]), float(thr[0]))


def grow_from_halves(x, y_sub: np.ndarray, x_sub: np.ndarray, cfg: ForestConfig,
                     holdout_pos, deciding_pos, rng: np.random.Generator,
                     index=None, spec: BasisSpec = None,
                     phi_sub: np.ndarray = None) -> BranchResult:
    """Grow the branch containing ``x`` from an explicit half split.

    ``holdout_pos`` / ``deciding_pos`` are positions into the subsample
    arrays.  Splits consult only deciding-half members inside the current
    node; growth stops when fewer than ``2 * min_child`` of them remain
    or no feasible split exists.  Exposed so the half-split device can be
    enumerated exactly; this is the one-tree case of forest growth.
    """
    if spec is None:
        spec = default_basis(cfg.basis_order)
    x_sub = np.atleast_2d(np.asarray(x_sub, dtype=float))
    if phi_sub is None:
        phi_sub = basis_matrix(spec, np.asarray(y_sub, dtype=float))
    branch, = _grow_branches(x, x_sub, phi_sub, [np.asarray(holdout_pos, dtype=np.intp)],
                             [np.asarray(deciding_pos, dtype=np.intp)], [rng], cfg, spec)
    if index is None:
        return branch
    index = np.asarray(index, dtype=np.intp)
    return BranchResult(branch.leaf_box, index[branch.holdout_members],
                        index[branch.split_members], branch.splits)


def grow_branch(x, y_sub: np.ndarray, x_sub: np.ndarray, cfg: ForestConfig,
                rng: np.random.Generator, index=None, spec: BasisSpec = None,
                phi_sub: np.ndarray = None) -> BranchResult:
    """Draw the half-split device, then grow the branch containing ``x``."""
    s = np.asarray(y_sub).size
    holdout_pos, deciding_pos = split_half(np.arange(s), rng)
    return grow_from_halves(x, y_sub, x_sub, cfg, holdout_pos, deciding_pos,
                            rng, index=index, spec=spec, phi_sub=phi_sub)


def _tree_streams(seed: int, n_trees: int):
    """Master stream plus one independent stream per tree, from the base seed."""
    children = np.random.SeedSequence(seed).spawn(n_trees + 1)
    return (np.random.default_rng(children[0]),
            [np.random.default_rng(c) for c in children[1:]])


def _effective_seed(cfg: ForestConfig, rng) -> int:
    if rng is None:
        return int(cfg.seed)
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(rng.integers(np.iinfo(np.int64).max))


def per_tree_means(branches, phi: np.ndarray) -> np.ndarray:
    """Per-tree holdout basis means; empty leaves contribute zero rows."""
    out = np.zeros((len(branches), phi.shape[1]))
    for t, br in enumerate(branches):
        if br.holdout_members.size:
            out[t] = phi[br.holdout_members].mean(axis=0)
    return out


def grow_forest(x, data: Dataset, cfg: ForestConfig, spec: BasisSpec,
                se_params=None, rng=None):
    """Draw the subsamples and grow every tree's branch containing ``x``.

    The seed is ``rng`` or ``cfg.seed``; ``se_params = (n_sigma, d_sigma)``
    draws the paired delete-group plan instead of plain subsamples.  Returns
    ``(weights, branches, phi, plan)``, with ``phi`` the basis values of the
    outcomes and ``plan`` None without ``se_params``.
    """
    master, tree_rngs = _tree_streams(_effective_seed(cfg, rng), cfg.n_trees)
    if se_params is None:
        plan, subsamples = None, draw_subsamples(data.n, cfg, master)
    else:
        plan = se_subsample_plan(data.n, cfg, *se_params, master)
        subsamples = plan.tree_subsamples
    phi = basis_matrix(spec, data.y)
    holdouts, decidings = [], []
    for idx, tree_rng in zip(subsamples, tree_rngs):
        holdout_pos, deciding_pos = split_half(np.arange(idx.size), tree_rng)
        holdouts.append(idx[holdout_pos])
        decidings.append(idx[deciding_pos])
    branches = _grow_branches(x, data.x, phi, holdouts, decidings, tree_rngs, cfg, spec)
    w = np.zeros(data.n)
    for br in branches:
        h = br.holdout_members
        if h.size:
            w[h] += 1.0 / (cfg.n_trees * h.size)
    return WeightVector(w), branches, phi, plan


def weights(x, data: Dataset, cfg: ForestConfig, rng=None,
            workers: int = 1) -> WeightVector:
    """Similarity weights of every observation for the query point.

    Each tree spreads mass ``1 / n_trees`` uniformly over its holdout
    members in the leaf containing ``x`` (zero if the leaf is empty), so
    the weights sum to one exactly when every leaf is nonempty.
    Deterministic given ``cfg.seed``.  ``workers`` is accepted for
    compatibility and has no effect: growth runs in the calling thread.
    """
    return grow_forest(x, data, cfg, default_basis(cfg.basis_order), rng=rng)[0]


def mu_hat(weight_vector: WeightVector, data: Dataset,
           spec: BasisSpec) -> expfam.MomentVector:
    """Weighted basis average of the outcomes."""
    w = weight_vector.weights
    if w.sum() <= 0.0:
        raise AllWeightsZero("every tree produced an empty leaf")
    return expfam.MomentVector(basis_matrix(spec, data.y).T @ w)


def se_subsample_plan(n: int, cfg: ForestConfig, n_sigma: int, d_sigma: int,
                      rng: np.random.Generator) -> SESubsamplePlan:
    """Draw delete-groups and tree subsamples with the pairing guarantee.

    Group ``l`` has ``d_sigma`` indices; trees ``2l`` and ``2l + 1`` are
    drawn from its complement, the remaining trees from the full index set.
    """
    s = cfg.subsample_size
    if s >= n:
        raise ValueError("subsample_size must be smaller than the sample size")
    if not d_sigma < n - s:
        raise ValueError("d_sigma must be below n - subsample_size")
    if not 2 * n_sigma < cfg.n_trees - 1:
        raise ValueError("need 2 * n_sigma < n_trees - 1")
    if n_sigma < 1 or d_sigma < 1:
        raise ValueError("n_sigma and d_sigma must be positive")
    groups = []
    trees: list[np.ndarray] = []
    everyone = np.arange(n)
    for _ in range(n_sigma):
        g = np.sort(rng.choice(n, size=d_sigma, replace=False))
        rest = np.delete(everyone, g)
        trees.append(np.sort(rng.choice(rest, size=s, replace=False)))
        trees.append(np.sort(rng.choice(rest, size=s, replace=False)))
        groups.append(g)
    for _ in range(cfg.n_trees - 2 * n_sigma):
        trees.append(np.sort(rng.choice(n, size=s, replace=False)))
    return SESubsamplePlan(tuple(groups), tuple(trees))


def _clean_tree_mask(plan: SESubsamplePlan, n: int) -> np.ndarray:
    """Mask of shape (n_sigma, n_trees): tree disjoint from delete group.

    Trees are checked in slices against an (n, n_sigma) group-membership
    table, so the temporaries stay within the batch cap.
    """
    in_group = np.zeros((n, plan.n_sigma), dtype=bool)
    in_group[np.concatenate(plan.delete_groups),
             np.repeat(np.arange(plan.n_sigma), plan.d_sigma)] = True
    trees = plan.tree_subsamples
    step = max(1, expfam.BATCH_ELEMENTS // (trees[0].size * plan.n_sigma))
    clean = np.empty((plan.n_sigma, len(trees)), dtype=bool)
    for a in range(0, len(trees), step):
        clean[:, a:a + step] = ~in_group[np.stack(trees[a:a + step])].any(axis=1).T
    return clean


def jackknife_deviations(plan: SESubsamplePlan, per_tree_h: np.ndarray, n: int) -> np.ndarray:
    """Centered leave-group-out moment estimates, shape ``(n_sigma, J)``.

    Row ``l`` is the mean of ``per_tree_h`` over the trees disjoint from
    delete-group ``l``, minus the mean over groups; every ``t_row`` shares it.
    """
    per_tree_h = np.atleast_2d(np.asarray(per_tree_h, dtype=float))
    clean = _clean_tree_mask(plan, n)
    counts = clean.sum(axis=1)
    if np.any(counts == 0):
        bad = int(np.flatnonzero(counts == 0)[0])
        raise NoCleanTrees(f"delete group {bad} has no disjoint tree subsample")
    mu_minus = (clean @ per_tree_h) / counts[:, None]
    return mu_minus - mu_minus.mean(axis=0)


def se_from_deviations(deviations: np.ndarray, t_row: np.ndarray, n: int,
                       d_sigma: int, n_sigma: int) -> float:
    """The :func:`sigma_fe` standard error from :func:`jackknife_deviations` output."""
    dev = np.asarray(t_row, dtype=float) @ deviations.T
    return float(np.sqrt((n - d_sigma) / (d_sigma * n_sigma) * (dev @ dev)))


def sigma_fe(plan: SESubsamplePlan, per_tree_h: np.ndarray, t_row: np.ndarray,
             n: int, d_sigma: int, n_sigma: int) -> float:
    """Feasible jackknife standard error from the paired subsample plan.

    For each delete-group the leave-group-out moment estimate averages the
    per-tree holdout means over trees disjoint from the group; the returned
    value is

        sqrt( (n - d_sigma) / (d_sigma * n_sigma)
              * sum_l [ t_row . (mu_minus_l - mean_l mu_minus_l) ]^2 ).
    """
    return se_from_deviations(jackknife_deviations(plan, per_tree_h, n), t_row,
                              n, d_sigma, n_sigma)
