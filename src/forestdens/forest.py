"""Honest forest branch growth, similarity weights, and the jackknife variance parts.

A tree here is grown only along the branch containing the query point: each
subsample is split into a holdout half and a split-deciding half, splits are
chosen on the deciding half by maximizing a heterogeneity score over an
axis-aligned threshold grid, and the prediction at the leaf uses only the
holdout half (honesty).  Per-observation similarity weights average the
normalized leaf co-membership indicator over trees, with the convention
0/0 = 0 for trees whose leaf captures no holdout point.

:func:`grow_forest` is the one growth pipeline.  The seed gives a master
stream, which draws the subsamples, and one 64-bit key per tree.  Every other
draw is a counter-based hash of (tree key, domain, slot), the SplitMix64
finaliser on uint64 arrays (Salmon et al. 2011; Steele, Lea & Flood 2014):
one domain for the tree's half split and one per tree level for the eligible
dimensions of the tree's node at that level.  So each draw is a pure function
of (seed, tree index), drawn for all trees in one array call.  All branches
grow together, one level at a time, each level as arrays: batched Newton
solves (each root node solved to :data:`~forestdens.expfam.GROWTH_TOL`, each
child given :data:`~forestdens.expfam.GROWTH_STEPS` step from its parent's
iterate, as grf splits on the parent's estimate and Jacobian), then every
node's threshold scores (:func:`_split_level`).  Member tables are gathered
from a basis table with a trailing count column (:func:`_with_sentinel`), so
sums over members run in member order at any J and the padding adds exact
zeros: growing one tree alone (:func:`grow_branch`) gives the same branch as
growing it in a forest.  A fit's trees stay arrays, one row per tree, from
the subsample draw to the standard error; only the one-tree functions build
:class:`BranchResult`, :class:`Box` and :class:`SplitRecord` objects.

The ``(B, s)`` subsample table is held once: each row is reordered in place
into the tree's deciding half, then its holdout half, and growth reads the
halves as column views.  Every other batched temporary is capped by
:data:`forestdens.expfam.BATCH_ELEMENTS` in the row chunks of one sizer,
:func:`forestdens.expfam._row_chunks`: trees for the half split, the per-tree
means and the infinitesimal jackknife (:func:`infinitesimal_jackknife` gives its
blocks and when they keep the single pass's bits); nodes for a level's Newton
solves and V^-1 (1024 at J = 8), each chunk cut into split slices by their
largest temporary.

Two splitting schemes are supported: under ``"theta"`` the pseudo-outcomes
are the influence residuals V^-1 (phi - mu) at the node's Newton iterate; a
node whose solve ends in a code other than SOLVED or CAPPED takes its basis
mean and the identity as (mu, V^-1).  Under ``"mu"`` they are centred basis
values, with no node solve.  Boxes are closed: a right child, x > t, stores
``np.nextafter(t, inf)``, the next double above t, as its lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expfam
from .basis import BasisSpec, _integer, basis_matrix, default_basis
from .errors import AllWeightsZero

__all__ = [
    "Box",
    "Dataset",
    "ForestConfig",
    "SplitRecord",
    "BranchResult",
    "WeightVector",
    "draw_subsamples",
    "split_half",
    "best_split",
    "grow_branch",
    "grow_from_halves",
    "grow_forest",
    "weights",
    "mu_hat",
    "infinitesimal_jackknife",
    "debiased_variance",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Box:
    """Closed axis-aligned box; a right child's lower bound is the next double above its split."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if not np.all(lo <= hi):  # NaN fails too
            raise ValueError("box bounds must be numbers with lower <= upper")
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(hi))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for rows of ``points`` (shape ``(m, d)`` or ``(d,)``)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points of dimension {pts.shape[1]} for a {self.dim}-D box")
        inside = _inside(pts, np.arange(pts.shape[0])[None], self.lower[None], self.upper[None])[0]
        return inside if np.asarray(points).ndim > 1 else bool(inside[0])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed outcomes in [0, 1] with their covariate rows."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if y.ndim != 1 or x.ndim != 2 or x.shape[0] != y.size:
            raise ValueError(f"outcomes of shape {y.shape} and covariates of shape {x.shape} "
                             "are not 1-D and 2-D of matching length")
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


#: SplitMix64's state increment, the odd integer nearest 2^64 / golden ratio.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: Step between the draw domains of one tree key; each domain's start is mixed.
_DOMAIN_STEP = np.uint64(0xD1B54A32D192ED03)
#: P(Poisson(5) <= i) for i = 0, 1, ...; it rounds to exactly 1.0 before the end.
_POISSON5_CDF = np.cumsum([math.exp(-5.0) * 5.0 ** i / math.factorial(i) for i in range(40)])


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output finaliser, a bijection of uint64, applied elementwise."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _splitmix(states: np.ndarray, n: int) -> np.ndarray:
    """``(len(states), n)`` uint64: outputs 1..n of SplitMix64 from each state, mod 2^64."""
    with np.errstate(over="ignore"):
        return _mix(states[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA)


def _keyed(keys: np.ndarray, domain: int, slots: int) -> np.ndarray:
    """``(len(keys), slots)`` uint64 draws, entry ``[i, j]`` a function of (keys[i], domain, j) only.

    The domain's state ``mix(key + (domain + 1) * step)`` starts a
    SplitMix64 sequence, whose output ``j + 1`` is slot ``j``.  Domain 0 is
    the half split; domain ``l + 1`` the dimension sets of tree level ``l``.
    """
    with np.errstate(over="ignore"):
        return _splitmix(_mix(keys + np.uint64(domain + 1) * _DOMAIN_STEP), slots)


def _key(key) -> np.uint64:
    """A tree key, an integer in [0, 2^64), as given, or one key drawn from a ``Generator``."""
    if isinstance(key, np.random.Generator):
        return key.integers(2 ** 64, dtype=np.uint64)
    return np.uint64(_integer(key, "key"))


def _dim_masks(keys: np.ndarray, level: int, d: int) -> np.ndarray:
    """``(len(keys), d)`` bools: the eligible dimensions of each tree's node at ``level``.

    Row ``i`` draws k = min(max(Poisson(5), 1), d) by inverse CDF from the
    53-bit uniform of slot 0, and takes the k smallest of the keyed values
    in slots 1..d, a uniform k-subset.  Every row has at least one dimension.
    """
    v = _keyed(keys, level + 1, d + 1)
    u = (v[:, 0] >> np.uint64(11)) * 2.0 ** -53
    k = np.clip(np.searchsorted(_POISSON5_CDF, u, side="right"), 1, d)
    mask = np.empty((keys.size, d), dtype=bool)
    np.put_along_axis(mask, np.argsort(v[:, 1:], axis=1), np.arange(d) < k[:, None], axis=1)
    return mask


def _half_masks(keys: np.ndarray, s: int) -> np.ndarray:
    """``(len(keys), s)`` bools: each tree's ``s // 2`` smallest keyed values, its deciding half."""
    part = np.argpartition(_keyed(keys, 0, s), s // 2 - 1, axis=1)[:, :s // 2]
    mask = np.zeros((keys.size, s), dtype=bool)
    np.put_along_axis(mask, part, True, axis=1)
    return mask


@dataclass(frozen=True, eq=False)
class ForestConfig:
    """Tuning parameters for branch growth and weighting.

    Each node's eligible split dimensions are a uniform k-subset, k = min(max(Poisson(5), 1), d).

    Parameters
    ----------
    subsample_size : int
        Observations drawn per tree (without replacement); must satisfy
        ``2 * min_child <= subsample_size`` and be below the sample size.
    n_trees : int
        Number of subsamples / trees.
    basis_order : int
        Number of non-constant basis functions J of the fit's one basis, ``default_basis(J)``.
    initial_parent : Box or array_like
        The root node, a closed box; the query point must lie inside it.  An array of
        shape ``(2, d)`` is read as (lower, upper).
    min_child : int
        Minimum deciding-half count per child.
    min_fraction : float
        Minimum fraction of the parent's deciding-half members per child,
        in (0, 1/2).
    scheme : {"theta", "mu"}
        Splitting scheme.
    n_grid : int
        Candidate thresholds per eligible dimension.
    seed : int
        Non-negative base seed.  It seeds the master stream, which draws the
        subsamples, and the tree keys; every draw of tree ``t`` is keyed by
        (seed, t), so a tree is the same at any tree count.

    The integer fields and the seed must be Python or NumPy integers, not
    booleans; a ``ValueError`` names the first field that is not.
    """

    subsample_size: int
    n_trees: int
    basis_order: int
    initial_parent: Box
    min_child: int = 10
    min_fraction: float = 0.05
    scheme: str = "theta"
    n_grid: int = 32
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.initial_parent, Box):
            bounds = np.asarray(self.initial_parent, dtype=float)
            if bounds.ndim != 2 or bounds.shape[0] != 2:
                raise ValueError(f"initial_parent bounds have shape {bounds.shape}, not (2, d)")
            object.__setattr__(self, "initial_parent", Box(bounds[0], bounds[1]))
        for name in ("subsample_size", "n_trees", "basis_order", "min_child", "n_grid", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
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

    ``holdout_members`` are the holdout-half subsample positions whose
    covariates fall in ``leaf_box``; ``split_members`` are the deciding-half
    subsample positions whose outcomes were visible to the split search.
    Honesty requires the two sets to be disjoint.  A caller holding the
    subsample's row indices ``idx`` maps them with ``idx[holdout_members]``.
    """

    leaf_box: Box
    holdout_members: np.ndarray
    split_members: np.ndarray
    splits: tuple[SplitRecord, ...]

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
        if w.ndim != 1:
            raise ValueError(f"weights of shape {w.shape} are not 1-D")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if w.sum() > 1.0 + 1e-12:
            raise ValueError("weights must sum to at most 1")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def draw_subsamples(n: int, cfg: ForestConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw ``cfg.n_trees`` sorted index sets of size ``cfg.subsample_size``, as table rows."""
    if cfg.subsample_size >= n:
        raise ValueError("subsample_size must be smaller than the sample size")
    out = np.empty((cfg.n_trees, cfg.subsample_size), dtype=np.intp)
    for row in out:
        row[:] = rng.choice(n, size=cfg.subsample_size, replace=False)
    out.sort(axis=1)
    return out


def split_half(index_set, key) -> tuple[np.ndarray, np.ndarray]:
    """Divide an index set into holdout and split-deciding halves.

    The deciding half gets ``floor(s / 2)`` elements chosen uniformly among
    all such subsets; the holdout half is the complement.  ``key`` is a tree
    key, or a ``Generator`` that draws one; this is the one-row case of the
    forest's half split.
    """
    idx = np.asarray(index_set, dtype=np.intp)
    s = idx.size
    if s < 2:
        raise ValueError("need at least two indices to split")
    mask = _half_masks(np.array([_key(key)]), s)[0]
    return np.sort(idx[~mask]), np.sort(idx[mask])


#: Relative tolerance within which two split scores count as tied.  Candidates
#: giving the same partition tie in exact arithmetic; their computed scores
#: differ by summation roundoff, far below this.
_TIE_RTOL = 1e-12


def _node_splits(x_ext, phi_ext, members, counts, masks, center, vinv, cfg: ForestConfig):
    """Score the threshold grid of every node and pick each node's best split.

    ``members`` holds each node's deciding-half positions into ``x_ext`` / ``phi_ext``
    in their original order, padded with the sentinel last row (coordinates +inf,
    basis values and count 0).  Pseudo-outcomes are ``vinv (phi - center)``
    (:func:`~forestdens.expfam._pseudo_outcomes`), one ``(center, vinv)`` pair per node;
    under "mu" ``vinv`` is None and they are ``phi - center``.  They are 0 in the
    padding; then comes ``phi_ext``'s count column (:func:`_with_sentinel`), so a node's
    totals and count are one sum over the padded width.  ``masks`` holds each node's
    eligible dimensions, at least one, as a ``(nodes, d)`` row; its ``np.nonzero`` is one
    scoring row per (node, eligible dimension), by node, then dimension.  A row's
    left-child sums and count are its threshold mask, as floats, times its node's
    pseudo-outcomes; the right sums are the node totals minus the left.  Every (row,
    threshold) candidate is scored in one dense table, the squared norm of each child's
    sums (an ``einsum``) over its count, and each infeasible candidate, an empty child's
    0/0 among them, is then set to -inf.  The scores go into one ``(nodes, d, n_grid)``
    table, -inf at every ineligible dimension, so a node's flattened row runs in
    (dimension, threshold) order: its first cell within :data:`_TIE_RTOL` of the row's
    maximum is its lexicographically smallest candidate among the near-best.  Returns
    ``(dim, threshold)`` arrays, ``dim = -1`` where no candidate is feasible.
    """
    rho = phi_ext[members]
    j = rho.shape[2] - 1
    if vinv is None:
        rho[:, :, :j] -= center[:, None, :]
    else:
        rho[:, :, :j] = expfam._pseudo_outcomes(center, vinv, rho[:, :, :j])
    rho[np.arange(members.shape[1]) >= counts[:, None], :j] = 0.0
    totals = rho.sum(axis=1)
    row_node, row_dim = np.nonzero(masks)

    coords = x_ext[members[row_node], row_dim[:, None]]
    c = counts[row_node]
    lo = coords.min(axis=1)  # the padding is +inf
    hi = coords.max(axis=1, initial=-np.inf, where=np.arange(coords.shape[1]) < c[:, None])
    spread = hi > lo
    thresholds = np.linspace(np.where(spread, lo, 0.0), np.where(spread, hi, 1.0),
                             cfg.n_grid + 2, axis=1)[:, 1:-1]
    below = coords[:, None, :] <= thresholds[:, :, None]
    sums = below.astype(float) @ rho[row_node]
    n_left = sums[:, :, j]  # whole numbers, exact in floats
    n_right = c[:, None] - n_left
    bound = np.maximum(cfg.min_fraction * c, cfg.min_child)[:, None]
    left = sums[:, :, :j]
    right = totals[row_node][:, None, :j] - left
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty child is 0/0
        score = (np.einsum("rgj,rgj->rg", left, left) / n_left
                 + np.einsum("rgj,rgj->rg", right, right) / n_right)
    score[~(spread[:, None] & (n_left >= bound) & (n_right >= bound))] = -np.inf

    table = np.full(masks.shape + (cfg.n_grid,), -np.inf)
    grid = np.zeros_like(table)
    table[row_node, row_dim], grid[row_node, row_dim] = score, thresholds
    table, grid = table.reshape(counts.size, -1), grid.reshape(counts.size, -1)
    best = table.max(axis=1)
    # scores are >= 0, so best * (1 - tol) is best - tol |best|; it is -inf, not
    # NaN, at a node where nothing is feasible, whose dim is then -1
    first = (table >= best[:, None] * (1.0 - _TIE_RTOL)).argmax(axis=1)
    dim = np.where(best > -np.inf, first // cfg.n_grid, -1)
    return dim, grid[np.arange(counts.size), first]


def _split_level(x_ext, phi_ext, members, counts, masks, start, cfg: ForestConfig):
    """Best split of every active node of one level (nodes by decreasing count).

    The one batch sizer, :func:`~forestdens.expfam._row_chunks`, cuts the level into
    Newton chunks, and each chunk into split slices, a node of ``c`` members weighing
    ``d`` rows of its largest split temporary, in floats: ``(c, J + 1)`` pseudo-outcomes,
    an ``(n_grid, c)`` mask or ``(n_grid, J + 1)`` child sums.  Per chunk, the node targets
    are the deciding members' basis means, one counted sum (:func:`_with_sentinel`) per
    slice.  Under "theta" they go through one batched Newton solve, each node from its
    row of ``start``: a zero start (a root, or the child of a failed node) is solved to
    ``GROWTH_TOL`` within ``NEWTON_MAX_ITER`` steps, any other takes at most
    ``GROWTH_STEPS``.  The moments and density kept at a SOLVED or CAPPED node's last
    iterate give its ``(mu(theta), V(theta)^{-1})``, one stacked inverse for the chunk
    alone; a node with any other code keeps its mean and the identity.  Under "mu"
    every node keeps its mean, with no V^-1.  Then the chunk's slices are split
    (:func:`_node_splits`).  Returns ``(dim, threshold, theta)``, ``theta`` the SOLVED
    or CAPPED nodes' last iterates, zero elsewhere: the one Newton table spanning the level.
    """
    spec = default_basis(cfg.basis_order)
    j = spec.order
    per_node = masks.shape[1] * np.maximum(counts * max(j + 1, cfg.n_grid), cfg.n_grid * (j + 1))
    dim, thr = np.empty(counts.size, dtype=np.intp), np.empty(counts.size)
    theta = np.zeros_like(start)
    for a, b in expfam._row_chunks(counts.size, 4 * max(spec.nodes.size, j * j)):
        slices = [(a + p, a + q) for p, q in expfam._row_chunks(b - a, per_node[a:b])]
        center = np.vstack([phi_ext[members[p:q, :counts[p]]].sum(axis=1)[:, :j]
                            / counts[p:q, None] for p, q in slices])
        vinv = None
        if cfg.scheme == "theta":
            cap = np.where(start[a:b].any(axis=1), expfam.GROWTH_STEPS, expfam.NEWTON_MAX_ITER)
            batch = expfam._solve_from(center, start[a:b], spec, cap, expfam.GROWTH_TOL)
            ok = (batch.status == expfam.SOLVED) | (batch.status == expfam.CAPPED)
            theta[a:b][ok], center[ok] = batch.theta[ok], batch.mu[ok]
            vinv = np.tile(np.eye(j), (b - a, 1, 1))
            vinv[ok] = expfam._inverse_covariances(batch.dens[ok], batch.mu[ok], spec)
        for p, q in slices:
            dim[p:q], thr[p:q] = _node_splits(
                x_ext, phi_ext, members[p:q, :counts[p]], counts[p:q], masks[p:q],
                center[p - a:q - a], None if vinv is None else vinv[p - a:q - a], cfg)
    return dim, thr, theta


def _counted(phi: np.ndarray) -> np.ndarray:
    """``phi`` with a trailing count column of ones, then the sentinel row of zeros."""
    return np.vstack([np.hstack([phi, np.ones((phi.shape[0], 1))]), np.zeros(phi.shape[1] + 1)])


def _with_sentinel(x: np.ndarray, phi: np.ndarray):
    """Append the padding row: coordinates +inf (outside every box), basis values and count 0.

    With its count column (:func:`_counted`) every member table gathered from
    ``phi_ext`` has at least two columns, so numpy sums its member axis in
    member order at any J; a lone column would be summed pairwise.
    """
    return np.vstack([x, np.full((1, x.shape[1]), np.inf)]), _counted(phi)


def _compact(members: np.ndarray, keep: np.ndarray, fill: int):
    """Each row's kept members in order, padded with ``fill``, and each row's count."""
    counts = keep.sum(axis=1)
    out = np.full((members.shape[0], counts.max(initial=0)), fill, dtype=members.dtype)
    out[np.arange(out.shape[1]) < counts[:, None]] = members[keep]
    return out, counts


def _inside(x_ext, members, lower, upper) -> np.ndarray:
    """Which padded members lie in their row's closed box; :meth:`Box.contains` uses it too."""
    out = np.ones(members.shape, dtype=bool)
    for k in range(x_ext.shape[1]):
        pts = x_ext[members, k]
        out &= (pts >= lower[:, k, None]) & (pts <= upper[:, k, None])
    return out


def _grow_branches(x, x_pts, phi, holdouts, decidings, keys, cfg: ForestConfig):
    """Grow the branch containing ``x`` in every tree, one level at a time.

    ``holdouts`` / ``decidings`` are ``(n_trees, .)`` tables of each tree's
    half positions into ``x_pts`` / ``phi``, ``keys`` the trees' uint64 keys.
    When every point lies in the root box, ``decidings`` is the root's member
    table as given (a view of the subsample table), not a compacted copy.
    Each level draws every active node's eligible dimensions in one call
    (:func:`_dim_masks`, keyed by its tree and the level), then splits all nodes
    together (:func:`_split_level`); a tree stops when fewer than
    ``2 * min_child`` deciding members remain in its node or no split is
    feasible.  Each tree carries its node's last Newton iterate to the next
    level, where the child takes at most ``GROWTH_STEPS`` steps from it; the
    root, and the child of a node whose solve failed, start from zero and
    are solved to ``GROWTH_TOL``.

    Returns ``(leaf, counts, lower, upper, levels)``: tree ``t``'s
    leaf holdout members ``leaf[t, :counts[t]]``, its leaf box in row ``t`` of
    the bounds, and per level the split arrays (tree, dim, threshold, n_parent, n_left).
    """
    x = np.asarray(x, dtype=float)
    n, d = x_pts.shape
    if x.shape != (d,) or cfg.dim != d:
        raise ValueError(f"query point of shape {x.shape} and {cfg.dim}-D initial parent node "
                         f"do not match {d}-D covariates")
    if not cfg.initial_parent.contains(x):
        raise ValueError("query point lies outside the initial parent node")
    n_trees = len(decidings)
    x_ext, phi_ext = _with_sentinel(x_pts, phi)
    root = cfg.initial_parent
    lower, upper = np.tile(root.lower, (n_trees, 1)), np.tile(root.upper, (n_trees, 1))
    levels = []
    theta = np.zeros((n_trees, cfg.basis_order))  # each tree's last SOLVED or CAPPED iterate, or 0

    # when every point lies in the root box, the deciding half is its member table, uncopied
    members, counts = decidings, np.full(n_trees, decidings.shape[1])
    if not root.contains(x_pts).all():
        members, counts = _compact(members, _inside(x_ext, members, lower, upper), n)
    trees = np.arange(n_trees)
    for level in itertools.count():
        live = np.flatnonzero(counts >= 2 * cfg.min_child)
        live = live[np.argsort(-counts[live], kind="stable")]
        if not np.array_equal(live, np.arange(trees.size)):  # else keep the arrays, uncopied
            trees, members, counts = trees[live], members[live], counts[live]
        if trees.size == 0:
            break
        members = members[:, :counts[0]]
        dim, thr, theta[trees] = _split_level(x_ext, phi_ext, members, counts,
                                              _dim_masks(keys[trees], level, d), theta[trees], cfg)

        if not (split := dim >= 0).all():  # else keep the arrays, uncopied
            trees, members, counts, dim, thr = (
                a[split] for a in (trees, members, counts, dim, thr))
        go_left = x[dim] <= thr
        keep = (x_ext[members, dim[:, None]] <= thr[:, None]) == go_left[:, None]
        keep &= np.arange(members.shape[1]) < counts[:, None]
        upper[trees[go_left], dim[go_left]] = thr[go_left]
        lower[trees[~go_left], dim[~go_left]] = np.nextafter(thr[~go_left], np.inf)
        parent = counts
        members, counts = _compact(members, keep, n)
        levels.append((trees, dim, thr, parent, np.where(go_left, counts, parent - counts)))

    leaf, leaf_counts = _compact(holdouts, _inside(x_ext, holdouts, lower, upper), n)
    return leaf, leaf_counts, lower, upper, levels


def _positions(values, size: int, name: str) -> np.ndarray:
    """``values`` as a 1-D intp array of integers in ``[0, size)``; ``ValueError`` otherwise."""
    pos = np.asarray(values)
    if pos.ndim != 1 or pos.size and not np.issubdtype(pos.dtype, np.integer):
        raise ValueError(f"{name} must be a flat sequence of integers, not {values!r}")
    if pos.size and (pos.min() < 0 or pos.max() >= size):
        raise ValueError(f"{name} must lie in [0, {size}), not {pos.min()}..{pos.max()}")
    return pos.astype(np.intp)


def best_split(x_members: np.ndarray, y_members: np.ndarray, pivot,
               cfg: ForestConfig, allowed_dims):
    """Search the threshold grid for the feasible split with the highest score.

    For each allowed dimension, ``cfg.n_grid`` equally spaced interior
    thresholds between the members' min and max coordinate are scored; a
    candidate is feasible only when both children keep at least
    ``max(min_fraction * m, min_child)`` members.  Ties break toward the
    lexicographically smallest (dimension, threshold): the split is the
    smallest candidate whose score is at least ``best - 1e-12 |best|``, so
    two candidates that give the same partition, whose scores differ only by
    summation roundoff, never leave the choice to roundoff.  Pseudo-outcomes are
    derived from ``pivot``: a :class:`~forestdens.expfam.ThetaSolution`
    gives the influence residuals, a
    :class:`~forestdens.expfam.MomentVector` the centered basis values, both
    in the basis ``default_basis(cfg.basis_order)``.

    Returns ``(dim, threshold)`` or ``None`` when no candidate is feasible.
    This is the one-node case of the split search used by branch growth.
    ``ValueError`` if the outcomes and covariate rows differ in number or an
    allowed dimension is not an integer in ``[0, d)``.
    """
    members = Dataset(y_members, x_members)
    mask = np.zeros((1, members.dim), dtype=bool)
    mask[0, _positions(allowed_dims, members.dim, "allowed_dims")] = True
    spec = default_basis(cfg.basis_order)
    if isinstance(pivot, expfam.ThetaSolution):
        dens, center, _ = expfam._row_states(pivot.theta[None, :], spec)
        vinv = expfam._inverse_covariances(dens, center, spec)
    elif isinstance(pivot, expfam.MomentVector):
        center, vinv = pivot.mu[None, :], None
    else:
        raise TypeError("pivot must be a ThetaSolution or a MomentVector")
    x_ext, phi_ext = _with_sentinel(members.x, basis_matrix(spec, members.y))
    if not mask.any():
        return None
    dim, thr = _node_splits(x_ext, phi_ext, np.arange(members.n)[None, :],
                            np.array([members.n]), mask, center, vinv, cfg)
    return None if dim[0] < 0 else (int(dim[0]), float(thr[0]))


def grow_from_halves(x, y_sub: np.ndarray, x_sub: np.ndarray, cfg: ForestConfig,
                     holdout_pos, deciding_pos, key) -> BranchResult:
    """Grow the branch containing ``x`` from an explicit half split.

    ``holdout_pos`` / ``deciding_pos`` are positions into the subsample
    arrays, and the result's members are such positions too.  Splits consult
    only deciding-half members inside the current node; growth stops when
    fewer than ``2 * min_child`` of them remain or no feasible split exists.
    ``key`` is the tree key, or a ``Generator`` that draws one, and keys the
    eligible dimensions drawn at each level.  Exposed so the half-split device
    can be enumerated exactly; this is the one-tree case of forest growth.
    ``ValueError`` if ``y_sub`` and ``x_sub`` differ in length, or a half
    holds a position outside the subsample, repeats one, or shares one with
    the other half.
    """
    sub = Dataset(y_sub, x_sub)
    holdout = _positions(holdout_pos, sub.n, "holdout_pos")
    deciding = _positions(deciding_pos, sub.n, "deciding_pos")
    for name, pos in (("holdout_pos", holdout), ("deciding_pos", deciding)):
        if np.unique(pos).size != pos.size:
            raise ValueError(f"{name} repeats a position")
    if np.intersect1d(holdout, deciding).size:
        raise ValueError("the halves share a position, which breaks honesty")
    phi_sub = basis_matrix(default_basis(cfg.basis_order), sub.y)
    leaf, count, lower, upper, levels = _grow_branches(
        x, sub.x, phi_sub, holdout[None], deciding[None], np.array([_key(key)]), cfg)
    splits = tuple(SplitRecord(d, t, m, k, m - k) for level in levels
                   for _, d, t, m, k in zip(*(a.tolist() for a in level)))
    return BranchResult(Box(lower[0], upper[0]), leaf[0, :count[0]], deciding, splits)


def grow_branch(x, y_sub: np.ndarray, x_sub: np.ndarray, cfg: ForestConfig,
                key) -> BranchResult:
    """Draw the half-split device, then grow the branch containing ``x``.

    ``key`` is the tree key, or a ``Generator`` that draws one; the key
    decides the half split and every level's eligible dimensions.  The
    result's members are positions into ``y_sub`` / ``x_sub``.
    """
    key = _key(key)
    holdout_pos, deciding_pos = split_half(np.arange(np.asarray(y_sub).size), key)
    return grow_from_halves(x, y_sub, x_sub, cfg, holdout_pos, deciding_pos, key)


def _tree_streams(seed: int, n_trees: int):
    """The master stream, which draws the subsamples, and the ``(n_trees,)`` uint64 tree keys.

    The master is spawned child 0 of the seed, whatever the tree count.
    Tree ``t``'s key is output ``t + 1`` of the SplitMix64 sequence started
    at a key of child 1, so it depends only on (seed, t).
    """
    master, keyed = np.random.SeedSequence(seed).spawn(2)
    return (np.random.default_rng(master),
            _splitmix(keyed.generate_state(1, np.uint64), n_trees)[0])


def per_tree_means(leaf: np.ndarray, counts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per-tree holdout basis means; empty leaves contribute zero rows.

    Tree ``t``'s members are ``leaf[t, :counts[t]]``, row indices of ``phi``;
    the rest of the row is padding, the sentinel index ``len(phi)``.  The rows
    come from :func:`_counted`, whose count column makes any J sum in member
    order, so each mean is the same at any padded width, and for J >= 2
    bit-identical to ``phi[members].mean(axis=0)``.
    """
    ext, sums = _counted(phi), np.empty((leaf.shape[0], phi.shape[1]))
    for lo, hi in expfam._row_chunks(leaf.shape[0], 4 * leaf.shape[1] * ext.shape[1]):
        sums[lo:hi] = ext[leaf[lo:hi]].sum(axis=1)[:, :-1]
    return sums / np.maximum(counts, 1)[:, None]


def grow_forest(x, data: Dataset, cfg: ForestConfig):
    """Draw the subsamples and grow every tree's branch containing ``x``.

    ``x``, ``cfg.initial_parent`` and ``data`` must have one dimension ``d``
    (``ValueError`` otherwise).  ``cfg.seed`` is the only source of
    randomness, and ``default_basis(cfg.basis_order)`` the only basis.
    Returns ``(weights, per_tree_h, subsamples)``: the similarity weights,
    each tree's holdout basis mean (:func:`per_tree_means`) and the
    read-only ``(n_trees, subsample_size)`` subsample table, in tree order.
    Row ``t`` holds row ``t`` of :func:`draw_subsamples`' table as
    :func:`split_half` divides it under tree ``t``'s key: the deciding half,
    then the holdout half, each sorted.  Each weight adds its trees' shares in tree order.
    """
    master, keys = _tree_streams(cfg.seed, cfg.n_trees)
    subsamples, s = draw_subsamples(data.n, cfg, master), cfg.subsample_size
    for lo, hi in expfam._row_chunks(cfg.n_trees, 4 * s):
        # a stable sort of a sorted row's holdout flags: its deciding half first, both sorted
        order = np.argsort(~_half_masks(keys[lo:hi], s), axis=1, kind="stable")
        subsamples[lo:hi] = np.take_along_axis(subsamples[lo:hi], order, axis=1)
    subsamples.setflags(write=False)
    phi = basis_matrix(default_basis(cfg.basis_order), data.y)
    leaf, counts, *_ = _grow_branches(x, data.x, phi, subsamples[:, s // 2:],
                                      subsamples[:, :s // 2], keys, cfg)
    share = 1.0 / (cfg.n_trees * np.maximum(counts, 1))
    w = np.bincount(leaf[np.arange(leaf.shape[1]) < counts[:, None]],
                    weights=np.repeat(share, counts), minlength=data.n)
    return WeightVector(w), per_tree_means(leaf, counts, phi), subsamples


def weights(x, data: Dataset, cfg: ForestConfig) -> WeightVector:
    """Similarity weights of every observation for the query point.

    Each tree spreads mass ``1 / n_trees`` uniformly over its holdout
    members in the leaf containing ``x`` (zero if the leaf is empty), so
    the weights sum to one exactly when every leaf is nonempty.
    Deterministic given ``cfg.seed``: the first result of :func:`grow_forest`.
    """
    return grow_forest(x, data, cfg)[0]


def mu_hat(weight_vector: WeightVector, data: Dataset,
           spec: BasisSpec) -> expfam.MomentVector:
    """Weighted basis average of the outcomes."""
    w = weight_vector.weights
    if w.sum() <= 0.0:
        raise AllWeightsZero("every tree produced an empty leaf")
    return expfam.MomentVector(basis_matrix(spec, data.y).T @ w)


def _retired(*args, **kwargs):
    """The paper's delete-group jackknife, retired: every fit's SE comes from ``std_error``."""
    raise NotImplementedError("the delete-group jackknife is retired; use std_error")


# held only because the traced benchmark wraps both names; they are in no __all__
se_subsample_plan = sigma_fe = _retired


def infinitesimal_jackknife(tree_subsamples, per_tree_h: np.ndarray,
                            n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bias-corrected infinitesimal-jackknife parts, two ``(J, J)`` matrices.

    With ``dev_t = h_t - mean_t h_t`` tree ``t``'s centred holdout mean and
    ``tree_subsamples`` the ``(B, s)`` table of the trees' index sets, the
    covariance of observation ``i``'s inclusion with the tree means is
    ``C_i = (1/B) sum_t 1{i in subsample t} dev_t``, and the returned
    ``(raw, corr)`` are

        raw  = (n - 1)/n * (n/(n - s))^2 * C^T C,
        corr = (n - 1) s / ((n - s) B) * dev^T dev / B,

    the subsampling infinitesimal jackknife and its Monte Carlo bias
    (Wager, Hastie & Efron 2014; Wager & Athey 2018).  For a delta-method
    row ``t`` the variance estimate is ``t.raw.t - t.corr.t``; see
    :func:`debiased_variance`.  ``ValueError`` names the argument unless the
    table is a nonempty 2-D integer array of ``len(per_tree_h)`` rows, its
    indices lie in ``[0, n)`` and ``s < n``.

    The trees go in blocks of the one batch sizer
    (:func:`~forestdens.expfam._row_chunks`), ``J s`` elements a tree, and each
    block adds its trees' sums to ``C`` in one of two ways, both exact tree by
    tree.  While ``n <= J s``, a block of ``k`` trees builds its ``(k, n)``
    incidence, entry ``(t, i)`` the count of ``i`` in row ``t``, with one
    ``bincount`` (``k n <= k J s`` entries, the block's share of the sizer)
    and adds one GEMM, ``dev_block^T @ incidence``.  That costs ``J k n``
    multiply-adds, so above ``n = J s`` each block adds one weighted
    ``bincount`` per basis column (``J k s`` scatter-adds) instead; the two
    cost the same near ``n = J s`` (the README gives the timings).  No
    temporary grows with ``B`` beyond the deviations.

    Bits: a ``bincount`` sums a block's trees in order, and so does OpenBLAS's
    GEMM while the block fits its K panel: 384 trees on its SkylakeX kernel,
    256 on its Haswell and SandyBridge ones (OpenBLAS 0.3.31; the GEMM path
    needs ``J >= 2``, as ``s < n``).  Within the panel a block's sum has the
    same bits on either path, and ``C_i`` is a sum of per-block sums: the
    single pass's bits while ``J B s <= BATCH_ELEMENTS`` (one block) and the
    block fits the panel, equal up to roundoff otherwise.  Blocks hold
    ``BATCH_ELEMENTS // (J s)`` trees, over 256 when ``J s < 1024``.
    """
    table, h = np.asarray(tree_subsamples), np.asarray(per_tree_h, dtype=float)
    if table.ndim != 2 or 0 in table.shape:
        raise ValueError(f"tree_subsamples must be a nonempty 2-D table, not shape {table.shape}")
    if h.ndim != 2 or h.shape[0] != table.shape[0]:
        raise ValueError(f"per_tree_h of shape {h.shape} must have one row per "
                         f"tree_subsamples row ({table.shape[0]})")
    b, s = table.shape
    if s >= n:
        raise ValueError(f"tree_subsamples rows hold s = {s} indices, not fewer than n = {n}")
    # read as unsigned, a negative index is above every valid one: one max pass checks both ends
    if table.dtype.kind not in "iu" or table.view(f"u{table.itemsize}").max() >= n:
        raise ValueError(f"tree_subsamples must hold integer indices in [0, {n})")
    # shifting by the first row first makes equal rows centre to exact zeros
    dev = h - h[0]
    dev -= dev.mean(axis=0)
    j = h.shape[1]
    blocks = expfam._row_chunks(b, j * s)
    index = np.empty((blocks[0][1], s), dtype=np.intp)  # writable: bincount copies read-only
    weights = np.ones(index.shape)
    offsets = np.arange(len(index))[:, None] * n  # row t's entries count in row t of the block
    ct = np.zeros((j, n))  # C^T; BLAS and bincount sums start at +0.0, so 0.0 + sum keeps their bits
    for lo, hi in blocks:
        k = hi - lo
        if n <= j * s:
            # the indices were checked to lie in [0, n), so the cast to intp keeps them
            np.add(table[lo:hi], offsets[:k], out=index[:k], dtype=np.intp, casting="unsafe")
            ct += dev[lo:hi].T @ np.bincount(index[:k].ravel(), weights=weights[:k].ravel(),
                                             minlength=k * n).reshape(k, n)
            continue
        index[:k] = table[lo:hi]
        for col in range(j):
            weights[:k] = dev[lo:hi, col, None]
            ct[col] += np.bincount(index[:k].ravel(), weights=weights[:k].ravel(), minlength=n)
    c = ct.T / b
    raw = (n - 1) / n * (n / (n - s)) ** 2 * (c.T @ c)
    corr = (n - 1) * s / ((n - s) * b) * (dev.T @ dev) / b
    return raw, corr


def debiased_variance(raw: float, corr: float, n_trees: int) -> float:
    """Posterior mean of the variance ``raw - corr``; finite and positive by construction.

    ``raw - corr`` is a Monte Carlo estimate over ``n_trees`` trees and can
    be negative when the trees are few.  It is treated as a normal draw
    around the true variance V >= 0 with noise
    ``sigma = max(raw, corr) * sqrt(2 / n_trees)``, the spread of a variance
    estimated from ``n_trees`` draws, so the tree count is the noise count.
    Under a flat prior on V >= 0 the posterior mean is

        m + sigma * phi(m / sigma) / Phi(m / sigma),   m = raw - corr,

    grf's ``ObjectiveBayesDebiaser`` (Athey, Tibshirani & Wager 2019).  It
    is 0 only when ``raw = corr = 0``.  Below ``m / sigma = -5`` the sum
    ``m / sigma + phi / Phi`` comes from Laplace's continued fraction of the
    Mills ratio: it does not cancel, and it stays finite where ``exp`` and
    ``erfc`` underflow to 0 / 0 (below about -37).
    """
    m = raw - corr
    sigma = max(raw, corr) * math.sqrt(2.0 / n_trees)
    if sigma == 0.0:
        return 0.0
    r = m / sigma
    if r >= -5.0:
        phi = math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
        return m + sigma * phi / (0.5 * math.erfc(-r / math.sqrt(2.0)))
    # r + phi(r) / Phi(r) = 1 / (x + 2 / (x + 3 / (x + ...))) with x = -r
    x = -r
    tail = x
    for k in range(40, 1, -1):
        tail = x + k / tail
    return sigma / tail
