"""Honest branch growth and similarity weights.

Grows a handful of trees around a query point, shows the leaf boxes and
the holdout members that receive weight, and checks the simplex property
of the combined weight vector.

Run:  python demos/02_forest_weights.py
"""

import numpy as np

from forestdens import Dataset, ForestConfig, weights
from forestdens import forest

rng = np.random.default_rng(42)
n, d = 400, 2
data = Dataset(rng.random(n), rng.random((n, d)))
x_query = np.array([0.5, 0.5])

cfg = ForestConfig(subsample_size=80, n_trees=6, basis_order=3,
                   initial_parent=[[0.0, 0.0], [1.0, 1.0]],
                   min_child=5, min_fraction=0.05, scheme="mu", seed=7)

# Replay each tree from its key, which keys its half split and its eligible
# dimensions, to inspect each branch individually.
master, tree_keys = forest._tree_streams(cfg.seed, cfg.n_trees)
subsamples = forest.draw_subsamples(n, cfg, master)
for t, idx in enumerate(subsamples):
    res = forest.grow_branch(x_query, data.y[idx], data.x[idx], cfg, tree_keys[t])
    lo = np.round(res.leaf_box.lower, 3)
    hi = np.round(res.leaf_box.upper, 3)
    print(f"tree {t}: {len(res.splits)} splits, leaf box {lo}..{hi}, "
          f"{res.holdout_members.size} holdout members")
    overlap = set(res.holdout_members) & set(res.split_members)
    assert not overlap, "honesty: holdout never influences splits"

w = weights(x_query, data, cfg)
print(f"\nweights: {np.count_nonzero(w.weights)} observations share mass "
      f"{w.total:.6f}")
print("largest weights:", np.round(np.sort(w.weights)[-5:], 4))

# Determinism: a rerun with the same seed gives bit-identical weights.
w_again = weights(x_query, data, cfg)
print("bit-identical rerun:", np.array_equal(w.weights, w_again.weights))
