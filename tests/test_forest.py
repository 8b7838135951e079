"""Forest growth, splitting, weighting, and the jackknife variance parts.

The split search is checked against a from-scratch exhaustive scan; the
weight combination rule is checked by replaying the documented per-tree
key derivation and applying the leaf-mass formula by hand.
"""

import math
import tracemalloc
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from forestdens import cli, expfam
from forestdens.basis import basis_matrix, default_basis
from forestdens.errors import AllWeightsZero, NonConvergence
from forestdens.forest import (Box, Dataset, ForestConfig, WeightVector,
                               best_split, draw_subsamples, grow_branch,
                               grow_from_halves, mu_hat, per_tree_means,
                               split_half, weights)
from forestdens import forest as forest_mod


def unit_box(d):
    return [[0.0] * d, [1.0] * d]


def make_config(**kw):
    defaults = dict(subsample_size=40, n_trees=4, basis_order=3,
                    initial_parent=unit_box(2), min_child=4,
                    min_fraction=0.05, scheme="mu", n_grid=16, seed=0)
    defaults.update(kw)
    return ForestConfig(**defaults)


def random_dataset(rng, n, d):
    return Dataset(rng.random(n), rng.random((n, d)))


class TestBox:
    def test_contains_closed_bounds(self):
        box = Box([0.0, 0.0], [1.0, 0.5])
        assert box.contains(np.array([0.0, 0.5]))
        assert not box.contains(np.array([0.0, 0.51]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    @pytest.mark.parametrize("points", [[0.7], [0.2, 0.2, 0.9], [[0.2, 0.2, 0.9]]])
    def test_rejects_points_of_another_dimension(self, points):
        with pytest.raises(ValueError, match="dimension"):
            Box([0.0, 0.0], [1.0, 0.5]).contains(np.array(points))

    @pytest.mark.parametrize("lower, upper", [([np.nan, 0.0], [1.0, 1.0]),
                                              ([0.0, 0.0], [1.0, np.nan])])
    def test_rejects_nan_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="lower <= upper"):
            Box(lower, upper)


class TestPoissonDimLaw:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_draws_are_nonempty_ascending_and_in_range(self, d, seed):
        # growth turns these sets into its scoring rows without sorting or checking them
        rng = np.random.default_rng(seed)
        for _ in range(5):
            key = rng.integers(2 ** 64, dtype=np.uint64)
            dims = np.flatnonzero(forest_mod._dim_masks(np.array([key]), 0, d)[0])
            assert 1 <= dims.size <= d
            assert np.all(np.diff(dims) > 0)
            assert 0 <= dims[0] and dims[-1] < d


def within_3se(count, total, p):
    return abs(count / total - p) <= 3 * math.sqrt(p * (1 - p) / total)


class TestKeyedDraws:
    """The laws of the keyed draws, checked on the batched functions growth calls."""

    N = 60_000
    keys = forest_mod._tree_streams(2026, N)[1]

    def test_splitmix64_known_answer(self):
        # the published SplitMix64 outputs from state 0
        assert forest_mod._splitmix(np.zeros(1, np.uint64), 3)[0].tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_draws_raise_no_overflow_warning(self):
        # the hash wraps mod 2^64 on purpose; as under -W error, a warning would raise
        top = np.uint64(2 ** 64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forest_mod._tree_streams(2 ** 63, 3)
            forest_mod._dim_masks(np.array([top]), 0, 12)
            split_half(np.arange(9), top)
            forest_mod._dim_masks(np.array([top, 0], dtype=np.uint64), 7, 4)

    @pytest.mark.parametrize("d", [4, 12])
    def test_set_size_law(self, d):
        pois = [math.exp(-5.0) * 5.0 ** i / math.factorial(i) for i in range(d)]
        pmf = [pois[0] + pois[1], *pois[2:d], 1.0 - sum(pois)]
        k = forest_mod._dim_masks(self.keys, 3, d).sum(axis=1)
        counts = np.bincount(k, minlength=d + 1)
        assert counts[0] == 0
        for size in range(1, d + 1):
            assert within_3se(counts[size], self.N, pmf[size - 1]), size

    def test_sets_uniform_given_their_size(self):
        d = 5
        mask = forest_mod._dim_masks(self.keys, 0, d)
        k = mask.sum(axis=1)
        for size in range(1, d):
            rows = mask[k == size]
            for a in range(d):
                assert within_3se(rows[:, a].sum(), rows.shape[0], size / d), (size, a)
                for b in range(a + 1, d):
                    both = (rows[:, a] & rows[:, b]).sum()
                    assert within_3se(both, rows.shape[0], size * (size - 1) / (d * (d - 1)))

    def test_half_split_uniform_over_subsets(self):
        from itertools import combinations
        mask = forest_mod._half_masks(self.keys, 6)
        assert np.all(mask.sum(axis=1) == 3)
        code = mask @ (1 << np.arange(6))
        counts = np.bincount(code, minlength=64)
        for subset in combinations(range(6), 3):
            assert within_3se(counts[sum(1 << i for i in subset)], self.N, 1 / 20), subset

    def test_levels_of_one_key_uncorrelated(self):
        d = 4
        zero, one = (forest_mod._dim_masks(self.keys, level, d) for level in (0, 1))
        bound = 3 / math.sqrt(self.N)
        assert abs(np.corrcoef(zero.sum(axis=1), one.sum(axis=1))[0, 1]) <= bound
        for a in range(d):
            for b in range(d):
                assert abs(np.corrcoef(zero[:, a], one[:, b])[0, 1]) <= bound, (a, b)

    def test_one_row_api_is_a_row_of_the_batch(self):
        keys = self.keys[:50]
        halves = forest_mod._half_masks(keys, 11)
        for i, key in enumerate(keys):
            holdout, deciding = split_half(np.arange(11), key)
            np.testing.assert_array_equal(deciding, np.flatnonzero(halves[i]))
            np.testing.assert_array_equal(holdout, np.flatnonzero(~halves[i]))
        # a Generator stands for the one key it draws
        key = np.random.default_rng(3).integers(2 ** 64, dtype=np.uint64)
        for a, b in zip(split_half(np.arange(12), np.random.default_rng(3)),
                        split_half(np.arange(12), key)):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            split_half(np.arange(4), 1.5)
        with pytest.raises(OverflowError):
            split_half(np.arange(4), -1)

    def test_tree_draws_depend_only_on_seed_and_index(self):
        rng = np.random.default_rng(41)
        data = random_dataset(rng, 150, 3)
        grown = [forest_mod.grow_forest(np.full(3, 0.5), data, ForestConfig(
                     subsample_size=40, n_trees=n_trees, basis_order=4, initial_parent=unit_box(3),
                     min_child=3, scheme="theta", seed=8)) for n_trees in (40, 20)]
        (_, h40, sub40), (_, h20, sub20) = grown
        assert h40[:20].tobytes() == h20.tobytes()
        np.testing.assert_array_equal(sub40[:20], sub20)

    def test_subsample_table_is_the_master_stream(self):
        # the subsamples come from spawned child 0 of the seed, as before the
        # trees' draws were keyed
        cfg = ForestConfig(subsample_size=30, n_trees=40, basis_order=4,
                           initial_parent=unit_box(4), min_child=2, seed=3)
        master, _ = forest_mod._tree_streams(cfg.seed, cfg.n_trees)
        assert sha256(draw_subsamples(120, cfg, master).tobytes()).hexdigest() == (
            "137af015b2417d26607ea71e1cc079748bf5972a4015a2267230f37e7b05a713")


class TestDrawSubsamples:
    def test_rejects_subsample_equal_to_sample(self):
        cfg = make_config(subsample_size=10, min_child=2)
        with pytest.raises(ValueError):
            draw_subsamples(10, cfg, np.random.default_rng(0))

    def test_cardinality_and_distinctness(self):
        cfg = ForestConfig(subsample_size=4, n_trees=4, basis_order=2,
                           initial_parent=unit_box(1), min_child=2, seed=0)
        sets = draw_subsamples(10, cfg, np.random.default_rng(1))
        assert len(sets) == 4
        for s in sets:
            assert s.size == 4
            assert np.unique(s).size == 4

    def test_inclusion_frequency(self):
        cfg = ForestConfig(subsample_size=4, n_trees=10_000, basis_order=2,
                           initial_parent=unit_box(1), min_child=2, seed=0)
        sets = draw_subsamples(10, cfg, np.random.default_rng(2))
        hits = sum(0 in s for s in sets)
        p = 4 / 10
        se = np.sqrt(p * (1 - p) / 10_000)
        assert abs(hits / 10_000 - p) <= 3 * se


class TestSplitHalf:
    def test_even_sizes(self):
        i0, i1 = split_half(np.arange(4), np.random.default_rng(0))
        assert i1.size == 2 and i0.size == 2
        assert np.array_equal(np.sort(np.concatenate([i0, i1])), np.arange(4))

    def test_odd_sizes_floor_to_deciding_half(self):
        i0, i1 = split_half(np.arange(5), np.random.default_rng(0))
        assert i1.size == 2 and i0.size == 3

    def test_uniform_over_subsets(self):
        rng = np.random.default_rng(3)
        counts = {}
        for _ in range(10_000):
            _, i1 = split_half(np.arange(4), rng)
            counts[tuple(i1)] = counts.get(tuple(i1), 0) + 1
        assert len(counts) == 6
        se = np.sqrt((1 / 6) * (5 / 6) / 10_000)
        for freq in counts.values():
            assert abs(freq / 10_000 - 1 / 6) <= 3 * se


class TestSubsampleTable:
    """``grow_forest``'s table holds each tree's deciding half, then its holdout
    half, and growth holds no second copy of it."""

    @pytest.mark.parametrize("batch", [None, 100])  # 100: one tree per reordered chunk
    def test_row_is_the_drawn_rows_deciding_then_holdout_half(self, monkeypatch, batch):
        if batch is not None:
            monkeypatch.setattr(expfam, "BATCH_ELEMENTS", batch)
        rng = np.random.default_rng(44)
        data = random_dataset(rng, 150, 3)
        cfg = ForestConfig(subsample_size=41, n_trees=30, basis_order=3,
                           initial_parent=unit_box(3), min_child=3, scheme="theta", seed=9)
        table = forest_mod.grow_forest(np.full(3, 0.5), data, cfg)[2]
        master, keys = forest_mod._tree_streams(cfg.seed, cfg.n_trees)
        drawn = draw_subsamples(data.n, cfg, master)
        assert table.shape == drawn.shape and not table.flags.writeable
        for t in range(cfg.n_trees):
            holdout, deciding = split_half(drawn[t], keys[t])
            assert deciding.size == 20  # floor(41 / 2)
            np.testing.assert_array_equal(table[t], np.concatenate([deciding, holdout]))
            np.testing.assert_array_equal(np.sort(table[t]), drawn[t])

    @pytest.mark.parametrize("batch", [None, 2 * 2 * 60])  # one pass, or blocks of 2 trees
    def test_jackknife_bytes_do_not_depend_on_the_row_order(self, monkeypatch, batch):
        # each tree adds its deviation to each of its members once, in tree order
        if batch is not None:
            monkeypatch.setattr(expfam, "BATCH_ELEMENTS", batch)
        rng = np.random.default_rng(45)
        data = random_dataset(rng, 200, 2)
        cfg = ForestConfig(subsample_size=60, n_trees=25, basis_order=2,
                           initial_parent=unit_box(2), min_child=4, seed=12)
        _, h, table = forest_mod.grow_forest(np.full(2, 0.5), data, cfg)
        ordered = np.sort(table, axis=1)
        assert not np.array_equal(ordered, table)
        for a, b in zip(forest_mod.infinitesimal_jackknife(table, h, data.n),
                        forest_mod.infinitesimal_jackknife(ordered, h, data.n)):
            assert a.tobytes() == b.tobytes()

    def test_growth_holds_the_table_once(self):
        # B = 4000 trees of s = 200 (the reference fit has 2240): the table's two
        # halves gathered apart would be 6.4 MB, and one (B, Q) array of Newton
        # state, Q = 64 quadrature nodes, 2 MB.  J = 4 keeps the level's
        # (B, J, J) inverse covariances at a quarter of that.
        b, s, n, j = 4000, 200, 1000, 4
        rng = np.random.default_rng(43)
        x = rng.random((n, 4))
        data = Dataset(rng.beta(0.6 + 2 * x[:, 0], 0.8 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=s, n_trees=b, basis_order=j,
                           initial_parent=unit_box(4), min_child=10, scheme="theta", seed=5)
        tracemalloc.start()
        try:
            table = forest_mod.grow_forest(np.full(4, 0.5), data, cfg)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (b, s)
        # beyond the table: a level's (B, s / 2) member positions and its
        # compacted children, and chunks of BATCH_ELEMENTS-capped temporaries
        members = 8 * b * (s // 2)
        assert peak < table.nbytes + 2 * members + 3 * 8 * expfam.BATCH_ELEMENTS


def delta_tilde(rho_by_child) -> float:
    """Heterogeneity score of a candidate split, the brute-force reference.

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


class TestDeltaTilde:
    def test_zero_for_zero_pseudo_outcomes(self):
        assert delta_tilde((np.zeros((3, 2)), np.zeros((2, 2)))) == 0.0

    def test_hand_case(self):
        c1 = np.array([[1.0], [1.0]])
        c2 = np.array([[-2.0]])
        assert delta_tilde((c1, c2)) == pytest.approx(6.0, abs=1e-14)

    def test_rejects_empty_child(self):
        with pytest.raises(ValueError):
            delta_tilde((np.zeros((0, 2)), np.ones((2, 2))))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, m1, m2, j, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        c1 = rng.standard_normal((m1, j))
        c2 = rng.standard_normal((m2, j))
        base = delta_tilde((c1, c2))
        perm1 = rng.permutation(m1)
        perm2 = rng.permutation(m2)
        assert delta_tilde((c1[perm1], c2[perm2])) == pytest.approx(base, rel=1e-12)


def brute_force_split(x_members, rho, cfg, allowed_dims):
    """Independent exhaustive scan over the same candidate grid."""
    m = x_members.shape[0]
    bound = max(cfg.min_fraction * m, cfg.min_child)
    best, best_score = None, -np.inf
    for d in sorted(int(v) for v in allowed_dims):
        lo, hi = x_members[:, d].min(), x_members[:, d].max()
        if not hi > lo:
            continue
        for thr in np.linspace(lo, hi, cfg.n_grid + 2)[1:-1]:
            left = x_members[:, d] <= thr
            nl, nr = int(left.sum()), int((~left).sum())
            if nl < bound or nr < bound:
                continue
            score = delta_tilde((rho[left], rho[~left]))
            if score > best_score:
                best, best_score = (d, float(thr)), score
    return best, best_score


class TestBestSplit:
    def test_separated_clusters_split_on_first_dim(self):
        rng = np.random.default_rng(4)
        m = 30
        x = rng.random((m, 2))
        x[:15, 0] = rng.uniform(0.0, 0.3, 15)
        x[15:, 0] = rng.uniform(0.7, 1.0, 15)
        y = np.concatenate([rng.uniform(0.05, 0.15, 15), rng.uniform(0.85, 0.95, 15)])
        cfg = make_config(basis_order=1, min_child=4)
        spec = default_basis(1)
        pivot = expfam.MomentVector(basis_matrix(spec, y).mean(axis=0))
        got = best_split(x, y, pivot, cfg, [0, 1])
        assert got is not None
        dim, thr = got
        assert dim == 0
        assert 0.3 < thr < 0.7
        rho = basis_matrix(spec, y) - pivot.mu
        expected, _ = brute_force_split(x, rho, cfg, [0, 1])
        assert got == expected

    @pytest.mark.parametrize("order", [2, 8])
    @pytest.mark.parametrize("pivot_kind", ["mu", "theta"])
    def test_matches_brute_force_on_random_instances(self, pivot_kind, order):
        rng = np.random.default_rng(5)
        spec = default_basis(order)
        cfg = make_config(basis_order=order, min_child=3, n_grid=8)
        for i in range(50):
            # about 4 J members keep the solve of the mean clear of the box at J = 8
            m = rng.integers(4 * order, 4 * order + 22)
            x = rng.random((m, 3))
            y = rng.random(m)
            dims = rng.choice(3, size=rng.integers(1, 4), replace=False)
            if i % 5 == 0:
                # no spread: each threshold leaves one child empty, a 0/0 score
                x[:, dims[0]] = x[0, dims[0]]
            phi = basis_matrix(spec, y)
            if pivot_kind == "mu":
                pivot = expfam.MomentVector(phi.mean(axis=0))
                rho = phi - pivot.mu
            else:
                pivot = expfam.solve_theta(phi.mean(axis=0), spec)
                rho = expfam.row_pseudo_outcomes(pivot.theta, phi[None], spec)[0]
            got = best_split(x, y, pivot, cfg, dims)
            expected, exp_score = brute_force_split(x, rho, cfg, dims)
            assert got == expected
            if got is not None:
                left = x[:, got[0]] <= got[1]
                assert delta_tilde((rho[left], rho[~left])) == pytest.approx(exp_score)

    def test_identical_covariates_yield_none(self):
        cfg = make_config(basis_order=1, min_child=2)
        spec = default_basis(1)
        x = np.full((12, 2), 0.4)
        y = np.linspace(0.1, 0.9, 12)
        pivot = expfam.MomentVector(basis_matrix(spec, y).mean(axis=0))
        assert best_split(x, y, pivot, cfg, [0, 1]) is None

    def test_feasibility_bounds_on_random_instances(self):
        rng = np.random.default_rng(6)
        spec = default_basis(1)
        cfg = make_config(basis_order=1, min_child=3, min_fraction=0.2, n_grid=8)
        for _ in range(200):
            m = int(rng.integers(6, 25))
            x = rng.random((m, 2))
            y = rng.random(m)
            pivot = expfam.MomentVector(basis_matrix(spec, y).mean(axis=0))
            got = best_split(x, y, pivot, cfg, [0, 1])
            if got is None:
                continue
            dim, thr = got
            n_left = int((x[:, dim] <= thr).sum())
            bound = max(cfg.min_fraction * m, cfg.min_child)
            assert n_left >= bound and (m - n_left) >= bound

    def test_schemes_agree_at_zero_pivot(self):
        # a solved zero coefficient vector and a zero moment pivot induce the
        # same pseudo-outcomes, hence the same selected split
        rng = np.random.default_rng(7)
        spec = default_basis(3)
        cfg = make_config(basis_order=3, min_child=3)
        zero_theta = expfam.solve_theta(np.zeros(3), spec)
        zero_mu = expfam.MomentVector(np.zeros(3))
        for _ in range(20):
            m = int(rng.integers(8, 24))
            x = rng.random((m, 2))
            y = rng.random(m)
            a = best_split(x, y, zero_theta, cfg, [0, 1])
            b = best_split(x, y, zero_mu, cfg, [0, 1])
            assert a == b

    @pytest.mark.parametrize("pivot", ["mu", "theta"])
    def test_mirrored_covariate_ties_go_to_the_first_dim(self, pivot):
        # covariate 1 is 1 - covariate 0, so every dim-1 candidate has a dim-0
        # candidate with the same partition and a score equal up to roundoff;
        # the split must not be left to roundoff (it was on 1 in 3 datasets)
        spec = default_basis(3)
        cfg = make_config(basis_order=3, min_child=3)
        for seed in range(300):
            rng = np.random.default_rng(seed)
            x0 = rng.random(int(rng.integers(12, 40)))
            y = rng.random(x0.size)
            mean = basis_matrix(spec, y).mean(axis=0)
            p = expfam.MomentVector(mean) if pivot == "mu" else expfam.solve_theta(mean, spec)
            got = best_split(np.column_stack([x0, 1.0 - x0]), y, p, cfg, [0, 1])
            assert got is not None and got[0] == 0, seed


class TestGrowBranch:
    def test_no_split_when_min_child_large(self):
        rng = np.random.default_rng(8)
        y = rng.random(12)
        x = rng.random((12, 2))
        cfg = make_config(subsample_size=12, min_child=6)  # deciding half is 6 < 12
        res = grow_branch(np.array([0.5, 0.5]), y, x, cfg, np.random.default_rng(0))
        assert res.splits == ()
        np.testing.assert_array_equal(res.leaf_box.lower, [0.0, 0.0])
        np.testing.assert_array_equal(res.leaf_box.upper, [1.0, 1.0])
        assert res.holdout_members.size == 6  # ceil(12 / 2)

    def test_rejects_query_outside_parent(self):
        cfg = make_config(subsample_size=8, min_child=2,
                          initial_parent=[[0.4, 0.4], [0.6, 0.6]])
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            grow_branch(np.array([0.9, 0.5]), rng.random(8), rng.random((8, 2)),
                        cfg, np.random.default_rng(0))

    def test_honesty_and_constraints_on_random_instances(self):
        rng = np.random.default_rng(10)
        x_query = np.array([0.5, 0.5])
        for trial in range(60):
            s = int(rng.integers(12, 40))
            y = rng.random(s)
            x = rng.random((s, 2))
            cfg = make_config(subsample_size=s, min_child=int(rng.integers(2, 5)),
                              min_fraction=float(rng.uniform(0.05, 0.3)),
                              scheme=("mu", "theta")[trial % 2])
            res = grow_branch(x_query, y, x, cfg, np.random.default_rng(trial))
            # honesty: holdout disjoint from the deciding half
            assert not set(res.holdout_members) & set(res.split_members)
            # leaf contains the query point and sits inside the parent
            assert res.leaf_box.contains(x_query)
            assert np.all(res.leaf_box.lower >= 0.0) and np.all(res.leaf_box.upper <= 1.0)
            # child-count constraint on every executed split
            for rec in res.splits:
                bound = max(cfg.min_fraction * rec.n_parent, cfg.min_child)
                assert min(rec.n_left, rec.n_right) >= bound
                assert rec.n_left + rec.n_right == rec.n_parent
            # the loop never runs once the deciding members fall below 2k
            if res.splits:
                assert res.splits[0].n_parent >= 2 * cfg.min_child

    def test_nesting_boxes_shrink_toward_query(self):
        rng = np.random.default_rng(11)
        s = 60
        y = rng.random(s)
        x = rng.random((s, 2))
        cfg = make_config(subsample_size=s, min_child=3, min_fraction=0.05)
        res = grow_branch(np.array([0.5, 0.5]), y, x, cfg, np.random.default_rng(1))
        lo = np.zeros(2)
        hi = np.ones(2)
        for rec in res.splits:
            if 0.5 <= rec.threshold:
                assert rec.threshold <= hi[rec.dim]
                hi[rec.dim] = min(hi[rec.dim], rec.threshold)
            else:  # x > t: the closed box starts at the next double above t
                assert rec.threshold >= lo[rec.dim]
                lo[rec.dim] = max(lo[rec.dim], np.nextafter(rec.threshold, np.inf))
            assert lo[rec.dim] < hi[rec.dim]
        np.testing.assert_array_equal(res.leaf_box.lower, lo)
        np.testing.assert_array_equal(res.leaf_box.upper, hi)

    def test_points_on_a_threshold_follow_its_split(self):
        # with n_grid = 7 a node spanning [0, 1] has the thresholds k/8, so on
        # coordinates k/8 holdout points lie exactly on split thresholds.  On
        # a face of the leaf, a point on a right child's threshold (x > t) is
        # outside the leaf, and one on a left child's threshold (x <= t) inside
        rng = np.random.default_rng(33)
        data = Dataset(rng.random(400), rng.integers(0, 9, (400, 2)) / 8)
        cfg = make_config(subsample_size=200, n_trees=1, min_child=10, n_grid=7, seed=3)
        x_query = np.array([0.55, 0.45])
        w = weights(x_query, data, cfg).weights
        master, keys = forest_mod._tree_streams(cfg.seed, cfg.n_trees)
        idx = draw_subsamples(data.n, cfg, master)[0]
        res = grow_branch(x_query, data.y[idx], data.x[idx], cfg, keys[0])
        holdout = idx[np.setdiff1d(np.arange(idx.size), res.split_members)]
        # the last split on each side of each dimension is the leaf's face there
        faces = {(rec.dim, bool(x_query[rec.dim] <= rec.threshold)): rec.threshold
                 for rec in res.splits}
        seams = {True: 0, False: 0}
        for (dim, left), t in faces.items():
            for i in holdout[data.x[holdout, dim] == t]:
                elsewhere = data.x[i].copy()
                elsewhere[dim] = x_query[dim]
                if res.leaf_box.contains(elsewhere):  # the point is outside no other face
                    assert res.leaf_box.contains(data.x[i]) == left
                    assert (w[i] > 0.0) == left
                    seams[left] += 1
        assert seams == {True: 5, False: 9}


class TestOneTreeInputs:
    """The one-tree functions reject input that growth would misread."""

    S = 12
    rng = np.random.default_rng(41)
    y = rng.random(S)
    x = rng.random((S, 2))
    cfg = make_config(subsample_size=S, min_child=2)

    @pytest.mark.parametrize("holdout, deciding, match", [
        (range(0, 8), range(4, 12), "halves share a position"),  # once kept deciding member 6
        (range(0, 6), [6, 7, 8, 9, 10, 12], r"deciding_pos must lie in \[0, 12\)"),
        ([-1, 0, 1, 2, 3, 4], range(6, 12), r"holdout_pos must lie in \[0, 12\)"),
        ([0, 0, 1, 2, 3, 4], range(6, 12), "holdout_pos repeats a position"),
        (range(0, 6), [6, 7, 8, 9, 11, 11], "deciding_pos repeats a position"),
        ([0.0, 1.0, 2.0], range(6, 12), "holdout_pos must be a flat sequence of integers"),
        ([[0, 1, 2]], range(6, 12), "holdout_pos must be a flat sequence of integers"),
    ])
    def test_grow_from_halves_rejects_bad_positions(self, holdout, deciding, match):
        with pytest.raises(ValueError, match=match):
            grow_from_halves(np.array([0.5, 0.5]), self.y, self.x, self.cfg,
                             np.array(holdout), np.array(deciding), 0)

    @pytest.mark.parametrize("grow", ["halves", "branch"])
    @pytest.mark.parametrize("n_y, n_x", [(10, 12), (12, 10)])
    def test_outcomes_and_covariates_must_match_in_length(self, grow, n_y, n_x):
        # a shorter y_sub once grew on the first rows alone, a shorter x_sub hit an IndexError
        y, x = self.y[:n_y], self.x[:n_x]
        with pytest.raises(ValueError, match="not 1-D and 2-D of matching length"):
            if grow == "halves":
                grow_from_halves(np.array([0.5, 0.5]), y, x, self.cfg,
                                 np.arange(5), np.arange(5, 10), 0)
            else:
                grow_branch(np.array([0.5, 0.5]), y, x, self.cfg, 0)

    @pytest.mark.parametrize("dims", [[5], [-1], [0, 2], [True], [0.0]])
    def test_best_split_rejects_dimensions_outside_the_covariates(self, dims):
        spec = default_basis(self.cfg.basis_order)
        pivot = expfam.MomentVector(basis_matrix(spec, self.y).mean(axis=0))
        with pytest.raises(ValueError, match="^allowed_dims must"):
            best_split(self.x, self.y, pivot, self.cfg, dims)

    def test_best_split_rejects_unmatched_members(self):
        spec = default_basis(self.cfg.basis_order)
        pivot = expfam.MomentVector(basis_matrix(spec, self.y).mean(axis=0))
        with pytest.raises(ValueError, match="not 1-D and 2-D of matching length"):
            best_split(self.x, self.y[:-1], pivot, self.cfg, [0, 1])

    @pytest.mark.parametrize("key", [True, np.bool_(False), 2.5, "3"])
    def test_tree_keys_are_integers_in_range(self, key):
        # True once passed as key 1
        with pytest.raises(ValueError, match="^key must be an integer"):
            split_half(np.arange(self.S), key)
        with pytest.raises(ValueError, match="^key must be an integer"):
            grow_branch(np.array([0.5, 0.5]), self.y, self.x, self.cfg, key)


class TestDegenerateKernel:
    def test_enumerated_half_splits_average_to_plain_mean(self):
        # no-split configuration: enumerate every deciding-half choice
        from itertools import combinations

        rng = np.random.default_rng(12)
        s = 4
        y = rng.random(s)
        x = rng.random((s, 2))
        cfg = make_config(subsample_size=s, min_child=2)  # deciding half of 2 < 4
        spec = default_basis(cfg.basis_order)
        phi = basis_matrix(spec, y)
        outputs = []
        for deciding in combinations(range(s), s // 2):
            holdout = [i for i in range(s) if i not in deciding]
            res = grow_from_halves(np.array([0.5, 0.5]), y, x, cfg,
                                   np.array(holdout), np.array(deciding),
                                   np.random.default_rng(0))
            assert np.array_equal(np.sort(res.holdout_members), holdout)
            outputs.append(phi[res.holdout_members].mean(axis=0))
        np.testing.assert_allclose(np.mean(outputs, axis=0), phi.mean(axis=0),
                                   atol=1e-12)


class TestWeights:
    def test_single_tree_no_split_uniform_over_holdout(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 10, 2)
        cfg = make_config(subsample_size=8, n_trees=1, min_child=4, seed=5)
        w = weights(np.array([0.5, 0.5]), data, cfg).weights
        nz = np.flatnonzero(w)
        assert nz.size == 4  # holdout half of the subsample, all inside the box
        np.testing.assert_allclose(w[nz], 0.25)

    def test_sum_to_one_when_leaves_nonempty(self):
        # 25 of the 30 points sit at the query point, which every leaf box
        # contains; a holdout half has 6 points, so at least one is among them
        rng = np.random.default_rng(14)
        x = np.vstack([np.full((25, 3), 0.5), rng.random((5, 3))])
        data = Dataset(rng.random(30), x)
        cfg = ForestConfig(subsample_size=12, n_trees=16, basis_order=2,
                           initial_parent=unit_box(3), min_child=2, seed=8,
                           scheme="mu")
        w = weights(np.full(3, 0.5), data, cfg)
        assert w.total == pytest.approx(1.0, abs=1e-12)

    def test_two_tree_hand_combination(self):
        # replay the documented stream derivation and apply the leaf-mass
        # formula by hand: each tree spreads 1/(2 * leaf size) over holdouts
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 6, 2)
        cfg = make_config(subsample_size=4, n_trees=2, min_child=2, seed=21)
        x_query = np.array([0.5, 0.5])
        w = weights(x_query, data, cfg).weights

        master, tree_rngs = forest_mod._tree_streams(cfg.seed, cfg.n_trees)
        subsamples = draw_subsamples(data.n, cfg, master)
        expected = np.zeros(data.n)
        for t in range(2):
            idx = subsamples[t]
            res = grow_branch(x_query, data.y[idx], data.x[idx], cfg, tree_rngs[t])
            if res.holdout_members.size:
                expected[idx[res.holdout_members]] += 1.0 / (2 * res.holdout_members.size)
        np.testing.assert_array_equal(w, expected)
        assert set(np.round(w[w > 0], 10)) <= {0.25, 0.5}

    def test_deterministic_across_runs_and_workers(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 40, 2)
        cfg = make_config(subsample_size=16, n_trees=8, min_child=2, seed=123)
        x_query = np.array([0.5, 0.5])
        w1 = weights(x_query, data, cfg).weights
        w2 = weights(x_query, data, cfg).weights
        w3 = weights(x_query, data, cfg).weights
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(w1, w3)

    def test_zero_sum_when_parent_excludes_all_data(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.random(12), 0.9 + 0.1 * rng.random((12, 2)))
        cfg = make_config(subsample_size=6, n_trees=3, min_child=2,
                          initial_parent=[[0.0, 0.0], [0.5, 0.5]])
        w = weights(np.array([0.25, 0.25]), data, cfg)
        assert w.total == 0.0


class TestShapeChecks:
    @pytest.mark.parametrize("parent, x, match", [
        ([[0.0], [1.0]], [0.5, 0.5], r"shape \(2,\) and 1-D initial parent"),
        (unit_box(3), [0.5, 0.5, 0.5], r"shape \(3,\) and 3-D initial parent"),
        (unit_box(2), [[0.5, 0.5]], r"shape \(1, 2\) and 2-D"),
        (unit_box(2), [0.5, 0.5, 0.5], r"shape \(3,\) and 2-D"),
        (unit_box(2), 0.5, r"shape \(\) and 2-D"),
    ])
    def test_grow_forest_rejects_mismatched_dimensions(self, parent, x, match):
        data = random_dataset(np.random.default_rng(40), 30, 2)
        cfg = make_config(subsample_size=16, min_child=2, initial_parent=parent)
        with pytest.raises(ValueError, match=match):
            weights(np.array(x), data, cfg)

    @pytest.mark.parametrize("bounds", [[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[0.0, 0.0]],
                                        [0.0, 1.0]])
    def test_config_rejects_bounds_that_are_not_two_rows(self, bounds):
        with pytest.raises(ValueError, match=r"not \(2, d\)"):
            make_config(initial_parent=bounds)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", "3"), ("n_trees", 2.5),
        ("subsample_size", 40.0), ("basis_order", np.float64(3.0)), ("min_child", False),
        ("n_grid", True),
    ])
    def test_config_rejects_non_integer_counts_and_seed(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            make_config(**{field: value})

    def test_dataset_rejects_covariates_that_are_not_a_table(self):
        with pytest.raises(ValueError, match=r"covariates of shape \(4, 2, 1\)"):
            Dataset(np.full(4, 0.5), np.zeros((4, 2, 1)))

    def test_config_rejects_nan_initial_parent(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            make_config(initial_parent=[[0.0, np.nan], [1.0, 1.0]])

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            make_config(seed=-1)

    def test_config_takes_numpy_integers_as_ints(self):
        cfg = make_config(seed=np.uint64(2 ** 63), n_trees=np.int32(3), n_grid=np.int64(8))
        assert (cfg.seed, cfg.n_trees, cfg.n_grid) == (2 ** 63, 3, 8)
        assert all(type(v) is int for v in (cfg.seed, cfg.n_trees, cfg.n_grid))


def weights_digest(x_query, data, cfg):
    return sha256(weights(x_query, data, cfg).weights.tobytes()).hexdigest()


class TestGrowthRegression:
    """Seeded weight digests, first recorded with per-node growth, before every
    level of a forest was grown as one batch; growth must reproduce them.
    They were re-recorded, with the solve statuses, when each tree's half
    split and dimension sets became keyed counter-based draws, and the
    ``theta`` ones again when each warm-started child node took one Newton
    step in place of a solve: every child now ends CAPPED after that step,
    and none of them escapes the box any more."""

    def test_theta_scheme_with_boundary_fallbacks(self, monkeypatch):
        statuses = []
        solve = expfam._solve_from  # the level solve, warm-started by growth

        def recording(*args):
            res = solve(*args)
            statuses.extend(res.status.tolist())
            return res

        monkeypatch.setattr(expfam, "_solve_from", recording)
        rng = np.random.default_rng(2024)
        x = rng.random((300, 4))
        data = Dataset(rng.beta(0.6 + 2 * x[:, 0], 0.8 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=16, basis_order=6,
                           initial_parent=unit_box(4), min_child=3, scheme="theta", seed=11)
        assert weights_digest(np.full(4, 0.5), data, cfg) == (
            "a98a64f0121d2ee3997485e0fb86d6914e5f9b8b3738721bdc7fb8c04bb5ebd1")
        assert statuses.count(expfam.ESCAPED) == 0 and statuses.count(expfam.RANGE) == 0
        assert len(statuses) == 74

    def test_theta_node_solves_end_within_twenty_iterations(self, monkeypatch):
        # the forest above; ESCAPED rows once crept toward the box bound in
        # up to 32 Newton iterations, and their slow rows held every level
        batches, warm = [], []
        solve = expfam._solve_from

        def recording(*args):
            batches.append(solve(*args))
            warm.append(args[1].any(axis=1))  # a nonzero start: a child of a usable node
            return batches[-1]

        monkeypatch.setattr(expfam, "_solve_from", recording)
        rng = np.random.default_rng(2024)
        x = rng.random((300, 4))
        data = Dataset(rng.beta(0.6 + 2 * x[:, 0], 0.8 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=16, basis_order=6,
                           initial_parent=unit_box(4), min_child=3, scheme="theta", seed=11)
        weights(np.full(4, 0.5), data, cfg)
        status = np.concatenate([b.status for b in batches])
        iterations = np.concatenate([b.iterations for b in batches])
        assert "".join(map(str, status.tolist())) == (
            "00000000000000005555555555555555555555555555555555555555555555555555555555")
        assert iterations.max() <= 20
        # each warm-started child takes at most GROWTH_STEPS steps; the roots solve
        warm = np.concatenate(warm)
        assert warm.sum() > 0 and np.all(iterations[warm] <= expfam.GROWTH_STEPS)
        roots = batches[0].status.size  # the first level's nodes, all started from zero
        assert not warm[:roots].any()
        assert iterations.sum() <= (iterations[:roots].sum()
                                    + expfam.GROWTH_STEPS * (iterations.size - roots))

    def test_mu_scheme(self):
        rng = np.random.default_rng(2025)
        x = rng.random((200, 3))
        data = Dataset(rng.beta(2.0, 1.0 + 2 * x[:, 2]), x)
        cfg = ForestConfig(subsample_size=50, n_trees=24, basis_order=5,
                           initial_parent=unit_box(3), min_child=4, scheme="mu", seed=12)
        assert weights_digest(np.array([0.3, 0.6, 0.5]), data, cfg) == (
            "ad21311b527be24608a0524b6e7ec974920a84e42553fc82a7394eadeac63957")

    def test_cli_golden_fit_config(self):
        # the forest of acceptance criterion 9's fit configuration
        data = cli._read_input_csv(str(Path(__file__).parent / "data" / "sample200.csv"))
        cfg = cli._build_forest_config(
            dict(cli._FOREST_DEFAULTS, subsample_size=40, n_trees=40, basis_order=4,
                 min_child=4), 41, data)
        assert weights_digest(np.full(4, 0.5), data, cfg) == (
            "ffa3da5222e35ac9fcae6ea9dec1c1e623b8a794b95e3d517d6ba5ba09c57774")

    def test_forest_equals_trees_grown_alone(self):
        # a node's solve and split do not depend on the batch it is in; every
        # point lies in the root, so growth starts from the deciding half uncopied
        assert max(self.check_trees_grown_alone(*self.beta_case(unit_box(3)))) >= 5

    def test_forest_equals_trees_grown_alone_with_points_outside_the_root(self):
        # the root's members are those of the deciding half inside it
        assert max(self.check_trees_grown_alone(*self.beta_case([[0.1] * 3, [0.9] * 3]))) >= 5

    def test_forest_equals_trees_grown_alone_with_failed_node_solves(self, monkeypatch):
        # y = 1 wherever x0 > 0.6, so a pure node's target is at the basis
        # range: its solve ends RANGE, and its V^-1 is the identity
        statuses = []
        solve = expfam._solve_from

        def recording(*args):
            res = solve(*args)
            statuses.extend(res.status.tolist())
            return res

        monkeypatch.setattr(expfam, "_solve_from", recording)
        rng = np.random.default_rng(5)
        x = rng.random((300, 3))
        data = Dataset(np.where(x[:, 0] > 0.6, 1.0, rng.random(300)), x)
        cfg = ForestConfig(subsample_size=80, n_trees=40, basis_order=3,
                           initial_parent=unit_box(3), min_child=3, scheme="theta", seed=2)
        self.check_trees_grown_alone(data, np.array([0.8, 0.5, 0.5]), cfg)
        assert set(statuses) - {expfam.SOLVED, expfam.CAPPED} == {expfam.RANGE}

    @staticmethod
    def beta_case(root):
        rng = np.random.default_rng(27)
        x = rng.random((400, 3))
        data = Dataset(rng.beta(0.5 + 2 * x[:, 0], 1.0 + x[:, 2]), x)
        cfg = ForestConfig(subsample_size=120, n_trees=72, basis_order=5,
                           initial_parent=root, min_child=3, scheme="theta", seed=5)
        return data, np.array([0.4, 0.55, 0.6]), cfg

    @staticmethod
    def check_trees_grown_alone(data, x_query, cfg):
        """Each tree's depth, after checking the forest's weights against its trees grown alone."""
        w = weights(x_query, data, cfg).weights

        master, tree_rngs = forest_mod._tree_streams(cfg.seed, cfg.n_trees)
        expected = np.zeros(data.n)
        depth = []
        for t, idx in enumerate(draw_subsamples(data.n, cfg, master)):
            res = grow_branch(x_query, data.y[idx], data.x[idx], cfg, tree_rngs[t])
            depth.append(len(res.splits))
            if res.holdout_members.size:
                expected[idx[res.holdout_members]] += 1.0 / (cfg.n_trees * res.holdout_members.size)
        np.testing.assert_array_equal(w, expected)
        return depth

    def test_fit_equals_one_tree_loop_with_an_empty_leaf(self):
        # the fit's array path gives the bits of a loop over the one-tree API
        from forestdens import estimator
        rng = np.random.default_rng(30)
        data = random_dataset(rng, 120, 4)
        cfg = ForestConfig(subsample_size=30, n_trees=40, basis_order=4,
                           initial_parent=unit_box(4), min_child=2, scheme="theta", seed=3)
        x_query = np.full(4, 0.5)
        fitted = estimator.fit(data, x_query, cfg)

        master, tree_rngs = forest_mod._tree_streams(cfg.seed, cfg.n_trees)
        phi = basis_matrix(default_basis(cfg.basis_order), data.y)
        w = np.zeros(data.n)
        per_tree_h = np.zeros((cfg.n_trees, cfg.basis_order))
        sizes = []
        for t, idx in enumerate(draw_subsamples(data.n, cfg, master)):
            h = idx[grow_branch(x_query, data.y[idx], data.x[idx], cfg,
                                tree_rngs[t]).holdout_members]
            sizes.append(h.size)
            if h.size:
                w[h] += 1.0 / (cfg.n_trees * h.size)
                per_tree_h[t] = phi[h].mean(axis=0)
        assert 0 in sizes
        assert fitted.weights.weights.tobytes() == w.tobytes()
        assert fitted.per_tree_h.tobytes() == per_tree_h.tobytes()

    def test_level_slices_do_not_change_weights(self, monkeypatch):
        rng = np.random.default_rng(28)
        data = random_dataset(rng, 150, 3)
        # J = 1 as well: there numpy would sum a lone padded column pairwise
        cfgs = [ForestConfig(subsample_size=60, n_trees=20, basis_order=j,
                             initial_parent=unit_box(3), min_child=3, scheme="theta", seed=3)
                for j in (4, 1)]
        whole = [weights(np.full(3, 0.5), data, cfg).weights for cfg in cfgs]
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", 1)  # one node per slice
        for cfg, w in zip(cfgs, whole):
            np.testing.assert_array_equal(weights(np.full(3, 0.5), data, cfg).weights, w)


class TestGrowthTolerance:
    def test_growth_solves_stop_at_growth_tol_and_the_fit_at_newton_tol(self, monkeypatch):
        from forestdens import estimator
        calls = []
        solve = expfam._solve_from

        def recording(*args):
            calls.append((args, solve(*args)))
            return calls[-1][1]

        monkeypatch.setattr(expfam, "_solve_from", recording)
        rng = np.random.default_rng(2024)
        x = rng.random((300, 4))
        data = Dataset(rng.beta(0.6 + 2 * x[:, 0], 0.8 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=16, basis_order=6,
                           initial_parent=unit_box(4), min_child=3, scheme="theta", seed=11)
        fitted = estimator.fit(data, np.full(4, 0.5), cfg)
        *growth, (final_args, _) = calls
        assert len(growth) >= 3 and len(final_args) == 4  # the fit's solve: the default tol
        assert all(args[4] == expfam.GROWTH_TOL for args, _ in growth)
        resid = np.concatenate([res.residual[res.status == expfam.SOLVED] for _, res in growth])
        assert np.any((resid > expfam.NEWTON_TOL) & (resid <= expfam.GROWTH_TOL))
        assert np.all(resid <= expfam.GROWTH_TOL)
        assert fitted.theta_hat.converged
        assert fitted.theta_hat.residual_inf_norm <= expfam.NEWTON_TOL


    def test_one_newton_cap_bounds_solve_theta_and_the_growth_roots(self, monkeypatch):
        roots = []
        solve = expfam._solve_from

        def recording(targets, start, spec, max_iter, tol=expfam.NEWTON_TOL):
            res = solve(targets, start, spec, max_iter, tol)
            zero = ~start.any(axis=1)  # started from zero: solve_theta's row or a growth root
            roots.append((np.broadcast_to(max_iter, zero.shape)[zero], res.iterations[zero]))
            return res

        monkeypatch.setattr(expfam, "_solve_from", recording)
        monkeypatch.setattr(expfam, "NEWTON_MAX_ITER", 2)
        spec = default_basis(3)
        with pytest.raises(NonConvergence) as excinfo:
            expfam.solve_theta(expfam.moments(np.array([2.0, -1.0, 0.5]), spec), spec)
        assert excinfo.value.solution.iterations == 2
        rng = np.random.default_rng(2024)
        x = rng.random((300, 4))
        data = Dataset(rng.beta(0.6 + 2 * x[:, 0], 0.8 + x[:, 1]), x)
        cfg = ForestConfig(subsample_size=60, n_trees=16, basis_order=6,
                           initial_parent=unit_box(4), min_child=3, scheme="theta", seed=11)
        weights(np.full(4, 0.5), data, cfg)
        caps = np.concatenate([cap for cap, _ in roots])
        iterations = np.concatenate([it for _, it in roots])
        assert caps.size == 17 and np.all(caps == 2)  # solve_theta's row and 16 tree roots
        assert iterations.max() == 2


def largest_split_temporary(nodes, width, rows, cols, n_grid):
    """Bytes of the largest array the split search of one slice builds, with
    ``cols`` = J + 1 (the pseudo-outcomes and the count column): member
    pseudo-outcomes (nodes, width, cols), per-row pseudo-outcomes (rows,
    width, cols), the threshold mask (rows, n_grid, width) as floats, and
    the child sums and counts (rows, n_grid, cols)."""
    return max(8 * nodes * width * cols, 8 * rows * width * cols, 8 * rows * n_grid * width,
               8 * rows * n_grid * cols)


class TestLevelSlices:
    @given(st.lists(st.integers(min_value=0, max_value=20_000), max_size=80), st.booleans(),
           st.sampled_from([1, 500, 20_000, 1 << 18]))
    @settings(max_examples=100, deadline=None)
    def test_cover_every_node_once_within_the_cap(self, widths, per_row, cap):
        # the one batch sizer, with one width for every row or a non-increasing
        # width per row: each row once, in order, and each chunk as many rows as
        # fit, within the cap at its first (widest) row's width, or a single row
        widths = np.array(sorted(widths, reverse=True), dtype=np.intp)
        width = widths if per_row else int(widths[0]) if widths.size else 9
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expfam, "BATCH_ELEMENTS", cap)
            chunks = expfam._row_chunks(widths.size, width)
        covered = np.concatenate([np.arange(a, b) for a, b in chunks] + [np.zeros(0, int)])
        np.testing.assert_array_equal(covered, np.arange(widths.size))
        each = np.broadcast_to(width, widths.shape)
        for a, b in chunks:
            assert b > a
            assert (b - a) * each[a:b].max() <= cap or b - a == 1
            # as many rows as fit: the next row would not
            assert b == widths.size or (b - a + 1) * max(each[a], 1) > cap

    @given(st.lists(st.integers(min_value=4, max_value=60), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_node_in_a_wider_slice_splits_as_alone(self, sizes, d, j, coarse, pyrandom):
        # each node's child sums run over the slice's padded width; the split
        # chosen must still be the one best_split chooses for the node alone
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        spec = default_basis(j)
        cfg = make_config(basis_order=j, min_child=2, n_grid=8)
        counts = np.array(sorted(sizes, reverse=True))
        x = rng.integers(0, 6, (counts.sum(), d)) / 5 if coarse else rng.random((counts.sum(), d))
        y = rng.random(counts.sum())
        x_ext, phi_ext = forest_mod._with_sentinel(x, basis_matrix(spec, y))
        starts = np.cumsum(counts) - counts
        members = np.full((counts.size, counts[0]), counts.sum())
        for k, (a, c) in enumerate(zip(starts, counts)):
            members[k, :c] = np.arange(a, a + c)
        dims = [np.sort(rng.choice(d, size=rng.integers(1, d + 1), replace=False))
                for _ in counts]
        means = np.array([phi_ext[a:a + c, :j].mean(axis=0) for a, c in zip(starts, counts)])
        theta = rng.normal(scale=0.5, size=means.shape)
        solved = rng.random(counts.size) < 0.5
        masks = np.zeros((counts.size, d), dtype=bool)
        for k, eligible in enumerate(dims):
            masks[k, eligible] = True
        dens, mu, _ = expfam._row_states(theta, spec)
        center = np.where(solved[:, None], mu, means)
        vinv = expfam._inverse_covariances(dens, mu, spec)
        vinv[~solved] = np.eye(j)  # a failed node's V^-1, as growth gives it
        dim, thr = forest_mod._node_splits(x_ext, phi_ext, members, counts, masks, center,
                                           vinv, cfg)
        for k, (a, c) in enumerate(zip(starts, counts)):
            pivot = (expfam.ThetaSolution(theta[k], 0.0, 0, True) if solved[k]
                     else expfam.MomentVector(means[k]))
            alone = best_split(x[a:a + c], y[a:a + c], pivot, cfg, dims[k])
            assert alone == (None if dim[k] < 0 else (dim[k], thr[k]))

    def test_split_search_temporaries_within_the_cap(self, monkeypatch):
        cap = 6000
        seen = []
        node_splits = forest_mod._node_splits

        def recording(x_ext, phi_ext, members, counts, masks, center, *args):
            cfg = args[-1]
            seen.append((members.shape[0], largest_split_temporary(
                *members.shape, int(masks.sum()), center.shape[1] + 1, cfg.n_grid)))
            return node_splits(x_ext, phi_ext, members, counts, masks, center, *args)

        rng = np.random.default_rng(29)
        data = random_dataset(rng, 300, 4)
        cfg = ForestConfig(subsample_size=120, n_trees=24, basis_order=8,
                           initial_parent=unit_box(4), min_child=3, scheme="theta", seed=5)
        monkeypatch.setattr(forest_mod, "_node_splits", recording)
        whole = weights(np.full(4, 0.5), data, cfg).weights
        levels = len(seen)  # one slice per level under the default cap
        seen.clear()
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", cap)
        np.testing.assert_array_equal(weights(np.full(4, 0.5), data, cfg).weights, whole)
        assert len(seen) > levels and max(n for n, _ in seen) > 1
        for nodes, largest in seen:
            assert largest <= 8 * cap or nodes == 1

    def test_newton_chunks_and_split_slices_break_mid_level(self, monkeypatch):
        # at this cap the 60 roots solve in Newton chunks of 10_000 // (4 * 64) = 39
        # nodes, and each chunk splits in slices of 2 (a root weighs 4 * 30 * 32
        # floats), so a slice ends at node 39, inside the whole level's 38..40 pair
        rng = np.random.default_rng(31)
        data = random_dataset(rng, 300, 4)
        cfg = ForestConfig(subsample_size=60, n_trees=60, basis_order=3,
                           initial_parent=unit_box(4), min_child=3, scheme="theta", seed=8)
        whole = weights(np.full(4, 0.5), data, cfg).weights
        calls = []
        for module, name in ((expfam, "_solve_from"), (forest_mod, "_node_splits"),
                             (forest_mod, "_split_level")):
            def recording(*args, _name=name, _call=getattr(module, name)):
                calls.append((_name, len(args[0] if _name == "_solve_from" else args[3])))
                return _call(*args)
            monkeypatch.setattr(module, name, recording)
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", 10_000)
        np.testing.assert_array_equal(weights(np.full(4, 0.5), data, cfg).weights, whole)
        roots = calls[1:[name for name, _ in calls].index("_split_level", 1)]
        assert calls[0] == ("_split_level", 60)
        assert [size for name, size in roots if name == "_solve_from"] == [39, 21]
        slices = [size for name, size in roots if name == "_node_splits"]
        assert slices == [2] * 19 + [1] + [2] * 10 + [1]


class TestCompact:
    @given(st.tuples(st.integers(0, 6), st.integers(0, 8)).flatmap(
        lambda shape: st.tuples(hnp.arrays(np.intp, shape, elements=st.integers(0, 99)),
                                hnp.arrays(bool, shape))))
    @example((np.array([[4, 5, 6], [7, 8, 9]]), np.array([[0, 0, 0], [1, 0, 1]], dtype=bool)))
    @example((np.arange(6).reshape(2, 3), np.zeros((2, 3), dtype=bool)))  # every member dropped
    @example((np.zeros((3, 0), dtype=np.intp), np.zeros((3, 0), dtype=bool)))  # width 0
    @settings(max_examples=100, deadline=None)
    def test_kept_members_in_order_then_the_fill(self, table):
        members, keep = table
        kept = [[m for m, k in zip(row, flags) if k]
                for row, flags in zip(members.tolist(), keep.tolist())]
        width = max(map(len, kept), default=0)
        out, counts = forest_mod._compact(members, keep, 100)
        assert counts.tolist() == [len(row) for row in kept]
        assert out.dtype == members.dtype and out.shape == (len(kept), width)
        assert out.tolist() == [row + [100] * (width - len(row)) for row in kept]


class TestWeightVector:
    @pytest.mark.parametrize("w", [[np.nan, 0.5], np.full((2, 2), 0.25)], ids=["nan", "2-d"])
    def test_rejects_non_finite_or_non_vector_weights(self, w):
        with pytest.raises(ValueError, match="non-finite|not 1-D"):
            WeightVector(w)


class TestMuHat:
    def test_uniform_weights_give_sample_mean(self):
        rng = np.random.default_rng(18)
        data = random_dataset(rng, 25, 2)
        spec = default_basis(3)
        w = WeightVector(np.full(25, 1 / 25))
        np.testing.assert_allclose(mu_hat(w, data, spec).mu,
                                   basis_matrix(spec, data.y).mean(axis=0),
                                   atol=1e-14)

    def test_point_mass_weight(self):
        rng = np.random.default_rng(19)
        data = random_dataset(rng, 5, 1)
        spec = default_basis(2)
        w = np.zeros(5)
        w[3] = 1.0
        np.testing.assert_allclose(mu_hat(WeightVector(w), data, spec).mu,
                                   basis_matrix(spec, data.y[3]).ravel(),
                                   atol=1e-14)

    def test_component_bound(self):
        rng = np.random.default_rng(20)
        data = random_dataset(rng, 50, 1)
        spec = default_basis(4)
        raw = rng.random(50)
        w = WeightVector(raw / raw.sum())
        mu = mu_hat(w, data, spec).mu
        assert np.all(np.abs(mu) <= np.sqrt(2 * np.arange(1, 5) + 1))

    def test_all_zero_weights_raise(self):
        rng = np.random.default_rng(21)
        data = random_dataset(rng, 5, 1)
        with pytest.raises(AllWeightsZero):
            mu_hat(WeightVector(np.zeros(5)), data, default_basis(2))


class TestRetiredDeleteGroupJackknife:
    @pytest.mark.parametrize("name", ["se_subsample_plan", "sigma_fe"])
    def test_stub_points_to_std_error(self, name):
        with pytest.raises(NotImplementedError, match="std_error"):
            getattr(forest_mod, name)(100, make_config(), 2, 3, np.random.default_rng(0))


def hand_ij_se(fitted, y, n, s):
    """The debiased infinitesimal-jackknife SE by loops over observations and trees."""
    trees = fitted.tree_subsamples
    b = len(trees)
    t_row = expfam.t_functional(y, fitted.theta_hat, fitted.basis)
    est = [float(h @ t_row) for h in fitted.per_tree_h]
    dev = [e - sum(est) / b for e in est]
    raw = 0.0
    for i in range(n):
        c = sum(dev[t] for t in range(b) if i in set(trees[t].tolist())) / b
        raw += c * c
    raw *= (n - 1) / n * (n / (n - s)) ** 2
    corr = (n - 1) * s / ((n - s) * b) * sum(d * d for d in dev) / b
    m = raw - corr
    sigma = max(raw, corr) * math.sqrt(2.0 / b)
    r = m / sigma
    phi = math.exp(-r * r / 2.0) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * math.erfc(-r / math.sqrt(2.0))
    return math.sqrt(m + sigma * phi / cdf)


class TestInfinitesimalJackknife:
    def check_double_loop(self):
        """The 9-tree, s = 6 table's jackknife parts against loops over observations and trees."""
        cfg = ForestConfig(subsample_size=6, n_trees=9, basis_order=2,
                           initial_parent=unit_box(1), min_child=2, seed=0)
        n, s = 15, 6
        trees = draw_subsamples(n, cfg, np.random.default_rng(3))
        h = np.random.default_rng(31).standard_normal((9, 2))
        raw, corr = forest_mod.infinitesimal_jackknife(trees, h, n)
        dev = h - h.mean(axis=0)
        c = np.zeros((n, 2))
        for i in range(n):
            for t, idx in enumerate(trees):
                if i in idx:
                    c[i] += dev[t]
        c /= 9
        np.testing.assert_allclose(raw, (n - 1) / n * (n / (n - s)) ** 2 * (c.T @ c),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(corr, (n - 1) * s / ((n - s) * 9) * (dev.T @ dev) / 9,
                                   rtol=1e-12, atol=1e-15)

    def test_bincount_matches_double_loop(self):
        self.check_double_loop()

    def test_built_once_per_fit(self, monkeypatch):
        # std_error's per-fit part (the infinitesimal-jackknife matrices) is
        # built once per fit and reused by every later call on that fit
        from forestdens import estimator
        rng = np.random.default_rng(26)
        n = 60
        data = Dataset(rng.random(n), rng.random((n, 2)))
        cfg = ForestConfig(subsample_size=20, n_trees=12, basis_order=3,
                           initial_parent=unit_box(2), min_child=3, scheme="mu", seed=6)
        ys = (0.2, 0.5, 0.8)
        fits = [estimator.fit(data, [0.5, 0.5], cfg, se_params=(3, 4)) for _ in range(2)]
        reference = [hand_ij_se(fits[0], y, n, 20) for y in ys]
        built = []
        build = forest_mod.infinitesimal_jackknife
        monkeypatch.setattr(forest_mod, "infinitesimal_jackknife",
                            lambda *args: built.append(1) or build(*args))
        for fitted in fits:
            for _ in range(2):
                np.testing.assert_allclose([estimator.std_error(fitted, y) for y in ys],
                                           reference, rtol=1e-10, atol=0.0)
        assert len(built) == 2

    @pytest.mark.parametrize("batch, trees_per_block", [(12, 1), (24, 2), (48, 4)])
    def test_blocks_match_double_loop(self, monkeypatch, batch, trees_per_block):
        # BATCH_ELEMENTS // (J s) trees per block, J = 2 and s = 6; 9 trees end
        # in a ragged block (2 and 4 trees per block) or in full ones (1 tree)
        assert max(1, batch // (2 * 6)) == trees_per_block
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", batch)
        self.check_double_loop()

    @pytest.mark.parametrize("b, s, n, batch", [(9, 6, 15, None), (9, 6, 15, 3 * 9 * 6),
                                                (300, 50, 400, None)])
    def test_one_block_is_the_single_pass_bit_for_bit(self, monkeypatch, b, s, n, batch):
        # with J B s <= BATCH_ELEMENTS (J = 3 here) the walk is one block: the
        # single-pass formula below, one bincount over the whole table per column
        if batch is not None:
            monkeypatch.setattr(expfam, "BATCH_ELEMENTS", batch)
        assert 3 * b * s <= expfam.BATCH_ELEMENTS
        rng = np.random.default_rng(b + s)
        trees = np.stack([rng.choice(n, s, replace=False) for _ in range(b)])
        trees.setflags(write=False)
        h = rng.standard_normal((b, 3))
        raw, corr = forest_mod.infinitesimal_jackknife(trees, h, n)
        dev = h - h[0]
        dev -= dev.mean(axis=0)
        c = np.empty((n, 3))
        for j in range(3):
            spread = np.broadcast_to(dev[:, j, None], trees.shape).ravel()
            c[:, j] = np.bincount(trees.ravel(), weights=spread, minlength=n)
        c /= b
        assert raw.tobytes() == ((n - 1) / n * (n / (n - s)) ** 2 * (c.T @ c)).tobytes()
        assert corr.tobytes() == ((n - 1) * s / ((n - s) * b) * (dev.T @ dev) / b).tobytes()

    @given(st.integers(1, 12), st.integers(1, 8), st.integers(1, 10), st.integers(1, 4),
           st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    @example(9, 6, 9, 2, 3)  # full blocks; n > J s, one bincount a column
    @example(9, 6, 9, 2, 4)  # ragged
    @example(9, 6, 9, 1, 1)  # one tree a block, J = 1
    @example(9, 6, 6, 2, 3)  # n = J s: one incidence and one GEMM a block
    @example(9, 6, 1, 3, 4)  # n < J s, ragged
    def test_any_blocks_match_double_loop(self, b, s, extra, j, k):
        # k trees a block for any k: one-tree blocks, full and ragged ones, one
        # block; n on either side of J s, so both ways of summing a block
        n, k = s + extra, min(k, b)
        rng = np.random.default_rng([b, s, n, j, k])
        trees = np.stack([rng.choice(n, s, replace=False) for _ in range(b)])
        h = rng.standard_normal((b, j))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expfam, "BATCH_ELEMENTS", k * j * s)
            assert expfam._row_chunks(b, j * s)[0] == (0, k)
            raw, corr = forest_mod.infinitesimal_jackknife(trees, h, n)
        dev = h - h.mean(axis=0)
        c = np.zeros((n, j))
        for i in range(n):
            for t in range(b):
                if i in trees[t]:
                    c[i] += dev[t]
        c /= b
        # both parts are within n (n / (n - s))^2 max|dev|^2; roundoff is relative to that
        scale = n * (n / (n - s)) ** 2 * np.abs(dev).max() ** 2
        for got, want in [(raw, (n - 1) / n * (n / (n - s)) ** 2 * (c.T @ c)),
                          (corr, (n - 1) * s / ((n - s) * b) * (dev.T @ dev) / b)]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_reference_shape_is_the_bincount_walk_bit_for_bit(self):
        # the reference fit's 2240 x 200 table at n = 1000, J = 8: blocks of
        # BATCH_ELEMENTS // (J s) = 163 trees, each block's GEMM summing its
        # trees in order, as one bincount per basis column over the block does
        b, s, n, j = 2240, 200, 1000, 8
        rng = np.random.default_rng(47)
        trees = np.stack([rng.choice(n, s, replace=False) for _ in range(b)])
        h = rng.standard_normal((b, j))
        raw, corr = forest_mod.infinitesimal_jackknife(trees, h, n)
        step = expfam.BATCH_ELEMENTS // (j * s)
        assert step == 163
        dev = h - h[0]
        dev -= dev.mean(axis=0)
        c = np.zeros((n, j))
        for lo in range(0, b, step):
            for col in range(j):
                c[:, col] += np.bincount(trees[lo:lo + step].ravel(), minlength=n,
                                         weights=np.repeat(dev[lo:lo + step, col], s))
        c /= b
        assert raw.tobytes() == ((n - 1) / n * (n / (n - s)) ** 2 * (c.T @ c)).tobytes()
        assert corr.tobytes() == ((n - 1) * s / ((n - s) * b) * (dev.T @ dev) / b).tobytes()

    @staticmethod
    def traced_peak(b, s, n, j):
        rng = np.random.default_rng(41)
        trees = rng.integers(0, n, (b, s))
        trees.setflags(write=False)
        h = rng.standard_normal((b, j))
        tracemalloc.start()
        try:
            forest_mod.infinitesimal_jackknife(trees, h, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_allocation_grows_with_the_table(self):
        # the reference fit's table is 2240 x 200; a whole-table index copy or
        # weight buffer would be 6.4 MB each here
        b, s, n, j = 4000, 200, 1000, 8
        # one (k, n) incidence, k n <= BATCH_ELEMENTS floats as n <= J s; the block's index
        # and unit weights, k s <= BATCH_ELEMENTS // J entries each; the (B, J)
        # deviations and a few (n, J) arrays
        bound = 8 * expfam.BATCH_ELEMENTS + 2 * 8 * (expfam.BATCH_ELEMENTS // j) \
            + 8 * j * (b + 4 * n)
        assert bound < 8 * b * s  # one whole-table buffer alone is over it
        assert self.traced_peak(b, s, n, j) < bound

    def test_peak_grows_only_by_the_deviations(self):
        # twice the trees: only the (B, J) deviation table is larger
        s, n, j = 200, 1000, 8
        grown = self.traced_peak(8000, s, n, j) - self.traced_peak(4000, s, n, j)
        assert grown <= 8 * j * 4000 + 4096

    def test_no_incidence_above_j_s(self):
        # at n = 20000 > J s = 1600 a block's (163, n) incidence would be 26 MB;
        # each block adds one bincount per basis column, and the peak is the
        # block's index and weights, the (B, J) deviations and a few (n, J) arrays
        b, s, n, j = 2240, 200, 20000, 8
        assert 8 * (expfam.BATCH_ELEMENTS // (j * s)) * n > 26e6
        assert self.traced_peak(b, s, n, j) < 2 * 8 * expfam.BATCH_ELEMENTS // j + 8 * j * (b + 4 * n)

    def reference_inputs(self):
        rng = np.random.default_rng(48)
        return np.stack([rng.choice(15, 6, replace=False) for _ in range(10)]), \
            rng.standard_normal((10, 2))

    @pytest.mark.parametrize("shape", [(60,), (10, 6, 1)])
    def test_rejects_a_table_that_is_not_2d(self, shape):
        trees, h = self.reference_inputs()
        with pytest.raises(ValueError, match="tree_subsamples"):
            forest_mod.infinitesimal_jackknife(trees.reshape(shape), h, 15)

    @pytest.mark.parametrize("rows", [8, 12])
    def test_rejects_a_row_count_other_than_the_tree_means(self, rows):
        # 12 rows used to give the result of their first 10
        trees, h = self.reference_inputs()
        with pytest.raises(ValueError, match="per_tree_h"):
            forest_mod.infinitesimal_jackknife(np.resize(trees, (rows, 6)), h, 15)

    @pytest.mark.parametrize("bad", ["float", "n", "negative"])
    def test_rejects_indices_that_are_not_observations(self, bad):
        # an index n in row 0 would count in row 1's incidence
        trees, h = self.reference_inputs()
        table = trees.astype(float) if bad == "float" else trees.copy()
        if bad != "float":
            table[0, 0] = 15 if bad == "n" else -1
        with pytest.raises(ValueError, match="tree_subsamples"):
            forest_mod.infinitesimal_jackknife(table, h, 15)

    @pytest.mark.parametrize("n", [6, 5])
    def test_rejects_subsamples_of_n_or_more(self, n):
        trees, h = self.reference_inputs()
        with pytest.raises(ValueError, match="tree_subsamples"):
            forest_mod.infinitesimal_jackknife(trees % n, h, n)

    def test_debias_zero_only_at_zero(self):
        assert forest_mod.debiased_variance(0.0, 0.0, 40) == 0.0
        assert forest_mod.debiased_variance(0.0, 1e-300, 40) > 0.0

    @pytest.mark.parametrize("raw, corr, n_trees", [
        (1.0, 1.0, 40), (1.0, 1.11, 40), (0.0, 1.0, 40), (0.5, 2.0, 2240),
        (0.0, 1.0, 5000),  # m / sigma = -50: exp and erfc underflow to 0 / 0
        (0.0, 3.0, 2 * 10 ** 12),  # m / sigma = -1e6
    ])
    def test_debias_positive_when_correction_dominates(self, raw, corr, n_trees):
        v = forest_mod.debiased_variance(raw, corr, n_trees)
        assert math.isfinite(v) and 0.0 < v <= max(raw, corr)

    def test_debias_at_minus_fifty_matches_mills_series(self):
        # m / sigma = -50, where r + phi(r)/Phi(r) = 1/x - 2/x^3 + 10/x^5 - ... (x = 50)
        sigma = math.sqrt(2.0 / 5000)
        expected = sigma * (1 / 50 - 2 / 50 ** 3 + 10 / 50 ** 5)
        assert forest_mod.debiased_variance(0.0, 1.0, 5000) == pytest.approx(expected, rel=1e-8)

    def test_debias_continuous_across_the_branch_point(self):
        # with corr = 1 and 200 trees, m / sigma = 10 (raw - 1) crosses -5 at raw = 0.5,
        # where the erfc quotient hands over to the continued fraction
        above = forest_mod.debiased_variance(0.5 + 1e-12, 1.0, 200)
        below = forest_mod.debiased_variance(0.5 - 1e-12, 1.0, 200)
        assert above == pytest.approx(below, rel=1e-10)

    def test_large_ratio_returns_difference(self):
        assert forest_mod.debiased_variance(2.0, 1.0, 10 ** 6) == pytest.approx(1.0, rel=1e-12)


class TestPerTreeMeans:
    def test_empty_leaf_contributes_zero_row(self):
        rng = np.random.default_rng(26)
        y = rng.random(6)
        spec = default_basis(2)
        phi = basis_matrix(spec, y)
        leaf = np.array([[0, 1], [6, 6], [3, 6]])  # rows padded with the sample size
        rows = per_tree_means(leaf, np.array([2, 0, 1]), phi)
        assert rows[0].tobytes() == phi[[0, 1]].mean(axis=0).tobytes()
        np.testing.assert_array_equal(rows[1], 0.0)
        assert rows[2].tobytes() == phi[3].tobytes()

    @given(st.sampled_from([1, 2, 5]), st.lists(st.integers(min_value=0, max_value=40),
                                                min_size=1, max_size=6),
           st.integers(min_value=1, max_value=40), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_wider_padding_keeps_the_bytes(self, j, sizes, extra, pyrandom):
        # a tree's mean must not depend on how far its slice pads the leaf
        # table, at one basis column too
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        n = 60
        phi = basis_matrix(default_basis(j), rng.random(n))
        counts = np.array(sizes)
        leaf = np.full((counts.size, counts.max()), n)
        for t, c in enumerate(counts):
            leaf[t, :c] = rng.choice(n, c, replace=False)
        rows = per_tree_means(leaf, counts, phi)
        wide = np.hstack([leaf, np.full((counts.size, extra), n)])
        assert per_tree_means(wide, counts, phi).tobytes() == rows.tobytes()

    def test_chunks_keep_the_bytes(self, monkeypatch):
        rng = np.random.default_rng(27)
        n, counts = 40, np.array([5, 0, 12, 7, 1])
        phi = basis_matrix(default_basis(3), rng.random(n))
        leaf = np.full((counts.size, counts.max()), n)
        for t, c in enumerate(counts):
            leaf[t, :c] = rng.choice(n, c, replace=False)
        whole = per_tree_means(leaf, counts, phi)
        monkeypatch.setattr(expfam, "BATCH_ELEMENTS", 1)  # one tree per chunk
        assert per_tree_means(leaf, counts, phi).tobytes() == whole.tobytes()


class TestCountedTable:
    @given(st.sampled_from([1, 2, 8]), st.lists(st.integers(min_value=0, max_value=30),
                                                min_size=1, max_size=6),
           st.integers(min_value=0, max_value=30), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_padded_sums_run_in_member_order(self, j, sizes, extra, pyrandom):
        # the sentinel table's count column gives every J, one basis column
        # too, a member-order sum over the padded width, and the member counts
        rng = np.random.default_rng(pyrandom.randrange(2 ** 32))
        n = 50
        # magnitudes over 16 decades, so a sum in any other order moves the bytes
        phi = rng.normal(size=(n, j)) * 10.0 ** rng.integers(-8, 9, (n, j))
        counts = np.array(sizes)
        members = np.full((counts.size, counts.max() + extra), n)
        for t, c in enumerate(counts):
            members[t, :c] = rng.choice(n, c, replace=False)
        _, phi_ext = forest_mod._with_sentinel(np.zeros((n, 1)), phi)
        sums = phi_ext[members].sum(axis=1)
        assert sums.shape == (counts.size, j + 1)
        assert sums[:, j].tobytes() == counts.astype(float).tobytes()
        for t, c in enumerate(counts):
            for k in range(j):
                acc = 0.0
                for m in members[t, :c]:
                    acc += float(phi[m, k])
                assert sums[t, k].tobytes() == np.float64(acc).tobytes()
