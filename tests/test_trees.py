"""Tree growth against brute-force split search, plus forest, boosting,
dispatch, and model serialization."""

import gc
import io
import json
import multiprocessing.pool
import os
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fleetrisk.config import RunConfig, fleet_config
from fleetrisk.errors import ModelFormatError, NonFiniteFeatureError, SingleClassLabelsError, WidthMismatchError
from fleetrisk.evaluation import ChronologicalSplit, split, train_matrix
from fleetrisk.features import FEATURE_NAMES, Column, FeatureMatrix, FeatureSpec, transform
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.models import (
    MODELS,
    ForestHyper,
    ForestModel,
    GbtHyper,
    GbtModel,
    LogisticHyper,
    LogisticModel,
    fit_gbt,
    fit_logistic,
    fit_model,
    fit_random_forest,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_proba,
    save_model,
)
from fleetrisk.models import forest as forest_module
from fleetrisk.models.tree import ZERO_REDUCTION, RegressionTree, TreeWalk, feature_view, grow_tree
from fleetrisk.panel import PanelOptions, build_panel, load_utilization_csv

from oracles import render_fleet


def matrix_from(X, y, standardized=False):
    cols = [Column(name=f"x{j}", kind="numeric") for j in range(X.shape[1])]
    return FeatureMatrix(
        columns=cols,
        values=np.asarray(X, dtype=np.float64),
        labels=np.asarray(y),
        scale=np.ones(X.shape[1]),
        standardized=standardized,
    )


def brute_force_root_split(X, y, min_leaf):
    """O(n^2) scan over every feature and midpoint, same tie rules."""
    n, p = X.shape
    total_sse = ((y - y.mean()) ** 2).sum()
    best = (ZERO_REDUCTION, -1, 0.0)
    for f in range(p):
        levels = np.unique(X[:, f])
        for lo, hi in zip(levels[:-1], levels[1:]):
            t = 0.5 * (lo + hi)
            mask = X[:, f] <= t
            nl, nr = mask.sum(), (~mask).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = ((y[mask] - y[mask].mean()) ** 2).sum() + ((y[~mask] - y[~mask].mean()) ** 2).sum()
            gain = total_sse - sse
            if gain > best[0] + 1e-9 * max(1.0, abs(best[0])):
                best = (gain, f, t)
    return best[1], best[2]


def fit_tree(X, y, max_depth=12, min_leaf=5):
    """One tree on every row of X, every column numeric, through the
    depth-first builder that grows boosting rounds."""
    return grow_tree(feature_view(X), np.asarray(y, dtype=np.float64), max_depth, min_leaf)[0]


def walk_sum(trees, X, start, weight):
    """The reference for `TreeWalk.sum_leaves`: each row walks each tree
    node by node from its root (X <= threshold goes left), and adds weight
    times the leaf's value to start, tree by tree."""
    X = sp.csr_matrix(X, dtype=np.float64).toarray()
    out = np.empty(len(X))
    for i, x in enumerate(X):
        total = np.float64(start if np.ndim(start) == 0 else start[i])
        for tree in trees:
            node = 0
            while tree.feature[node] >= 0:
                node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
            total += weight * tree.value[node]
        out[i] = total
    return out


def predict(tree, X):
    return walk_sum([tree], X, 0.0, 1.0)


def leaf_assignment(tree, X):
    idx = np.zeros(X.shape[0], dtype=np.int32)
    active = tree.feature[idx] >= 0
    while np.any(active):
        rows = np.nonzero(active)[0]
        nodes = idx[rows]
        go_left = X[rows, tree.feature[nodes]] <= tree.threshold[nodes]
        idx[rows] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active = tree.feature[idx] >= 0
    return idx


def reference_tree(X, y, max_depth, min_leaf, max_features=None, rng=None, breadth_first=False):
    """Per-node, per-feature float argsort: the split search that the
    rank-code kernel replaces. Trees must match it bit for bit. Nodes grow
    depth-first, left before right, as boosting grows them, or with
    `breadth_first` depth by depth, left before right, as a forest grows
    them; each node draws its candidate features when it grows. A
    breadth-first tree is numbered in growth order; a depth-first one as
    depth-first growth numbers it: each split node, in preorder, gives its
    children the next two ids. A midpoint that rounds up to the upper value
    falls back to the lower one."""
    n, p = X.shape
    nodes = []  # in growth order: feature, threshold, children, value
    pending = deque([(np.arange(n), 0, None)])  # rows, depth, the parent's child slot
    while pending:
        rows, depth, slot = pending.popleft() if breadth_first else pending.pop()
        if slot is not None:
            slot[0][slot[1]] = len(nodes)
        y_rows = y[rows]
        m = len(rows)
        nodes.append([-1, 0.0, [-1, -1], np.nan])
        if depth >= max_depth or m < 2 * min_leaf or m < 2:
            nodes[-1][3] = float(y_rows.mean())
            continue
        if max_features is not None and max_features < p:
            candidates = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            candidates = np.arange(p)
        total = y_rows.sum()
        base = total * total / m
        best = (ZERO_REDUCTION, -1, 0.0)
        for f in candidates:
            order = np.argsort(X[rows, f], kind="stable")
            col, prefix = X[rows, f][order], np.cumsum(y_rows[order])[:-1]
            n_left = np.arange(1, m)
            gains = prefix**2 / n_left + (total - prefix) ** 2 / (m - n_left) - base
            valid = (col[:-1] < col[1:]) & (n_left >= min_leaf) & (m - n_left >= min_leaf)
            if valid.any():
                k = int(np.argmax(np.where(valid, gains, -np.inf)))
                if gains[k] > best[0]:
                    t = 0.5 * (col[k] + col[k + 1])
                    best = (gains[k], int(f), t if t < col[k + 1] else col[k])
        _, f, t = best
        if f < 0:
            nodes[-1][3] = float(y_rows.mean())
            continue
        go_left = X[rows, f] <= t
        nodes[-1][:2] = [f, t]
        children = [(rows[go_left], depth + 1, (nodes[-1][2], 0)), (rows[~go_left], depth + 1, (nodes[-1][2], 1))]
        pending += children if breadth_first else children[::-1]
    new, stack = ({i: i for i in range(len(nodes))}, []) if breadth_first else ({0: 0}, [0])
    while stack:
        left, right = nodes[stack.pop()][2]
        if left >= 0:
            new[left], new[right] = len(new), len(new) + 1
            stack += [right, left]
    out = np.zeros((len(nodes), 5))
    for i, (f, t, (left, right), v) in enumerate(nodes):
        out[new[i]] = [f, t, new[left] if left >= 0 else -1, new[right] if right >= 0 else -1, v]
    return RegressionTree(*(out[:, j] if j in (1, 4) else out[:, j].astype(np.int32) for j in range(5)))


def tree_bytes(tree):
    return [a.tobytes() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)]


def test_perfectly_separable_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
    y = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 6.5
    np.testing.assert_array_equal(predict(tree, X), y)


def test_root_split_matches_brute_force():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.random((60, 3))
        y = rng.random(60) + (X[:, seed % 3] > 0.5)
        tree = fit_tree(X, y, max_depth=1, min_leaf=5)
        f, t = brute_force_root_split(X, y, min_leaf=5)
        assert tree.feature[0] == f, f"seed {seed}"
        assert tree.threshold[0] == pytest.approx(t, abs=1e-12), f"seed {seed}"


def test_leaves_predict_training_means():
    rng = np.random.default_rng(42)
    X = rng.random((200, 4))
    y = rng.random(200)
    tree = fit_tree(X, y, max_depth=4, min_leaf=5)
    leaves = leaf_assignment(tree, X)
    preds = predict(tree, X)
    for leaf in np.unique(leaves):
        mask = leaves == leaf
        assert preds[mask][0] == pytest.approx(y[mask].mean(), abs=1e-12)


def test_min_leaf_respected():
    rng = np.random.default_rng(7)
    X = rng.random((120, 2))
    y = rng.random(120)
    tree = fit_tree(X, y, max_depth=12, min_leaf=9)
    counts = np.bincount(leaf_assignment(tree, X), minlength=tree.n_nodes)
    leaf_nodes = tree.feature == -1
    assert np.all(counts[leaf_nodes] >= 9)


def test_depth_zero_is_global_mean():
    rng = np.random.default_rng(1)
    X = rng.random((30, 2))
    y = rng.random(30)
    tree = fit_tree(X, y, max_depth=0)
    assert tree.n_nodes == 1
    np.testing.assert_allclose(predict(tree, X), y.mean())


def test_constant_target_never_splits():
    rng = np.random.default_rng(2)
    X = rng.random((40, 3))
    tree = fit_tree(X, np.full(40, 0.7), max_depth=5, min_leaf=1)
    assert tree.n_nodes == 1
    np.testing.assert_allclose(predict(tree, X), 0.7)


def test_split_tie_prefers_lower_feature_index():
    col = np.array([0.0, 0, 1, 1, 2, 2, 3, 3])
    X = np.column_stack([col, col])
    y = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    assert tree.feature[0] == 0


@pytest.mark.parametrize("adjacent", [False, True], ids=["spaced", "adjacent-doubles"])
@pytest.mark.parametrize("min_leaf,max_features", [(1, None), (5, None)])
def test_trees_match_the_float_sort_reference_bit_for_bit(min_leaf, max_features, adjacent):
    rng = np.random.default_rng(min_leaf * 10 + (max_features or 0))
    X = rng.random((400, 5))
    X[:, 1] = np.round(X[:, 1] * 4)            # five levels, heavy ties
    X[:, 2] = (X[:, 2] > 0.7).astype(float)    # a dummy column
    # six levels one ulp apart, or 0.01 apart
    X[:, 3] = 1.0 + rng.integers(0, 6, 400) * (np.finfo(float).eps if adjacent else 0.01)
    y = rng.random(400) + X[:, 1] * 0.2
    got = fit_tree(X, y, max_depth=8, min_leaf=min_leaf)
    want = reference_tree(X, y, 8, min_leaf, max_features)
    assert tree_bytes(got) == tree_bytes(want)


def test_root_split_matches_brute_force_on_tie_heavy_columns():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.integers(0, 4, (80, 3)).astype(float)
        y = rng.random(80) + 0.5 * (X[:, seed % 3] >= 2)
        tree = fit_tree(X, y, max_depth=1, min_leaf=3)
        f, t = brute_force_root_split(X, y, min_leaf=3)
        assert (tree.feature[0], tree.threshold[0]) == (f, t), f"seed {seed}"


def adjacent_doubles(k):
    """1.0 and the next k - 1 doubles above it."""
    out = [1.0]
    for _ in range(k - 1):
        out.append(np.nextafter(out[-1], 2.0))
    return np.array(out)


def test_root_split_on_adjacent_doubles_matches_brute_force_and_routes_by_threshold():
    levels = adjacent_doubles(6)
    col = np.repeat(levels, 10)
    y = np.repeat([0.0, 0, 0, 1, 1, 1], 10) + np.tile(np.linspace(0, 0.1, 10), 6)
    X = col[:, None]
    tree = fit_tree(X, y, max_depth=1, min_leaf=1)
    f, t = brute_force_root_split(X, y, min_leaf=1)
    assert (tree.feature[0], tree.threshold[0]) == (f, t)
    assert tree.threshold[0] == levels[2]  # the midpoint of levels 2 and 3 rounds down
    left = col <= tree.threshold[0]
    np.testing.assert_array_equal(predict(tree, X), np.where(left, y[left].mean(), y[~left].mean()))


def test_a_midpoint_that_rounds_up_splits_at_the_lower_value():
    levels = adjacent_doubles(4)
    col = np.repeat(levels, 5)
    y = np.repeat([0.0, 0, 1, 1], 5)
    tree = fit_tree(col[:, None], y, max_depth=2, min_leaf=1)
    # the best cut lies between levels 1 and 2, whose midpoint rounds up to
    # level 2; splitting there would send level 2 left and leave the right
    # child of a later split empty
    assert 0.5 * (levels[1] + levels[2]) == levels[2]
    assert tree.threshold[0] == levels[1]
    assert not np.isnan(tree.value[tree.feature == -1]).any()
    np.testing.assert_array_equal(predict(tree, col[:, None]), y)


def test_tree_fits_reject_non_finite_features():
    rng = np.random.default_rng(6)
    X = rng.random((50, 3))
    y = (rng.random(50) < 0.5).astype(np.int8)
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X.copy()
        Xb[7, 1] = bad
        with pytest.raises(NonFiniteFeatureError):
            fit_tree(Xb, y.astype(float))
        with pytest.raises(NonFiniteFeatureError):
            fit_random_forest(matrix_from(Xb, y), ForestHyper(n_estimators=2))
        with pytest.raises(NonFiniteFeatureError):
            fit_gbt(matrix_from(Xb, y), GbtHyper(n_estimators=2))


def test_deeper_trees_fit_no_worse():
    rng = np.random.default_rng(3)
    X = rng.random((300, 3))
    y = np.sin(6 * X[:, 0]) + 0.3 * rng.standard_normal(300)
    sse = []
    for depth in (0, 1, 3, 6):
        tree = fit_tree(X, y, max_depth=depth, min_leaf=5)
        sse.append(((predict(tree, X) - y) ** 2).sum())
    assert sse == sorted(sse, reverse=True) or all(
        later <= earlier + 1e-9 for earlier, later in zip(sse, sse[1:])
    )


def forest_training_matrix(n=300, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = (rng.random(n) < 0.2 + 0.6 * (X[:, 0] > 0.5)).astype(np.int8)
    return matrix_from(X, y)


def test_forest_deterministic_and_bounded():
    m = forest_training_matrix()
    f1 = fit_random_forest(m, ForestHyper(n_estimators=20, seed=9))
    f2 = fit_random_forest(m, ForestHyper(n_estimators=20, seed=9))
    p1 = f1.predict_proba(m.values)
    np.testing.assert_array_equal(p1, f2.predict_proba(m.values))
    assert np.all((p1 >= 0) & (p1 <= 1))


def test_forest_seed_changes_trees():
    m = forest_training_matrix()
    f1 = fit_random_forest(m, ForestHyper(n_estimators=10, seed=0))
    f2 = fit_random_forest(m, ForestHyper(n_estimators=10, seed=1))
    assert not np.array_equal(f1.predict_proba(m.values), f2.predict_proba(m.values))


def test_forest_separates_classes_on_train():
    m = forest_training_matrix()
    f = fit_random_forest(m, ForestHyper(n_estimators=30, seed=2))
    p = f.predict_proba(m.values)
    y = np.asarray(m.labels)
    assert p[y == 1].mean() > p[y == 0].mean()


def count_pools(monkeypatch, cores):
    """Pretend the process may use `cores` cores; returns the worker count of each pool a fit starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    started = []

    class CountedPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            started.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountedPool)
    return started


def grouped_matrix(rng, n, sizes, n_numeric, onehot=True):
    """A standardized-looking matrix: one one-hot group per entry of
    `sizes` (each column one positive value; a row may store none of a
    group's columns, and each group's last column stays empty, as an
    unknown level does in training), then `n_numeric` numeric columns of
    few distinct values; 0/1 labels that depend on the first group's
    level. With `onehot` False every column is labelled numeric."""
    blocks, columns, first = [], [], None
    for g, size in enumerate(sizes):
        level = rng.integers(0, size + 1, n)  # `size` (and size - 1, the empty column) store nothing
        level[level == size - 1] = size
        first = level if first is None else first
        block = (level[:, None] == np.arange(size)) * rng.uniform(0.5, 4.0, size)
        blocks.append(block)
        columns += [Column(f"g{g}={j}", "onehot" if onehot else "numeric", f"g{g}" if onehot else None, str(j))
                    for j in range(size)]
    blocks.append(rng.integers(0, 5, (n, n_numeric)) * 0.25)
    columns += [Column(f"x{j}", "numeric") for j in range(n_numeric)]
    y = (rng.random(n) < 0.15 + 0.6 * (first % 3 == 0)).astype(np.int8)
    y[:2] = [0, 1]
    return FeatureMatrix(columns, sp.csr_matrix(np.hstack(blocks)), y, np.ones(len(columns)), standardized=True)


@pytest.mark.parametrize(
    "n_estimators, max_features, groups",
    [(7, 2, False), (6, 4, False), (1, 2, False), (6, 5, True)],
    ids=["subsampled-7-trees-on-2-workers", "all-features", "one-tree", "one-hot-groups"],
)
def test_forest_trees_from_the_pool_equal_the_in_process_trees(monkeypatch, n_estimators, max_features, groups):
    m = grouped_matrix(np.random.default_rng(21), 400, [12, 3], 2) if groups else forest_training_matrix()
    if groups:  # the workers grow from level codes, and some tree splits on a level
        assert len(feature_view(m.values, m.columns).levels) == 2
    hyper = ForestHyper(n_estimators=n_estimators, max_features=max_features, seed=3)
    started = count_pools(monkeypatch, cores=1)
    serial = fit_random_forest(m, hyper)
    assert started == []
    started = count_pools(monkeypatch, cores=2)
    pooled = fit_random_forest(m, hyper)
    assert started == ([2] if n_estimators > 1 else [])
    assert [tree_bytes(t) for t in pooled.trees] == [tree_bytes(t) for t in serial.trees]
    if groups:
        assert any(((0 <= t.feature) & (t.feature < 15)).any() for t in pooled.trees)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 150),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_numeric=st.integers(0, 2),
    max_features=st.integers(1, 8),
    min_leaf=st.integers(1, 6),
)
def test_a_forest_grows_the_same_trees_from_level_codes_as_from_numeric_columns(
    seed, n, sizes, n_numeric, max_features, min_leaf
):
    """Oracle: the same one-hot matrix and 0/1 labels, its groups labelled
    "onehot" (scored from level codes) or relabelled "numeric" (sorted
    column by column), grow byte-identical trees; a one-tree forest grows
    in process, so each example forks no pool."""
    grouped = grouped_matrix(np.random.default_rng(seed), n, sizes, n_numeric)
    numeric = grouped_matrix(np.random.default_rng(seed), n, sizes, n_numeric, onehot=False)
    assert len(feature_view(grouped.values, grouped.columns).levels) == len(sizes)
    assert feature_view(numeric.values, numeric.columns).levels == []
    for tree_seed in range(2):
        hyper = ForestHyper(n_estimators=1, max_features=max_features, min_leaf=min_leaf, seed=tree_seed)
        want = fit_random_forest(numeric, hyper).trees[0]
        assert tree_bytes(fit_random_forest(grouped, hyper).trees[0]) == tree_bytes(want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 150),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_numeric=st.integers(0, 3),
    max_features=st.integers(1, 8),
    min_leaf=st.integers(1, 6),
    max_depth=st.integers(1, 6),
    first=st.integers(0, 100),
    n_trees=st.integers(2, 5),
)
def test_a_forest_tree_is_the_same_whichever_trees_grow_beside_it(
    seed, n, sizes, n_numeric, max_features, min_leaf, max_depth, first, n_trees
):
    """Oracle: a chunk of a forest's trees grown together in one batch
    equals, byte for byte, each of them grown in a batch of its own."""
    m = grouped_matrix(np.random.default_rng(seed), n, sizes, n_numeric)
    hyper = ForestHyper(max_features=max_features, min_leaf=min_leaf, max_depth=max_depth, seed=seed % 1000)
    inputs = (feature_view(m.values, m.columns), np.asarray(m.labels, dtype=np.float64), hyper, min(max_features, m.width))
    together = forest_module._grow(range(first, first + n_trees), inputs)
    alone = [forest_module._grow([i], inputs)[0] for i in range(first, first + n_trees)]
    assert [tree_bytes(t) for t in together] == [tree_bytes(t) for t in alone]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 150),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_numeric=st.integers(0, 3),
    onehot=st.booleans(),
    max_features=st.integers(1, 8),
    min_leaf=st.integers(1, 6),
    max_depth=st.integers(2, 6),
)
def test_forest_trees_match_the_breadth_first_float_sort_reference(
    seed, n, sizes, n_numeric, onehot, max_features, min_leaf, max_depth
):
    """Oracle: each forest tree equals, byte for byte, the float-sort
    reference grown on the dense rows of its bootstrap sample, repeats and
    all, from the same generator; with and without one-hot groups, so the
    counted entries, their integer sums and the level splits all meet an
    independent per-node recount."""
    m = grouped_matrix(np.random.default_rng(seed), n, sizes, n_numeric, onehot)
    hyper = ForestHyper(n_estimators=3, max_features=max_features, min_leaf=min_leaf, max_depth=max_depth, seed=seed % 1000)
    X, y = m.values.toarray(), np.asarray(m.labels, dtype=np.float64)
    inputs = (feature_view(m.values, m.columns), y, hyper, min(max_features, m.width))
    for i, tree in enumerate(forest_module._grow(range(3), inputs)):
        rng = np.random.default_rng([hyper.seed, i])
        rows = rng.integers(0, n, size=n)
        want = reference_tree(X[rows], y[rows], max_depth, min_leaf, min(max_features, m.width), rng, breadth_first=True)
        assert tree_bytes(tree) == tree_bytes(want)


def node_depths(tree):
    """Each node's depth, for a tree whose children come after their parent."""
    depth = np.zeros(tree.n_nodes, dtype=np.intp)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return depth


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 150),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_numeric=st.integers(0, 3),
    max_features=st.integers(1, 8),
    min_leaf=st.integers(1, 6),
    max_depth=st.integers(1, 6),
)
def test_every_fitted_tree_keeps_a_split_nodes_children_adjacent_and_after_it(
    seed, n, sizes, n_numeric, max_features, min_leaf, max_depth
):
    """The layout the stacked walk reads: right == left + 1 > node at every
    split, in forest trees grown as a batch (as a pool worker grows them)
    or one at a time (in process), whose nodes also come depth by depth,
    and in boosting rounds."""
    m = grouped_matrix(np.random.default_rng(seed), n, sizes, n_numeric)
    hyper = ForestHyper(max_features=max_features, min_leaf=min_leaf, max_depth=max_depth, seed=seed % 1000)
    inputs = (feature_view(m.values, m.columns), np.asarray(m.labels, dtype=np.float64), hyper, min(max_features, m.width))
    batch, alone = forest_module._grow(range(4), inputs), [forest_module._grow([i], inputs)[0] for i in range(4)]
    boosted = fit_gbt(m, GbtHyper(n_estimators=3, max_depth=max_depth, min_leaf=min_leaf)).trees
    for tree in [*batch, *alone, *boosted]:
        split = np.flatnonzero(tree.feature >= 0)
        assert np.all(tree.right[split] == tree.left[split] + 1) and np.all(tree.left[split] > split)
    for tree in [*batch, *alone]:
        assert np.all(np.diff(node_depths(tree)) >= 0)


def random_tree(rng, width, levels, n_splits):
    """A tree with `n_splits` splits on random columns at thresholds drawn
    from `levels`, its nodes numbered in a random order that keeps each
    child after its parent, so children need not be adjacent."""
    first = [-1]  # breadth-first: each node's first child, the right one after it
    for _ in range(n_splits):
        leaf = rng.choice([i for i, c in enumerate(first) if c < 0])
        first[leaf] = len(first)
        first += [-1, -1]
    order, frontier = [], [0]
    while frontier:  # number the nodes in a random order that reaches each child after its parent
        order.append(frontier.pop(rng.integers(len(frontier))))
        if first[order[-1]] >= 0:
            frontier += [first[order[-1]], first[order[-1]] + 1]
    new = {node: i for i, node in enumerate(order)}
    tree = np.full((len(first), 5), -1.0)
    for node, child in enumerate(first):
        split = child >= 0
        tree[new[node]] = [rng.integers(width) if split else -1, rng.choice(levels) if split else 0.0,
                           new[child] if split else -1, new[child + 1] if split else -1,
                           np.nan if split else rng.normal()]
    return RegressionTree(*(tree[:, j] if j in (1, 4) else tree[:, j].astype(np.int32) for j in range(5)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40), n_trees=st.integers(1, 6), width=st.integers(1, 5))
def test_the_stacked_walk_sums_leaves_as_a_node_by_node_walk_does(seed, n_rows, n_trees, width):
    """Oracle: `TreeWalk.sum_leaves` equals, bit for bit, each row walking
    each tree node by node and adding weight * leaf value tree by tree, on
    hand-built trees whose children are not adjacent and on rows whose
    values equal thresholds, and on forest and GBT models fitted here."""
    rng = np.random.default_rng(seed)
    levels = np.array([-1.5, 0.0, 0.25, 1.0, 2.0])
    X = rng.choice(levels, (n_rows, width))
    trees = [random_tree(rng, width, levels, int(rng.integers(0, 8))) for _ in range(n_trees)]
    start, weight = rng.normal(size=n_rows), float(rng.uniform(0.05, 1.0))
    assert TreeWalk(trees).sum_leaves(X, start, weight).tobytes() == walk_sum(trees, X, start, weight).tobytes()
    assert TreeWalk(trees).sum_leaves(X, 0.5, 1.0).tobytes() == walk_sum(trees, X, 0.5, 1.0).tobytes()

    m = grouped_matrix(rng, 60, [4, 3], 2)
    hyper = ForestHyper(max_features=3, min_leaf=2, max_depth=4, seed=seed % 1000)
    forest = forest_module._grow(range(3), (feature_view(m.values, m.columns), np.asarray(m.labels, dtype=np.float64), hyper, 3))
    gbt = fit_gbt(m, GbtHyper(n_estimators=4, max_depth=3, min_leaf=2))
    for fitted, start, weight in ((forest, 0.0, 1.0), (gbt.trees, gbt.init_score, gbt.learning_rate)):
        assert TreeWalk(fitted).sum_leaves(m.values, start, weight).tobytes() == walk_sum(fitted, m.values, start, weight).tobytes()


def test_a_group_whose_rows_store_two_levels_is_scored_as_numeric_columns():
    m = grouped_matrix(np.random.default_rng(3), 60, [4], 1)
    values = m.values.toarray()
    values[5, :2] = [1.0, 2.0]  # row 5 stores two of the group's columns
    twice = replace(m, values=values)
    values = m.values.toarray()
    values[values[:, 0] > 0, 0] = np.arange(1.0, 1.0 + (values[:, 0] > 0).sum())  # column 0 stores many values
    varied = replace(m, values=values)
    values = m.values.toarray()
    values[:, 0] *= -1.0  # column 0 stores a negative value
    negative = replace(m, values=values)
    for matrix in (twice, varied, negative):
        assert feature_view(matrix.values, matrix.columns).levels == []
        relabelled = replace(matrix, columns=[replace(c, kind="numeric", group=None) for c in matrix.columns])
        hyper = ForestHyper(n_estimators=1, max_features=3, min_leaf=2, seed=4)
        assert tree_bytes(fit_random_forest(matrix, hyper).trees[0]) == tree_bytes(fit_random_forest(relabelled, hyper).trees[0])


def test_a_node_with_two_levels_of_a_group_splits_on_the_lower_column():
    """Splitting off either of a node's two levels is one partition at one
    gain in exact arithmetic. The lower column is kept whatever the last
    bit of the two float sums, so a row of a third level routes left."""
    columns = [Column(f"g={v}", "onehot", "g", v) for v in "abc"]
    X = np.zeros((4, 3))
    X[np.arange(4), [0, 1, 0, 1]] = 1.0
    y = np.array([0.1, 0.1, 0.2, 0.3])  # the level-b split scores the higher float gain
    tree, _ = grow_tree(feature_view(X, columns), y, max_depth=1, min_leaf=1)
    assert tree.feature[0] == 0
    assert predict(tree, np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(0.2)  # the mean of the level-b rows


def test_a_forest_fit_and_its_scoring_never_build_the_dense_matrix(monkeypatch):
    """With default features the design matrix has one column per vehicle.
    On one core, a 2-tree forest fit and its predict_proba on the CSR test
    matrix each allocate less than one dense float64 copy of their matrix."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = replace(fleet_config(RunConfig()), seed=7, n_vehicles=300, n_weeks=52)
    csv_bytes, sidecar, _ = render_fleet(config)
    records, _ = parse_subworkorders(csv_bytes)
    train, test = split(build_panel(records, PanelOptions(utilization=load_utilization_csv(sidecar))), ChronologicalSplit())
    matrix = train_matrix(train, FeatureSpec(FEATURE_NAMES))

    def peak_bytes(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    model, fit_peak = peak_bytes(lambda: fit_random_forest(matrix, ForestHyper(n_estimators=2, seed=1)))
    X_test = transform(test, model.columns, model.scale)
    _, score_peak = peak_bytes(lambda: model.predict_proba(X_test))
    assert fit_peak < matrix.values.shape[0] * matrix.width * 8
    assert score_peak < X_test.shape[0] * X_test.shape[1] * 8


def test_a_model_walks_its_trees_from_one_stack_until_its_tree_list_changes():
    m = forest_training_matrix(n=200, seed=16)
    model = fit_random_forest(m, ForestHyper(n_estimators=4, seed=2))
    before = model.predict_proba(m.values)
    walk = model._walk
    assert model.predict_proba(m.values[:50]).tobytes() == before[:50].tobytes() and model._walk is walk
    model.trees.pop()
    assert model.predict_proba(m.values).tobytes() == np.clip(per_tree_sum(model.trees, m.values.toarray(), 0.0, 1.0) / 3, 0, 1).tobytes()
    assert model._walk is not walk and "_walk" not in model_to_dict(model)


def test_forest_on_one_core_starts_no_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started on one usable core")

    monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
    assert len(fit_random_forest(forest_training_matrix(), ForestHyper(n_estimators=5)).trees) == 5


def test_a_failing_tree_fails_the_forest_and_leaves_no_worker(monkeypatch):
    started = count_pools(monkeypatch, cores=2)

    def broken(*args):
        raise ValueError("tree failed")

    monkeypatch.setattr(forest_module, "grow_forest", broken)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="tree failed"):
            fit_random_forest(forest_training_matrix(), ForestHyper(n_estimators=4))
        gc.collect()
    assert started == [2]
    assert multiprocessing.active_children() == []
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_forest_single_class_rejected():
    rng = np.random.default_rng(0)
    m = matrix_from(rng.random((20, 2)), np.zeros(20, dtype=np.int8))
    with pytest.raises(SingleClassLabelsError):
        fit_random_forest(m, ForestHyper(n_estimators=2))


def test_forest_hyper_validation():
    for bad in ({"n_estimators": 0}, {"max_features": 0}, {"max_depth": 0}, {"min_leaf": 0}):
        with pytest.raises(ValueError):
            ForestHyper(**bad)


def test_gbt_starts_from_the_base_rate():
    m = forest_training_matrix()
    g = fit_gbt(m, GbtHyper(n_estimators=1))
    y = np.asarray(m.labels, dtype=np.float64)
    np.testing.assert_allclose(expit(g.init_score), y.mean(), atol=1e-12)


def test_gbt_more_rounds_lower_train_loss():
    m = forest_training_matrix()
    y = np.asarray(m.labels, dtype=np.float64)

    def nll(model):
        p = model.predict_proba(m.values)
        return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

    losses = [nll(fit_gbt(m, GbtHyper(n_estimators=k))) for k in (1, 10, 50)]
    assert losses[0] > losses[1] > losses[2]


def test_gbt_deterministic():
    m = forest_training_matrix()
    g1 = fit_gbt(m, GbtHyper(n_estimators=15))
    g2 = fit_gbt(m, GbtHyper(n_estimators=15))
    np.testing.assert_array_equal(g1.predict_proba(m.values), g2.predict_proba(m.values))


def test_gbt_hyper_validation():
    for bad in ({"learning_rate": 0.0}, {"learning_rate": 1.5}, {"n_estimators": 0}, {"max_depth": 0}, {"min_leaf": 0}):
        with pytest.raises(ValueError):
            GbtHyper(**bad)


def test_gbt_tie_across_feature_blocks_picks_the_earlier_feature():
    rng = np.random.default_rng(13)
    X = rng.random((200, 11))
    X[:, 10] = X[:, 2]  # the same column in the second block of eight
    y = (rng.random(200) < 0.15 + 0.7 * (X[:, 2] > 0.5)).astype(np.int8)
    model = fit_gbt(matrix_from(X, y), GbtHyper(n_estimators=5, max_depth=2))
    assert model.trees[0].feature[0] == 2
    assert all(10 not in tree.feature for tree in model.trees)


def per_tree_sum(trees, X, start, weight):
    """The per-tree loop that `sum_leaves` replaces."""
    out = np.full(X.shape[0], start)
    for tree in trees:
        out += weight * tree.value[leaf_assignment(tree, X)]
    return out


def test_stacked_prediction_equals_the_per_tree_loop_bit_for_bit():
    m = forest_training_matrix(n=700, seed=14)  # crosses row-block edges
    X = np.random.default_rng(15).random((700, 4)) * 1.2 - 0.1
    stump = RegressionTree(
        feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32), value=np.array([0.3]),
    )
    forest = fit_random_forest(m, ForestHyper(n_estimators=6, seed=4, min_leaf=1))
    forest.trees.insert(2, stump)
    want = np.clip(per_tree_sum(forest.trees, X, 0.0, 1.0) / len(forest.trees), 0.0, 1.0)
    assert forest.predict_proba(X).tobytes() == want.tobytes()

    gbt = fit_gbt(m, GbtHyper(n_estimators=8, max_depth=4))
    gbt.trees.append(stump)
    want = per_tree_sum(gbt.trees, X, gbt.init_score, gbt.learning_rate)
    assert gbt.decision_scores(X).tobytes() == want.tobytes()


def test_fit_model_dispatch():
    m = forest_training_matrix()
    assert isinstance(fit_model("logistic", m, LogisticHyper()), LogisticModel)
    assert isinstance(fit_model("forest", m, ForestHyper(n_estimators=2)), ForestModel)
    assert isinstance(fit_model("gbt", m, GbtHyper(n_estimators=2)), GbtModel)
    with pytest.raises(ValueError):
        fit_model("svm", m, LogisticHyper())


def test_predict_proba_checks_width():
    m = forest_training_matrix()
    model = fit_model("logistic", m, LogisticHyper())
    with pytest.raises(WidthMismatchError):
        predict_proba(model, m.values[:, :2])
    p = predict_proba(model, m.values)
    assert p.shape == (m.values.shape[0],)


@pytest.mark.parametrize("kind,hyper", [
    ("logistic", LogisticHyper(max_iters=100)),
    ("forest", ForestHyper(n_estimators=5, seed=3)),
    ("gbt", GbtHyper(n_estimators=5)),
])
def test_serialization_round_trip(kind, hyper):
    m = forest_training_matrix(n=150, seed=8)
    model = fit_model(kind, m, hyper)
    buf = io.StringIO()
    save_model(model, buf)
    buf.seek(0)
    back = load_model(buf)
    assert back.kind == kind
    assert back.columns == model.columns
    np.testing.assert_array_equal(back.scale, model.scale)
    np.testing.assert_array_equal(back.predict_proba(m.values), model.predict_proba(m.values))
    # a loaded model saves to the same bytes: key order, dtypes and NaN <-> null survive
    again = io.StringIO()
    save_model(back, again)
    assert again.getvalue() == buf.getvalue()


def test_serialization_round_trip_via_path(tmp_path):
    m = forest_training_matrix(n=100, seed=10)
    model = fit_model("gbt", m, GbtHyper(n_estimators=3))
    path = tmp_path / "model.json"
    with open(path, "w") as stream:
        save_model(model, stream)
    back = load_model(path)
    np.testing.assert_array_equal(back.predict_proba(m.values), model.predict_proba(m.values))


def test_load_rejects_malformed_payloads(tmp_path, saved_payloads):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad_json)
    with pytest.raises(ModelFormatError):
        model_from_dict({"kind": "logistic"})  # no version
    with pytest.raises(ModelFormatError):
        model_from_dict({"format_version": 99, "kind": "logistic"})
    with pytest.raises(ModelFormatError):
        model_from_dict(
            {"format_version": 1, "kind": "perceptron", "columns": [], "scale": [], "standardized": False}
        )
    m = forest_training_matrix(n=80, seed=11)
    payload = model_to_dict(fit_model("logistic", m, LogisticHyper()))
    del payload["weights"]
    with pytest.raises(ModelFormatError):
        model_from_dict(payload)

    # payloads that parse but that no fit produces
    accepted = []
    for name, kind, mutate in MISTYPED + INCONSISTENT:
        payload = json.loads(saved_payloads[kind])
        mutate(payload)
        try:
            model_from_dict(payload)
            accepted.append(name)
        except ModelFormatError:
            pass
    assert accepted == []


def onehot_training_matrix(n=120, seed=13):
    """Columns 0-2 one one-hot group of "unit", then two numeric features."""
    rng = np.random.default_rng(seed)
    level = rng.integers(0, 3, n)
    X = np.column_stack([level == 0, level == 1, level == 2, rng.random((n, 2))]).astype(float)
    y = (rng.random(n) < 0.2 + 0.5 * (level == 1)).astype(np.int8)
    columns = [Column(f"unit={v}", "onehot", "unit", v) for v in ("82 LRS", "83 LRS", "<unknown>")]
    columns += [Column(name, "numeric") for name in ("operational_weeks", "utilization")]
    return FeatureMatrix(columns=columns, values=X, labels=y, scale=np.ones(5))


SMALL_HYPERS = {
    "logistic": LogisticHyper(max_iters=50),
    "forest": ForestHyper(n_estimators=2, seed=1),
    "gbt": GbtHyper(n_estimators=2),
}


def _tree_edit(field, at, value):
    """Set `field` of the first tree's first split (at="split") or first
    leaf (at="leaf") to `value`; "self" stands for that node's own index."""

    def mutate(payload):
        tree = payload["trees"][0]
        node = next(i for i, f in enumerate(tree["feature"]) if (f >= 0) == (at == "split"))
        tree[field][node] = node if value == "self" else value

    return mutate


def _all_leaves(value):
    """Set a GBT's learning rate to 1 and every leaf of every tree to `value`."""

    def mutate(payload):
        payload["learning_rate"] = 1.0
        for tree in payload["trees"]:
            tree["value"] = [value if f < 0 else v for f, v in zip(tree["feature"], tree["value"])]

    return mutate


@pytest.fixture(scope="module")
def saved_payloads():
    """The JSON of a small fitted model per kind, and of a logistic fit with a one-hot group as "one-hot"."""
    m = forest_training_matrix(n=120, seed=12)
    saved = {kind: json.dumps(model_to_dict(fit_model(kind, m, hyper))) for kind, hyper in SMALL_HYPERS.items()}
    saved["one-hot"] = json.dumps(model_to_dict(fit_model("logistic", onehot_training_matrix(), SMALL_HYPERS["logistic"])))
    return saved


# (what is wrong, model kind or "one-hot" for a logistic fit with a one-hot group, mutation of a saved payload):
# a JSON value of a type the field is not read from, refused by the load alone
MISTYPED = [
    ("nested weights", "logistic", lambda p: p.update(weights=[[w] for w in p["weights"]])),
    ("intercept past the float range", "logistic", lambda p: p.update(intercept=10**400)),
    ("string intercept", "logistic", lambda p: p.update(intercept="0.5")),
    ("boolean scale entry", "logistic", lambda p: p.update(scale=[True, *p["scale"][1:]])),
    ("string learning rate", "gbt", lambda p: p.update(learning_rate="0.1")),
    ("boolean split feature", "forest", _tree_edit("feature", "split", True)),
    ("boolean format version", "logistic", lambda p: p.update(format_version=True)),
]
# a state that no fit produces, refused by the model type
INCONSISTENT = [
    ("short weights", "logistic", lambda p: p.update(weights=p["weights"][:-1])),
    ("short scale", "logistic", lambda p: p.update(scale=p["scale"][:-1])),
    ("null scale", "logistic", lambda p: p.update(scale=[None, *p["scale"][1:]])),
    ("zero scale", "logistic", lambda p: p.update(scale=[0.0, *p["scale"][1:]])),
    ("infinite intercept", "logistic", lambda p: p.update(intercept=float("inf"))),
    ("no trees", "forest", lambda p: p.update(trees=[])),
    ("self-looping node", "forest", _tree_edit("left", "split", "self")),
    ("child past the last node", "forest", _tree_edit("right", "split", 10**6)),
    ("feature past the width", "forest", _tree_edit("feature", "split", 999)),
    ("fractional feature", "forest", _tree_edit("feature", "split", 1.5)),
    ("null threshold", "forest", _tree_edit("threshold", "split", None)),
    ("null leaf value", "forest", _tree_edit("value", "leaf", None)),
    ("short value array", "forest", lambda p: p["trees"][0]["value"].pop()),
    ("tree with no nodes", "forest", lambda p: p["trees"][0].update(feature=[], threshold=[], left=[], right=[], value=[])),
    ("leaf threshold", "forest", _tree_edit("threshold", "leaf", 0.5)),
    ("leaf child", "forest", _tree_edit("left", "leaf", "self")),
    ("split value", "forest", _tree_edit("value", "split", 2.0)),
    ("NaN learning rate", "gbt", lambda p: p.update(learning_rate=float("nan"))),
    ("zero learning rate", "gbt", lambda p: p.update(learning_rate=0)),
    ("negative learning rate", "gbt", lambda p: p.update(learning_rate=-1)),
    ("no boosted trees", "gbt", lambda p: p.update(trees=[])),
    ("self-looping boosted node", "gbt", _tree_edit("right", "split", "self")),
    ("leaves that sum past the float range", "gbt", _all_leaves(1e308)),
    ("unknown column kind", "one-hot", lambda p: p["columns"][3].update(kind="ordinal")),
    ("null one-hot level", "one-hot", lambda p: p["columns"][0].update(level=None)),
    ("null one-hot group", "one-hot", lambda p: p["columns"][0].update(group=None)),
    ("one-hot level twice", "one-hot", lambda p: p["columns"].__setitem__(1, dict(p["columns"][0]))),
    ("numeric feature twice", "one-hot", lambda p: p["columns"].__setitem__(4, dict(p["columns"][3]))),
]


def construct(kind: str, payload: dict):
    """The model a payload's fields describe, built by its class's
    constructor from Python values: a list of numbers as a float array."""
    def value(name, v):
        if name == "columns":
            return [Column(**c) for c in v]
        if name == "trees":
            return [RegressionTree(**{k: np.array(a, dtype=np.float64) for k, a in t.items()}) for t in v]
        return np.array(v, dtype=np.float64) if isinstance(v, list) else v

    return MODELS[kind][2](**{k: value(k, v) for k, v in payload.items() if k not in ("format_version", "kind")})


@pytest.mark.parametrize("name, kind, mutate", INCONSISTENT, ids=[row[0] for row in INCONSISTENT])
def test_a_model_refuses_each_inconsistent_state_as_its_load_does(saved_payloads, name, kind, mutate):
    """A model built by its constructor refuses each state that the load
    refuses, with the load's message: the rules belong to the model type."""
    payload = json.loads(saved_payloads[kind])
    construct(payload["kind"], payload)  # the fitted state itself is accepted
    mutate(payload)
    with pytest.raises(ModelFormatError) as loaded:
        model_from_dict(payload)
    with pytest.raises(ValueError) as built:
        construct(payload["kind"], payload)
    assert str(loaded.value) == f"malformed model payload: {built.value}"


def test_tree_nan_values_survive_json():
    m = forest_training_matrix(n=120, seed=12)
    model = fit_model("forest", m, ForestHyper(n_estimators=2, seed=1))
    assert any(t.n_nodes > 1 for t in model.trees)
    payload = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(payload)
    np.testing.assert_array_equal(back.predict_proba(m.values), model.predict_proba(m.values))
