"""Depth-bounded CART regression trees over a design matrix's columns.

Nodes live in flat parallel arrays rather than linked objects: column j of
the tree is node j's split feature (-1 for a leaf), threshold, child
indices, and leaf value. That keeps models cheap to serialize and traverse.
Nodes are numbered as they grow, a split node's children after it and side
by side (right == left + 1).

Fitting is exact greedy search on a `feature_view` of the matrix, built
once per fit (so once for all of a forest's trees or boosting's rounds)
without making the matrix dense. A numeric column keeps its values and
dense rank codes, which order rows as the values do; a one-hot group whose
rows store at most one of its columns, each column one positive value,
becomes one level code per row, read from the CSR indices, and a level
split leaves every row outside the level on the left. Any other column is
scored as a numeric one. Ties go to the first column, then the lower
threshold. A threshold is the midpoint of the two values it separates (the
lower one when the midpoint of adjacent doubles rounds up); rows route on
X <= threshold, and while growing, on level codes.

Boosting grows its one tree per round with `grow_tree`, depth-first on row
indices: a node scores every numeric column, in blocks, with one stable sort
of the codes (radix up to 65,536 values) and one prefix sum, and every
level from one `np.bincount` of counts and one of target sums, so every
float is what a per-feature float sort gives, bit for bit (a residual's
level sums may differ in the last bit). A forest grows its trees with
`grow_forest`, a batch of bootstrap samples together a depth at a time:
each distinct (tree, row) is one entry weighted by its count, and per depth
a stable sort by node and code of the entries of the nodes that draw a
numeric column, one prefix sum, and one `np.bincount` per group score every
open node at once. Its 0/1 labels make every sum an integer, the same in
any order.

A `TreeWalk` stacks trees into one node array whose leaves point at
themselves and walks them all at once, one level per step, over blocks of
rows made dense in the columns some tree splits on. A `TreeEnsemble` model
keeps its walk until its tree list holds other trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import InvalidConfigError, NonFiniteFeatureError
from ..features import Fitted, onehot_groups

ZERO_REDUCTION = 1e-12
FEATURE_BLOCK = 8        # candidate features scored together in one node
WALK_BLOCK = 1 << 15     # (row, tree) pairs grown or walked together, or (row, column) cells walked together


@dataclass(eq=False)  # identity equality: a walk is rebuilt for a tree list that holds other trees
class RegressionTree:
    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32, -1 at leaves
    right: np.ndarray      # int32, -1 at leaves
    value: np.ndarray      # float64, leaf mean (nan at internal nodes)

    def __post_init__(self):
        # a tree read back from JSON arrives as float arrays
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        index = [np.asarray(a) for a in (self.feature, self.left, self.right)]
        with np.errstate(invalid="ignore"):
            self.feature, self.left, self.right = (a.astype(np.int32) for a in index)
        if not all(map(np.array_equal, (self.feature, self.left, self.right), index)):
            raise ValueError("tree node and feature indices must be 32-bit integers")
        n = self.n_nodes
        if n == 0 or any(a.shape != (n,) for a in (self.feature, self.threshold, self.left, self.right, self.value)):
            raise ValueError("a tree needs five equally long node arrays with at least one node")
        split = self.feature >= 0
        node, left, right, leaf = np.flatnonzero(split), self.left[split], self.right[split], ~split
        # children come after their parent, so every walk ends at a leaf
        if not np.all((left > node) & (right > node) & (left < n) & (right < n)):
            raise ValueError("a tree split needs later nodes as children")
        if not (np.all(np.isfinite(self.threshold[split])) and np.all(np.isfinite(self.value[leaf]))):
            raise ValueError("a tree needs finite thresholds and leaf values")
        # what every fit writes where nothing reads it
        indices = np.stack((self.feature, self.left, self.right))
        if np.any(indices[:, leaf] != -1) or np.any(self.threshold[leaf] != 0) or not np.isnan(self.value[split]).all():
            raise ValueError("a tree leaf needs -1 as feature and children and 0 as threshold, and a split null as value")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


class TreeWalk:
    """Trees stacked into one node array whose leaves point at themselves.
    Node features index `used`, the columns some tree splits on."""

    def __init__(self, trees):
        self.trees = tuple(trees)
        sizes = np.array([t.n_nodes for t in self.trees], dtype=np.int64)
        self.offsets = np.cumsum(sizes) - sizes
        stack = lambda name: np.concatenate([getattr(t, name) for t in self.trees])
        feature = stack("feature")
        leaf = feature < 0
        self_index = np.arange(len(feature), dtype=np.int64)
        shift = np.repeat(self.offsets, sizes)
        self.left = np.where(leaf, self_index, stack("left") + shift)
        self.right = np.where(leaf, self_index, stack("right") + shift)
        self.used = np.unique(feature[~leaf]).astype(np.intp)
        self.feature = np.searchsorted(self.used, feature)  # a leaf reads used column 0 and goes to itself
        self.threshold = stack("threshold")
        self.value = stack("value")
        self.depth = 0
        frontier = self.offsets[~leaf[self.offsets]]
        while len(frontier):
            children = np.concatenate([self.left[frontier], self.right[frontier]])
            frontier = children[~leaf[children]]
            self.depth += 1

    def sum_leaves(self, X, start, weight: float) -> np.ndarray:
        """start (a scalar or one value per row) + weight * leaf value of
        each tree in turn, per row of X (dense or CSR). The sum runs tree by
        tree in list order, as a loop that adds each tree's leaf value
        times `weight` to `start` would, bit for bit."""
        X = sp.csr_matrix(X, dtype=np.float64)
        n = X.shape[0]
        out = np.empty(n)
        out[:] = start
        used = X[:, self.used]
        rows_per_block = max(1, WALK_BLOCK // max(len(self.trees), len(self.used)))
        for lo in range(0, n, rows_per_block):
            Xb = used[lo:lo + rows_per_block].toarray()
            idx = np.broadcast_to(self.offsets, (Xb.shape[0], len(self.trees)))
            for _ in range(self.depth):
                go_left = np.take_along_axis(Xb, self.feature[idx], axis=1) <= self.threshold[idx]
                idx = np.where(go_left, self.left[idx], self.right[idx])
            terms = np.empty((Xb.shape[0], len(self.trees) + 1))
            terms[:, 0] = out[lo:lo + rows_per_block]
            np.multiply(weight, self.value[idx], out=terms[:, 1:])
            # cumsum adds left to right, the order of the per-tree loop
            out[lo:lo + rows_per_block] = np.cumsum(terms, axis=1)[:, -1]
        return out


class TreeEnsemble(Fitted):
    """A model that sums the leaves of its `trees` (its last field, at least one tree)
    through a `TreeWalk`, built again when `trees` holds other trees."""

    no_trees = "an ensemble needs at least one tree"

    def __post_init__(self):
        super().__post_init__()
        if not self.trees:
            raise ValueError(self.no_trees)
        width = len(self.columns)
        if any(tree.feature.max() >= width for tree in self.trees):
            raise ValueError(f"a tree split needs a feature below {width}")

    def sum_leaves(self, X, start, weight: float) -> np.ndarray:
        walk = getattr(self, "_walk", None)
        if walk is None or walk.trees != tuple(self.trees):
            walk = self._walk = TreeWalk(self.trees)
        return walk.sum_leaves(X, start, weight)


def check_tree_size(max_depth: int, min_leaf: int) -> None:
    """The tree-size hyperparameters a forest or boosting run accepts."""
    if max_depth < 1:
        raise InvalidConfigError("max_depth must be >= 1")
    if min_leaf < 1:
        raise InvalidConfigError("min_leaf must be >= 1")


@dataclass
class FeatureView:
    """What a tree fit reads of each design-matrix column."""

    values: np.ndarray        # float64, one row per numeric column
    codes: np.ndarray         # dense rank codes of `values`: equal values share a code, codes order as values
    levels: list[np.ndarray]  # per one-hot group, each row's level; a row that stores none has len(group)
    group: np.ndarray         # per column, its one-hot group, or -1 when scored as numeric
    slot: np.ndarray          # per column, its row of `values`, or its level in its group
    split_at: np.ndarray      # per column of a group, the threshold between 0 and its value


def feature_view(X, columns=()) -> FeatureView:
    """The view of design matrix X (dense or CSR) whose `columns`, when
    given, name each "onehot" column's group. Raises NonFiniteFeatureError
    on nan or inf, which have no order."""
    X = sp.csr_matrix(X, dtype=np.float64)
    if not X.has_canonical_format:  # sorted, no duplicate entries
        X = X.copy()
        X.sum_duplicates()
    if not np.all(np.isfinite(X.data)):
        raise NonFiniteFeatureError("design matrix contains non-finite values")
    n, p = X.shape
    row, col, data = np.repeat(np.arange(n), np.diff(X.indptr)), X.indices, X.data
    group, slot, split_at, levels = np.full(p, -1), np.zeros(p, dtype=np.intp), np.zeros(p), []
    for members, codes, stored in onehot_groups(X, columns):
        value = np.zeros(len(members) + 1)  # and 0 at the level of rows that store none
        value[codes] = stored
        # each level stores one positive value
        if np.array_equal(value[codes], stored) and np.all((stored > 0) == (codes < len(members))):
            group[members], slot[members], split_at[members] = len(levels), np.arange(len(members)), 0.5 * (0.0 + value[:-1])
            levels.append(codes)
    numeric = np.flatnonzero(group < 0)
    slot[numeric] = np.arange(len(numeric))
    values = np.zeros((len(numeric), n))
    at = group[col] < 0
    values[slot[col[at]], row[at]] = data[at]
    ranks = [np.unique(v) for v in values]
    n_codes = max(map(len, ranks), default=0)
    # 8- and 16-bit codes take numpy's radix sort
    codes = np.empty(values.shape, np.uint8 if n_codes <= 1 << 8 else np.uint16 if n_codes <= 1 << 16 else np.uint32)
    for k, rank in enumerate(ranks):
        codes[k] = np.searchsorted(rank, values[k])
    return FeatureView(values, codes, levels, group, slot, split_at)


def _best_split(view, y_rows, rows, min_leaf):
    """Best (feature, threshold) over every column, by SSE
    reduction = S_L^2/n_L + S_R^2/n_R - S^2/n. Numeric splits fall between
    distinct values, each scored from the left-sum prefix of rows sorted on
    the feature; a level split leaves the rows outside the level on the
    left. Each side keeps at least `min_leaf` rows."""
    n = len(rows)
    total = y_rows.sum()
    base = total * total / n
    gain = lambda left_sum, n_left: left_sum**2 / n_left + (total - left_sum) ** 2 / (n - n_left) - base
    least = max(min_leaf, 1)
    # split after sorted position i leaves i + 1 rows on the left
    lo, hi = least - 1, n - least

    # (gain, feature, threshold): the first best numeric split, which must
    # gain more than ZERO_REDUCTION, then each group's first best level split
    best = (ZERO_REDUCTION, -1, 0.0)
    numeric = np.flatnonzero(view.group < 0)
    for b in range(0, len(numeric), FEATURE_BLOCK):
        block = numeric[b:b + FEATURE_BLOCK]
        block_codes = view.codes.take(view.slot[block], axis=0).take(rows, axis=1)
        order = np.argsort(block_codes, axis=1, kind="stable")
        sorted_codes = block_codes.ravel().take(order + np.arange(0, order.size, n)[:, None])
        prefix = y_rows[order]
        np.cumsum(prefix, axis=1, out=prefix)
        k, pos = np.nonzero(sorted_codes[:, lo:hi] != sorted_codes[:, lo + 1:hi + 1])
        if len(pos) == 0:
            continue
        pos += lo
        gains = gain(prefix[k, pos], pos + 1)
        # candidates come feature by feature, positions ascending, so the
        # first maximum is the first threshold of the first best feature;
        # strict > keeps the earlier block on ties
        i = int(np.argmax(gains))
        if gains[i] > best[0]:
            f = int(block[k[i]])
            below, above = view.values[view.slot[f], rows[order[k[i], pos[i]:pos[i] + 2]]]
            t = 0.5 * (below + above)
            # the midpoint of adjacent doubles can round up; X <= t must
            # send the upper value right, or a child ends up empty
            best = (gains[i], f, t if t < above else below)
    splits = [best]
    for g in set(view.group[view.group >= 0].tolist()):
        columns = np.flatnonzero(view.group == g)
        slots = view.slot[columns]
        level, size = view.levels[g][rows], slots.max() + 1
        count = np.bincount(level, minlength=size)[slots]
        level_sum = np.bincount(level, y_rows, minlength=size)[slots]
        ok = (count >= least) & (n - count >= least)
        if ok.sum() == 2 and count[ok].sum() == n:  # the node's only two levels: one partition, keep the lower column
            ok &= np.cumsum(ok) == 1
        if ok.any():
            gains = gain(total - level_sum[ok], n - count[ok])
            i = int(np.argmax(gains))
            f = int(columns[ok][i])
            splits.append((gains[i], f, view.split_at[f]))
    _, feature, threshold = max(splits, key=lambda s: (s[0], -s[1]))
    return feature, threshold


def grow_tree(view: FeatureView, y: np.ndarray, max_depth: int, min_leaf: int) -> tuple[RegressionTree, np.ndarray]:
    """Grow a tree greedily on the view and y, every node scoring every
    column; returns it and the leaf each row ends in."""
    leaf_of = np.empty(len(y), dtype=np.intp)
    leaf = [-1, 0.0, -1, -1, np.nan]  # a node's feature, threshold, left, right and value until it splits or is valued
    # grow depth-first with an explicit stack; children are allocated when
    # their parent splits, so indices are stable
    nodes, stack = [list(leaf)], [(0, np.arange(len(y)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        y_rows = y[rows]
        f, t = -1, 0.0
        if depth < max_depth and len(rows) >= max(2 * min_leaf, 2):
            f, t = _best_split(view, y_rows, rows, min_leaf)
        if f < 0:
            nodes[node][4] = float(y_rows.mean())
            leaf_of[rows] = node
            continue
        # the threshold lies at or above the last value on the left and
        # below the first on the right, so this is the scored split
        g, slot = view.group[f], view.slot[f]
        go_left = view.levels[g][rows] != slot if g >= 0 else view.values[slot, rows] <= t
        lc = len(nodes)
        nodes[node][:4] = f, t, lc, lc + 1
        nodes += [list(leaf), list(leaf)]
        stack.append((lc + 1, rows[~go_left], depth + 1))
        stack.append((lc, rows[go_left], depth + 1))
    return RegressionTree(*zip(*nodes)), leaf_of



def _prefix(values, count, i, a):
    """At positions `i`, in runs `a` of the consecutive runs of `count`
    values, the sum of the run's values up to i; exact for integers."""
    out, start = np.cumsum(values), (np.cumsum(count) - count)[a]
    return out[i] - (out[start] - values[start])


def _first_best(node, gain):
    """For each run of equal `node`, its first position and the position of its first highest gain."""
    seg = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    hit = np.flatnonzero(gain == np.repeat(np.maximum.reduceat(gain, seg), np.diff(np.append(seg, len(gain)))))
    return seg, hit[np.searchsorted(hit, seg)]


def grow_forest(
    view: FeatureView, counts: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int,
    max_features: int, rngs,
) -> list[RegressionTree]:
    """A tree per row of `counts` (each view row's count in that tree's
    bootstrap sample, its generator in `rngs`), grown together a depth at a
    time, on 0/1 labels `y`. Depth by depth, left before right, each node
    that may split draws its candidate columns from its tree's generator,
    `choice(width, max_features, replace=False)`, or takes every column when
    `max_features` is at least the width. It splits by `grow_tree`'s rules;
    each (tree, row) is one entry weighted by its count, so every sum is an
    integer, the same in any order."""
    tree, row = np.nonzero(counts)
    numeric, one_hot = np.flatnonzero(view.group < 0), np.flatnonzero(view.group >= 0)
    first = np.cumsum(np.append(0, np.bincount(view.group[one_hot], minlength=len(view.levels)) + 1))  # each group's first level
    L, X = first[-1], np.vstack([view.values, *view.levels])  # X: a row per numeric column, then per group
    level_of = [2 * (f + levels) for f, levels in zip(first, view.levels)]  # each row's level among all groups', twice
    T, p, least = len(counts), len(view.group), max(min_leaf, 1)
    # the entries of this depth's open nodes, in (tree, row) order: their row, count, label and node
    r, w, label, at = row, counts[tree, row].astype(np.float64), y[row].astype(np.intp), tree
    open_tree, base, depths = np.arange(T), 0, []
    for depth in range(max_depth + 1):
        A = len(open_tree)
        by_label = np.bincount(at * 2 + label, w, 2 * A).reshape(A, 2)  # each node's count of 0 and of 1 labels
        n_w, total = by_label.sum(1), by_label[:, 1]
        ready = np.flatnonzero((depth < max_depth) & (n_w >= 2 * least))
        drawn = np.zeros((p, A), bool)  # whether node a draws column f
        if max_features >= p:
            drawn[:, ready] = True
        elif len(ready):
            draws = [rngs[t].choice(p, size=max_features, replace=False) for t in open_tree[ready]]
            drawn[np.concatenate(draws), np.repeat(ready, max_features)] = True
        best, feature, threshold = np.full(A, ZERO_REDUCTION), np.full(A, -1), np.zeros(A)

        def keep_best(a, left, n_left, f, t):  # each node's first best split; keep the higher gain, then the lower column
            gain = left**2 / n_left + (total[a] - left) ** 2 / (n_w[a] - n_left) - total[a] * total[a] / n_w[a]
            seg, hit = _first_best(a, gain)
            a, gain, f, t = a[seg], gain[hit], f[hit], t[hit]
            better = (gain > best[a]) | ((gain == best[a]) & (f < feature[a]))
            best[a[better]], feature[a[better]], threshold[a[better]] = gain[better], f[better], t[better]

        for k, f in ((k, f) for k, f in enumerate(numeric) if drawn[f].any()):
            # the entries of the nodes that draw f, by node, each node's in (value, row) order
            e = np.flatnonzero(drawn[f].take(at))
            e = e[np.argsort(view.codes[k].take(r[e]), kind="stable")]
            e = e[np.argsort(at[e].astype(np.uint16 if A <= 1 << 16 else np.intp), kind="stable")]
            count = np.bincount(at[e], minlength=A)
            v = X[k].take(r[e])
            # split after position i: between two values of one node, leaving min_leaf rows a side
            cut = np.cumsum(count)
            step = v[:-1] != v[1:]
            step[cut[(cut > 0) & (cut < len(v))] - 1] = False
            i = np.flatnonzero(step)
            a = np.searchsorted(cut, i, side="right")
            we = w.take(e)
            n_left = _prefix(we, count, i, a)
            ok = (n_left >= least) & (n_w[a] - n_left >= least)
            i, a, n_left = i[ok], a[ok], n_left[ok]
            if len(i):
                left = _prefix(we * label.take(e), count, i, a)
                below, above = v[i], v[i + 1]
                t = 0.5 * (below + above)
                # the midpoint of adjacent doubles can round up; X <= t must
                # send the upper value right, or a child ends up empty
                keep_best(a, left, n_left, np.full(len(i), f), np.where(t < above, t, below))
        a, c = np.nonzero(drawn[one_hot].T)  # each node's drawn one-hot columns
        if len(a):
            # per drawn (node, level, label): the count of its entries, one bincount per group
            f = one_hot[c]
            pair = np.full((A * L, 2), 2 * len(a))
            pair[a * L + first[view.group[f]] + view.slot[f]] = 2 * np.arange(len(a))[:, None] + [0, 1]
            key = at * (2 * L) + label
            by_label = sum(np.bincount(pair.ravel().take(key + levels.take(r)), w, 2 * len(a) + 2) for levels in level_of)
            count, level_sum = by_label[:-2].reshape(-1, 2).sum(1), by_label[1:-2:2]
            # a level split leaves the rows outside the level on the left; a
            # node's only two levels of a group score the same gain, their
            # terms swapped, so the lower column wins the tie
            ok = np.flatnonzero((count >= least) & (n_w[a] - count >= least))
            a, f, count, level_sum = a[ok], f[ok], count[ok], level_sum[ok]
            if len(a):
                keep_best(a, total[a] - level_sum, n_w[a] - count, f, view.split_at[f])

        split = feature >= 0
        rank = np.cumsum(split) - 1
        depths.append((open_tree, feature, threshold, np.where(split, np.nan, total / n_w),
                       np.where(split, base + A + 2 * rank, -1)))
        if not split.any():
            break
        if not split.all():  # the entries of nodes that do not split end there
            keep = np.flatnonzero(split.take(at))
            r, w, label, at = r[keep], w[keep], label[keep], at[keep]
        # the threshold lies at or above the last value on the left and below
        # the first on the right; a row goes right above it, or at the level split off
        g, s = view.group[feature], view.slot[feature]
        x = X.ravel().take(np.where(g < 0, s, len(numeric) + g).take(at) * X.shape[1] + r)
        right = (x > np.where(g < 0, threshold, s - 0.5).take(at)) & (x < np.where(g < 0, np.inf, s + 0.5).take(at))
        at = (2 * rank).take(at) + right
        open_tree, base = np.repeat(open_tree[split], 2), base + A
    # nodes are numbered by depth, then tree: a stable sort by tree gives each
    # tree its nodes in growth order, a split node's two children side by side
    tree, feature, threshold, value, child = map(np.concatenate, zip(*depths))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=T)
    starts = np.cumsum(sizes) - sizes
    new = np.argsort(order) - starts[tree]  # each node's id in its tree
    left = np.where(child >= 0, new[child], -1)
    arrays = [a[order] for a in (feature, threshold, left, np.where(child >= 0, left + 1, -1), value)]
    return [RegressionTree(*(a[s:s + m] for a in arrays)) for s, m in zip(starts.tolist(), sizes.tolist())]
