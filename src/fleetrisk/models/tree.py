"""Depth-bounded CART regression trees over a design matrix's columns.

Nodes live in flat parallel arrays rather than linked objects: column j of
the tree is node j's split feature (-1 for a leaf), threshold, child
indices, and leaf value. That keeps models cheap to serialize and traverse.

Fitting is exact greedy search on a `feature_view` of the matrix, built
once per fit (so once for all of a forest's trees or boosting's rounds)
without making the matrix dense; `grow_tree` grows a tree on row indices
into it. A numeric column keeps its values and dense rank codes, which
order rows as the values do, so a node scores numeric candidates in
blocks with one stable sort of the codes (radix up to 65,536 values) and
one prefix sum, only where the sorted codes step. A one-hot group whose
rows store at most one of its columns, each column one positive value,
becomes one level code per row, read from the CSR indices: a node scores
each drawn level's one-vs-rest split from one `np.bincount` of counts and
one of target sums over the codes, the left side being every row outside
the level. Any other column is scored as a numeric one. Every float a
split produces (sums, gains, thresholds, leaf means) is what a per-feature
float sort gives, bit for bit, for integer targets such as a forest's 0/1
labels; a boosting residual's level sums may differ in the last bit. Ties
go to the first column. A threshold is the midpoint of the two values it
separates (the lower one when the midpoint of adjacent doubles rounds up);
rows route on X <= threshold, and while growing, on level codes.

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
from ..features import onehot_groups

ZERO_REDUCTION = 1e-12
FEATURE_BLOCK = 8        # candidate features scored together in one node
WALK_BLOCK = 1 << 15     # (row, tree) pairs, or (row, column) cells, walked together in one block


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

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X) -> np.ndarray:
        return TreeWalk([self]).sum_leaves(X, 0.0, 1.0)


class TreeWalk:
    """Trees stacked into one node array whose leaves point at themselves.
    Node features index `used`, the columns some tree splits on."""

    def __init__(self, trees):
        self.trees = tuple(trees)
        sizes = np.array([t.n_nodes for t in self.trees], dtype=np.int64)
        self.offsets = np.cumsum(sizes) - sizes
        stack = lambda name: np.concatenate([getattr(t, name) for t in self.trees] or [np.empty(0)])
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
        tree in list order, so it equals a loop of ``out += weight *
        tree.predict(X)`` bit for bit."""
        X = sp.csr_matrix(X, dtype=np.float64)
        n = X.shape[0]
        out = np.empty(n)
        out[:] = start
        if not self.trees or n == 0:
            return out
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


class TreeEnsemble:
    """A model that sums the leaves of its `trees`, through a `TreeWalk`
    built again when `trees` holds other trees; no field, so never saved."""

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


def _best_split(view, y_rows, rows, candidates, min_leaf):
    """Best (feature, threshold) over the candidate features, by SSE
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
    group = view.group[candidates]

    # (gain, feature, threshold): the first best numeric split, which must
    # gain more than ZERO_REDUCTION, then each group's first best level split
    best = (ZERO_REDUCTION, -1, 0.0)
    numeric = candidates[group < 0]
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
    for g in set(group[group >= 0].tolist()):
        columns = candidates[group == g]
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


def grow_tree(
    view: FeatureView, y: np.ndarray, rows: np.ndarray, max_depth: int, min_leaf: int,
    max_features: int | None = None, rng: np.random.Generator | None = None,
) -> tuple[RegressionTree, np.ndarray]:
    """Grow a tree greedily on `rows` of the view and y (they may repeat,
    as a bootstrap sample does); returns it and the leaf each row of y ends
    in, -1 outside `rows`. `max_features` (with `rng`) samples a candidate
    feature subset per split, as random forests require; None means all."""
    p = len(view.group)
    all_features = np.arange(p)
    leaf_of = np.full(len(y), -1, dtype=np.intp)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(np.nan)
        return len(feature) - 1

    # grow depth-first with an explicit stack; children are allocated when
    # their parent splits, so indices are stable
    root = new_node()
    stack = [(root, rows, 0)]
    while stack:
        node, rows, depth = stack.pop()
        y_rows = y[rows]
        f, t = -1, 0.0
        if depth < max_depth and len(rows) >= max(2 * min_leaf, 2):
            if max_features is not None and max_features < p:
                candidates = rng.choice(p, size=max_features, replace=False)
                candidates.sort()
            else:
                candidates = all_features
            f, t = _best_split(view, y_rows, rows, candidates, min_leaf)
        if f < 0:
            value[node] = float(y_rows.mean())
            leaf_of[rows] = node
            continue
        # the threshold lies at or above the last value on the left and
        # below the first on the right, so this is the scored split
        g, slot = view.group[f], view.slot[f]
        go_left = view.levels[g][rows] != slot if g >= 0 else view.values[slot, rows] <= t
        feature[node] = f
        threshold[node] = t
        left[node] = lc = new_node()
        right[node] = rc = new_node()
        stack.append((rc, rows[~go_left], depth + 1))
        stack.append((lc, rows[go_left], depth + 1))

    return RegressionTree(feature, threshold, left, right, value), leaf_of


def fit_tree(
    X, y: np.ndarray, max_depth: int = 12, min_leaf: int = 5,
    max_features: int | None = None, rng: np.random.Generator | None = None,
) -> RegressionTree:
    """Grow one tree on every row of X, every column numeric (see `grow_tree`)."""
    y = np.asarray(y, dtype=np.float64)
    return grow_tree(feature_view(X), y, np.arange(len(y)), max_depth, min_leaf, max_features, rng)[0]
