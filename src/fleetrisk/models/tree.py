"""Depth-bounded CART regression trees over dense float matrices.

Nodes live in flat parallel arrays rather than linked objects: column j of
the tree is node j's split feature (-1 for a leaf), threshold, child
indices, and leaf value. That keeps models cheap to serialize and traverse.

Fitting is exact greedy search. `bin_columns` turns each column into dense
rank codes once per fit, so a forest bins once for all its trees and
boosting once for all its rounds; `grow_tree` then grows a tree on row
indices into the shared matrix, codes and targets. The codes order rows
exactly as the float values do, so a node's candidates are scored in
blocks of features with one stable sort of the codes (a radix sort up to
65,536 distinct values) and one prefix sum, and only where the sorted codes
step to a new value. The chosen split and every float it produces (sums,
gains, threshold midpoints, leaf means) are the ones a per-feature float
sort would give, bit for bit. A threshold is the midpoint of the two
values it separates, or the lower value when the midpoint of adjacent
doubles rounds up to the upper one; rows route on X <= threshold.

Prediction (`sum_leaves`) concatenates a model's trees into one node array
whose leaves point at themselves and walks every tree at once, one level
per step, over blocks of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import NonFiniteFeatureError

ZERO_REDUCTION = 1e-12
FEATURE_BLOCK = 8        # candidate features scored together in one node
WALK_BLOCK = 1 << 15     # (row, tree) pairs walked together in `sum_leaves`


def as_dense(X) -> np.ndarray:
    """A dense or CSR design matrix as a C-ordered float64 array."""
    if sp.issparse(X):
        X = X.toarray()
    return np.ascontiguousarray(X, dtype=np.float64)


@dataclass
class RegressionTree:
    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32, -1 at leaves
    right: np.ndarray      # int32, -1 at leaves
    value: np.ndarray      # float64, leaf mean (nan at internal nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return sum_leaves([self], as_dense(X), 0.0, 1.0)


def sum_leaves(trees: list[RegressionTree], X: np.ndarray, start, weight: float) -> np.ndarray:
    """start + weight * leaf value of each tree in turn, per row of X.

    The sum runs tree by tree in list order, so it equals a loop of
    ``out += weight * tree.predict(X)`` bit for bit. `start` is a scalar
    or one value per row.
    """
    n = X.shape[0]
    out = np.empty(n)
    out[:] = start
    if not trees or n == 0:
        return out
    sizes = np.array([t.n_nodes for t in trees])
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    leaf = feature < 0
    self_index = np.arange(len(feature), dtype=np.int64)
    shift = np.repeat(offsets, sizes)
    left = np.where(leaf, self_index, np.concatenate([t.left for t in trees]) + shift)
    right = np.where(leaf, self_index, np.concatenate([t.right for t in trees]) + shift)
    feature = np.where(leaf, 0, feature)  # any real column; a leaf goes to itself either way
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])

    depth = 0
    frontier = offsets[~leaf[offsets]]
    while len(frontier):
        children = np.concatenate([left[frontier], right[frontier]])
        frontier = children[~leaf[children]]
        depth += 1

    rows_per_block = max(1, WALK_BLOCK // len(trees))
    for lo in range(0, n, rows_per_block):
        Xb = X[lo:lo + rows_per_block]
        idx = np.broadcast_to(offsets, (Xb.shape[0], len(trees)))
        for _ in range(depth):
            go_left = np.take_along_axis(Xb, feature[idx], axis=1) <= threshold[idx]
            idx = np.where(go_left, left[idx], right[idx])
        terms = np.empty((Xb.shape[0], len(trees) + 1))
        terms[:, 0] = out[lo:lo + rows_per_block]
        np.multiply(weight, value[idx], out=terms[:, 1:])
        # cumsum adds left to right, the order of the per-tree loop
        out[lo:lo + rows_per_block] = np.cumsum(terms, axis=1)[:, -1]
    return out


def check_tree_size(max_depth: int, min_leaf: int) -> None:
    """The tree-size hyperparameters a forest or boosting run accepts."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")


def bin_columns(X: np.ndarray) -> np.ndarray:
    """Dense rank codes, one row per column of X: equal values share a
    code and codes order as the values do.

    Raises NonFiniteFeatureError on nan or inf, which have no such order.
    """
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeatureError("design matrix contains non-finite values")
    levels = [np.unique(X[:, j]) for j in range(X.shape[1])]
    n_codes = max(map(len, levels), default=0)
    # 8- and 16-bit codes take numpy's radix sort
    dtype = np.uint8 if n_codes <= 1 << 8 else np.uint16 if n_codes <= 1 << 16 else np.uint32
    codes = np.empty((X.shape[1], X.shape[0]), dtype=dtype)
    for j, column_levels in enumerate(levels):
        codes[j] = np.searchsorted(column_levels, X[:, j])
    return codes


def _best_split(X, codes, y_rows, rows, candidates, min_leaf):
    """Best (feature, threshold) over the candidate features, by SSE reduction.

    For rows sorted on a feature the left-sum prefix gives every split's
    score: reduction = S_L^2/n_L + S_R^2/n_R - S^2/n. Splits fall only
    between distinct values and leave at least `min_leaf` rows per side.
    """
    n = len(rows)
    total = y_rows.sum()
    base = total * total / n
    # split after sorted position i leaves i + 1 rows on the left
    lo, hi = max(min_leaf, 1) - 1, n - max(min_leaf, 1)

    best_gain = ZERO_REDUCTION
    best_feature = -1
    best_threshold = 0.0
    for b in range(0, len(candidates), FEATURE_BLOCK):
        block = candidates[b:b + FEATURE_BLOCK]
        block_codes = codes.take(block, axis=0).take(rows, axis=1)
        order = np.argsort(block_codes, axis=1, kind="stable")
        sorted_codes = block_codes.ravel().take(order + np.arange(0, order.size, n)[:, None])
        prefix = y_rows[order]
        np.cumsum(prefix, axis=1, out=prefix)
        k, pos = np.nonzero(sorted_codes[:, lo:hi] != sorted_codes[:, lo + 1:hi + 1])
        if len(pos) == 0:
            continue
        pos += lo
        left_sum = prefix[k, pos]
        n_left = pos + 1
        gains = left_sum**2 / n_left + (total - left_sum) ** 2 / (n - n_left) - base
        # candidates come feature by feature, positions ascending, so the
        # first maximum is the first threshold of the first best feature;
        # strict > keeps the earlier block on ties
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = gains[i]
            best_feature = int(block[k[i]])
            below, above = X[rows[order[k[i], pos[i]:pos[i] + 2]], best_feature]
            best_threshold = 0.5 * (below + above)
            if not best_threshold < above:
                # the midpoint of adjacent doubles can round up; X <= t
                # must send the upper value right, or a child ends up empty
                best_threshold = below
    return best_feature, best_threshold


def grow_tree(
    X: np.ndarray,
    codes: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    max_depth: int,
    min_leaf: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegressionTree:
    """Grow a tree greedily on X[rows], y[rows], with codes from `bin_columns(X)`.

    `rows` may repeat (a bootstrap sample). `max_features` (with `rng`)
    samples a candidate feature subset per split, as random forests
    require; None means all.
    """
    p = X.shape[1]
    all_features = np.arange(p)

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
        if depth >= max_depth or len(rows) < 2 * min_leaf or len(rows) < 2:
            value[node] = float(y_rows.mean())
            continue
        if max_features is not None and max_features < p:
            candidates = rng.choice(p, size=max_features, replace=False)
            candidates.sort()
        else:
            candidates = all_features
        f, t = _best_split(X, codes, y_rows, rows, candidates, min_leaf)
        if f < 0:
            value[node] = float(y_rows.mean())
            continue
        # the threshold lies at or above the last value on the left and
        # below the first on the right, so this is the scored split
        go_left = X[rows, f] <= t
        feature[node] = f
        threshold[node] = t
        left[node] = lc = new_node()
        right[node] = rc = new_node()
        stack.append((rc, rows[~go_left], depth + 1))
        stack.append((lc, rows[go_left], depth + 1))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int = 12,
    min_leaf: int = 5,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegressionTree:
    """Grow one tree on every row of X (see `grow_tree`)."""
    X = as_dense(X)
    y = np.asarray(y, dtype=np.float64)
    return grow_tree(X, bin_columns(X), y, np.arange(X.shape[0]), max_depth, min_leaf, max_features, rng)
