"""Depth-bounded CART regression trees over dense float matrices.

Nodes live in flat parallel arrays rather than linked objects: column j of
the tree is node j's split feature (-1 for a leaf), threshold, child
indices, and leaf value. Prediction walks the arrays, which keeps models
cheap to serialize and traverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

ZERO_REDUCTION = 1e-12


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
        X = np.asarray(X, dtype=np.float64)
        idx = np.zeros(X.shape[0], dtype=np.int32)
        active = self.feature[idx] >= 0
        while np.any(active):
            rows = np.nonzero(active)[0]
            nodes = idx[rows]
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            idx[rows] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = self.feature[idx] >= 0
        return self.value[idx]


def _best_split(X: np.ndarray, y: np.ndarray, rows: np.ndarray, feature_ids: np.ndarray, min_leaf: int):
    """Best (feature, threshold) over the candidate features, by SSE reduction.

    For a sorted column the left-sum prefix gives every split's score in one
    vectorized pass: reduction = S_L^2/n_L + S_R^2/n_R - S^2/n.
    """
    y_rows = y[rows]
    n = len(rows)
    total = y_rows.sum()
    base = total * total / n

    best_gain = ZERO_REDUCTION
    best_feature = -1
    best_threshold = 0.0
    for f in feature_ids:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        y_sorted = y_rows[order]

        prefix = np.cumsum(y_sorted)[:-1]
        n_left = np.arange(1, n)
        n_right = n - n_left
        gains = prefix**2 / n_left + (total - prefix) ** 2 / n_right - base

        valid = col_sorted[:-1] < col_sorted[1:]
        if min_leaf > 1:
            valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(valid):
            continue
        gains = np.where(valid, gains, -np.inf)
        k = int(np.argmax(gains))
        gain = gains[k]
        # strict > keeps the earlier feature on ties; within a feature,
        # argmax already lands on the lowest qualifying threshold
        if gain > best_gain:
            best_gain = gain
            best_feature = int(f)
            best_threshold = 0.5 * (col_sorted[k] + col_sorted[k + 1])
    return best_feature, best_threshold


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int = 12,
    min_leaf: int = 5,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegressionTree:
    """Grow a tree greedily. `max_features` (with `rng`) samples a candidate
    feature subset per split, as random forests require; None means all."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
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
    stack = [(root, np.arange(n), 0)]
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
        f, t = _best_split(X, y, rows, candidates, min_leaf)
        if f < 0:
            value[node] = float(y_rows.mean())
            continue
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
