"""Random forest: bagged regression trees averaged into a probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingleClassLabelsError
from ..features import Column, FeatureMatrix
from .tree import RegressionTree, as_dense, bin_columns, check_tree_size, grow_tree, sum_leaves


@dataclass(frozen=True)
class ForestHyper:
    n_estimators: int = 400
    max_features: int | None = None  # None = floor(sqrt(p)), at least 1
    max_depth: int = 12
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        check_tree_size(self.max_depth, self.min_leaf)


@dataclass
class ForestModel:
    trees: list[RegressionTree]
    columns: list[Column]
    scale: np.ndarray
    standardized: bool

    kind = "forest"

    def predict_proba(self, X) -> np.ndarray:
        total = sum_leaves(self.trees, as_dense(X), 0.0, 1.0)
        return np.clip(total / len(self.trees), 0.0, 1.0)


def fit_random_forest(matrix: FeatureMatrix, hyper: ForestHyper = ForestHyper()) -> ForestModel:
    X = as_dense(matrix.values)
    y = np.asarray(matrix.labels, dtype=np.float64)
    n, p = X.shape
    codes = bin_columns(X)
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    max_features = hyper.max_features
    if max_features is None:
        max_features = max(1, int(np.floor(np.sqrt(p))))
    max_features = min(max_features, p)

    trees = []
    for i in range(hyper.n_estimators):
        # spawn-style per-tree stream: reordering or dropping trees cannot
        # perturb the others
        rng = np.random.default_rng([hyper.seed, i])
        rows = rng.integers(0, n, size=n)
        trees.append(grow_tree(X, codes, y, rows, hyper.max_depth, hyper.min_leaf, max_features, rng))

    return ForestModel(
        trees=trees,
        columns=list(matrix.columns),
        scale=np.asarray(matrix.scale, dtype=np.float64),
        standardized=matrix.standardized,
    )
