"""Random forest: bagged regression trees averaged into a probability.

Each tree draws its bootstrap sample from its own stream, so the trees are
grown across the usable cores in forked worker processes, with results
identical to growing them one after another.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError, SingleClassLabelsError
from ..features import FeatureMatrix, Fitted
from .tree import RegressionTree, TreeEnsemble, check_tree_size, feature_view, grow_tree


@dataclass(frozen=True)
class ForestHyper:
    n_estimators: int = 400
    max_features: int | None = None  # None = floor(sqrt(p)), at least 1
    max_depth: int = 12
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise InvalidConfigError("n_estimators must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise InvalidConfigError("max_features must be >= 1")
        check_tree_size(self.max_depth, self.min_leaf)


@dataclass
class ForestModel(Fitted, TreeEnsemble):
    trees: list[RegressionTree]

    kind = "forest"

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a forest averages its trees, so it needs at least one")

    def predict_proba(self, X) -> np.ndarray:
        total = self.sum_leaves(X, 0.0, 1.0)
        return np.clip(total / len(self.trees), 0.0, 1.0)


# the inputs of the forest a pool worker grows trees for: fork hands the
# initializer's arguments to the worker without pickling them
_worker_inputs = None


def _start_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _grow(i: int, inputs=None) -> RegressionTree:
    """Tree i of the forest on `inputs`, which are (view, y, hyper,
    max_features); by default those the pool worker was started with."""
    view, y, hyper, max_features = inputs or _worker_inputs
    # spawn-style per-tree stream: reordering or dropping trees cannot
    # perturb the others
    rng = np.random.default_rng([hyper.seed, i])
    rows = rng.integers(0, len(y), size=len(y))
    return grow_tree(view, y, rows, hyper.max_depth, hyper.min_leaf, max_features, rng)[0]


def fit_random_forest(matrix: FeatureMatrix, hyper: ForestHyper = ForestHyper()) -> ForestModel:
    view = feature_view(matrix.values, matrix.columns)
    y = np.asarray(matrix.labels, dtype=np.float64)
    p = matrix.width
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    max_features = hyper.max_features
    if max_features is None:
        max_features = max(1, int(np.floor(np.sqrt(p))))
    max_features = min(max_features, p)

    inputs = (view, y, hyper, max_features)
    # one worker per usable core; without affinity or fork (not Linux) the trees grow in process
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, hyper.n_estimators)
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(workers, _start_worker, inputs) as pool:
            trees = pool.map(_grow, range(hyper.n_estimators), chunksize=1)
    else:
        trees = [_grow(i, inputs) for i in range(hyper.n_estimators)]
    return ForestModel.of(matrix, trees=trees)
