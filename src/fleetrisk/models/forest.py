"""Random forest: bagged regression trees averaged into a probability.

Each tree draws its bootstrap sample and its nodes' candidate columns from
its own stream, so a tree is the same whichever trees grow beside it: the
pool's forked workers grow batches of up to WALK_BLOCK (tree, row) entries
together, a depth at a time, and without a pool the trees grow one by one.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError, SingleClassLabelsError
from ..features import FeatureMatrix, Fitted
from .tree import WALK_BLOCK, RegressionTree, TreeEnsemble, check_tree_size, feature_view, grow_forest


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


def _grow(indices, inputs=None) -> list[RegressionTree]:
    """The trees of the forest on `inputs` with these indices, grown
    together; `inputs` are (view, y, hyper, max_features), by default those
    the pool worker was started with."""
    view, y, hyper, max_features = inputs or _worker_inputs
    # spawn-style per-tree stream: reordering or dropping trees cannot
    # perturb the others
    rngs = [np.random.default_rng([hyper.seed, i]) for i in indices]
    counts = np.array([np.bincount(rng.integers(0, len(y), size=len(y)), minlength=len(y)) for rng in rngs])
    return grow_forest(view, counts, y, hyper.max_depth, hyper.min_leaf, max_features, rngs)


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
        # a worker grows up to WALK_BLOCK (tree, row) entries together, and at least a batch each
        per = max(1, min(WALK_BLOCK // len(y), -(-hyper.n_estimators // workers)))
        batches = [range(i, min(i + per, hyper.n_estimators)) for i in range(0, hyper.n_estimators, per)]
        with multiprocessing.get_context("fork").Pool(workers, _start_worker, inputs) as pool:
            grown = pool.map(_grow, batches, chunksize=1)
    else:  # in process, a tree at a time, so the caller holds no batch
        grown = [_grow([i], inputs) for i in range(hyper.n_estimators)]
    return ForestModel.of(matrix, trees=[tree for batch in grown for tree in batch])
