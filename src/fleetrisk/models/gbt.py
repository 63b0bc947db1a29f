"""Gradient-boosted trees on log-odds, squared-error residual fit per round.

Each round fits a shallow regression tree to y - p (the gradient of
log-loss with respect to the score) and adds lr times its output to the
running score. The initial score is the base-rate logit, so zero rounds
degenerates to predicting the training prevalence everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from ..errors import SingleClassLabelsError
from ..features import Column, FeatureMatrix
from .tree import RegressionTree, as_dense, bin_columns, check_tree_size, grow_tree, sum_leaves


@dataclass(frozen=True)
class GbtHyper:
    learning_rate: float = 0.1
    n_estimators: int = 200
    max_depth: int = 3
    min_leaf: int = 5

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        check_tree_size(self.max_depth, self.min_leaf)


@dataclass
class GbtModel:
    init_score: float
    learning_rate: float
    trees: list[RegressionTree]
    columns: list[Column]
    scale: np.ndarray
    standardized: bool

    kind = "gbt"

    def decision_scores(self, X) -> np.ndarray:
        return sum_leaves(self.trees, as_dense(X), self.init_score, self.learning_rate)

    def predict_proba(self, X) -> np.ndarray:
        return expit(self.decision_scores(X))


def fit_gbt(matrix: FeatureMatrix, hyper: GbtHyper = GbtHyper()) -> GbtModel:
    X = as_dense(matrix.values)
    y = np.asarray(matrix.labels, dtype=np.float64)
    codes = bin_columns(X)
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    init = float(logit(y.mean()))
    all_rows = np.arange(len(y))
    score = np.full(len(y), init)
    trees = []
    for _ in range(hyper.n_estimators):
        residual = y - expit(score)
        tree = grow_tree(X, codes, residual, all_rows, hyper.max_depth, hyper.min_leaf)
        score = sum_leaves([tree], X, score, hyper.learning_rate)
        trees.append(tree)

    return GbtModel(
        init_score=init,
        learning_rate=hyper.learning_rate,
        trees=trees,
        columns=list(matrix.columns),
        scale=np.asarray(matrix.scale, dtype=np.float64),
        standardized=matrix.standardized,
    )
