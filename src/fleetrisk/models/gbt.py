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
from .tree import RegressionTree, as_dense, fit_tree


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
        X = as_dense(X)
        score = np.full(X.shape[0], self.init_score)
        for tree in self.trees:
            score += self.learning_rate * tree.predict(X)
        return score

    def predict_proba(self, X) -> np.ndarray:
        return expit(self.decision_scores(X))


def fit_gbt(matrix: FeatureMatrix, hyper: GbtHyper = GbtHyper()) -> GbtModel:
    X = as_dense(matrix.values)
    y = np.asarray(matrix.labels, dtype=np.float64)
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    init = float(logit(y.mean()))
    score = np.full(len(y), init)
    trees = []
    for _ in range(hyper.n_estimators):
        residual = y - expit(score)
        tree = fit_tree(X, residual, max_depth=hyper.max_depth, min_leaf=hyper.min_leaf)
        score += hyper.learning_rate * tree.predict(X)
        trees.append(tree)

    return GbtModel(
        init_score=init,
        learning_rate=hyper.learning_rate,
        trees=trees,
        columns=list(matrix.columns),
        scale=np.asarray(matrix.scale, dtype=np.float64),
        standardized=matrix.standardized,
    )
