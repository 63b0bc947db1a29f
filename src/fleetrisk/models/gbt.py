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

from ..errors import InvalidConfigError, SingleClassLabelsError
from ..features import FeatureMatrix, Fitted
from .tree import RegressionTree, TreeEnsemble, check_tree_size, feature_view, grow_tree


@dataclass(frozen=True)
class GbtHyper:
    learning_rate: float = 0.1
    n_estimators: int = 200
    max_depth: int = 3
    min_leaf: int = 5

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidConfigError("learning_rate must be in (0, 1]")
        if self.n_estimators < 0:
            raise InvalidConfigError("n_estimators must be >= 0")
        check_tree_size(self.max_depth, self.min_leaf)


@dataclass
class GbtModel(Fitted, TreeEnsemble):
    init_score: float
    learning_rate: float
    trees: list[RegressionTree]

    kind = "gbt"

    def decision_scores(self, X) -> np.ndarray:
        return self.sum_leaves(X, self.init_score, self.learning_rate)

    def predict_proba(self, X) -> np.ndarray:
        return expit(self.decision_scores(X))


def fit_gbt(matrix: FeatureMatrix, hyper: GbtHyper = GbtHyper()) -> GbtModel:
    view = feature_view(matrix.values, matrix.columns)
    y = np.asarray(matrix.labels, dtype=np.float64)
    if y.min() == y.max():
        raise SingleClassLabelsError("labels are single-class; cannot fit")

    init = float(logit(y.mean()))
    score = np.full(len(y), init)
    trees = []
    for _ in range(hyper.n_estimators):
        residual = y - expit(score)
        tree, leaf = grow_tree(view, residual, hyper.max_depth, hyper.min_leaf)
        # the same bits as adding the new tree's prediction on the training rows
        score = score + hyper.learning_rate * tree.value[leaf]
        trees.append(tree)

    return GbtModel.of(matrix, init_score=init, learning_rate=hyper.learning_rate, trees=trees)
