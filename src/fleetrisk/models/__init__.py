"""Risk models: logistic regression, random forest, gradient-boosted trees.

All three share a contract: fit from a FeatureMatrix, predict a
probability per row, round-trip through JSON. `fit_model` / `predict_proba`
dispatch on the kind string so callers stay model-agnostic.
"""

from __future__ import annotations

import numpy as np

from ..errors import WidthMismatchError
from ..features import FeatureMatrix
from .forest import ForestHyper, ForestModel, fit_random_forest
from .gbt import GbtHyper, GbtModel, fit_gbt
from .logistic import LogisticHyper, LogisticModel, fit_logistic
from .persist import load_model, model_from_dict, model_to_dict, save_model
from .tree import RegressionTree, fit_tree

MODEL_KINDS = ("logistic", "forest", "gbt")

_FITTERS = {
    "logistic": (fit_logistic, LogisticHyper),
    "forest": (fit_random_forest, ForestHyper),
    "gbt": (fit_gbt, GbtHyper),
}


def default_hyper(kind: str):
    if kind not in _FITTERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _FITTERS[kind][1]()


def fit_model(kind: str, matrix: FeatureMatrix, hyper=None):
    default = default_hyper(kind)  # also rejects an unknown kind
    return _FITTERS[kind][0](matrix, default if hyper is None else hyper)


def predict_proba(model, X) -> np.ndarray:
    width = X.shape[1]
    if width != len(model.columns):
        raise WidthMismatchError(len(model.columns), width)
    probs = model.predict_proba(X)
    return np.asarray(probs, dtype=np.float64)


__all__ = [
    "MODEL_KINDS",
    "ForestHyper",
    "ForestModel",
    "GbtHyper",
    "GbtModel",
    "LogisticHyper",
    "LogisticModel",
    "RegressionTree",
    "default_hyper",
    "fit_model",
    "fit_tree",
    "fit_random_forest",
    "fit_gbt",
    "fit_logistic",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "predict_proba",
    "save_model",
]
