"""Model serialization: JSON in, JSON out, bit-exact floats via repr."""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

import numpy as np

from ..errors import ModelFormatError
from ..features import Column
from .forest import ForestModel
from .gbt import GbtModel
from .logistic import LogisticModel
from .tree import RegressionTree

FORMAT_VERSION = 1


def _tree_out(tree: RegressionTree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": [None if np.isnan(v) else v for v in tree.value.tolist()],
    }


def _tree_in(payload: dict) -> RegressionTree:
    return RegressionTree(
        feature=np.asarray(payload["feature"], dtype=np.int32),
        threshold=np.asarray(payload["threshold"], dtype=np.float64),
        left=np.asarray(payload["left"], dtype=np.int32),
        right=np.asarray(payload["right"], dtype=np.int32),
        value=np.asarray([np.nan if v is None else v for v in payload["value"]], dtype=np.float64),
    )


def model_to_dict(model) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "columns": [dict(vars(c)) for c in model.columns],
        "scale": model.scale.tolist(),
        "standardized": model.standardized,
    }
    if model.kind == "logistic":
        out["weights"] = model.weights.tolist()
        out["intercept"] = model.intercept
    elif model.kind == "forest":
        out["trees"] = [_tree_out(t) for t in model.trees]
    elif model.kind == "gbt":
        out["init_score"] = model.init_score
        out["learning_rate"] = model.learning_rate
        out["trees"] = [_tree_out(t) for t in model.trees]
    else:
        raise ModelFormatError(f"unknown model kind {model.kind!r}")
    return out


def model_from_dict(payload: dict):
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ModelFormatError("not a model payload")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version!r}")
    try:
        kind = payload["kind"]
        columns = [Column(**c) for c in payload["columns"]]
        scale = np.asarray(payload["scale"], dtype=np.float64)
        standardized = bool(payload["standardized"])
        if kind == "logistic":
            return LogisticModel(
                weights=np.asarray(payload["weights"], dtype=np.float64),
                intercept=float(payload["intercept"]),
                columns=columns,
                scale=scale,
                standardized=standardized,
            )
        if kind == "forest":
            return ForestModel(
                trees=[_tree_in(t) for t in payload["trees"]],
                columns=columns,
                scale=scale,
                standardized=standardized,
            )
        if kind == "gbt":
            return GbtModel(
                init_score=float(payload["init_score"]),
                learning_rate=float(payload["learning_rate"]),
                trees=[_tree_in(t) for t in payload["trees"]],
                columns=columns,
                scale=scale,
                standardized=standardized,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model payload: {exc}") from exc
    raise ModelFormatError(f"unknown model kind {kind!r}")


def save_model(model, stream: IO[str]) -> None:
    json.dump(model_to_dict(model), stream)


def load_model(source: str | Path | IO[str]):
    try:
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            payload = json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return model_from_dict(payload)
