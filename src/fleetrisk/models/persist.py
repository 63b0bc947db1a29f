"""Model serialization: JSON in, JSON out, bit-exact floats via repr.

A model is written as its format version and kind, then its dataclass
fields in order, NaN as null; fit statistics are left out. Loading reads
each field back by its annotation, a number only from a JSON number, and
rejects what no fit produces; a key that names no field is ignored.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import IO

import numpy as np
from scipy.special import expit

from ..errors import ModelFormatError
from ..features import Column
from .tree import RegressionTree

FORMAT_VERSION = 1


def _saved_fields(class_or_instance) -> list:
    return [f for f in fields(class_or_instance) if not f.metadata.get("fit_stat")]


def _to_json(value):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in _saved_fields(value)}
    if isinstance(value, list):
        return [_to_json(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isnan(value).any():
            value = np.where(np.isnan(value), None, value)
        return value.tolist()
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def _numbers(value, name: str) -> np.ndarray:
    """A JSON list of numbers and nulls (read as NaN); a boolean, an int to Python, is refused."""
    if type(value) is not list or not all(v is None or type(v) in (int, float) for v in value):
        raise TypeError(f"{name} must hold JSON numbers")
    return np.asarray(value, dtype=np.float64)


# field annotation -> reader of (its JSON value, the field's name for errors)
_READERS = {
    "list[Column]": lambda value, _name: [Column(**c) for c in value],
    "np.ndarray": _numbers,
    "float": lambda value, name: float(_numbers([value], name)[0]),  # null -> NaN, which _check refuses
    "list[RegressionTree]": lambda value, _name: [_from_json(RegressionTree, t) for t in value],
}


def _from_json(cls, payload: dict):
    return cls(**{f.name: _READERS[f.type](payload[f.name], f.name) for f in _saved_fields(cls)})


def _check_tree(tree: RegressionTree, width: int) -> None:
    n = tree.n_nodes
    if n == 0 or any(a.shape != (n,) for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)):
        raise ValueError("a tree needs five equally long node arrays with at least one node")
    split = tree.feature >= 0
    node, left, right = np.flatnonzero(split), tree.left[split], tree.right[split]
    # children come after their parent, so every walk ends at a leaf
    if not np.all((tree.feature[split] < width) & (left > node) & (right > node) & (left < n) & (right < n)):
        raise ValueError(f"a tree split needs a feature below {width} and later nodes as children")
    if not (np.all(np.isfinite(tree.threshold[split])) and np.all(np.isfinite(tree.value[~split]))):
        raise ValueError("a tree needs finite thresholds and leaf values")


def _check(model) -> None:
    """Reject what parsed but no fit produces: a column field that is not a
    string (a numeric column's group or level may be null), a column kind
    other than numeric or onehot, two columns for one numeric name or one
    (group, level), an array whose length is not the model's width, a
    non-finite or non-positive number where a fit gives a finite or
    positive one, a GBT initial score that is not the logit of a
    prevalence strictly between 0 and 1, an ensemble without trees, or a
    tree that cannot be walked."""
    width = len(model.columns)
    slots = set()  # what each column fills: a numeric column its name, a one-hot column its (group, level)
    for j, c in enumerate(model.columns):
        strings = (c.name, c.kind, *(v for v in (c.group, c.level) if v is not None))
        if not all(isinstance(v, str) for v in strings):
            raise ValueError(f"column {j} needs a string name and kind, and a string or null group and level")
        if c.kind not in ("numeric", "onehot"):
            raise ValueError(f"column {j} has kind {c.kind!r}, not numeric or onehot")
        onehot = c.kind == "onehot"
        if onehot and None in (c.group, c.level):
            raise ValueError(f"one-hot column {j} needs a string group and level")
        slot = (c.group, c.level) if onehot else c.name
        if slot in slots:
            raise ValueError(f"column {j} repeats the column for {slot!r}")
        slots.add(slot)
    for f in _saved_fields(model):
        value = getattr(model, f.name)
        if f.type == "np.ndarray" and (value.shape != (width,) or not np.all(np.isfinite(value))):
            raise ValueError(f"{f.name} needs {width} finite numbers, one per column")
        if f.type == "float" and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite")
        if f.type == "list[RegressionTree]":
            if not value:
                raise ValueError("an ensemble needs at least one tree")
            for tree in value:
                _check_tree(tree, width)
    if not np.all(model.scale > 0):
        raise ValueError("scale must be positive")
    if model.kind == "gbt" and not model.learning_rate > 0:
        raise ValueError("learning_rate must be positive")
    if model.kind == "gbt" and not 0 < expit(model.init_score) < 1:
        raise ValueError("init_score must be the logit of a prevalence strictly between 0 and 1")


def model_to_dict(model) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": model.kind, **_to_json(model)}


def model_from_dict(payload: dict):
    from . import MODEL_KINDS, MODELS  # the package imports this module, so look the registry up late

    if not isinstance(payload, dict) or "kind" not in payload:
        raise ModelFormatError("not a model payload")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # true == 1, so bool is refused by type
        raise ModelFormatError(f"unsupported format version {version!r}")
    kind = payload["kind"]
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    try:
        model = _from_json(MODELS[kind][2], payload)
        _check(model)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # OverflowError: an integer past float range
        raise ModelFormatError(f"malformed model payload: {exc}") from exc
    return model


def save_model(model, stream: IO[str]) -> None:
    json.dump(model_to_dict(model), stream)


def load_model(source: bytes | str | Path | IO):
    """A model from a file's bytes, from a stream, or from the file a str or Path names."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    try:
        payload = json.loads(source if isinstance(source, bytes) else source.read())
    except ValueError as exc:  # not JSON, or bytes that are not text
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return model_from_dict(payload)
