"""Model serialization: JSON in, JSON out, bit-exact floats via repr.

A model is written as its format version and kind, then its dataclass
fields in order, NaN as null; fit statistics are left out. Loading reads
each field back by its annotation, a number only from a JSON number, and
builds the model with its constructor, which refuses any state that no fit
produces, as it does for a fit; a key that names no field is ignored.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import IO

import numpy as np

from ..errors import ModelFormatError
from ..features import Column
from .tree import RegressionTree

FORMAT_VERSION = 1


def _saved_fields(class_or_instance) -> list:
    return [f for f in fields(class_or_instance) if not f.metadata.get("fit_stat")]


def _to_json(value, skip=()):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in _saved_fields(value) if f.name not in skip}
    if isinstance(value, list):
        return [_to_json(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isnan(value).any():
            value = np.where(np.isnan(value), None, value)
        return value.tolist()
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
    "float": lambda value, name: float(_numbers([value], name)[0]),  # null -> NaN, which the model refuses
    "list[RegressionTree]": lambda value, _name: [_from_json(RegressionTree, t) for t in value],
}


def _from_json(cls, payload: dict):
    return cls(**{f.name: _READERS[f.type](payload[f.name], f.name) for f in _saved_fields(cls)})


def model_to_dict(model, skip: tuple[str, ...] = ()) -> dict:
    """The JSON value of `model`, without its fields named in `skip`."""
    return {"format_version": FORMAT_VERSION, "kind": model.kind, **_to_json(model, skip)}


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
        return _from_json(MODELS[kind][2], payload)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # OverflowError: an integer past float range
        raise ModelFormatError(f"malformed model payload: {exc}") from exc


def save_model(model, stream: IO[str]) -> None:
    """`model_to_dict` as JSON, with `trees`, the last field of both tree
    kinds, encoded a tree at a time, so the model is never one string."""
    head = json.dumps(model_to_dict(model, skip=("trees",)))
    if not hasattr(model, "trees"):
        stream.write(head)
        return
    stream.write(head[:-1] + ', "trees": [')
    stream.writelines(", " * (i > 0) + json.dumps(_to_json(tree)) for i, tree in enumerate(model.trees))
    stream.write("]}")


def load_model(source: bytes | str | Path | IO):
    """A model from a file's bytes, from a stream, or from the file a str or Path names."""
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    try:
        payload = json.loads(source if isinstance(source, bytes) else source.read())
    except ValueError as exc:  # not JSON, or bytes that are not text
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return model_from_dict(payload)
