"""Design-matrix encoding: one-hot categoricals and numerics, every
column divided by its own population std.

Categorical groups carry an explicit "<unknown>" level so rows from
outside the training vocabulary still encode to a valid one-hot. Every
design matrix is CSR (compressed sparse row), from the fill through
standardize, select and transform, so each row is scored on its own
stored entries whatever the batch. A column's scale depends on its own
values alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptySpecError, InvalidConfigError, UnknownColumnError
from .panel import Panel, PanelVocab

UNKNOWN_LEVEL = "<unknown>"
STD_EPSILON = 1e-12


class Feature(NamedTuple):
    """Where a feature's values come from."""

    levels: str | None = None  # the PanelVocab field of its one-hot levels; None for a numeric
    field: str | None = None  # the Panel column it reads, when not named like the feature


FEATURES = {
    "vehicle_id": Feature("asset_ids", "asset"),
    "vehicle_type": Feature("vehicle_types"),
    "unit": Feature("units"),
    "operational_weeks": Feature(),
    "weeks_since_last_visit": Feature(),
    "utilization": Feature(),
}
FEATURE_NAMES = tuple(FEATURES)


@dataclass(frozen=True)
class FeatureSpec:
    """Which panel features enter the design matrix, in FEATURE_NAMES order."""

    selected: tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.selected) - set(FEATURE_NAMES)
        if unknown:
            raise InvalidConfigError(f"unknown feature names: {', '.join(sorted(unknown))}")
        object.__setattr__(self, "selected", tuple(n for n in FEATURE_NAMES if n in self.selected))

    @classmethod
    def of(cls, names: Sequence[str]) -> "FeatureSpec":
        return cls(tuple(names))

    def names(self) -> tuple[str, ...]:
        return self.selected


@dataclass(frozen=True)
class Column:
    """One design-matrix column: a numeric passthrough or a one-hot level."""

    name: str
    kind: str  # "numeric" | "onehot"
    group: str | None = None
    level: str | None = None


@dataclass
class FeatureMatrix:
    columns: list[Column]
    values: sp.csr_matrix  # any matrix given is kept as float64 CSR; such a CSR is not copied
    labels: np.ndarray
    scale: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        self.values = sp.csr_matrix(self.values, dtype=np.float64)

    @property
    def width(self) -> int:
        return len(self.columns)

    def select(self, columns: Sequence[Column]) -> "FeatureMatrix":
        """These of its columns, with their scale: the bytes of encoding (and
        standardizing) their features alone."""
        where = {col: j for j, col in enumerate(self.columns)}
        idx = [where[col] for col in columns]
        return replace(self, columns=list(columns), values=self.values[:, idx], scale=self.scale[idx])


@dataclass
class Fitted:
    """What every fitted model keeps of its training matrix: the column
    layout and scale that held-out rows are encoded with."""

    columns: list[Column]
    scale: np.ndarray
    standardized: bool

    @classmethod
    def of(cls, matrix: FeatureMatrix, **params):
        """A model of this class on `matrix`'s layout, with its own fitted params."""
        return cls(list(matrix.columns), np.asarray(matrix.scale, dtype=np.float64), matrix.standardized, **params)


def build_columns(spec: FeatureSpec, vocab: PanelVocab) -> list[Column]:
    """Column layout for a spec against a vocabulary: one-hot groups first
    (each closed by an unknown level), then the numeric features."""
    names = spec.names()
    if not names:
        raise EmptySpecError("feature spec selects no features")
    onehot = [n for n in names if FEATURES[n].levels]
    return [
        Column(name=f"{name}={level}", kind="onehot", group=name, level=level)
        for name in onehot
        for level in (*getattr(vocab, FEATURES[name].levels), UNKNOWN_LEVEL)
    ] + [Column(name=name, kind="numeric") for name in names if name not in onehot]


def onehot_groups(X: sp.csr_matrix, columns: Sequence[Column]):
    """Yield each "onehot" group of `columns` in which every row of X stores
    at most one column, widest first and ties in column order: its column
    indices, and per row its level (the group's size for a row that stores
    none) and stored value (0 there)."""
    names = [c.group if c.kind == "onehot" else None for c in columns]
    groups = [np.flatnonzero([g == name for g in names]) for name in dict.fromkeys(filter(None, names))]
    for members in sorted(groups, key=len, reverse=True):
        level = np.full(X.shape[1], -1, dtype=X.indices.dtype)
        level[members] = np.arange(len(members))
        stored = level[X.indices]
        at = np.flatnonzero(stored >= 0)
        per_row = np.diff(np.searchsorted(at, X.indptr))
        if per_row.max(initial=0) <= 1:
            codes, values, has = np.full(X.shape[0], len(members)), np.zeros(X.shape[0]), per_row > 0
            codes[has], values[has] = stored[at], X.data[at]
            yield members, codes, values


def _fill(panel: Panel, columns: Sequence[Column]) -> sp.csr_matrix:
    """A panel's rows against a column layout as CSR, built column by
    column. A value outside a group's levels lands on its unknown level.
    A column that names no feature of its kind, or a group without its
    unknown level, raises UnknownColumnError."""
    n = len(panel)
    # feature name -> its one-hot level columns, or its numeric column
    parts: dict[str, dict[str, int] | int] = {}
    for j, col in enumerate(columns):
        feature = FEATURES.get(col.group if col.kind == "onehot" else col.name)
        if feature is None or col.kind != ("onehot" if feature.levels else "numeric"):
            raise UnknownColumnError(f"column {col.name!r} of kind {col.kind!r} is not a panel feature")
        if col.kind == "onehot":
            parts.setdefault(col.group, {})[col.level] = j
        else:
            parts[col.name] = j
    # one (column, value) entry per row and part, in column order
    col_idx = np.empty((n, len(parts)), dtype=np.intp)
    data = np.ones(col_idx.shape)
    for k, (name, where) in enumerate(parts.items()):
        cells = getattr(panel, FEATURES[name].field or name)
        if isinstance(where, dict):
            if UNKNOWN_LEVEL not in where:
                raise UnknownColumnError(f"one-hot group {name!r} has no {UNKNOWN_LEVEL!r} column")
            # the panel's codes index its own vocab: map each of its levels to a column once
            levels = getattr(panel.vocab, FEATURES[name].levels)
            col_idx[:, k] = np.array([where.get(level, where[UNKNOWN_LEVEL]) for level in levels], dtype=np.intp)[cells]
        else:
            col_idx[:, k] = where
            data[:, k] = cells
    keep = data != 0.0  # numeric zeros are skipped
    indptr = np.append(0, np.cumsum(keep.sum(axis=1)))
    matrix = sp.csr_matrix((data[keep], col_idx[keep], indptr), shape=(n, len(columns)))
    matrix.sort_indices()  # a row's parts are in column order unless a group's columns are not contiguous
    return matrix


def encode(panel: Panel, spec: FeatureSpec) -> FeatureMatrix:
    """Encode panel rows against the panel's own vocabulary. Held-out rows
    go through `transform` with the fitted column layout instead."""
    columns = build_columns(spec, panel.vocab)
    return FeatureMatrix(
        columns=columns,
        values=_fill(panel, columns),
        labels=panel.repair_flag.astype(np.int8),
        scale=np.ones(len(columns), dtype=np.float64),
    )


def transform(panel: Panel, columns: Sequence[Column], scale: np.ndarray | None = None) -> sp.csr_matrix:
    """Encode a panel's rows against a fitted column layout, divided by the
    fitted per-column scale when given. Used to score new data with a saved model."""
    values = _fill(panel, columns)
    if scale is not None:
        values = _scale_columns(values, np.asarray(scale, dtype=np.float64))
    return values


def _scale_columns(values: sp.csr_matrix, divisor: np.ndarray) -> sp.csr_matrix:
    """Divide each stored value by its column's divisor."""
    return sp.csr_matrix((values.data / divisor[values.indices], values.indices, values.indptr), shape=values.shape)


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Divide each column by its population standard deviation, taken in
    two passes over that column's values in row order, whatever the other
    columns: `transform` with the resulting scale gives the same bytes.
    Columns with std <= 1e-12 keep scale 1."""
    csr = matrix.values
    n, width = csr.shape
    # the stored entries of each column, summed in row order; the rest are zeros
    mean = np.bincount(csr.indices, csr.data, minlength=width) / n
    dev = csr.data - mean[csr.indices]
    zeros = n - np.bincount(csr.indices, minlength=width)
    std = np.sqrt((np.bincount(csr.indices, dev**2, minlength=width) + zeros * mean**2) / n)
    divisor = np.where(std > STD_EPSILON, std, 1.0)
    return replace(matrix, values=_scale_columns(matrix.values, divisor), scale=matrix.scale * divisor, standardized=True)


def apply_scale(matrix: FeatureMatrix, scale: np.ndarray) -> FeatureMatrix:
    """Apply a previously fitted scale (e.g. the training stds) to a matrix."""
    scale = np.asarray(scale, dtype=np.float64)
    if len(scale) != matrix.width:
        raise ValueError(f"scale length {len(scale)} != matrix width {matrix.width}")
    return replace(matrix, values=_scale_columns(matrix.values, scale), scale=matrix.scale * scale, standardized=True)
