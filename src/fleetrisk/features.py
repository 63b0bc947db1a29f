"""Design-matrix encoding: one-hot categoricals and std-scaled numerics.

Categorical groups carry an explicit "<unknown>" level so rows from
outside the training vocabulary still encode to a valid one-hot. The
vehicle-ID group grows with fleet size, so matrices that include it are
kept sparse (CSR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptySpecError, UnknownColumnError
from .panel import Panel, PanelVocab

UNKNOWN_LEVEL = "<unknown>"
STD_EPSILON = 1e-12


class Feature(NamedTuple):
    """Where a feature's values come from."""

    levels: str | None = None  # the PanelVocab field of its one-hot levels; None for a numeric
    field: str | None = None  # the Panel column it reads, when not named like the feature
    sparse: bool = False  # its group grows with fleet size, so a layout with it is kept CSR


FEATURES = {
    "vehicle_id": Feature("asset_ids", "asset", sparse=True),
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
            raise ValueError(f"unknown feature names: {', '.join(sorted(unknown))}")
        object.__setattr__(self, "selected", tuple(n for n in FEATURE_NAMES if n in self.selected))

    @classmethod
    def full(cls) -> "FeatureSpec":
        return cls(FEATURE_NAMES)

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
    values: np.ndarray | sp.csr_matrix
    labels: np.ndarray
    scale: np.ndarray
    standardized: bool = False

    @property
    def width(self) -> int:
        return len(self.columns)


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


def _fill(panel: Panel, columns: Sequence[Column]) -> np.ndarray | sp.csr_matrix:
    """A panel's rows against a column layout, built column by column: CSR
    when the layout has a sparse group, dense otherwise. A value outside a
    group's levels lands on its unknown level. A column that names no
    feature of its kind, or a group without its unknown level, raises
    UnknownColumnError."""
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
    row_idx, col_idx, data = np.nonzero(keep)[0], col_idx[keep], data[keep]
    if any(FEATURES[name].sparse for name in parts):
        return sp.csr_matrix((data, (row_idx, col_idx)), shape=(n, len(columns)), dtype=np.float64)
    values = np.zeros((n, len(columns)))
    values[row_idx, col_idx] = data
    return values


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


def transform(panel: Panel, columns: Sequence[Column], scale: np.ndarray | None = None) -> np.ndarray | sp.csr_matrix:
    """Encode a panel's rows against a fitted column layout, applying the
    fitted per-column scale when given. Used to score new data with a saved model."""
    values = _fill(panel, columns)
    if scale is not None:
        values = _scale_columns(values, 1.0 / np.asarray(scale, dtype=np.float64))
    return values


def _scale_columns(values: np.ndarray | sp.csr_matrix, factor: np.ndarray) -> np.ndarray | sp.csr_matrix:
    """Multiply each column by its factor; CSR in, CSR out."""
    if sp.issparse(values):
        return sp.csr_matrix(values @ sp.diags(factor))
    return values * factor


def _column_std(values: np.ndarray | sp.csr_matrix) -> np.ndarray:
    if sp.issparse(values):
        mean = np.asarray(values.mean(axis=0)).ravel()
        mean_sq = np.asarray(values.multiply(values).mean(axis=0)).ravel()
        var = np.maximum(mean_sq - mean**2, 0.0)
        return np.sqrt(var)
    return values.std(axis=0)


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Divide each column by its population standard deviation.

    Columns with std <= 1e-12 are left alone (scale 1), so the operation
    is idempotent and constant columns survive unchanged.
    """
    std = _column_std(matrix.values)
    divisor = np.where(std > STD_EPSILON, std, 1.0)
    # Dense training columns are divided exactly; held-out rows are scaled by
    # the reciprocal (see transform). The two can differ in the last bit, and
    # fitted models depend on both, so each keeps its arithmetic.
    if sp.issparse(matrix.values):
        values = _scale_columns(matrix.values, 1.0 / divisor)
    else:
        values = matrix.values / divisor
    return FeatureMatrix(
        columns=list(matrix.columns),
        values=values,
        labels=matrix.labels,
        scale=matrix.scale * divisor,
        standardized=True,
    )


def apply_scale(matrix: FeatureMatrix, scale: np.ndarray) -> FeatureMatrix:
    """Apply a previously fitted scale (e.g. the training stds) to a matrix."""
    scale = np.asarray(scale, dtype=np.float64)
    if len(scale) != matrix.width:
        raise ValueError(f"scale length {len(scale)} != matrix width {matrix.width}")
    return FeatureMatrix(
        columns=list(matrix.columns),
        values=_scale_columns(matrix.values, 1.0 / scale),
        labels=matrix.labels,
        scale=matrix.scale * scale,
        standardized=True,
    )
