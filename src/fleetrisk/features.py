"""Design-matrix encoding: one-hot categoricals and std-scaled numerics.

Categorical groups carry an explicit "<unknown>" level so rows from
outside the training vocabulary still encode to a valid one-hot. The
vehicle-ID group grows with fleet size, so matrices that include it are
kept sparse (CSR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptySpecError, NotStandardizedError
from .panel import Panel, PanelRow, PanelVocab

UNKNOWN_LEVEL = "<unknown>"
STD_EPSILON = 1e-12

FEATURE_NAMES = (
    "vehicle_id",
    "vehicle_type",
    "unit",
    "operational_weeks",
    "weeks_since_last_visit",
    "utilization",
)


@dataclass(frozen=True)
class FeatureSpec:
    """Which of the six panel features enter the design matrix."""

    use_vehicle_id: bool = False
    use_vehicle_type: bool = False
    use_unit: bool = False
    use_operational_weeks: bool = False
    use_weeks_since_last_visit: bool = False
    use_utilization: bool = False

    @classmethod
    def full(cls) -> "FeatureSpec":
        return cls(True, True, True, True, True, True)

    @classmethod
    def of(cls, names: Sequence[str]) -> "FeatureSpec":
        unknown = set(names) - set(FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown feature names: {sorted(unknown)}")
        return cls(**{f"use_{n}": True for n in names})

    def names(self) -> tuple[str, ...]:
        return tuple(n for n in FEATURE_NAMES if getattr(self, f"use_{n}"))


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

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


_CATEGORICAL = {
    "vehicle_id": ("asset_ids", lambda r: r.asset_id),
    "vehicle_type": ("vehicle_types", lambda r: r.vehicle_type),
    "unit": ("units", lambda r: r.unit),
}
_NUMERIC = {
    "operational_weeks": lambda r: float(r.operational_weeks),
    "weeks_since_last_visit": lambda r: float(r.weeks_since_last_visit),
    "utilization": lambda r: r.utilization,
}


def build_columns(spec: FeatureSpec, vocab: PanelVocab) -> list[Column]:
    """Column layout for a spec against a vocabulary: one-hot groups first
    (each closed by an unknown level), then the numeric features."""
    names = spec.names()
    if not names:
        raise EmptySpecError("feature spec selects no features")
    columns: list[Column] = []
    for name in names:
        if name in _CATEGORICAL:
            vocab_attr, _ = _CATEGORICAL[name]
            for level in tuple(getattr(vocab, vocab_attr)) + (UNKNOWN_LEVEL,):
                columns.append(Column(name=f"{name}={level}", kind="onehot", group=name, level=level))
    for name in names:
        if name in _NUMERIC:
            columns.append(Column(name=name, kind="numeric"))
    return columns


def _fill(rows: Sequence[PanelRow], columns: Sequence[Column], sparse: bool) -> np.ndarray | sp.csr_matrix:
    n = len(rows)
    groups: dict[str, dict[str, int]] = {}
    unknown_col: dict[str, int] = {}
    numeric_cols: list[tuple[int, str]] = []
    for j, col in enumerate(columns):
        if col.kind == "onehot":
            if col.level == UNKNOWN_LEVEL:
                unknown_col[col.group] = j
            else:
                groups.setdefault(col.group, {})[col.level] = j
        else:
            numeric_cols.append((j, col.name))

    if sparse:
        data: list[float] = []
        row_idx: list[int] = []
        col_idx: list[int] = []
        for i, r in enumerate(rows):
            for group, level_map in groups.items():
                value = _CATEGORICAL[group][1](r)
                j = level_map.get(value, unknown_col[group])
                row_idx.append(i)
                col_idx.append(j)
                data.append(1.0)
            for j, name in numeric_cols:
                v = _NUMERIC[name](r)
                if v != 0.0:
                    row_idx.append(i)
                    col_idx.append(j)
                    data.append(v)
        return sp.csr_matrix((data, (row_idx, col_idx)), shape=(n, len(columns)), dtype=np.float64)

    values = np.zeros((n, len(columns)), dtype=np.float64)
    for i, r in enumerate(rows):
        for group, level_map in groups.items():
            value = _CATEGORICAL[group][1](r)
            values[i, level_map.get(value, unknown_col[group])] = 1.0
        for j, name in numeric_cols:
            values[i, j] = _NUMERIC[name](r)
    return values


def encode(panel: Panel, spec: FeatureSpec, vocab: PanelVocab | None = None) -> FeatureMatrix:
    """Encode panel rows against a vocabulary (the panel's own by default).

    Pass the training panel's vocab to encode held-out rows; values outside
    it land on the group's unknown level.
    """
    vocab = vocab or panel.vocab
    columns = build_columns(spec, vocab)
    values = _fill(panel.rows, columns, sparse=spec.use_vehicle_id)
    labels = np.fromiter((r.repair_flag for r in panel.rows), dtype=np.int8, count=len(panel.rows))
    return FeatureMatrix(
        columns=columns,
        values=values,
        labels=labels,
        scale=np.ones(len(columns), dtype=np.float64),
    )


def transform(rows: Sequence[PanelRow], columns: Sequence[Column], scale: np.ndarray | None = None) -> np.ndarray | sp.csr_matrix:
    """Encode raw rows against a fitted column layout, applying the fitted
    per-column scale when given. Used to score new data with a saved model."""
    sparse = any(col.group == "vehicle_id" for col in columns)
    values = _fill(rows, columns, sparse=sparse)
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


def coefficient_influence(model) -> list[tuple[str, float]]:
    """Columns ranked by |coefficient|, descending; ties keep column order.

    Only meaningful when the model was fitted on a standardized matrix.
    """
    if not getattr(model, "standardized", False):
        raise NotStandardizedError("model was not fitted on a standardized matrix")
    weights = np.asarray(model.weights, dtype=np.float64)
    magnitude = np.abs(weights)
    order = np.argsort(-magnitude, kind="stable")
    return [(model.columns[j].name, float(magnitude[j])) for j in order]
