"""Design-matrix encoding, standardization, and transform consistency."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fleetrisk.errors import EmptySpecError
from fleetrisk.features import (
    FEATURE_NAMES,
    UNKNOWN_LEVEL,
    Column,
    FeatureMatrix,
    FeatureSpec,
    build_columns,
    encode,
    standardize,
    transform,
)
from fleetrisk.config import DEFAULT_ABLATION_SUBSETS, RunConfig, fleet_config
from fleetrisk.evaluation import ChronologicalSplit, split
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.panel import PanelOptions, PanelRow, build_panel, load_utilization_csv

from oracles import panel_from_rows, render_fleet


def make_panel(rows=None):
    rows = rows or [
        PanelRow("A1", "bus", "82 LRS", 0, 10, 2, 5.0, 0),
        PanelRow("A1", "bus", "82 LRS", 1, 11, 3, 6.0, 1),
        PanelRow("B2", "truck", "83 LRS", 0, 4, 0, 0.0, 0),
        PanelRow("B2", "truck", "83 LRS", 1, 5, 1, 2.0, 1),
    ]
    return panel_from_rows(rows)


def test_feature_spec_of_and_names():
    spec = FeatureSpec.of(["vehicle_type", "utilization"])
    assert spec.names() == ("vehicle_type", "utilization")
    assert FeatureSpec(FEATURE_NAMES).names() == FEATURE_NAMES
    with pytest.raises(ValueError):
        FeatureSpec.of(["odometer"])
    with pytest.raises(ValueError, match="odometer"):
        FeatureSpec(("odometer",))
    assert FeatureSpec(("utilization", "vehicle_id")).names() == ("vehicle_id", "utilization")
    assert FeatureSpec.of(["unit", "unit"]) == FeatureSpec.of(["unit"])


def test_empty_spec_rejected():
    with pytest.raises(EmptySpecError):
        build_columns(FeatureSpec(), make_panel().vocab)


def test_column_layout_onehot_groups_then_numerics():
    spec = FeatureSpec.of(["vehicle_type", "unit", "operational_weeks"])
    cols = build_columns(spec, make_panel().vocab)
    names = [c.name for c in cols]
    assert names == [
        "vehicle_type=bus",
        "vehicle_type=truck",
        f"vehicle_type={UNKNOWN_LEVEL}",
        "unit=82 LRS",
        "unit=83 LRS",
        f"unit={UNKNOWN_LEVEL}",
        "operational_weeks",
    ]
    assert [c.kind for c in cols] == ["onehot"] * 6 + ["numeric"]


def test_encode_sparse_without_vehicle_id():
    panel = make_panel()
    m = encode(panel, FeatureSpec.of(["vehicle_type", "weeks_since_last_visit"]))
    assert sp.issparse(m.values) and m.values.format == "csr"
    assert m.values.shape == (4, 4)
    dense = m.values.toarray()
    # rows sorted (asset, week): A1/0, A1/1, B2/0, B2/1
    np.testing.assert_array_equal(dense[:, 0], [1, 1, 0, 0])  # bus
    np.testing.assert_array_equal(dense[:, 1], [0, 0, 1, 1])  # truck
    np.testing.assert_array_equal(dense[:, 2], [0, 0, 0, 0])  # unknown
    np.testing.assert_array_equal(dense[:, 3], [2, 3, 0, 1])
    np.testing.assert_array_equal(m.labels, [0, 1, 0, 1])
    assert not m.standardized
    np.testing.assert_array_equal(m.scale, np.ones(4))


def test_encode_sparse_with_vehicle_id():
    panel = make_panel()
    m = encode(panel, FeatureSpec.of(["vehicle_id", "utilization"]))
    assert sp.issparse(m.values)
    dense = m.values.toarray()
    # columns: A1, B2, <unknown>, utilization
    np.testing.assert_array_equal(dense[:, 0], [1, 1, 0, 0])
    np.testing.assert_array_equal(dense[:, 1], [0, 0, 1, 1])
    np.testing.assert_array_equal(dense[:, 3], [5.0, 6.0, 0.0, 2.0])


def test_feature_matrix_keeps_values_as_float64_csr():
    columns = [Column(name="x0", kind="numeric"), Column(name="x1", kind="numeric")]
    labels, scale = np.array([0, 1], dtype=np.int8), np.ones(2)
    from_dense = FeatureMatrix(columns, np.array([[1, 0], [0, 2]]), labels, scale)
    assert from_dense.values.format == "csr" and from_dense.values.dtype == np.float64
    np.testing.assert_array_equal(from_dense.values.toarray(), [[1.0, 0.0], [0.0, 2.0]])
    # a float64 CSR is kept as given, not copied
    csr = sp.csr_matrix(np.array([[0.5, 0.0], [0.0, 3.0]]))
    assert np.shares_memory(FeatureMatrix(columns, csr, labels, scale).values.data, csr.data)


def test_every_row_hits_exactly_one_level_per_group():
    panel = make_panel()
    m = encode(panel, FeatureSpec.of(["vehicle_id", "vehicle_type", "unit"]))
    dense = m.values.toarray()
    assert np.all(dense.sum(axis=1) == 3.0)


def test_out_of_vocab_lands_on_unknown():
    panel = make_panel()
    spec = FeatureSpec.of(["vehicle_type"])
    cols = build_columns(spec, panel.vocab)
    new_row = PanelRow("C9", "crane", "82 LRS", 5, 1, 1, 0.0, 0)
    X = transform(panel_from_rows([new_row]), cols)
    assert sp.issparse(X) and X.format == "csr"
    np.testing.assert_array_equal(X.toarray(), [[0.0, 0.0, 1.0]])


def test_standardize_unit_variance_and_scale_tracking():
    panel = make_panel()
    m = encode(panel, FeatureSpec.of(["operational_weeks", "utilization"]))
    s = standardize(m)
    assert s.standardized
    raw, scaled = m.values.toarray(), s.values.toarray()
    stds = scaled.std(axis=0)
    np.testing.assert_allclose(stds, np.ones(2), atol=1e-12)
    # scale holds the divisors, so scale * standardized values = raw values
    np.testing.assert_allclose(scaled * s.scale, raw, atol=1e-12)
    # population std, not sample std
    np.testing.assert_allclose(s.scale, raw.std(axis=0))


def test_standardize_leaves_constant_columns():
    rows = [
        PanelRow("A1", "bus", "82 LRS", w, 7, 1, 3.0, 0) for w in range(4)
    ]
    m = encode(panel_from_rows(rows), FeatureSpec.of(["vehicle_type", "utilization"]))
    s = standardize(m)
    np.testing.assert_array_equal(s.scale, np.ones(m.width))
    assert_same_bytes(s.values, m.values)


def test_standardize_sparse_stays_sparse():
    panel = make_panel()
    m = encode(panel, FeatureSpec(FEATURE_NAMES))
    s = standardize(m)
    assert sp.issparse(s.values)
    dense_std = np.asarray(s.values.todense()).std(axis=0)
    varying = dense_std > 1e-9
    np.testing.assert_allclose(dense_std[varying], 1.0, atol=1e-12)


def test_transform_with_scale_matches_standardized_training_matrix():
    panel = make_panel()
    m = standardize(encode(panel, FeatureSpec.of(["vehicle_type", "operational_weeks"])))
    X = transform(panel, m.columns, m.scale)
    assert_same_bytes(X, m.values)


def test_transform_sparse_when_columns_include_vehicle_id():
    panel = make_panel()
    m = standardize(encode(panel, FeatureSpec(FEATURE_NAMES)))
    X = transform(panel, m.columns, m.scale)
    assert sp.issparse(X)
    assert_same_bytes(X, m.values)


# The per-row encoder that one column-wise fill path replaced, kept as the
# byte-level reference: CSR, with one entry per row and one-hot group and
# one per nonzero numeric, in column order.
_REFERENCE_CATEGORICAL = {
    "vehicle_id": lambda r: r.asset_id,
    "vehicle_type": lambda r: r.vehicle_type,
    "unit": lambda r: r.unit,
}
_REFERENCE_NUMERIC = {
    "operational_weeks": lambda r: float(r.operational_weeks),
    "weeks_since_last_visit": lambda r: float(r.weeks_since_last_visit),
    "utilization": lambda r: r.utilization,
}


def reference_fill(rows, columns):
    n = len(rows)
    groups = {}
    unknown_col = {}
    numeric_cols = []
    for j, col in enumerate(columns):
        if col.kind == "onehot":
            if col.level == UNKNOWN_LEVEL:
                unknown_col[col.group] = j
            else:
                groups.setdefault(col.group, {})[col.level] = j
        else:
            numeric_cols.append((j, col.name))

    data, row_idx, col_idx = [], [], []
    for i, r in enumerate(rows):
        for group, level_map in groups.items():
            j = level_map.get(_REFERENCE_CATEGORICAL[group](r), unknown_col[group])
            row_idx.append(i)
            col_idx.append(j)
            data.append(1.0)
        for j, name in numeric_cols:
            v = _REFERENCE_NUMERIC[name](r)
            if v != 0.0:
                row_idx.append(i)
                col_idx.append(j)
                data.append(v)
    return sp.csr_matrix((data, (row_idx, col_idx)), shape=(n, len(columns)), dtype=np.float64)


def assert_same_bytes(got, want):
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


@pytest.fixture(scope="module")
def synth_halves():
    """A seed-7 synth panel split chronologically, plus held-out rows outside
    the train vocabulary, rows whose numerics are all zero, and a "<unknown>"
    value that must land on the unknown level like any other stranger."""
    config = replace(fleet_config(RunConfig()), seed=7, n_vehicles=20, n_weeks=60)
    csv_bytes, sidecar, _ = render_fleet(config)
    records, _ = parse_subworkorders(csv_bytes)
    panel = build_panel(records, PanelOptions(utilization=load_utilization_csv(sidecar)))
    train, test = split(panel, ChronologicalSplit(0.3))
    known = test.rows[0]
    strangers = [
        PanelRow("ZZ-9", "crane", "99 LRS", 70, 0, 0, 0.0, 1),
        PanelRow(known.asset_id, known.vehicle_type, known.unit, 71, 0, 0, 0.0, 0),
        PanelRow(UNKNOWN_LEVEL, UNKNOWN_LEVEL, known.unit, 72, 3, 0, 1.5, 0),
    ]
    return train, panel_from_rows(test.rows + strangers)


@pytest.mark.parametrize("subset", DEFAULT_ABLATION_SUBSETS, ids="+".join)
def test_fill_matches_the_per_row_reference_byte_for_byte(synth_halves, subset):
    train, held_out = synth_halves
    matrix = encode(train, FeatureSpec.of(subset))
    assert_same_bytes(matrix.values, reference_fill(train.rows, matrix.columns))
    assert_same_bytes(transform(held_out, matrix.columns), reference_fill(held_out.rows, matrix.columns))
    # a column's scale comes from its own values alone: the subset's standardized
    # matrix is a selection of the full layout's, and transform with that scale
    # gives the training matrix back
    alone = standardize(matrix)
    assert_same_bytes(transform(train, alone.columns, alone.scale), alone.values)
    picked = standardize(encode(train, FeatureSpec(FEATURE_NAMES))).select(alone.columns)
    assert_same_bytes(picked.values, alone.values)
    assert picked.scale.tobytes() == alone.scale.tobytes()


def test_fill_matches_the_reference_on_a_layout_with_split_groups(synth_halves):
    """A hand-edited layout whose one-hot groups are not contiguous still encodes to canonical CSR."""
    train, held_out = synth_halves
    columns = encode(train, FeatureSpec(FEATURE_NAMES)).columns
    permuted = columns[1::2] + columns[::2]
    for rows in (train, held_out):
        assert_same_bytes(transform(rows, permuted), reference_fill(rows.rows, permuted))
