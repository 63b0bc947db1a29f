"""Split semantics, the separation-ratio metric, and the fit-and-score sweep."""

import io
from dataclasses import replace

import numpy as np
import pytest

from fleetrisk.config import DEFAULT_ABLATION_SUBSETS, RunConfig, fleet_config
from fleetrisk.errors import DegeneratePanelError, SingleClassLabelsError, ZeroFalseMeanError
from fleetrisk.evaluation import (
    N_BINS,
    ChronologicalSplit,
    RandomRowSplit,
    ablation,
    fit_and_score,
    fit_on_train,
    report_to_dict,
    score_panel,
    separation_ratio,
    split,
    write_ablation_csv,
    write_eval_report,
    write_histogram_csv,
)
from fleetrisk.features import FEATURE_NAMES, FeatureSpec, transform
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.models import ForestHyper, GbtHyper, LogisticHyper, model_to_dict, predict_proba
from fleetrisk.panel import PanelOptions, PanelRow, build_panel, load_utilization_csv

from oracles import panel_from_rows, render_fleet


def grid_panel(n_assets=6, n_weeks=10, flag_every=3):
    rows = []
    for a in range(n_assets):
        asset = f"V{a:02d}"
        vtype = "bus" if a % 2 == 0 else "truck"
        for w in range(n_weeks):
            rows.append(
                PanelRow(
                    asset_id=asset,
                    vehicle_type=vtype,
                    unit="82 LRS",
                    week=w,
                    operational_weeks=w,
                    weeks_since_last_visit=w % flag_every,
                    utilization=float(w * (a + 1)),
                    repair_flag=1 if (w + a) % flag_every == 0 else 0,
                )
            )
    return panel_from_rows(rows)


def test_split_fraction_validation():
    with pytest.raises(ValueError):
        RandomRowSplit(test_fraction=0.0)
    with pytest.raises(ValueError):
        RandomRowSplit(test_fraction=1.0)
    with pytest.raises(ValueError):
        ChronologicalSplit(test_fraction=-0.1)


def test_random_split_partitions_rows():
    panel = grid_panel()
    train, test = split(panel, RandomRowSplit(test_fraction=0.3, seed=5))
    assert len(train) + len(test) == len(panel)
    keys = {(r.asset_id, r.week) for r in panel.rows}
    assert {(r.asset_id, r.week) for r in train.rows} | {(r.asset_id, r.week) for r in test.rows} == keys


def test_random_split_matches_seeded_draws():
    panel = grid_panel()
    spec = RandomRowSplit(test_fraction=0.4, seed=123)
    _, test = split(panel, spec)
    expected = np.random.default_rng(123).random(len(panel)) < 0.4
    expected_keys = {(r.asset_id, r.week) for r, t in zip(panel.rows, expected) if t}
    assert {(r.asset_id, r.week) for r in test.rows} == expected_keys


def test_random_split_deterministic_per_seed():
    panel = grid_panel()
    t1 = split(panel, RandomRowSplit(seed=9))[1]
    t2 = split(panel, RandomRowSplit(seed=9))[1]
    t3 = split(panel, RandomRowSplit(seed=10))[1]
    assert [r.asset_id for r in t1.rows] == [r.asset_id for r in t2.rows]
    assert {(r.asset_id, r.week) for r in t1.rows} != {(r.asset_id, r.week) for r in t3.rows}


def test_chronological_split_is_pure():
    panel = grid_panel(n_weeks=20)
    train, test = split(panel, ChronologicalSplit(test_fraction=0.3))
    assert max(r.week for r in train.rows) < min(r.week for r in test.rows)


def test_chronological_boundary_favors_larger_test_side():
    # 10 uniform weeks, fraction 0.25: weeks >= 8 hold 20% (too few), so the
    # boundary falls back to week 7 and the test side gets 30%.
    panel = grid_panel(n_weeks=10)
    train, test = split(panel, ChronologicalSplit(test_fraction=0.25))
    assert min(r.week for r in test.rows) == 7
    assert len(test) / len(panel) == pytest.approx(0.3)


def test_chronological_exact_fraction_keeps_boundary():
    panel = grid_panel(n_weeks=10)
    _, test = split(panel, ChronologicalSplit(test_fraction=0.3))
    assert min(r.week for r in test.rows) == 7
    assert len(test) / len(panel) == pytest.approx(0.3)


def test_chronological_needs_two_weeks():
    rows = [PanelRow(f"V{i}", "bus", "u", 5, 1, 0, 0.0, i % 2) for i in range(4)]
    with pytest.raises(DegeneratePanelError):
        split(panel_from_rows(rows), ChronologicalSplit())


def test_split_preserves_start_monday():
    from datetime import date

    panel = grid_panel()
    panel.start_monday = date(2020, 1, 6)
    train, test = split(panel, ChronologicalSplit())
    assert train.start_monday == test.start_monday == date(2020, 1, 6)


def test_separation_ratio_hand_computed():
    preds = [0.8, 0.6, 0.1, 0.1, 0.2]
    labels = [1, 1, 0, 0, 0]
    report = separation_ratio(preds, labels)
    assert report.mean_pred_true == pytest.approx(0.7)
    assert report.mean_pred_false == pytest.approx(0.4 / 3)
    assert report.ratio == pytest.approx(0.7 / (0.4 / 3))
    assert report.n_test == 5


def test_separation_ratio_unit_for_identical_distributions():
    preds = np.full(100, 0.37)
    labels = np.r_[np.ones(50, dtype=int), np.zeros(50, dtype=int)]
    report = separation_ratio(preds, labels)
    assert report.ratio == pytest.approx(1.0)


def test_separation_ratio_histograms():
    preds = [0.005, 0.025, 0.995, 0.5]
    labels = [0, 0, 1, 1]
    report = separation_ratio(preds, labels)
    assert report.histogram_true.sum() == 2
    assert report.histogram_false.sum() == 2
    assert len(report.histogram_true) == len(report.histogram_false) == N_BINS
    assert report.histogram_false[0] == 1   # 0.005 -> [0.00, 0.02)
    assert report.histogram_false[1] == 1   # 0.025 -> [0.02, 0.04)
    assert report.histogram_true[-1] == 1   # 0.995 -> [0.98, 1.00]
    assert report.histogram_true[25] == 1   # 0.5 -> [0.50, 0.52)


def test_separation_ratio_rejects_degenerate_labels():
    with pytest.raises(SingleClassLabelsError):
        separation_ratio([0.1, 0.2], [1, 1])
    with pytest.raises(SingleClassLabelsError):
        separation_ratio([0.1, 0.2], [0, 0])
    with pytest.raises(ValueError):
        separation_ratio([0.1], [0, 1])


def test_separation_ratio_zero_false_mean():
    with pytest.raises(ZeroFalseMeanError):
        separation_ratio([0.5, 0.0], [1, 0])


def test_evaluate_split_end_to_end():
    panel = grid_panel(n_assets=8, n_weeks=30)
    train, test = split(panel, ChronologicalSplit(test_fraction=0.3))
    spec = FeatureSpec.of(["weeks_since_last_visit", "operational_weeks"])
    model = fit_on_train(train, spec, "logistic", LogisticHyper(solver="newton"))
    report = score_panel(model, test)
    assert report.n_test > 0
    assert report.ratio > 0
    assert model.kind == "logistic"
    assert np.all(model.scale != 1.0)  # the train half's standard deviations


def test_ablation_shares_one_split():
    panel = grid_panel(n_assets=8, n_weeks=30)
    subsets = [
        FeatureSpec.of(["weeks_since_last_visit", "vehicle_type"]),
        FeatureSpec.of(["weeks_since_last_visit"]),
    ]
    train, test = split(panel, ChronologicalSplit())
    reports = ablation(train, test, subsets, "logistic", LogisticHyper(solver="newton"))
    assert [spec.names() for spec in subsets] == [
        ("vehicle_type", "weeks_since_last_visit"),
        ("weeks_since_last_visit",),
    ]
    assert len(reports) == len(subsets)
    for report in reports:
        assert report.n_test == len(test)
        assert report.ratio == pytest.approx(report.mean_pred_true / report.mean_pred_false)


# a second grid point per kind, for the tune-shaped sweep
TUNED = {"logistic": {"l2_lambda": 0.1}, "gbt": {"max_depth": 2}, "forest": {"min_leaf": 10}}


@pytest.mark.parametrize("kind, hyper", [
    ("logistic", LogisticHyper(solver="newton")),
    ("gbt", GbtHyper(n_estimators=5)),
    ("forest", ForestHyper(n_estimators=5)),
])
def test_ablation_ratios_equal_one_fit_per_subset(kind, hyper):
    """fit_and_score encodes each half once, over the union of its variants'
    features, and selects each variant's columns. Every model and report is
    that of encoding, fitting and scoring the variant on its own, for a
    report's sweep (the full features, then each ablation subset), a tune's
    (one spec, several hypers) and `ablation`'s (the subsets alone)."""
    config = replace(fleet_config(RunConfig()), seed=7, n_vehicles=20, n_weeks=60)
    csv_bytes, sidecar, _ = render_fleet(config)
    records, _ = parse_subworkorders(csv_bytes)
    panel = build_panel(records, PanelOptions(utilization=load_utilization_csv(sidecar)))
    train, test = split(panel, ChronologicalSplit())
    subsets = [FeatureSpec.of(names) for names in DEFAULT_ABLATION_SUBSETS]
    sweeps = {
        "report": [(spec, hyper) for spec in (FeatureSpec(FEATURE_NAMES), *subsets)],
        "tune": [(FeatureSpec(FEATURE_NAMES), hyper), (FeatureSpec(FEATURE_NAMES), replace(hyper, **TUNED[kind]))],
    }
    for name, variants in sweeps.items():
        for (spec, point), (model, report) in zip(variants, fit_and_score(train, test, variants, kind), strict=True):
            alone = fit_on_train(train, spec, kind, point)
            assert model_to_dict(model) == model_to_dict(alone), (name, spec.names(), point)
            assert report_to_dict(report) == report_to_dict(score_panel(alone, test)), (name, spec.names(), point)
    expected = [score_panel(fit_on_train(train, spec, kind, hyper), test) for spec in subsets]
    assert list(map(report_to_dict, ablation(train, test, subsets, kind, hyper))) == list(map(report_to_dict, expected))


@pytest.fixture(scope="module")
def seed7_halves():
    """A seed-7 fleet of 60 vehicles over 156 weeks, split chronologically."""
    config = replace(fleet_config(RunConfig()), seed=7, n_vehicles=60, n_weeks=156)
    csv_bytes, sidecar, _ = render_fleet(config)
    records, _ = parse_subworkorders(csv_bytes)
    return split(build_panel(records, PanelOptions(utilization=load_utilization_csv(sidecar))), ChronologicalSplit())


@pytest.mark.parametrize("features", [FEATURE_NAMES, FEATURE_NAMES[1:]], ids=["default", "no-vehicle_id"])
@pytest.mark.parametrize(
    ("kind", "hyper"),
    [
        ("logistic", LogisticHyper(solver="newton")),
        ("logistic", LogisticHyper(solver="gd")),
        ("forest", ForestHyper(n_estimators=10)),
        ("gbt", GbtHyper(n_estimators=10)),
    ],
    ids=["newton", "gd", "forest", "gbt"],
)
def test_a_row_scored_alone_gets_its_full_batch_score(seed7_halves, features, kind, hyper):
    """A row's score does not depend on which other rows share its batch:
    every 97th test row, encoded and scored alone, gets the bytes it gets
    inside the full test matrix."""
    train, test = seed7_halves
    model = fit_on_train(train, FeatureSpec.of(features), kind, hyper)
    full = predict_proba(model, transform(test, model.columns, model.scale))
    rows = np.arange(0, len(test), 97)
    alone = np.concatenate([predict_proba(model, transform(test.take([i]), model.columns, model.scale)) for i in rows])
    differ = np.flatnonzero(alone.view(np.uint64) != full[rows].view(np.uint64))
    assert alone.tobytes() == full[rows].tobytes(), f"{len(differ)} of {len(rows)} rows differ"


def test_report_round_trips_to_dict():
    report = separation_ratio([0.9, 0.1, 0.2], [1, 0, 0])
    d = report_to_dict(report)
    assert d["n_bins"] == N_BINS
    assert d["ratio"] == report.ratio
    assert len(d["histogram_true"]) == N_BINS
    buf = io.StringIO()
    write_eval_report(report, buf)
    assert '"ratio"' in buf.getvalue()


def test_write_histogram_csv():
    report = separation_ratio([0.9, 0.1, 0.2], [1, 0, 0])
    buf = io.StringIO()
    write_histogram_csv(report.histogram_false, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "bin_low,bin_high,count"
    assert len(lines) == N_BINS + 1
    assert lines[1] == "0.00,0.02,0"
    assert lines[6] == "0.10,0.12,1"


def test_write_ablation_csv():
    panel = grid_panel(n_assets=8, n_weeks=30)
    subsets = [FeatureSpec.of(["weeks_since_last_visit"])]
    reports = ablation(*split(panel, ChronologicalSplit()), subsets, "logistic", LogisticHyper(solver="newton"))
    buf = io.StringIO()
    write_ablation_csv(subsets, reports, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "features,mean_pred_true,mean_pred_false,ratio"
    assert lines[1].startswith("weeks_since_last_visit,")
    assert float(lines[1].split(",")[3]) == pytest.approx(reports[0].ratio)
