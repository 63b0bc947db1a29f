"""Synthetic fleet generation and its closure with panel ingestion."""

import io
from dataclasses import replace
from datetime import date

import pytest

from fleetrisk.config import RunConfig, fleet_config
from fleetrisk.errors import InvalidConfigError
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.panel import PanelOptions, build_panel, load_utilization_csv
from fleetrisk.synth import (
    GAP_CAP,
    PREV_PERIOD_WEEKS,
    START_MONDAY,
    FleetConfig,
    GroundTruth,
    VehicleTypeSpec,
    generate_fleet,
    hazard_probability,
)

SMALL_TYPES = (
    VehicleTypeSpec("bus", 0.5, 30.0),
    VehicleTypeSpec("truck", 1.0, 45.0),
    VehicleTypeSpec("loader", 2.0, 60.0),
)


def small_config(**overrides):
    base = dict(
        n_vehicles=9,
        n_weeks=40,
        vehicle_types=SMALL_TYPES,
        units=("82 LRS", "83 LRS"),
        beta0=-3.0,
        beta_age=0.002,
        beta_gap=0.05,
        beta_util=0.0005,
        seed=3,
    )
    base.update(overrides)
    return FleetConfig(**base)


def panel_of(csv_bytes, sidecar, n_weeks):
    records, errors = parse_subworkorders(csv_bytes)
    assert errors == []
    return build_panel(
        records,
        PanelOptions(
            include_scheduled=False,
            end_week=n_weeks - 1,
            utilization=load_utilization_csv(sidecar),
        ),
    )


def default_fleet(seed=0):
    """The fleet RunConfig declares by default, with a fixed seed."""
    return replace(fleet_config(RunConfig()), seed=seed)


def test_default_config_shape():
    cfg = default_fleet()
    assert cfg.n_vehicles == 60
    assert cfg.n_weeks == 156
    assert len(cfg.vehicle_types) == 3
    assert cfg.seed == 0


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        small_config(n_vehicles=0)
    with pytest.raises(InvalidConfigError):
        small_config(n_weeks=1)
    with pytest.raises(InvalidConfigError):
        small_config(vehicle_types=())
    with pytest.raises(InvalidConfigError):
        small_config(units=())
    with pytest.raises(InvalidConfigError):
        small_config(vehicle_types=(VehicleTypeSpec("x", 0.0, 1.0),))
    with pytest.raises(InvalidConfigError):
        small_config(vehicle_types=(VehicleTypeSpec("x", 1.0, -1.0),))
    for value in (float("nan"), float("inf")):
        for name in ("beta0", "beta_age", "beta_gap", "beta_util"):
            with pytest.raises(InvalidConfigError, match=name):
                small_config(**{name: value})
        with pytest.raises(InvalidConfigError, match="hazard_multiplier"):
            small_config(vehicle_types=(VehicleTypeSpec("x", value, 1.0),))
        with pytest.raises(InvalidConfigError, match="weekly_utilization_rate"):
            small_config(vehicle_types=(VehicleTypeSpec("x", 1.0, value),))


def test_generated_csv_parses_cleanly():
    csv_bytes, sidecar, truth = generate_fleet(small_config())
    records, errors = parse_subworkorders(csv_bytes)
    assert errors == []
    expected = sum(len(v.breakdown_weeks) + len(v.prev_weeks) for v in truth.vehicles)
    assert len(records) == expected
    assert all(r.labor_hours is not None for r in records)


def test_generation_is_deterministic():
    cfg = small_config()
    a = generate_fleet(cfg)
    b = generate_fleet(cfg)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2].to_dict() == b[2].to_dict()
    c = generate_fleet(small_config(seed=4))
    assert c[0] != a[0]


def test_panel_flags_reproduce_breakdown_weeks():
    cfg = small_config()
    csv_bytes, sidecar, truth = generate_fleet(cfg)
    panel = panel_of(csv_bytes, sidecar, cfg.n_weeks)
    flagged = {}
    for r in panel.rows:
        if r.repair_flag:
            flagged.setdefault(r.asset_id, []).append(r.week)
    assert flagged == {
        v.asset_id: v.breakdown_weeks for v in truth.vehicles if v.breakdown_weeks
    }


def test_panel_features_reproduce_hazard_exactly():
    cfg = small_config()
    csv_bytes, sidecar, truth = generate_fleet(cfg)
    panel = panel_of(csv_bytes, sidecar, cfg.n_weeks)
    by_asset = {v.asset_id: v for v in truth.vehicles}
    assert len(panel.rows) == cfg.n_vehicles * cfg.n_weeks
    for r in panel.rows:
        v = by_asset[r.asset_id]
        p = hazard_probability(
            cfg.beta0, v.hazard_multiplier,
            cfg.beta_age, r.operational_weeks,
            cfg.beta_gap, r.weeks_since_last_visit,
            cfg.beta_util, r.utilization,
        )
        assert p == v.hazard[r.week]


def test_preventive_schedule_matches_vehicle_phase():
    cfg = small_config(n_weeks=60)
    csv_bytes, _, truth = generate_fleet(cfg)
    for i, v in enumerate(truth.vehicles):
        assert v.prev_weeks == [w for w in range(60) if w % PREV_PERIOD_WEEKS == i % PREV_PERIOD_WEEKS]
    records, _ = parse_subworkorders(csv_bytes)
    prevs = [r for r in records if r.work_plan_type == "PREV"]
    assert all(r.closed_date == r.approval_date for r in prevs)
    assert all(r.labor_hours == 2.0 for r in prevs)
    # vehicle 0 serviced in week 0 pins the panel start to the configured Monday
    assert any(r.approval_date == START_MONDAY for r in prevs)


def test_acquisition_years_cycle_and_anchor():
    _, _, truth = generate_fleet(small_config())
    years = [v.acquisition_year for v in truth.vehicles[:6]]
    assert years == [2013, 2014, 2015, 2013, 2014, 2015]
    assert truth.vehicles[0].asset_id.startswith("AF13")
    assert truth.vehicles[2].asset_id.startswith("AF15")
    anchors = [v.age_anchor_week for v in truth.vehicles[:3]]
    assert anchors == [-105, -53, -1]


def test_vehicle_types_and_units_cycle():
    _, _, truth = generate_fleet(small_config())
    assert [v.type_name for v in truth.vehicles[:4]] == ["bus", "truck", "loader", "bus"]
    assert [v.unit for v in truth.vehicles[:4]] == ["82 LRS", "83 LRS", "82 LRS", "83 LRS"]


def test_sidecar_is_loadable_and_increasing():
    cfg = small_config()
    _, sidecar, truth = generate_fleet(cfg)
    series = load_utilization_csv(sidecar)
    assert len(series.asset_ids) == cfg.n_vehicles
    for v in truth.vehicles:
        values = series.value[series.asset == series.asset_ids.index(v.asset_id)].tolist()
        assert len(values) == cfg.n_weeks
        assert values == v.utilization
        assert all(b > a for a, b in zip(values, values[1:]))


def test_ground_truth_round_trip(tmp_path):
    _, _, truth = generate_fleet(small_config())
    back = GroundTruth.from_dict(truth.to_dict())
    assert back.to_dict() == truth.to_dict()
    path = tmp_path / "truth.json"
    with open(path, "w") as stream:
        truth.save(stream)
    assert GroundTruth.load(path).to_dict() == truth.to_dict()


def test_gap_feedback_caps():
    # A fleet that never breaks down grows its gap until the cap; with a
    # tiny positive gap coefficient the hazard rises up to the cap week and
    # is flat beyond it.
    cfg = small_config(n_vehicles=1, n_weeks=GAP_CAP + 10, beta0=-50.0, beta_age=0.0, beta_gap=1e-6, beta_util=0.0)
    _, _, truth = generate_fleet(cfg)
    v = truth.vehicles[0]
    assert v.breakdown_weeks == []
    hz = v.hazard
    assert hz[GAP_CAP - 2] < hz[GAP_CAP]
    assert hz[GAP_CAP] == hz[GAP_CAP + 5]


def test_hostile_intercept_leaves_only_scheduled_rows():
    cfg = small_config(beta0=-50.0)
    csv_bytes, _, truth = generate_fleet(cfg)
    records, errors = parse_subworkorders(csv_bytes)
    assert errors == []
    assert records
    assert all(r.work_plan_type == "PREV" for r in records)
    assert all(v.breakdown_weeks == [] for v in truth.vehicles)


def test_zero_betas_break_down_half_the_time():
    cfg = small_config(
        n_vehicles=20,
        n_weeks=100,
        vehicle_types=(VehicleTypeSpec("truck", 1.0, 45.0),),
        beta0=0.0,
        beta_age=0.0,
        beta_gap=0.0,
        beta_util=0.0,
    )
    _, _, truth = generate_fleet(cfg)
    n = cfg.n_vehicles * cfg.n_weeks
    rate = sum(len(v.breakdown_weeks) for v in truth.vehicles) / n
    sigma = (0.25 / n) ** 0.5
    assert abs(rate - 0.5) <= 3 * sigma
    assert all(p == 0.5 for v in truth.vehicles for p in v.hazard)


def test_default_fleet_breakdown_rate_band():
    cfg = default_fleet()
    _, _, truth = generate_fleet(cfg)
    rate = sum(len(v.breakdown_weeks) for v in truth.vehicles) / (cfg.n_vehicles * cfg.n_weeks)
    assert 0.04 < rate < 0.10


def test_hazard_probability_hand_values():
    assert hazard_probability(0.0, 1.0, 0.0, 50.0, 0.0, 3.0, 0.0, 100.0) == 0.5
    low = hazard_probability(-4.0, 1.0, 0.0, 0, 0.0, 0, 0.0, 0)
    doubled = hazard_probability(-4.0, 2.0, 0.0, 0, 0.0, 0, 0.0, 0)
    assert low == pytest.approx(1 / (1 + 2.718281828459045**4))
    # a hazard multiplier scales the odds, not the probability
    assert doubled / (1 - doubled) == pytest.approx(2 * low / (1 - low))


def test_start_monday_is_a_monday():
    assert START_MONDAY.weekday() == 0
    _, _, truth = generate_fleet(small_config())
    assert truth.start_monday == START_MONDAY
    assert truth.start_monday == date(2015, 1, 5)
