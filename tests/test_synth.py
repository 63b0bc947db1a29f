"""Synthetic fleet generation and its closure with panel ingestion."""

import io
import json
import math
from dataclasses import replace
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetrisk.config import RunConfig, fleet_config
from fleetrisk.errors import InvalidConfigError
from fleetrisk.ingest import parse_subworkorders, write_csv, write_subworkorders
from fleetrisk.panel import UTILIZATION_COLUMNS, PanelOptions, build_panel, load_utilization_csv, monday_of, week_index
from fleetrisk.synth import (
    GAP_CAP,
    N_ACQ_YEARS,
    PREV_PERIOD_WEEKS,
    START_MONDAY,
    UNSCHEDULED_CODE,
    FleetConfig,
    GroundTruth,
    VehicleTruth,
    VehicleTypeSpec,
    generate_fleet,
    hazard_probability,
)

from oracles import SubWorkOrderRecord, orders_of, parse_records

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
    records, errors = parse_records(csv_bytes)
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
    assert a[2].hazard.tobytes() == b[2].hazard.tobytes()
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
    by_asset = {v.asset_id: i for i, v in enumerate(truth.vehicles)}
    assert len(panel.rows) == cfg.n_vehicles * cfg.n_weeks
    for r in panel.rows:
        i = by_asset[r.asset_id]
        p = hazard_probability(
            cfg.beta0, truth.vehicles[i].hazard_multiplier,
            cfg.beta_age, r.operational_weeks,
            cfg.beta_gap, r.weeks_since_last_visit,
            cfg.beta_util, r.utilization,
        )
        assert p == truth.hazard[i, r.week]


def test_preventive_schedule_matches_vehicle_phase():
    cfg = small_config(n_weeks=60)
    csv_bytes, _, truth = generate_fleet(cfg)
    for i, v in enumerate(truth.vehicles):
        assert v.prev_weeks == [w for w in range(60) if w % PREV_PERIOD_WEEKS == i % PREV_PERIOD_WEEKS]
    records, _ = parse_records(csv_bytes)
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
        assert all(b > a for a, b in zip(values, values[1:]))


def test_ground_truth_saves_no_per_week_series():
    """The betas and the panel's features give the hazard, and the sidecar
    holds the utilization, so the saved truth holds neither."""
    _, _, truth = generate_fleet(small_config())
    stream = io.StringIO()
    truth.save(stream)
    assert stream.getvalue() == json.dumps(truth.to_dict())
    saved = json.loads(stream.getvalue())
    assert "hazard" not in saved
    assert all("hazard" not in v and "utilization" not in v for v in saved["vehicles"])


def test_gap_feedback_caps():
    # A fleet that never breaks down grows its gap until the cap; with a
    # tiny positive gap coefficient the hazard rises up to the cap week and
    # is flat beyond it.
    cfg = small_config(n_vehicles=1, n_weeks=GAP_CAP + 10, beta0=-50.0, beta_age=0.0, beta_gap=1e-6, beta_util=0.0)
    _, _, truth = generate_fleet(cfg)
    v = truth.vehicles[0]
    assert v.breakdown_weeks == []
    hz = truth.hazard[0]
    assert hz[GAP_CAP - 2] < hz[GAP_CAP]
    assert hz[GAP_CAP] == hz[GAP_CAP + 5]


def test_hostile_intercept_leaves_only_scheduled_rows():
    cfg = small_config(beta0=-50.0)
    csv_bytes, _, truth = generate_fleet(cfg)
    records, errors = parse_records(csv_bytes)
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
    assert np.all(truth.hazard == 0.5)


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


def reference_fleet(config):
    """The vehicle-by-vehicle, week-by-week generator that generate_fleet
    replaced, kept as its oracle: one scalar hazard per vehicle-week, and
    one SubWorkOrderRecord per row."""
    start_year = START_MONDAY.year
    records = []
    vehicles = []
    hazards = []
    utilizations = []
    for v in range(config.n_vehicles):
        vtype = config.vehicle_types[v % len(config.vehicle_types)]
        unit = config.units[v % len(config.units)]
        acq_year = start_year - (N_ACQ_YEARS - 1) + (v % N_ACQ_YEARS)
        asset_id = f"AF{acq_year % 100:02d}{v:05d}"
        anchor = week_index(monday_of(date(acq_year, 1, 1)), START_MONDAY)

        rng = np.random.default_rng([config.seed, v])
        increments = vtype.weekly_utilization_rate * rng.uniform(0.5, 1.5, config.n_weeks)
        utilization = np.cumsum(increments)
        draws = rng.random(config.n_weeks)

        hazard = []
        breakdown_weeks = []
        prev_weeks = [w for w in range(config.n_weeks) if w % PREV_PERIOD_WEEKS == v % PREV_PERIOD_WEEKS]
        last_breakdown = None
        for w in range(config.n_weeks):
            gap = w if last_breakdown is None else w - last_breakdown - 1
            p = float(hazard_probability(
                config.beta0, vtype.hazard_multiplier,
                config.beta_age, w - anchor,
                config.beta_gap, min(gap, GAP_CAP),
                config.beta_util, float(utilization[w]),
            ))
            hazard.append(p)
            if draws[w] < p:
                breakdown_weeks.append(w)
                last_breakdown = w

        labor = np.round(rng.uniform(0.5, 8.0, len(breakdown_weeks)), 1).tolist()
        orders = [(w, 2, "UNSCHEDULED BREAKDOWN REPAIR", UNSCHEDULED_CODE, h) for w, h in zip(breakdown_weeks, labor)]
        orders += [(w, 0, "SCHEDULED PREVENTIVE SERVICE", "PREV", 2.0) for w in prev_weeks]
        for w, days_to_close, desc, plan, hours in orders:
            day = START_MONDAY + timedelta(weeks=w)
            records.append(SubWorkOrderRecord(
                work_order_id=f"W{len(records) + 1:07d}",
                sub_work_order_id="1",
                approval_date=day,
                closed_date=day + timedelta(days=days_to_close),
                asset_id=asset_id,
                item_desc=desc,
                lin_tamcn=vtype.name,
                equipment_pool=unit,
                maint_team=f"{vtype.name.upper()} SHOP",
                estbd_datetime=datetime(day.year, day.month, day.day, 8, 0, 0),
                work_plan_type=plan,
                labor_hours=hours,
            ))
        vehicles.append(VehicleTruth(
            asset_id=asset_id,
            type_name=vtype.name,
            hazard_multiplier=vtype.hazard_multiplier,
            unit=unit,
            acquisition_year=acq_year,
            age_anchor_week=anchor,
            breakdown_weeks=breakdown_weeks,
            prev_weeks=prev_weeks,
        ))
        hazards.append(hazard)
        utilizations.append(utilization.tolist())

    work_orders = io.StringIO()
    write_subworkorders(orders_of(records), work_orders)
    sidecar = io.StringIO()
    write_csv(sidecar, UTILIZATION_COLUMNS, (
        (v.asset_id, w, u) for v, series in zip(vehicles, utilizations) for w, u in enumerate(series)
    ))
    truth = GroundTruth(
        beta0=config.beta0,
        beta_age=config.beta_age,
        beta_gap=config.beta_gap,
        beta_util=config.beta_util,
        seed=config.seed,
        n_weeks=config.n_weeks,
        start_monday=START_MONDAY,
        vehicles=vehicles,
        hazard=np.array(hazards),
    )
    return work_orders.getvalue(), sidecar.getvalue(), truth


def assert_same_fleet_bytes(config):
    """generate_fleet writes the reference generator's three artifacts byte
    for byte, and holds its hazard bit for bit. A mismatch names the first
    differing offset, not a diff of megabytes."""
    texts = []
    for work_orders, sidecar, truth in (generate_fleet(config), reference_fleet(config)):
        stream = io.StringIO()
        truth.save(stream)
        assert truth.hazard.shape == (config.n_vehicles, config.n_weeks)
        texts.append((work_orders, sidecar, stream.getvalue(), truth.hazard.tobytes()))
    for name, got, expected in zip(("work orders", "sidecar", "ground truth", "hazard bytes"), *texts):
        if got != expected:
            at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
            window = slice(max(at - 30, 0), at + 30)
            pytest.fail(f"{name} differ at offset {at}: {got[window]!r} != {expected[window]!r}")


@st.composite
def fleet_configs(draw):
    """Fleets across regimes: hazards from never to always (beta0 far from
    its default either way), multipliers around e^-4..e^4, and a nonzero
    utilization effect."""
    n_types = draw(st.integers(1, 4))
    types = tuple(
        VehicleTypeSpec(f"type{i}", math.exp(draw(st.floats(-4.0, 4.0))), draw(st.floats(0.0, 80.0)))
        for i in range(n_types)
    )
    return FleetConfig(
        n_vehicles=draw(st.integers(1, 40)),
        n_weeks=draw(st.integers(2, 200)),
        vehicle_types=types,
        units=tuple(f"{i} LRS" for i in range(draw(st.integers(1, 4)))),
        beta0=draw(st.floats(-33.0, 27.0)),
        beta_age=draw(st.floats(-0.05, 0.05)),
        beta_gap=draw(st.floats(-0.3, 0.3)),
        beta_util=draw(st.floats(1e-6, 0.01) | st.floats(-0.01, -1e-6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(fleet_configs())
def test_fleet_matches_the_per_vehicle_reference(config):
    assert_same_fleet_bytes(config)


def test_a_200_vehicle_fleet_matches_the_per_vehicle_reference():
    assert_same_fleet_bytes(replace(default_fleet(seed=11), n_vehicles=200, n_weeks=104))


def test_work_orders_round_trip_through_the_record_serializer():
    """Synth writes its rows itself; parsing them and writing them back with `write_subworkorders` gives the same text."""
    work_orders, _, _ = generate_fleet(small_config(n_weeks=60))
    orders, errors = parse_subworkorders(work_orders)
    assert errors == []
    stream = io.StringIO()
    write_subworkorders(orders, stream)
    assert stream.getvalue() == work_orders


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-1000.0, 1000.0) | st.floats(-10.0, 10.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-0.01, 0.01),
    st.lists(
        st.tuples(st.floats(1e-3, 1e3), st.integers(-300, 300), st.integers(0, GAP_CAP), st.floats(0.0, 1e5)),
        min_size=1,
        max_size=50,
    ),
)
@example(-800.0, 0.0, 0.0, 0.0, [(1.0, 0, 0, 0.0)])
@example(-41.0, 0.0, 0.0, 0.0, [(1.0, 0, 0, 0.0)])
@example(41.0, 0.0, 0.0, 0.0, [(1.0, 0, 0, 0.0)])
@example(800.0, 0.0, 0.0, 0.0, [(1.0, 0, 0, 0.0)])
def test_hazard_on_arrays_equals_its_scalar_calls(beta0, beta_age, beta_gap, beta_util, rows):
    """Bit for bit, saturating z (|z| > 40, where the hazard is 0, 1 or
    subnormal) included."""
    multiplier, age, gap, util = (np.array(column) for column in zip(*rows))
    vector = hazard_probability(beta0, multiplier, beta_age, age, beta_gap, gap, beta_util, util)
    scalars = [hazard_probability(beta0, m, beta_age, a, beta_gap, g, beta_util, u) for m, a, g, u in rows]
    assert vector.tobytes() == np.array(scalars, dtype=float).tobytes()
