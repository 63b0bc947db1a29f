"""Weekly panel construction: week indexing, anchors, gaps, utilization."""

import io
from datetime import date, datetime, timedelta

import pytest

from fleetrisk.errors import EmptyDatasetError, NonPositiveSpanError
from fleetrisk.ingest import SubWorkOrderRecord
from fleetrisk.panel import (
    Panel,
    PanelOptions,
    PanelRow,
    build_panel,
    load_utilization_csv,
    monday_of,
    panel_from_rows,
    read_panel_csv,
    week_index,
    write_panel_csv,
)

MONDAY = date(2020, 1, 6)

_serial = iter(range(10_000))


def rec(asset, week=0, plan="UM", lin="truck", pool="82 LRS", day_offset=0):
    approval = MONDAY + timedelta(weeks=week, days=day_offset)
    n = next(_serial)
    return SubWorkOrderRecord(
        work_order_id=f"W{n:05d}",
        sub_work_order_id="S1",
        approval_date=approval,
        closed_date=approval + timedelta(days=2),
        asset_id=asset,
        item_desc="x",
        lin_tamcn=lin,
        equipment_pool=pool,
        maint_team="alpha",
        estbd_datetime=datetime(approval.year, approval.month, approval.day, 8, 0),
        work_plan_type=plan,
    )


def by_asset(panel: Panel, asset):
    return [r for r in panel.rows if r.asset_id == asset]


def test_monday_of():
    assert monday_of(date(2020, 1, 6)) == date(2020, 1, 6)
    assert monday_of(date(2020, 1, 9)) == date(2020, 1, 6)
    assert monday_of(date(2020, 1, 12)) == date(2020, 1, 6)
    assert monday_of(date(2020, 1, 13)) == date(2020, 1, 13)


def test_week_index_can_be_negative():
    assert week_index(date(2020, 1, 6), MONDAY) == 0
    assert week_index(date(2020, 1, 12), MONDAY) == 0
    assert week_index(date(2020, 1, 13), MONDAY) == 1
    assert week_index(date(2019, 12, 30), MONDAY) == -1
    assert week_index(date(2019, 12, 29), MONDAY) == -2


def flagged_weeks(panel: Panel, asset):
    return [r.week for r in by_asset(panel, asset) if r.repair_flag]


def test_repair_weeks_filters_scheduled():
    records = [rec("A", 0), rec("A", 2, plan="PREV"), rec("A", 5), rec("B", 1)]
    with_prev = build_panel(records, PanelOptions(include_scheduled=True))
    without = build_panel(records, PanelOptions(include_scheduled=False))
    assert flagged_weeks(with_prev, "A") == [0, 2, 5]
    assert flagged_weeks(without, "A") == [0, 5]
    assert flagged_weeks(with_prev, "B") == [1]
    with pytest.raises(EmptyDatasetError):
        build_panel([], PanelOptions())


def test_repair_weeks_start_date_override():
    records = [rec("A", 3)]
    assert flagged_weeks(build_panel(records), "A") == [0]
    assert flagged_weeks(build_panel(records, PanelOptions(start_date=MONDAY)), "A") == [3]


def test_gap_counts_only_strictly_earlier_repairs():
    records = [rec("ZZ1", 3), rec("ZZ1", 7), rec("ZZ1", 0)]
    panel = build_panel(records, PanelOptions(end_week=8))
    gaps = {r.week: r.weeks_since_last_visit for r in panel.rows}
    flags = {r.week: r.repair_flag for r in panel.rows}
    assert flags == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0}
    # A repair in week w does not reset that same week's count.
    assert gaps == {0: 0, 1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2, 7: 3, 8: 0}


def test_gap_before_any_repair_counts_from_start():
    # AF15 anchors before the panel start, so rows begin at week 0 even
    # though the only record lands at week 4.
    records = [rec("ZZ1", 0), rec("AF150002", 4)]
    panel = build_panel(records, PanelOptions(end_week=4))
    gaps = {r.week: r.weeks_since_last_visit for r in by_asset(panel, "AF150002")}
    assert gaps == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_gap_capped():
    records = [rec("ZZ1", 0), rec("ZZ1", 20)]
    panel = build_panel(records, PanelOptions(gap_cap=5))
    gaps = [r.weeks_since_last_visit for r in panel.rows]
    assert max(gaps) == 5
    assert gaps[6:20] == [5] * 14


def test_age_anchored_at_acquisition_year():
    # AF15 -> Jan 1 2015, whose Monday (2014-12-29) is 262 weeks before MONDAY.
    records = [rec("AF150001", 0), rec("AF150001", 4)]
    panel = build_panel(records)
    ages = {r.week: r.operational_weeks for r in panel.rows}
    assert ages[0] == 262
    assert ages[4] == 266


def test_anchor_is_first_record_when_earlier_than_acquisition_year():
    records = [rec("AF210001", 0), rec("AF210001", 9)]
    panel = build_panel(records)
    ages = {r.week: r.operational_weeks for r in panel.rows}
    assert ages[0] == 0
    assert ages[9] == 9


def test_unrecognized_asset_id_anchors_at_first_record():
    records = [rec("TRUCK-9", 2), rec("ZZ1", 0)]
    panel = build_panel(records)
    rows = by_asset(panel, "TRUCK-9")
    assert rows[0].week == 2
    assert rows[0].operational_weeks == 0


def test_start_week_clamped_to_zero():
    # Anchor predates the panel start; rows begin at week 0 with positive age.
    records = [rec("AF150001", 0)]
    panel = build_panel(records, PanelOptions(end_week=2))
    assert [r.week for r in panel.rows] == [0, 1, 2]
    assert panel.rows[0].operational_weeks == 262


def test_scheduled_rows_kept_but_not_flagged():
    records = [rec("ZZ1", 0), rec("ZZ1", 2, plan="PREV"), rec("ZZ1", 4)]
    with_prev = build_panel(records, PanelOptions(include_scheduled=True))
    without = build_panel(records, PanelOptions(include_scheduled=False))
    assert len(with_prev.rows) == len(without.rows) == 5
    assert [r.repair_flag for r in with_prev.rows] == [1, 0, 1, 0, 1]
    assert [r.repair_flag for r in without.rows] == [1, 0, 0, 0, 1]
    # Dropping the scheduled visit also lengthens the gap that follows it.
    assert [r.weeks_since_last_visit for r in with_prev.rows] == [0, 0, 1, 0, 1]
    assert [r.weeks_since_last_visit for r in without.rows] == [0, 0, 1, 2, 3]


def test_utilization_fallback_rate():
    records = [rec("ZZ1", 0, lin="bus"), rec("ZZ2", 1, lin="truck")]
    panel = build_panel(records, PanelOptions(end_week=3, default_weekly_rate=2.0))
    assert [r.utilization for r in by_asset(panel, "ZZ1")] == [0.0, 2.0, 4.0, 6.0]
    assert [r.utilization for r in by_asset(panel, "ZZ2")] == [0.0, 2.0, 4.0]


def test_utilization_sidecar_steps_forward():
    records = [rec("ZZ1", 0)]
    sidecar = {"ZZ1": [(1, 10.0), (3, 25.0)]}
    panel = build_panel(records, PanelOptions(end_week=4, utilization=sidecar))
    assert [r.utilization for r in panel.rows] == [0.0, 10.0, 10.0, 25.0, 25.0]


def test_sidecar_only_applies_to_listed_assets():
    records = [rec("ZZ1", 0), rec("ZZ2", 0)]
    panel = build_panel(
        records,
        PanelOptions(end_week=1, utilization={"ZZ1": [(0, 5.0)]}, default_weekly_rate=3.0),
    )
    assert [r.utilization for r in by_asset(panel, "ZZ1")] == [5.0, 5.0]
    assert [r.utilization for r in by_asset(panel, "ZZ2")] == [0.0, 3.0]


def test_end_week_extends_past_last_record():
    records = [rec("ZZ1", 0)]
    panel = build_panel(records, PanelOptions(end_week=6))
    assert [r.week for r in panel.rows] == list(range(7))


def test_end_week_before_every_start_raises():
    records = [rec("ZZ1", 5)]
    with pytest.raises(NonPositiveSpanError):
        build_panel(records, PanelOptions(start_date=MONDAY - timedelta(weeks=3), end_week=1))


def test_empty_records_raise():
    with pytest.raises(EmptyDatasetError):
        build_panel([])


def test_vehicle_type_and_unit_from_first_record():
    records = [rec("ZZ1", 0, lin="bus", pool="82 LRS"), rec("ZZ1", 1, lin="bus", pool="82 LRS")]
    panel = build_panel(records)
    assert all(r.vehicle_type == "bus" for r in panel.rows)
    assert all(r.unit == "82 LRS" for r in panel.rows)


def test_vocab_sorted_and_rows_ordered():
    records = [rec("B2", 1), rec("A1", 0, lin="bus", pool="83 LRS"), rec("B2", 0)]
    panel = build_panel(records)
    assert panel.vocab.asset_ids == ("A1", "B2")
    assert panel.vocab.vehicle_types == ("bus", "truck")
    assert panel.vocab.units == ("82 LRS", "83 LRS")
    keys = [(r.asset_id, r.week) for r in panel.rows]
    assert keys == sorted(keys)


def test_weekday_approvals_collapse_to_one_week():
    records = [rec("ZZ1", 0, day_offset=2), rec("ZZ1", 0, day_offset=6)]
    panel = build_panel(records)
    assert len(panel.rows) == 1
    assert panel.rows[0].repair_flag == 1


def test_duplicate_rows_rejected():
    row = PanelRow("A", "truck", "82 LRS", 0, 0, 0, 0.0, 1)
    with pytest.raises(ValueError):
        panel_from_rows([row, row])


def test_panel_csv_round_trip():
    records = [rec("ZZ1", 0), rec("ZZ1", 3), rec("ZZ2", 1, lin="bus")]
    panel = build_panel(records, PanelOptions(default_weekly_rate=1.5))
    buf = io.StringIO()
    write_panel_csv(panel, buf)
    back = read_panel_csv(buf.getvalue())
    assert back.rows == panel.rows
    assert back.vocab == panel.vocab


def test_load_utilization_csv():
    text = "asset_id,week,cumulative_units\nA,2,5.5\nA,0,1.0\nB,0,0.0\n"
    out = load_utilization_csv(text)
    assert out == {"A": [(0, 1.0), (2, 5.5)], "B": [(0, 0.0)]}


def test_load_utilization_csv_rejects_bad_series():
    with pytest.raises(ValueError):
        load_utilization_csv("asset_id,week,cumulative_units\nA,0,-1\n")
    with pytest.raises(ValueError):
        load_utilization_csv("asset_id,week,cumulative_units\nA,0,5\nA,1,4\n")
    with pytest.raises(ValueError):
        load_utilization_csv("asset_id,week\nA,0\n")
