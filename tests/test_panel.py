"""Weekly panel construction: week indexing, anchors, gaps, utilization."""

import csv
import io
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetrisk.config import RunConfig, fleet_config
from fleetrisk.errors import EmptyDatasetError, InvalidConfigError, NonPositiveSpanError
from fleetrisk.evaluation import ChronologicalSplit, RandomRowSplit, split
from fleetrisk.ingest import (
    WorkPlanClass,
    acquisition_year,
    classify_work_plan,
    level_codes,
    parse_subworkorders,
    read_table,
    source_text,
    write_subworkorders,
)
from fleetrisk.panel import (
    CODED,
    NUMERIC,
    Panel,
    PanelOptions,
    PanelRow,
    PanelVocab,
    UTILIZATION_COLUMNS,
    Utilization,
    build_panel,
    load_utilization_csv,
    monday_of,
    week_index,
    write_panel_csv,
)
from fleetrisk.synth import generate_fleet

from oracles import SubWorkOrderRecord, orders_of, panel_from_rows, parse_records, read_panel_csv, records_of

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


def sidecar(series):
    """A loaded utilization sidecar holding {asset_id: [(week, value), ...]}."""
    lines = [f"{a},{w},{v!r}" for a, readings in series.items() for w, v in readings]
    return load_utilization_csv("\n".join(["asset_id,week,cumulative_units", *lines]))


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
    with_prev = build_panel(orders_of(records), PanelOptions(include_scheduled=True))
    without = build_panel(orders_of(records), PanelOptions(include_scheduled=False))
    assert flagged_weeks(with_prev, "A") == [0, 2, 5]
    assert flagged_weeks(without, "A") == [0, 5]
    assert flagged_weeks(with_prev, "B") == [1]
    with pytest.raises(EmptyDatasetError):
        build_panel(orders_of([]), PanelOptions())


def test_repair_weeks_start_date_override():
    records = [rec("A", 3)]
    assert flagged_weeks(build_panel(orders_of(records)), "A") == [0]
    assert flagged_weeks(build_panel(orders_of(records), PanelOptions(start_date=MONDAY)), "A") == [3]


def test_gap_counts_only_strictly_earlier_repairs():
    records = [rec("ZZ1", 3), rec("ZZ1", 7), rec("ZZ1", 0)]
    panel = build_panel(orders_of(records), PanelOptions(end_week=8))
    gaps = {r.week: r.weeks_since_last_visit for r in panel.rows}
    flags = {r.week: r.repair_flag for r in panel.rows}
    assert flags == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0, 7: 1, 8: 0}
    # A repair in week w does not reset that same week's count.
    assert gaps == {0: 0, 1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 2, 7: 3, 8: 0}


def test_gap_before_any_repair_counts_from_start():
    # AF15 anchors before the panel start, so rows begin at week 0 even
    # though the only record lands at week 4.
    records = [rec("ZZ1", 0), rec("AF150002", 4)]
    panel = build_panel(orders_of(records), PanelOptions(end_week=4))
    gaps = {r.week: r.weeks_since_last_visit for r in by_asset(panel, "AF150002")}
    assert gaps == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_gap_capped():
    records = [rec("ZZ1", 0), rec("ZZ1", 20)]
    panel = build_panel(orders_of(records), PanelOptions(gap_cap=5))
    gaps = [r.weeks_since_last_visit for r in panel.rows]
    assert max(gaps) == 5
    assert gaps[6:20] == [5] * 14


@pytest.mark.parametrize("gap_cap", [0, -1])
def test_panel_options_reject_a_gap_cap_below_one(gap_cap):
    with pytest.raises(ValueError, match="gap_cap must be >= 1"):
        PanelOptions(gap_cap=gap_cap)


@pytest.mark.parametrize("name, weeks", [("end_week", 521_723), ("end_week", 2**62), ("end_week", 10**20),
                                         ("gap_cap", 521_723), ("gap_cap", 10**20)])
def test_panel_options_reject_more_weeks_than_two_dates_lie_apart(name, weeks):
    """No panel week lies further from week 0 than 521,722 weeks, the span of
    `date`. A larger end week used to reach `build_panel`, where 2**62
    crashed numpy and 2e9 asked it for hundreds of GiB; 10**20 overflowed."""
    with pytest.raises(InvalidConfigError, match=f"{name} must be <= 521722, the most weeks two dates lie apart, got {weeks}"):
        PanelOptions(**{name: weeks})
    PanelOptions(**{name: 521_722})


@pytest.mark.parametrize("rate", [-1, float("nan"), float("inf"), 1e308], ids=["negative", "nan", "inf", "huge"])
def test_panel_options_reject_a_default_weekly_rate_out_of_range(rate):
    """Without a sidecar every vehicle's utilization is its age times this
    rate: a negative one gave negative utilization, and nan gave all nan."""
    with pytest.raises(ValueError, match=r"default_weekly_rate must be in \[0, 168\]"):
        PanelOptions(default_weekly_rate=rate)


def test_age_anchored_at_acquisition_year():
    # AF15 -> Jan 1 2015, whose Monday (2014-12-29) is 262 weeks before MONDAY.
    records = [rec("AF150001", 0), rec("AF150001", 4)]
    panel = build_panel(orders_of(records))
    ages = {r.week: r.operational_weeks for r in panel.rows}
    assert ages[0] == 262
    assert ages[4] == 266


def test_anchor_is_first_record_when_earlier_than_acquisition_year():
    records = [rec("AF210001", 0), rec("AF210001", 9)]
    panel = build_panel(orders_of(records))
    ages = {r.week: r.operational_weeks for r in panel.rows}
    assert ages[0] == 0
    assert ages[9] == 9


def test_unrecognized_asset_id_anchors_at_first_record():
    records = [rec("TRUCK-9", 2), rec("ZZ1", 0)]
    panel = build_panel(orders_of(records))
    rows = by_asset(panel, "TRUCK-9")
    assert rows[0].week == 2
    assert rows[0].operational_weeks == 0


def test_start_week_clamped_to_zero():
    # Anchor predates the panel start; rows begin at week 0 with positive age.
    records = [rec("AF150001", 0)]
    panel = build_panel(orders_of(records), PanelOptions(end_week=2))
    assert [r.week for r in panel.rows] == [0, 1, 2]
    assert panel.rows[0].operational_weeks == 262


def test_scheduled_rows_kept_but_not_flagged():
    records = [rec("ZZ1", 0), rec("ZZ1", 2, plan="PREV"), rec("ZZ1", 4)]
    with_prev = build_panel(orders_of(records), PanelOptions(include_scheduled=True))
    without = build_panel(orders_of(records), PanelOptions(include_scheduled=False))
    assert len(with_prev.rows) == len(without.rows) == 5
    assert [r.repair_flag for r in with_prev.rows] == [1, 0, 1, 0, 1]
    assert [r.repair_flag for r in without.rows] == [1, 0, 0, 0, 1]
    # Dropping the scheduled visit also lengthens the gap that follows it.
    assert [r.weeks_since_last_visit for r in with_prev.rows] == [0, 0, 1, 0, 1]
    assert [r.weeks_since_last_visit for r in without.rows] == [0, 0, 1, 2, 3]


def test_utilization_fallback_rate():
    records = [rec("ZZ1", 0, lin="bus"), rec("ZZ2", 1, lin="truck")]
    panel = build_panel(orders_of(records), PanelOptions(end_week=3, default_weekly_rate=2.0))
    assert [r.utilization for r in by_asset(panel, "ZZ1")] == [0.0, 2.0, 4.0, 6.0]
    assert [r.utilization for r in by_asset(panel, "ZZ2")] == [0.0, 2.0, 4.0]


def test_utilization_sidecar_steps_forward():
    records = [rec("ZZ1", 0)]
    panel = build_panel(orders_of(records), PanelOptions(end_week=4, utilization=sidecar({"ZZ1": [(1, 10.0), (3, 25.0)]})))
    assert [r.utilization for r in panel.rows] == [0.0, 10.0, 10.0, 25.0, 25.0]


def test_sidecar_only_applies_to_listed_assets():
    records = [rec("ZZ1", 0), rec("ZZ2", 0)]
    panel = build_panel(
        orders_of(records),
        PanelOptions(end_week=1, utilization=sidecar({"ZZ1": [(0, 5.0)]}), default_weekly_rate=3.0),
    )
    assert [r.utilization for r in by_asset(panel, "ZZ1")] == [5.0, 5.0]
    assert [r.utilization for r in by_asset(panel, "ZZ2")] == [0.0, 3.0]


def test_end_week_extends_past_last_record():
    records = [rec("ZZ1", 0)]
    panel = build_panel(orders_of(records), PanelOptions(end_week=6))
    assert [r.week for r in panel.rows] == list(range(7))


def test_end_week_before_every_start_raises():
    records = [rec("ZZ1", 5)]
    with pytest.raises(NonPositiveSpanError):
        build_panel(orders_of(records), PanelOptions(start_date=MONDAY - timedelta(weeks=3), end_week=1))


def test_empty_records_raise():
    with pytest.raises(EmptyDatasetError):
        build_panel(orders_of([]))


def test_vehicle_type_and_unit_from_first_record():
    records = [rec("ZZ1", 0, lin="bus", pool="82 LRS"), rec("ZZ1", 1, lin="bus", pool="82 LRS")]
    panel = build_panel(orders_of(records))
    assert all(r.vehicle_type == "bus" for r in panel.rows)
    assert all(r.unit == "82 LRS" for r in panel.rows)


def test_vocab_sorted_and_rows_ordered():
    records = [rec("B2", 1), rec("A1", 0, lin="bus", pool="83 LRS"), rec("B2", 0)]
    panel = build_panel(orders_of(records))
    assert panel.vocab.asset_ids == ("A1", "B2")
    assert panel.vocab.vehicle_types == ("bus", "truck")
    assert panel.vocab.units == ("82 LRS", "83 LRS")
    keys = [(r.asset_id, r.week) for r in panel.rows]
    assert keys == sorted(keys)


def test_weekday_approvals_collapse_to_one_week():
    records = [rec("ZZ1", 0, day_offset=2), rec("ZZ1", 0, day_offset=6)]
    panel = build_panel(orders_of(records))
    assert len(panel.rows) == 1
    assert panel.rows[0].repair_flag == 1


def test_duplicate_rows_rejected():
    row = PanelRow("A", "truck", "82 LRS", 0, 0, 0, 0.0, 1)
    with pytest.raises(ValueError):
        panel_from_rows([row, row])


def test_panel_csv_round_trip():
    records = [rec("ZZ1", 0), rec("ZZ1", 3), rec("ZZ2", 1, lin="bus")]
    panel = build_panel(orders_of(records), PanelOptions(default_weekly_rate=1.5))
    buf = io.StringIO()
    write_panel_csv(panel, buf)
    back = read_panel_csv(buf.getvalue())
    assert back.rows == panel.rows
    assert back.vocab == panel.vocab


def test_read_panel_csv_reads_a_short_row_as_blank_cells_and_refuses_them():
    """A short row reads "" past its end, as in every table reader, so its
    cells fail to parse with a ValueError rather than a TypeError on None."""
    text = "asset_id,vehicle_type,unit,week,operational_weeks,weeks_since_last_visit,utilization,repair_flag\n"
    with pytest.raises(ValueError, match="could not convert string to float: ''"):
        read_panel_csv(text + "A,truck,82 LRS,0,0,0\n")


def test_load_utilization_csv():
    text = "asset_id,week,cumulative_units\nA,2,5.5\nA,0,1.0\nB,0,0.0\n"
    out = load_utilization_csv(text)
    assert out.asset_ids == ("A", "B")
    assert [(out.asset_ids[a], w, v) for a, w, v in zip(out.asset, out.week, out.value)] == [
        ("A", 0, 1.0), ("A", 2, 5.5), ("B", 0, 0.0)
    ]


def test_load_utilization_csv_reads_a_header_only_file_as_no_readings():
    out = load_utilization_csv("asset_id,week,cumulative_units\n")
    assert out.asset_ids == ()
    assert len(out.asset) == len(out.week) == len(out.value) == 0


def test_load_utilization_csv_rejects_bad_series():
    with pytest.raises(ValueError):
        load_utilization_csv("asset_id,week,cumulative_units\nA,0,-1\n")
    with pytest.raises(ValueError):
        load_utilization_csv("asset_id,week,cumulative_units\nA,0,5\nA,1,4\n")
    with pytest.raises(ValueError):
        load_utilization_csv("asset_id,week\nA,0\n")


def test_load_utilization_csv_reads_quoted_and_ragged_files_like_plain_ones():
    plain = load_utilization_csv("asset_id,week,cumulative_units,note\nB,1,2.5,x\n\nA,0,1.0,y\n")
    quoted = load_utilization_csv('asset_id,week,cumulative_units,note\n"B",1,2.5\nA,"0",1.0,y,extra\n')
    assert quoted.asset_ids == plain.asset_ids == ("A", "B")
    for name in ("asset", "week", "value"):
        assert getattr(quoted, name).tobytes() == getattr(plain, name).tobytes()
    with pytest.raises(ValueError, match="could not convert"):
        load_utilization_csv("asset_id,week,cumulative_units\nA,0\n")


def test_load_utilization_csv_rejects_a_repeated_week():
    with pytest.raises(ValueError, match="duplicate utilization for A at week 3"):
        load_utilization_csv("asset_id,week,cumulative_units\nA,3,1.0\nB,3,1.0\nA,3,1.0\n")


# The reader that the bytes-to-columns `load_utilization_csv` replaced, kept
# as the reference: every text through `read_table`, then `int` and `float`.
def reference_load_utilization(source):
    header, columns, _lines, _widths = read_table(source_text(source))
    missing = set(UTILIZATION_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"utilization CSV missing columns: {sorted(missing)}")
    position = {name: i for i, name in enumerate(header)}
    asset_ids, asset = level_codes(columns[position["asset_id"]])
    week = np.fromiter(map(int, columns[position["week"]]), dtype=np.int64, count=len(asset))
    value = np.fromiter(map(float, columns[position["cumulative_units"]]), dtype=np.float64, count=len(asset))
    order = np.lexsort((week, asset))
    asset, week, value = asset[order], week[order], value[order]
    same = np.concatenate(([False], asset[1:] == asset[:-1]))
    problems = (
        (~np.isfinite(value), "non-finite utilization"),
        (value < 0, "negative utilization"),
        (same & (week == np.roll(week, 1)), "duplicate utilization"),
        (same & (value < np.roll(value, 1)), "utilization decreases"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in problems]))
    if bad.size:
        i = bad[0]
        problem = next(message for mask, message in problems if mask[i])
        raise ValueError(f"{problem} for {asset_ids[asset[i]]} at week {week[i]}")
    return Utilization(asset_ids, asset, week, value)


SIDECAR_CELLS = {  # cells that numpy reads as str, int() or float() does
    "asset_id": ["A", "B", "AF150001", "vehicle " * 9, "with space", " A", "A ", ""],
    "week": ["0", "1", "2", "3", "12", " 2 ", "+3", "007", "-0", "\x0c5", "-1", "9223372036854775807"],
    "cumulative_units": ["0", "1", "2.5", "12", " 2 ", "+3", ".5", "1e2", "-0", "\x0c5"],
    "note": ["x", "1"],
}
# cells numpy refuses or would misread ("#" with comments on, a trailing NUL in an S field), and non-finite ones
TRAPS = [("asset_id", "a#b"), ("asset_id", "B\x00"), ("asset_id", "Ä"), ("week", "1#x"), ("week", "1_0"),
         ("week", "9223372036854775808"), ("week", "2.5"), ("week", ""), ("cumulative_units", "1.0#x"),
         ("cumulative_units", "1_0"), ("cumulative_units", "4\x00"), ("cumulative_units", ""),
         ("cumulative_units", "x"), ("cumulative_units", "0x1p3"), ("cumulative_units", "１"),
         ("cumulative_units", "nan"), ("cumulative_units", "inf"), ("cumulative_units", "1e400")]


@st.composite
def sidecar_texts(draw):
    """A sidecar text, as str or as UTF-8 bytes: plain, or with any of quoted
    cells, ragged rows, blank lines, CRLF line ends, a BOM and extra or
    repeated header columns."""
    plain = draw(st.booleans())
    header = draw(st.permutations(UTILIZATION_COLUMNS + draw(st.sampled_from([(), ("note",)] if plain else [
        (), ("note",), ("week",), ("note", "note"), ("asset_id",)]))))
    if not plain and draw(st.booleans()):
        header = header[1:]
    traps = [draw(st.sampled_from(TRAPS))] * 3 if plain else TRAPS  # a plain text holds one trap, often
    cells = {name: plain_cells + [cell for column, cell in traps if column == name] for name, plain_cells in SIDECAR_CELLS.items()}
    rows = []
    for _ in range(draw(st.integers(1, 5) if plain else st.integers(0, 8))):
        row = [draw(st.sampled_from(cells[name])) for name in header]
        shape = draw(st.sampled_from(["full"] if plain else ["full", "full", "short", "long", "blank"]))
        rows.append({"full": row, "short": row[:-1], "long": row + ["extra"], "blank": []}[shape])
    stream = io.StringIO()
    quoting = csv.QUOTE_ALL if not plain and draw(st.booleans()) else csv.QUOTE_MINIMAL
    ending = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(stream, lineterminator=ending, quoting=quoting).writerows([header, *rows])
    text = stream.getvalue()
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        return ("﻿" + text if draw(st.booleans()) else text).encode("utf-8")
    return text


def _outcome(read, source):
    try:
        return read(source)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(sidecar_texts())
@example("asset_id,week,cumulative_units\nA,1,1.0#x\n")  # read as 1.0 with comments on
@example(b"week,cumulative_units,asset_id\n0,1,B\x00\n")  # read as b"B" by an S field
@example("asset_id,week,cumulative_units\nA,1_0,2.5\n")  # refused by numpy, taken by int()
def test_the_sidecar_read_from_bytes_matches_the_row_by_row_reference(source):
    expected, got = _outcome(reference_load_utilization, source), _outcome(load_utilization_csv, source)
    if isinstance(expected, tuple) and not isinstance(expected, Utilization):
        assert got == expected
        return
    assert isinstance(got, Utilization) and got.asset_ids == expected.asset_ids
    assert all(type(name) is str for name in got.asset_ids)
    for name in ("asset", "week", "value"):
        column, again = getattr(got, name), getattr(expected, name)
        assert column.dtype == again.dtype and column.tobytes() == again.tobytes(), name


def test_the_sidecar_read_stays_within_four_times_its_bytes():
    """A synth sidecar of 200 vehicles x 260 weeks, read under tracemalloc:
    one str per cell peaked at about 11x the file's bytes."""
    _, text, _ = generate_fleet(replace(fleet_config(RunConfig()), seed=7, n_vehicles=200, n_weeks=260))
    data = text.encode()
    tracemalloc.start()
    try:
        out = load_utilization_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.asset) == 200 * 260
    assert peak <= 4 * len(data), peak / len(data)


# The per-row builder that the columnar `build_panel` replaced, kept as the
# byte-level reference. `utilization` is {asset_id: [(week, value), ...]}.
def reference_build(records, options, utilization=None):
    start = monday_of(options.start_date or min(r.approval_date for r in records))

    by_asset = {}
    for r in records:
        by_asset.setdefault(r.asset_id, []).append(r)

    record_weeks = [week_index(r.approval_date, start) for r in records]
    end_week = options.end_week if options.end_week is not None else max(record_weeks)

    rows = []
    for asset_id in sorted(by_asset):
        recs = by_asset[asset_id]
        first_record_week = min(week_index(r.approval_date, start) for r in recs)
        acq = acquisition_year(asset_id)
        if acq is not None:
            anchor = min(week_index(date(acq, 1, 1), start), first_record_week)
        else:
            anchor = first_record_week
        start_week = max(0, anchor)
        if start_week > end_week:
            continue

        vehicle_type = recs[0].lin_tamcn
        unit = recs[0].equipment_pool
        flagged = sorted(
            {
                week_index(r.approval_date, start)
                for r in recs
                if options.include_scheduled
                or classify_work_plan(r.work_plan_type) is WorkPlanClass.UNSCHEDULED
            }
        )
        flagged = [w for w in flagged if start_week <= w <= end_week]
        flag_set = set(flagged)

        sidecar = None
        if utilization is not None and asset_id in utilization:
            sidecar = sorted(utilization[asset_id])

        for w in range(start_week, end_week + 1):
            age = w - anchor
            i = bisect_right(flagged, w - 1)
            if i == 0:
                gap = w - start_week
            else:
                gap = w - flagged[i - 1] - 1
            gap = min(gap, options.gap_cap)

            if sidecar is not None:
                j = bisect_right(sidecar, (w, float("inf")))
                util = sidecar[j - 1][1] if j > 0 else 0.0
            else:
                util = float(age) * options.default_weekly_rate

            rows.append(
                PanelRow(
                    asset_id=asset_id,
                    vehicle_type=vehicle_type,
                    unit=unit,
                    week=w,
                    operational_weeks=age,
                    weeks_since_last_visit=gap,
                    utilization=util,
                    repair_flag=1 if w in flag_set else 0,
                )
            )
    return rows, start


def assert_panel_holds(panel, rows, start_monday):
    """Every column of `panel` equals the rows' values byte for byte."""
    assert panel.start_monday == start_monday
    assert panel.vocab == PanelVocab(
        *(tuple(sorted({getattr(r, name) for r in rows})) for name in ("asset_id", "vehicle_type", "unit"))
    )
    for k, name in enumerate(("asset_id", "vehicle_type", "unit")):
        assert panel.lists()[k] == [getattr(r, name) for r in rows], name
    for name in NUMERIC:
        column = getattr(panel, name)
        assert column.tobytes() == np.array([getattr(r, name) for r in rows], dtype=column.dtype).tobytes(), name


@pytest.fixture(scope="module")
def synth_fleet():
    """A seed-7 synth fleet: its records and its sidecar, as CSV text and as
    {asset_id: [(week, value), ...]}."""
    config = replace(fleet_config(RunConfig()), seed=7, n_vehicles=30, n_weeks=80)
    csv_bytes, sidecar, _ = generate_fleet(config)
    records, errors = parse_records(csv_bytes)
    assert errors == []
    series = {}
    for row in csv.DictReader(sidecar.splitlines()):
        series.setdefault(row["asset_id"], []).append((int(row["week"]), float(row["cumulative_units"])))
    return records, series


def _late_starters(records):
    """Every third vehicle renamed to an ID with no acquisition year and its
    records before week 20 dropped, so it starts at its first later record."""
    assets = sorted({r.asset_id for r in records})
    renamed = {a: f"TRUCK-{a}" for a in assets[::3]}
    first = min(r.approval_date for r in records)
    return [
        replace(r, asset_id=renamed.get(r.asset_id, r.asset_id))
        for r in records
        if r.asset_id not in renamed or (r.approval_date - first).days >= 20 * 7
    ]


def _drop(series, asset):
    return {a: readings for a, readings in series.items() if a != asset}


def _late_readings(series, asset, from_week):
    return {a: [(w, v) for w, v in readings if a != asset or w >= from_week] for a, readings in series.items()}


BUILD_CASES = {
    "defaults": (lambda recs: recs, {}, lambda s: s),
    "unscheduled-only": (lambda recs: recs, {"include_scheduled": False}, lambda s: s),
    "late-start-date": (lambda recs: recs, {"start_date": date(2015, 6, 3)}, lambda s: s),
    "end-week-before-some-starts": (_late_starters, {"end_week": 25}, lambda s: s),
    "gap-cap-1": (lambda recs: recs, {"gap_cap": 1, "include_scheduled": False}, lambda s: s),
    "sidecar-lacks-an-asset": (lambda recs: recs, {}, lambda s: _drop(s, sorted(s)[4])),
    "sidecar-starts-late": (_late_starters, {}, lambda s: _late_readings(s, sorted(s)[1], 9)),
    "no-sidecar": (_late_starters, {"default_weekly_rate": 1.7}, None),
}


@pytest.mark.parametrize("case", BUILD_CASES)
def test_build_panel_matches_the_per_row_reference_byte_for_byte(synth_fleet, case):
    change_records, settings, change_series = BUILD_CASES[case]
    records, series = synth_fleet
    records = change_records(records)
    series = change_series(series) if change_series else None
    options = PanelOptions(**settings)
    rows, start = reference_build(records, options, series)
    if series is not None:
        options.utilization = sidecar(series)
    panel = build_panel(orders_of(records), options)
    if case == "end-week-before-some-starts":
        assert {r.asset_id for r in rows} < {r.asset_id for r in records}
    assert_panel_holds(panel, rows, start)


def _edge_records(records):
    """Hand-built records around a start date of MONDAY and an end week of 8:
    blank and -0 labor, approvals before the start and after the end week."""
    return [
        replace(rec("AF150001", -3), labor_hours=None),
        replace(rec("AF150001", 0, day_offset=4), labor_hours=-0.0),
        replace(rec("ZZ1", 2, plan="PREV"), labor_hours=1.5),
        replace(rec("ZZ1", 12), labor_hours=0.1),
        rec("TRUCK-9", 5, lin="bus", pool="83 LRS"),
    ]


COLUMN_CASES = {**BUILD_CASES, "edge-records": (_edge_records, {"start_date": MONDAY, "end_week": 8}, None)}


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_a_record_list_builds_the_panel_its_parsed_columns_build(synth_fleet, case):
    change_records, settings, change_series = COLUMN_CASES[case]
    records, series = synth_fleet
    records = list(change_records(records))
    stream = io.StringIO()
    write_subworkorders(orders_of(records), stream)
    orders, errors = parse_subworkorders(stream.getvalue())
    assert errors == [] and records_of(orders) == records
    options = PanelOptions(**settings, utilization=sidecar(change_series(series)) if change_series else None)
    from_records, from_columns = build_panel(orders_of(records), options), build_panel(orders, options)
    assert from_records.vocab == from_columns.vocab and from_records.start_monday == from_columns.start_monday
    for name in (*CODED, *NUMERIC):
        column, again = getattr(from_records, name), getattr(from_columns, name)
        assert column.dtype == again.dtype and column.tobytes() == again.tobytes(), name


@pytest.mark.parametrize("spec", [ChronologicalSplit(0.3), RandomRowSplit(0.3, seed=5)], ids=["chronological", "random"])
def test_split_halves_equal_panels_built_from_their_rows(synth_fleet, spec):
    records, series = synth_fleet
    panel = build_panel(orders_of(records), PanelOptions(utilization=sidecar(series)))
    train, test = split(panel, spec)
    if isinstance(spec, RandomRowSplit):
        in_test = np.random.default_rng(spec.seed).random(len(panel)) < spec.test_fraction
    else:
        in_test = panel.week >= test.week.min()
    for half, keep in ((train, ~in_test), (test, in_test)):
        rows = [r for r, k in zip(panel.rows, keep) if k]
        again = panel_from_rows(rows, start_monday=panel.start_monday)
        assert again.vocab == half.vocab and again.start_monday == half.start_monday
        for name in (*CODED, *NUMERIC):
            assert getattr(again, name).tobytes() == getattr(half, name).tobytes(), name
        assert_panel_holds(half, rows, panel.start_monday)
