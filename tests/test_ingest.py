"""Row-level parsing and validation of the sub-work-order export."""

import csv
import io
import math
import re
from dataclasses import replace
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetrisk.errors import MissingColumnError
from fleetrisk.ingest import (
    LABOR_COLUMN,
    REQUIRED_COLUMNS,
    WorkPlanClass,
    acquisition_year,
    classify_work_plan,
    parse_subworkorders,
    read_table,
    source_text,
    write_csv,
    write_subworkorders,
)

from oracles import SubWorkOrderRecord, orders_of, parse_records

HEADER = ",".join(REQUIRED_COLUMNS)


def row(
    wo="W001",
    sub="S001",
    approval="1/6/2020",
    closed="1/8/2020",
    asset="AF150001",
    desc="coolant leak",
    lin="truck",
    pool="82 LRS",
    team="alpha",
    estbd="1/6/2020 8:00",
    plan="UM",
):
    return ",".join([wo, sub, approval, asset, closed, desc, lin, pool, team, estbd, plan])


def test_happy_path_single_row():
    records, errors = parse_records(HEADER + "\n" + row())
    assert errors == []
    assert len(records) == 1
    r = records[0]
    assert r.work_order_id == "W001"
    assert r.sub_work_order_id == "S001"
    assert r.approval_date == date(2020, 1, 6)
    assert r.closed_date == date(2020, 1, 8)
    assert r.asset_id == "AF150001"
    assert r.lin_tamcn == "truck"
    assert r.equipment_pool == "82 LRS"
    assert r.estbd_datetime == datetime(2020, 1, 6, 8, 0)
    assert r.work_plan_type == "UM"
    assert r.labor_hours is None


def test_labor_column_parsed_when_present():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",3.5\n"
    records, errors = parse_records(text)
    assert errors == []
    assert records[0].labor_hours == 3.5


def test_labor_blank_means_missing():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",\n"
    records, errors = parse_records(text)
    assert errors == []
    assert records[0].labor_hours is None


def test_negative_labor_rejected():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",-1\n"
    records, errors = parse_records(text)
    assert records == []
    assert [e.field for e in errors] == [LABOR_COLUMN]


def test_non_numeric_labor_rejected():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",lots\n"
    records, errors = parse_records(text)
    assert records == []
    assert errors[0].field == LABOR_COLUMN
    assert errors[0].line == 2


def test_missing_required_column_is_fatal():
    cols = [c for c in REQUIRED_COLUMNS if c != "Asset Id"]
    text = ",".join(cols) + "\n"
    with pytest.raises(MissingColumnError):
        parse_subworkorders(text)


def test_missing_labor_column_is_not_fatal():
    records, errors = parse_records(HEADER + "\n" + row())
    assert errors == []
    assert records[0].labor_hours is None


def test_blank_lines_skipped():
    text = HEADER + "\n\n" + row() + "\n\n"
    records, errors = parse_subworkorders(text)
    assert len(records) == 1
    assert errors == []


def test_short_row_reported_not_fatal():
    text = HEADER + "\nW001,S001\n" + row(sub="S002")
    records, errors = parse_subworkorders(text)
    assert len(records) == 1
    assert len(errors) == 1
    assert errors[0].line == 2


def test_empty_asset_id_rejected():
    text = HEADER + "\n" + row(asset="  ")
    records, errors = parse_records(text)
    assert records == []
    assert errors[0].field == "Asset Id"


def test_bad_approval_date_rejected():
    text = HEADER + "\n" + row(approval="13/45/2020")
    records, errors = parse_records(text)
    assert records == []
    assert errors[0].field == "Approval Dt"


def test_iso_dates_accepted():
    text = HEADER + "\n" + row(approval="2020-01-06", closed="2020-01-08", estbd="2020-01-06T08:00:00")
    records, errors = parse_records(text)
    assert errors == []
    assert records[0].approval_date == date(2020, 1, 6)
    assert records[0].estbd_datetime == datetime(2020, 1, 6, 8, 0)


def test_blank_closed_date_is_open_ticket():
    text = HEADER + "\n" + row(closed="")
    records, errors = parse_records(text)
    assert errors == []
    assert records[0].closed_date is None


def test_closed_before_approval_rejected():
    text = HEADER + "\n" + row(approval="1/8/2020", closed="1/6/2020")
    records, errors = parse_records(text)
    assert records == []
    assert errors[0].field == "Closed Dt"


def test_bad_estbd_rejected():
    text = HEADER + "\n" + row(estbd="not a time")
    records, errors = parse_records(text)
    assert records == []
    assert errors[0].field == "Estbd Dt/Time"


def test_duplicate_sub_work_order_rejected():
    text = HEADER + "\n" + row() + "\n" + row(approval="1/13/2020", closed="1/14/2020")
    records, errors = parse_subworkorders(text)
    assert len(records) == 1
    assert errors[0].field == "Sub Work Order Id"
    assert errors[0].line == 3


def test_same_sub_id_different_work_order_ok():
    text = HEADER + "\n" + row() + "\n" + row(wo="W002")
    records, errors = parse_subworkorders(text)
    assert len(records) == 2
    assert errors == []


def test_every_row_lands_in_exactly_one_list():
    lines = [
        row(),
        row(sub="S002", approval="garbage"),
        row(sub="S003", asset=""),
        row(sub="S004", approval="2/3/2020", closed="2/4/2020"),
        "too,short",
    ]
    records, errors = parse_subworkorders(HEADER + "\n" + "\n".join(lines))
    assert len(records) + len(errors) == len(lines)


def test_bytes_input_with_bom():
    data = ("﻿" + HEADER + "\n" + row()).encode("utf-8")
    records, errors = parse_subworkorders(data)
    assert errors == []
    assert len(records) == 1


def test_stream_input():
    records, errors = parse_subworkorders(io.StringIO(HEADER + "\n" + row()))
    assert len(records) == 1
    assert errors == []


def test_acquisition_year():
    assert acquisition_year("AF080123") == 2008
    assert acquisition_year("AF15") == 2015
    assert acquisition_year("ZZ990001") is None
    assert acquisition_year("") is None


def test_classify_work_plan():
    assert classify_work_plan("PREV") is WorkPlanClass.SCHEDULED
    assert classify_work_plan(" prev ") is WorkPlanClass.SCHEDULED
    assert classify_work_plan("Prev") is WorkPlanClass.SCHEDULED
    assert classify_work_plan("UM") is WorkPlanClass.UNSCHEDULED
    assert classify_work_plan("PREVX") is WorkPlanClass.UNSCHEDULED
    assert classify_work_plan("") is WorkPlanClass.UNSCHEDULED


def test_write_then_parse_round_trip():
    rec = SubWorkOrderRecord(
        work_order_id="W123",
        sub_work_order_id="S1",
        approval_date=date(2021, 3, 1),
        closed_date=None,
        asset_id="AF190042",
        item_desc="brake pads, worn",
        lin_tamcn="bus",
        equipment_pool="83 LRS",
        maint_team="bravo",
        estbd_datetime=datetime(2021, 3, 1, 8, 0),
        work_plan_type="UM",
        labor_hours=2.5,
    )
    buf = io.StringIO()
    write_subworkorders(orders_of([rec]), buf)
    records, errors = parse_records(buf.getvalue())
    assert errors == []
    assert records == [rec]


FLOATS = [0.1 + 0.2, 5e-324, 1e300]


def test_write_csv_floats_read_back_bit_for_bit():
    buf = io.StringIO()
    write_csv(buf, ["python", "numpy"], [[x, np.float64(x)] for x in FLOATS])
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["python", "numpy"]
    for x, (python, numpy) in zip(FLOATS, rows[1:]):
        assert python == numpy == repr(x)
        assert float(python).hex() == float(numpy).hex() == x.hex()


def test_write_csv_none_is_an_empty_cell():
    buf = io.StringIO()
    write_csv(buf, ["a", "b", "c"], [[1, None, 2]])
    assert buf.getvalue() == "a,b,c\n1,,2\n"


def test_write_csv_quotes_what_needs_it_and_ends_every_line_in_newline():
    cells = ["AF13,00000", 'say "hi"', "two\nlines", "plain"]
    buf = io.StringIO()
    write_csv(buf, ["id", "quote", "newline", "plain"], [cells, cells])
    text = buf.getvalue()
    assert list(csv.reader(io.StringIO(text))) == [["id", "quote", "newline", "plain"], cells, cells]
    assert text == "id,quote,newline,plain\n" + '"AF13,00000","say ""hi""","two\nlines",plain\n' * 2


# ---------------------------------------------------------------------------
# oracle: one data row per rejection kind, the check order, the pair rule and
# the accepted cell formats, each pinned as the exact (records, errors) pair


def record(wo="W001", sub="S001", approval=date(2020, 1, 6), closed=date(2020, 1, 8), asset="AF150001",
           estbd=datetime(2020, 1, 6, 8, 0), labor=None):
    return SubWorkOrderRecord(wo, sub, approval, closed, asset, "coolant leak", "truck", "82 LRS", "alpha",
                              estbd, "UM", labor)


def labor_row(labor, **cells):
    return row(**cells) + "," + labor


LABOR_HEADER = HEADER + "," + LABOR_COLUMN
DUPLICATE = "duplicate work order / sub-work-order pair ('W001', 'S001')"

# case id -> (header, data lines, expected records, expected (line, field, reason) triples)
ORACLE = {
    "short-row": (LABOR_HEADER, ["W001,S001,1/6/2020"], [], [(2, "", "row has fewer cells than the header")]),
    "labor-cell-missing": (LABOR_HEADER, [row()], [record()], []),
    "empty-asset": (LABOR_HEADER, [labor_row("1", asset=" ")], [], [(2, "Asset Id", "empty asset id")]),
    "approval-date": (
        LABOR_HEADER, [labor_row("1", approval=" 13/45/2020 ")], [],
        [(2, "Approval Dt", "unparseable date '13/45/2020'")],
    ),
    "closed-date-parse": (
        LABOR_HEADER, [labor_row("1", closed="2020-02-30")], [], [(2, "Closed Dt", "unparseable date '2020-02-30'")],
    ),
    "closed-before-approval": (
        LABOR_HEADER, [labor_row("1", closed="1/5/2020")], [], [(2, "Closed Dt", "closed date precedes approval date")],
    ),
    "timestamp": (
        LABOR_HEADER, [labor_row("1", estbd="soon")], [], [(2, "Estbd Dt/Time", "unparseable timestamp 'soon'")],
    ),
    "labor-parse": (LABOR_HEADER, [labor_row("lots")], [], [(2, LABOR_COLUMN, "not a number: 'lots'")]),
    "labor-sign": (LABOR_HEADER, [labor_row(" -1 ")], [], [(2, LABOR_COLUMN, "negative labor hours: -1.0")]),
    "labor-inf": (LABOR_HEADER, [labor_row("inf")], [], [(2, LABOR_COLUMN, "non-finite labor hours: 'inf'")]),
    "labor-overflow": (LABOR_HEADER, [labor_row("1e999")], [], [(2, LABOR_COLUMN, "non-finite labor hours: '1e999'")]),
    "labor-minus-inf": (LABOR_HEADER, [labor_row("-inf")], [], [(2, LABOR_COLUMN, "non-finite labor hours: '-inf'")]),
    "labor-nan": (LABOR_HEADER, [labor_row("nan")], [], [(2, LABOR_COLUMN, "non-finite labor hours: 'nan'")]),
    "duplicate-pair": (
        LABOR_HEADER, [labor_row("1"), labor_row("2", approval="1/7/2020")], [record(labor=1.0)],
        [(3, "Sub Work Order Id", DUPLICATE)],
    ),
    "empty-asset-and-bad-approval": (
        LABOR_HEADER, [labor_row("1", asset="", approval="garbage")], [], [(2, "Asset Id", "empty asset id")],
    ),
    "bad-timestamp-on-duplicate-pair": (
        LABOR_HEADER, [labor_row("1"), labor_row("2", estbd="later")], [record(labor=1.0)],
        [(3, "Estbd Dt/Time", "unparseable timestamp 'later'")],
    ),
    "rejected-pair-comes-back": (
        LABOR_HEADER, [labor_row("-3"), labor_row("3")], [record(labor=3.0)],
        [(2, LABOR_COLUMN, "negative labor hours: -3.0")],
    ),
    "us-formats": (
        LABOR_HEADER,
        [
            labor_row(" 2.5 ", approval="01/06/2020", closed="1/06/2020", estbd="1/6/2020 8:05:09", asset=" AF150001 "),
            labor_row("0", sub="S002", approval="12/31/2019", closed="", estbd="12/31/2019"),
            labor_row("", sub="S003", approval="2020-01-06", closed="2020-01-08", estbd="2020-01-06 23:59"),
        ],
        [
            record(closed=date(2020, 1, 6), estbd=datetime(2020, 1, 6, 8, 5, 9), labor=2.5),
            record(sub="S002", approval=date(2019, 12, 31), closed=None, estbd=datetime(2019, 12, 31), labor=0.0),
            record(sub="S003", estbd=datetime(2020, 1, 6, 23, 59)),
        ],
        [],
    ),
    "line-numbers-count-physical-lines": (
        LABOR_HEADER,
        [labor_row("1").replace("coolant leak", '"coolant\nleak"'), "", labor_row("1", sub="S002", estbd="x")],
        [replace(record(labor=1.0), item_desc="coolant\nleak")],
        [(5, "Estbd Dt/Time", "unparseable timestamp 'x'")],
    ),
    "no-labor-column": (
        HEADER, [row() + ",lots", row(sub="S002", approval="1/6/20")], [record()],
        [(3, "Approval Dt", "unparseable date '1/6/20'")],
    ),
}


@pytest.mark.parametrize("case", list(ORACLE))
def test_ingest_oracle(case):
    header, lines, expected_records, expected_errors = ORACLE[case]
    records, errors = parse_records("\n".join([header, *lines]) + "\n")
    assert [(e.line, e.field, e.reason) for e in errors] == expected_errors
    assert records == expected_records


# ---------------------------------------------------------------------------
# property oracle: the columnar parse against the per-row reference below
# (one `_record` call per data row, with its own date parsers), on exports
# that take either reader path


_US_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
_US_DATETIME_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})\s+(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def _parse_date(text):
    text = text.strip()
    m = _US_DATE_RE.match(text)
    if m:
        month, day, year = (int(g) for g in m.groups())
        return date(year, month, day)
    return date.fromisoformat(text)


def _parse_datetime(text):
    text = text.strip()
    m = _US_DATETIME_RE.match(text)
    if m:
        month, day, year, hour, minute, second = m.groups()
        return datetime(int(year), int(month), int(day), int(hour), int(minute), int(second or 0))
    m = _US_DATE_RE.match(text)
    if m:
        month, day, year = (int(g) for g in m.groups())
        return datetime(year, month, day)
    return datetime.fromisoformat(text)


class _Rejected(Exception):
    """A row check failed: raised with (field, reason)."""


def _parsed(parse, text, field, what):
    try:
        return parse(text)
    except ValueError:
        raise _Rejected(field, f"{what} {text!r}") from None


def _record(row, at, labor_at, seen_pairs):
    if len(row) <= max(at):
        raise _Rejected("", "row has fewer cells than the header")
    wo, sub, approval_text, asset_id, closed_text, desc, lin, pool, team, estbd_text, plan = (row[i].strip() for i in at)
    if not asset_id:
        raise _Rejected("Asset Id", "empty asset id")
    approval = _parsed(_parse_date, approval_text, "Approval Dt", "unparseable date")
    closed = None
    if closed_text:
        closed = _parsed(_parse_date, closed_text, "Closed Dt", "unparseable date")
        if closed < approval:
            raise _Rejected("Closed Dt", "closed date precedes approval date")
    estbd = _parsed(_parse_datetime, estbd_text, "Estbd Dt/Time", "unparseable timestamp")
    labor = None
    labor_text = row[labor_at].strip() if labor_at is not None and labor_at < len(row) else ""
    if labor_text:
        labor = _parsed(float, labor_text, LABOR_COLUMN, "not a number:")
        if not math.isfinite(labor):
            raise _Rejected(LABOR_COLUMN, f"non-finite labor hours: {labor_text!r}")
        if labor < 0.0:
            raise _Rejected(LABOR_COLUMN, f"negative labor hours: {labor}")
    pair = (wo, sub)
    if pair in seen_pairs:
        raise _Rejected("Sub Work Order Id", f"duplicate work order / sub-work-order pair {pair}")
    seen_pairs.add(pair)
    return SubWorkOrderRecord(wo, sub, approval, closed, asset_id, desc, lin, pool, team, estbd, plan, labor)


def reference_parse(source):
    """Rows one at a time through csv.reader and `_record`."""
    reader = csv.reader(io.StringIO(source_text(source)))
    header = [h.strip() for h in next(reader)]
    at = tuple(header.index(c) for c in REQUIRED_COLUMNS)
    labor_at = header.index(LABOR_COLUMN) if LABOR_COLUMN in header else None
    records, errors, seen_pairs = [], [], set()
    for row in reader:
        if all(not cell.strip() for cell in row):
            continue
        try:
            records.append(_record(row, at, labor_at, seen_pairs))
        except _Rejected as rejected:
            errors.append((reader.line_num, *rejected.args))
    return records, errors


DATES = [
    "2020-01-06", " 2020-01-08 ", "2019-12-31", "1/6/2020", "01/08/2020", "20200106", "2020-W02-1", "2020-01-06T00:00",
    "1/6/2020 8:00", "١/٦/٢٠٢٠", "2020-02-30", "13/45/2020", "2020-01", "0000-01-01", "today", "NaT", "garbage", "",
]
STAMPS = [
    "2020-01-06 08:00:00", "2020-01-06T08:00:00", "2020-01-06 08:00", "2020-01-06", "2020-01-06 08:00:00.250",
    "2020-01-06T08:00:00+05:30", "2020-01-06 08:00:00Z", "20200106T080000", "1/6/2020 8:05:09", "1/6/2020",
    "2020-01-06 24:00:00", "2020-02-30 08:00:00", "0000-01-01 00:00:00", "soon", "",
]
LABOR = ["", " 2.5 ", "0", "-0", "1e-3", "nan", "inf", "-inf", "1e999", "-1", "lots", "1_0"]
CELL_CHOICES = {
    "Work Order ID": ["W1", "W2", " W1 "],
    "Sub Work Order Id": ["S1", "S2"],
    "Approval Dt": DATES,
    "Asset Id": ["AF150001", " AF150002 ", "ZZ1", "", "  "],
    "Closed Dt": DATES,
    "Item Desc": ["coolant leak", "brake, worn", "two\nlines", 'say "hi"'],
    "Asset LIN/TAMCN": ["truck", "bus"],
    "Equipment Pool": ["82 LRS"],
    "Maint Team Name": ["alpha", " bravo "],
    "Estbd Dt/Time": STAMPS,
    "Work Plan Type CD": ["UM", "PREV"],
    LABOR_COLUMN: LABOR,
    "Notes": ["", "x"],
}
PLAIN_DESCS = CELL_CHOICES["Item Desc"][:1]


@st.composite
def exports(draw):
    """An export and whether it is clean: unquoted, "\n"-ended, with no empty
    line and every row as wide as the header, which read_table splits as one
    string. Any other export goes through csv.reader."""
    clean = draw(st.booleans())
    columns = list(REQUIRED_COLUMNS) + draw(st.sampled_from([[], [LABOR_COLUMN], [LABOR_COLUMN, "Notes"]]))
    columns = draw(st.permutations(columns))
    shapes = ["full", "commas"] + ([] if clean else ["empty", "spaces", "short", "long"])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(shapes))
        choices = {c: PLAIN_DESCS if clean and c == "Item Desc" else CELL_CHOICES[c] for c in columns}
        row = [draw(st.sampled_from(choices[c])) for c in columns]
        rows.append({
            "full": row, "empty": [], "commas": [""] * len(columns), "spaces": [" "] * draw(st.integers(1, 3)),
            "short": row[: draw(st.integers(1, len(columns) - 1))], "long": row + ["extra"],
        }[shape])
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n" if clean else draw(st.sampled_from(["\n", "\r\n"]))).writerows([columns, *rows])
    text = stream.getvalue()
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return clean, (("﻿" + text).encode("utf-8") if draw(st.booleans()) else text)


@settings(max_examples=300, deadline=None)
@given(exports())
def test_the_columnar_parse_matches_the_row_by_row_reference(export):
    clean, source = export
    text = source_text(source)
    lines = read_table(text)[2]
    if clean and len(lines):
        assert isinstance(lines, range)  # the one-string path numbers its rows as a range
    expected_records, expected_errors = reference_parse(source)
    records, errors = parse_records(source)
    assert [(e.line, e.field, e.reason) for e in errors] == expected_errors
    assert records == expected_records
    assert list(map(repr, records)) == list(map(repr, expected_records))  # -0.0 and timezones included
