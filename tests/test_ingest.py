"""Row-level parsing and validation of the sub-work-order export."""

import csv
import io
from datetime import date, datetime

import numpy as np
import pytest

from fleetrisk.errors import MissingColumnError
from fleetrisk.ingest import (
    LABOR_COLUMN,
    REQUIRED_COLUMNS,
    SubWorkOrderRecord,
    WorkPlanClass,
    acquisition_year,
    classify_work_plan,
    load_alias_map,
    parse_subworkorders,
    write_csv,
    write_subworkorders,
)

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
    records, errors = parse_subworkorders(HEADER + "\n" + row())
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
    records, errors = parse_subworkorders(text)
    assert errors == []
    assert records[0].labor_hours == 3.5


def test_labor_blank_means_missing():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",\n"
    records, errors = parse_subworkorders(text)
    assert errors == []
    assert records[0].labor_hours is None


def test_negative_labor_rejected():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",-1\n"
    records, errors = parse_subworkorders(text)
    assert records == []
    assert [e.field for e in errors] == [LABOR_COLUMN]


def test_non_numeric_labor_rejected():
    text = HEADER + "," + LABOR_COLUMN + "\n" + row() + ",lots\n"
    records, errors = parse_subworkorders(text)
    assert records == []
    assert errors[0].field == LABOR_COLUMN
    assert errors[0].line == 2


def test_missing_required_column_is_fatal():
    cols = [c for c in REQUIRED_COLUMNS if c != "Asset Id"]
    text = ",".join(cols) + "\n"
    with pytest.raises(MissingColumnError):
        parse_subworkorders(text)


def test_missing_labor_column_is_not_fatal():
    records, errors = parse_subworkorders(HEADER + "\n" + row())
    assert errors == []
    assert records[0].labor_hours is None


def test_alias_map_renames_headers():
    header = HEADER.replace("Asset Id", "Serial Number")
    text = header + "\n" + row()
    records, errors = parse_subworkorders(text, alias={"Asset Id": "Serial Number"})
    assert errors == []
    assert records[0].asset_id == "AF150001"


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
    records, errors = parse_subworkorders(text)
    assert records == []
    assert errors[0].field == "Asset Id"


def test_bad_approval_date_rejected():
    text = HEADER + "\n" + row(approval="13/45/2020")
    records, errors = parse_subworkorders(text)
    assert records == []
    assert errors[0].field == "Approval Dt"


def test_iso_dates_accepted():
    text = HEADER + "\n" + row(approval="2020-01-06", closed="2020-01-08", estbd="2020-01-06T08:00:00")
    records, errors = parse_subworkorders(text)
    assert errors == []
    assert records[0].approval_date == date(2020, 1, 6)
    assert records[0].estbd_datetime == datetime(2020, 1, 6, 8, 0)


def test_blank_closed_date_is_open_ticket():
    text = HEADER + "\n" + row(closed="")
    records, errors = parse_subworkorders(text)
    assert errors == []
    assert records[0].closed_date is None


def test_closed_before_approval_rejected():
    text = HEADER + "\n" + row(approval="1/8/2020", closed="1/6/2020")
    records, errors = parse_subworkorders(text)
    assert records == []
    assert errors[0].field == "Closed Dt"


def test_bad_estbd_rejected():
    text = HEADER + "\n" + row(estbd="not a time")
    records, errors = parse_subworkorders(text)
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


def test_load_alias_map(tmp_path):
    p = tmp_path / "aliases.txt"
    text = "# mapping\nAsset Id = Serial Number\n\nApproval Dt=Appr Date\n"
    p.write_text(text)
    expected = {"Asset Id": "Serial Number", "Approval Dt": "Appr Date"}
    assert load_alias_map(p) == expected
    assert load_alias_map(text) == expected  # a str is the content, as for every reader


def test_load_alias_map_bad_line(tmp_path):
    p = tmp_path / "aliases.txt"
    p.write_text("no separator here\n")
    with pytest.raises(ValueError):
        load_alias_map(p)


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
    write_subworkorders([rec], buf)
    records, errors = parse_subworkorders(buf.getvalue())
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
