"""Parse sub-work-order CSV exports into validated work orders.

The export format is a delimited text table with a header row. Only the
columns named in REQUIRED_COLUMNS (plus the optional labor-hours column)
are consumed; anything else the export carries is ignored.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from itertools import compress, repeat, zip_longest
from pathlib import Path
from typing import IO

import numpy as np

from .errors import MissingColumnError

REQUIRED_COLUMNS = (
    "Work Order ID",
    "Sub Work Order Id",
    "Approval Dt",
    "Asset Id",
    "Closed Dt",
    "Item Desc",
    "Asset LIN/TAMCN",
    "Equipment Pool",
    "Maint Team Name",
    "Estbd Dt/Time",
    "Work Plan Type CD",
)
LABOR_COLUMN = "Labor Hours"

_ASSET_YEAR_RE = re.compile(r"^AF(\d{2})")
_US_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})(?:\s+(\d{1,2}):(\d{2})(?::(\d{2}))?)?$")  # the time optional


class WorkPlanClass(Enum):
    SCHEDULED = "scheduled"
    UNSCHEDULED = "unscheduled"


@dataclass(frozen=True)
class RowError:
    """A rejected data row: physical line number, offending field, cause."""

    line: int
    field: str
    reason: str


def acquisition_year(asset_id: str) -> int | None:
    """Year encoded in an asset ID ("AF08..." -> 2008), or None if the ID
    does not follow the convention."""
    m = _ASSET_YEAR_RE.match(asset_id)
    if m is None:
        return None
    return 2000 + int(m.group(1))


def classify_work_plan(code: str) -> WorkPlanClass:
    """PREV (any casing, surrounding whitespace ignored) is the one scheduled
    work plan; everything else is unscheduled."""
    if code.strip().casefold() == "prev":
        return WorkPlanClass.SCHEDULED
    return WorkPlanClass.UNSCHEDULED


def _parse_date(text: str) -> date:
    m = _US_DATE_RE.match(text.strip())
    if m is None or m.group(4):  # ISO only beyond this point, where fromisoformat rejects the rest
        return date.fromisoformat(text.strip())
    return date(*(int(g) for g in m.group(3, 1, 2)))


def _parse_datetime(text: str) -> datetime:
    m = _US_DATE_RE.match(text.strip())
    if m is None:
        return datetime.fromisoformat(text.strip())
    month, day, year, hour, minute, second = (int(g or 0) for g in m.groups())
    return datetime(year, month, day, hour, minute, second)


def source_content(source: bytes | str | Path | IO) -> bytes | str:
    """A CSV source's content: a str or bytes is the content itself, a Path a file to read, and a stream is read."""
    return source.read_bytes() if isinstance(source, Path) else source if isinstance(source, (bytes, str)) else source.read()


def source_text(source: bytes | str | Path | IO) -> str:
    """The text of a CSV source's content; bytes (from a file or a binary stream) are UTF-8 with any byte-order mark dropped."""
    source = source_content(source)
    return source.decode("utf-8-sig") if isinstance(source, bytes) else source


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: the header row, then `rows`. This is every
    artifact's dialect: "\n" line ends, quoting only where a cell needs it,
    an empty cell for None and a float (numpy's included) as its repr."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def level_codes(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values and each value's index among them."""
    levels = tuple(sorted(set(values)))
    index = dict(zip(levels, range(len(levels))))
    return levels, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def read_table(text: str) -> tuple[list[str], list[list[str]], Sequence[int], np.ndarray]:
    """A CSV text's header, its rows as columns (an empty line is no row; a short row reads "" past its end),
    and each row's last line number and cell count. Text with no quote, no carriage return and no empty
    line but the last, every line as wide as the header, is split as one string, 4x faster than csv.reader."""
    lines = text.split("\n")
    body = list(filter(None, lines[1:]))
    width = lines[0].count(",") + 1
    if (lines[0] and body and len(body) + (lines[-1] == "") == len(lines) - 1 and '"' not in text and "\r" not in text
            and set(map(str.count, body, repeat(","))) == {width - 1}):
        cells = ",".join(body).split(",")
        return lines[0].split(","), [cells[i::width] for i in range(width)], range(2, len(body) + 2), np.full(len(body), width)
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    rows = [(row, reader.line_num) for row in reader if row]
    columns = [list(column[1:]) for column in zip_longest(header, *(row for row, _ in rows), fillvalue="")]
    return header, columns, [line for _, line in rows], np.array([len(row) for row, _ in rows], dtype=np.intp)


def _parsed(texts: list[str], parse) -> list:
    """parse(text) of each cell, None where it raises ValueError; each distinct cell is parsed once."""
    values = dict.fromkeys(texts)
    for text in values:
        with contextlib.suppress(ValueError):
            values[text] = parse(text)
    return list(map(values.__getitem__, texts))


# the WorkOrders column each REQUIRED_COLUMNS cell fills
_FIELDS = ("work_order_id", "sub_work_order_id", "approval_date", "asset_id", "closed_date", "item_desc",
           "lin_tamcn", "equipment_pool", "maint_team", "estbd_datetime", "work_plan_type")


@dataclass(frozen=True, eq=False)
class WorkOrders:
    """Accepted work orders as one list per column, in file order, which the panel reads: the _FIELDS as
    stripped strs, except approval_date and closed_date as dates (closed_date None when blank) and
    estbd_datetime as a datetime, and labor_hours as a float, or None when blank."""

    columns: dict[str, list]

    def __len__(self) -> int:
        return len(self.columns["asset_id"])


def parse_subworkorders(source: bytes | str | Path | IO) -> tuple[WorkOrders, list[RowError]]:
    """Parse an export into work orders, collecting per-row errors.

    Missing required columns are fatal (MissingColumnError); bad rows are
    skipped and reported, so every data row is either accepted or reported
    once. A row of blank cells is no data row.
    """
    header, columns, lines, widths = read_table(source_text(source))
    header = [h.strip() for h in header]
    position: dict[str, int] = {}
    for name in REQUIRED_COLUMNS + (LABOR_COLUMN,):
        if name in header:
            position[name] = header.index(name)
        elif name != LABOR_COLUMN:
            raise MissingColumnError(name)
    cell = {field: list(map(str.strip, columns[position[c]])) for field, c in zip(_FIELDS, REQUIRED_COLUMNS)}
    cell["labor_hours"] = list(map(str.strip, columns[position[LABOR_COLUMN]])) if LABOR_COLUMN in position else [""] * len(widths)
    data = [bool(asset) or any(c[i].strip() for c in columns) for i, asset in enumerate(cell["asset_id"])]
    if not all(data):  # each pass over a column costs, so the common case makes none
        cell = {field: list(compress(cells, data)) for field, cells in cell.items()}
    lines, widths, n = np.asarray(lines, dtype=np.intp)[data], widths[data], sum(data)

    parsers = {"approval_date": _parse_date, "closed_date": _parse_date, "estbd_datetime": _parse_datetime, "labor_hours": float}
    value = {field: _parsed(cell[field], parse) for field, parse in parsers.items()}
    refused = {field: np.array([v is None for v in value[field]], dtype=bool) for field in parsers}
    filled = {field: np.fromiter(map(bool, cell[field]), bool, n) for field in ("closed_date", "labor_hours")}
    hours = np.array(value["labor_hours"], dtype=np.float64)  # nan for None
    early = [None not in (a, c) and c < a for a, c in zip(value["approval_date"], value["closed_date"])]
    naming = lambda what, field: lambda i: f"{what} {cell[field][i]!r}"  # a reason naming the row's cell
    checks = [  # (failed, field, reason) in check order: a row is reported at its first failed check
        (widths <= max(position[c] for c in REQUIRED_COLUMNS), "", lambda i: "row has fewer cells than the header"),
        (~np.fromiter(map(bool, cell["asset_id"]), bool, n), "Asset Id", lambda i: "empty asset id"),
        (refused["approval_date"], "Approval Dt", naming("unparseable date", "approval_date")),
        (filled["closed_date"] & refused["closed_date"], "Closed Dt", naming("unparseable date", "closed_date")),
        (np.array(early, dtype=bool), "Closed Dt", lambda i: "closed date precedes approval date"),
        (refused["estbd_datetime"], "Estbd Dt/Time", naming("unparseable timestamp", "estbd_datetime")),
        (filled["labor_hours"] & refused["labor_hours"], LABOR_COLUMN, naming("not a number:", "labor_hours")),
        (filled["labor_hours"] & ~np.isfinite(hours), LABOR_COLUMN, naming("non-finite labor hours:", "labor_hours")),
        (hours < 0.0, LABOR_COLUMN, lambda i: f"negative labor hours: {value['labor_hours'][i]}"),
    ]
    # a row that passed every other check repeats a pair if an earlier such row has it
    passed, wo, sub = ~np.logical_or.reduce([failed for failed, _, _ in checks]), cell["work_order_id"], cell["sub_work_order_id"]
    key, first = list(map("{}:{}{}".format, map(len, wo), wo, sub)), {}  # a pair as one string, not a tuple the collector tracks
    keep = np.zeros(n, dtype=bool)
    keep[[first.setdefault(key[i], i) for i in np.flatnonzero(passed).tolist()]] = True  # each pair's first passing row
    checks.append((passed & ~keep, "Sub Work Order Id", lambda i: f"duplicate work order / sub-work-order pair {(wo[i], sub[i])}"))
    errors = [RowError(int(lines[i]), *next((field, reason(i)) for failed, field, reason in checks if failed[i]))
              for i in np.flatnonzero(~keep).tolist()]
    columns = cell | value
    return WorkOrders(columns if keep.all() else {f: list(compress(c, keep.tolist())) for f, c in columns.items()}), errors


def write_subworkorders(orders: WorkOrders, stream: IO[str]) -> None:
    """Serialize work orders back to the canonical required-column CSV.

    Dates go out as ISO-8601, so a parse -> write -> parse round trip
    reproduces the work orders exactly.
    """
    columns = orders.columns
    text = {"approval_date": date.isoformat, "closed_date": lambda day: day and day.isoformat(),
            "estbd_datetime": lambda stamp: stamp.strftime("%Y-%m-%d %H:%M:%S")}
    write_csv(stream, REQUIRED_COLUMNS + (LABOR_COLUMN,), zip(*(
        map(text[name], columns[name]) if name in text else columns[name] for name in (*_FIELDS, "labor_hours"))))
