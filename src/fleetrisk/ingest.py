"""Parse sub-work-order CSV exports into validated records.

The export format is a delimited text table with a header row. Only the
columns named in REQUIRED_COLUMNS (plus the optional labor-hours column)
are consumed; anything else the export carries is ignored.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

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
_US_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
_US_DATETIME_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})\s+(\d{1,2}):(\d{2})(?::(\d{2}))?$")


class WorkPlanClass(Enum):
    SCHEDULED = "scheduled"
    UNSCHEDULED = "unscheduled"


@dataclass(frozen=True)
class SubWorkOrderRecord:
    """One row of the sub-work-order export, validated."""

    work_order_id: str
    sub_work_order_id: str
    approval_date: date
    closed_date: date | None
    asset_id: str
    item_desc: str
    lin_tamcn: str
    equipment_pool: str
    maint_team: str
    estbd_datetime: datetime
    work_plan_type: str
    labor_hours: float | None = None


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


def load_alias_map(source: bytes | str | Path | IO) -> dict[str, str]:
    """Read ``Canonical Name=Actual Name`` alias lines from a source, taken
    as by `source_text` (a str is the content, a Path is a file).

    Blank lines and lines starting with ``#`` are skipped.
    """
    aliases: dict[str, str] = {}
    for raw in source_text(source).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad alias line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        aliases[key.strip()] = value.strip()
    return aliases


def _parse_date(text: str) -> date:
    text = text.strip()
    m = _US_DATE_RE.match(text)
    if m:
        month, day, year = (int(g) for g in m.groups())
        return date(year, month, day)
    # ISO only beyond this point; fromisoformat rejects the rest.
    return date.fromisoformat(text)


def _parse_datetime(text: str) -> datetime:
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


def source_text(source: bytes | str | Path | IO) -> str:
    """The text of a CSV source. A str is the content itself, a Path is a
    file to read, and bytes (from a file or a binary stream) are UTF-8 with
    any byte-order mark dropped."""
    if isinstance(source, Path):
        source = source.read_bytes()
    elif not isinstance(source, (bytes, str)):
        source = source.read()
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    return source


def write_csv(stream: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: the header row, then `rows`. This is every
    artifact's dialect: "\n" line ends, quoting only where a cell needs it,
    an empty cell for None and a float (numpy's included) as its repr."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


class _Rejected(Exception):
    """A row check failed: raised with (field, reason)."""


def _parsed(parse, text: str, field: str, what: str):
    try:
        return parse(text)
    except ValueError:
        raise _Rejected(field, f"{what} {text!r}") from None


def _record(row: list[str], at: tuple[int, ...], labor_at: int | None, seen_pairs: set) -> SubWorkOrderRecord:
    """One data row as a record, its checks in order; a failed check raises
    _Rejected. Only an accepted row registers its work-order pair."""
    if len(row) <= max(at):
        raise _Rejected("", "row has fewer cells than the header")
    # the cells in REQUIRED_COLUMNS order
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


def parse_subworkorders(
    source: bytes | str | Path | IO,
    alias: dict[str, str] | None = None,
) -> tuple[list[SubWorkOrderRecord], list[RowError]]:
    """Parse an export into records, collecting per-row errors.

    ``alias`` maps canonical column names to the header names actually
    present. Missing required columns are fatal (MissingColumnError); bad
    rows are skipped and reported, so every data row lands in exactly one
    of the two returned lists.
    """
    alias = alias or {}
    reader = csv.reader(io.StringIO(source_text(source)))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumnError(REQUIRED_COLUMNS[0])
    header = [h.strip() for h in header]
    position: dict[str, int] = {}
    for canonical in REQUIRED_COLUMNS + (LABOR_COLUMN,):
        actual = alias.get(canonical, canonical)
        if actual in header:
            position[canonical] = header.index(actual)
        elif canonical != LABOR_COLUMN:
            raise MissingColumnError(canonical)
    at = tuple(position[c] for c in REQUIRED_COLUMNS)

    records: list[SubWorkOrderRecord] = []
    errors: list[RowError] = []
    seen_pairs: set[tuple[str, str]] = set()
    for row in reader:
        if all(not cell.strip() for cell in row):
            continue  # trailing blank line, not a data row
        try:
            records.append(_record(row, at, position.get(LABOR_COLUMN), seen_pairs))
        except _Rejected as rejected:
            errors.append(RowError(reader.line_num, *rejected.args))
    return records, errors


def write_subworkorders(records: Iterable[SubWorkOrderRecord], stream: IO[str]) -> None:
    """Serialize records back to the canonical required-column CSV.

    Dates go out as ISO-8601, so a parse -> write -> parse round trip
    reproduces the records exactly.
    """
    write_csv(stream, REQUIRED_COLUMNS + (LABOR_COLUMN,), (
        [
            r.work_order_id,
            r.sub_work_order_id,
            r.approval_date.isoformat(),
            r.asset_id,
            r.closed_date.isoformat() if r.closed_date is not None else "",
            r.item_desc,
            r.lin_tamcn,
            r.equipment_pool,
            r.maint_team,
            r.estbd_datetime.strftime("%Y-%m-%d %H:%M:%S"),
            r.work_plan_type,
            r.labor_hours,
        ]
        for r in records
    ))
