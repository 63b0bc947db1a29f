"""Parse sub-work-order CSV exports into validated records.

The export format is a delimited text table with a header row. Only the
columns named in REQUIRED_COLUMNS (plus the optional labor-hours column)
are consumed; anything else the export carries is ignored.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

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

    records: list[SubWorkOrderRecord] = []
    errors: list[RowError] = []
    seen_pairs: set[tuple[str, str]] = set()
    last_required = max(position[c] for c in REQUIRED_COLUMNS)

    for row in reader:
        line = reader.line_num
        if all(not cell.strip() for cell in row):
            continue  # trailing blank line, not a data row

        def cell(name: str) -> str:
            idx = position[name]
            return row[idx].strip() if idx < len(row) else ""

        if len(row) <= last_required:
            errors.append(RowError(line, "", "row has fewer cells than the header"))
            continue

        asset_id = cell("Asset Id")
        if not asset_id:
            errors.append(RowError(line, "Asset Id", "empty asset id"))
            continue

        try:
            approval = _parse_date(cell("Approval Dt"))
        except ValueError:
            errors.append(RowError(line, "Approval Dt", f"unparseable date {cell('Approval Dt')!r}"))
            continue

        closed: date | None = None
        closed_text = cell("Closed Dt")
        if closed_text:
            try:
                closed = _parse_date(closed_text)
            except ValueError:
                errors.append(RowError(line, "Closed Dt", f"unparseable date {closed_text!r}"))
                continue
            if closed < approval:
                errors.append(RowError(line, "Closed Dt", "closed date precedes approval date"))
                continue

        try:
            estbd = _parse_datetime(cell("Estbd Dt/Time"))
        except ValueError:
            errors.append(RowError(line, "Estbd Dt/Time", f"unparseable timestamp {cell('Estbd Dt/Time')!r}"))
            continue

        labor: float | None = None
        if LABOR_COLUMN in position:
            labor_text = cell(LABOR_COLUMN)
            if labor_text:
                try:
                    labor = float(labor_text)
                except ValueError:
                    errors.append(RowError(line, LABOR_COLUMN, f"not a number: {labor_text!r}"))
                    continue
                if not labor >= 0.0:
                    errors.append(RowError(line, LABOR_COLUMN, f"negative labor hours: {labor}"))
                    continue

        pair = (cell("Work Order ID"), cell("Sub Work Order Id"))
        if pair in seen_pairs:
            errors.append(RowError(line, "Sub Work Order Id", f"duplicate work order / sub-work-order pair {pair}"))
            continue
        seen_pairs.add(pair)

        records.append(
            SubWorkOrderRecord(
                work_order_id=pair[0],
                sub_work_order_id=pair[1],
                approval_date=approval,
                closed_date=closed,
                asset_id=asset_id,
                item_desc=cell("Item Desc"),
                lin_tamcn=cell("Asset LIN/TAMCN"),
                equipment_pool=cell("Equipment Pool"),
                maint_team=cell("Maint Team Name"),
                estbd_datetime=estbd,
                work_plan_type=cell("Work Plan Type CD"),
                labor_hours=labor,
            )
        )

    return records, errors


def write_subworkorders(records: Iterable[SubWorkOrderRecord], stream: IO[str]) -> None:
    """Serialize records back to the canonical required-column CSV.

    Dates go out as ISO-8601, so a parse -> write -> parse round trip
    reproduces the records exactly.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(REQUIRED_COLUMNS) + [LABOR_COLUMN])
    for r in records:
        writer.writerow(
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
                "" if r.labor_hours is None else repr(r.labor_hours),
            ]
        )
