"""Per-vehicle weekly panels: repair flags, age, service gaps, utilization.

Week indices are Monday-aligned and global to a panel: week 0 is the week
containing the earliest approval date in the dataset (or a configured start
date). A vehicle's age is anchored at Jan 1 of its acquisition year when
the asset ID encodes one, otherwise at its first appearance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from itertools import compress, repeat, zip_longest
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyDatasetError, NonPositiveSpanError
from .ingest import SubWorkOrderRecord, WorkPlanClass, acquisition_year, classify_work_plan, source_text, write_csv

UTILIZATION_COLUMNS = ("asset_id", "week", "cumulative_units")


def monday_of(d: date) -> date:
    return d - timedelta(days=d.weekday())


def week_index(d: date, start_monday: date) -> int:
    """Weeks between the Monday of ``d`` and ``start_monday`` (may be negative)."""
    return (monday_of(d) - start_monday).days // 7


class PanelRow(NamedTuple):
    """One vehicle-week, for hand-built panels and the `Panel.rows` view."""

    asset_id: str
    vehicle_type: str
    unit: str
    week: int
    operational_weeks: int
    weeks_since_last_visit: int
    utilization: float
    repair_flag: int


PANEL_COLUMNS = PanelRow._fields


@dataclass(frozen=True)
class PanelVocab:
    asset_ids: tuple[str, ...]
    vehicle_types: tuple[str, ...]
    units: tuple[str, ...]


# code column -> the PanelVocab field its codes index
CODED = {"asset": "asset_ids", "vehicle_type": "vehicle_types", "unit": "units"}
NUMERIC = ("week", "operational_weeks", "weeks_since_last_visit", "utilization", "repair_flag")


@dataclass(eq=False)
class Panel:
    """Vehicle-week rows as columns, sorted by (asset_id, week) with no
    duplicate pair; consumers rely on that order.

    `asset`, `vehicle_type` and `unit` are integer codes into the matching
    `vocab` field, which holds exactly the sorted levels the rows contain.
    The other columns hold the PANEL_COLUMNS of the same names.
    """

    vocab: PanelVocab
    asset: np.ndarray
    vehicle_type: np.ndarray
    unit: np.ndarray
    week: np.ndarray
    operational_weeks: np.ndarray
    weeks_since_last_visit: np.ndarray
    utilization: np.ndarray
    repair_flag: np.ndarray
    start_monday: date | None = None

    def __len__(self) -> int:
        return len(self.week)

    def take(self, index) -> Panel:
        """The rows at `index` (a mask or ascending positions), the vocab cut to their levels."""
        return _panel(self.vocab, {name: getattr(self, name)[index] for name in (*CODED, *NUMERIC)}, self.start_monday)

    def lists(self) -> list[list]:
        """The PANEL_COLUMNS as Python lists, with names in place of codes."""
        names = [np.array(getattr(self.vocab, field), dtype=object)[getattr(self, code)].tolist() for code, field in CODED.items()]
        return names + [getattr(self, name).tolist() for name in NUMERIC]

    @cached_property
    def rows(self) -> list[PanelRow]:
        """The rows as `PanelRow`s, for tests and small callers."""
        return list(map(PanelRow._make, zip(*self.lists())))


def _panel(vocab: PanelVocab, columns: dict[str, np.ndarray], start_monday: date | None) -> Panel:
    """A panel over ordered columns, its vocab cut to the levels they contain."""
    levels = {}
    for code, field in CODED.items():
        present = np.bincount(columns[code], minlength=len(getattr(vocab, field))) > 0
        columns[code] = (np.cumsum(present) - 1)[columns[code]]
        levels[field] = tuple(compress(getattr(vocab, field), present))
    return Panel(PanelVocab(**levels), start_monday=start_monday, **columns)


def _codes(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values and each value's index among them."""
    levels = tuple(sorted(set(values)))
    index = dict(zip(levels, range(len(levels))))
    return levels, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


class Utilization(NamedTuple):
    """Sidecar readings as columns sorted by (asset, week); `asset` codes index `asset_ids`."""

    asset_ids: tuple[str, ...]
    asset: np.ndarray
    week: np.ndarray
    value: np.ndarray


@dataclass
class PanelOptions:
    include_scheduled: bool = True
    start_date: date | None = None
    end_week: int | None = None
    gap_cap: int = 104
    utilization: Utilization | None = None
    default_weekly_rate: float = 1.0

    def __post_init__(self):
        if self.gap_cap < 1:
            raise ValueError(f"gap_cap must be >= 1, got {self.gap_cap}")


def panel_from_rows(rows: Iterable[PanelRow], start_monday: date | None = None) -> Panel:
    """Sort hand-built rows into (asset_id, week) order and build their vocab."""
    rows = sorted(rows, key=lambda r: (r.asset_id, r.week))
    values = list(zip(*rows)) or [()] * len(PANEL_COLUMNS)
    vocab, columns = {}, {}
    for (code, field), names in zip(CODED.items(), values):
        vocab[field], columns[code] = _codes(names)
    for name, column in zip(NUMERIC, values[len(CODED):]):
        columns[name] = np.array(column, dtype=np.float64 if name == "utilization" else np.int64)
    repeated = np.flatnonzero((columns["asset"][1:] == columns["asset"][:-1]) & (np.diff(columns["week"]) == 0))
    if repeated.size:
        r = rows[repeated[0]]
        raise ValueError(f"duplicate panel row for {(r.asset_id, r.week)}")
    return Panel(PanelVocab(**vocab), start_monday=start_monday, **columns)


def build_panel(records: Sequence[SubWorkOrderRecord], options: PanelOptions | None = None) -> Panel:
    """Expand records into one row per (vehicle, week).

    Rows run from each vehicle's start week (acquisition-year anchor when
    the asset ID yields one, else first appearance, clamped to week >= 0)
    through the panel end. repair_flag marks weeks with a qualifying
    approval; weeks_since_last_visit resets the week after each flagged
    week and is capped at options.gap_cap.
    """
    options = options or PanelOptions()
    if not records:
        raise EmptyDatasetError("no records to build a panel from")

    day = np.fromiter((r.approval_date.toordinal() for r in records), dtype=np.int64, count=len(records))
    start = monday_of(options.start_date or date.fromordinal(int(day.min())))
    week = (day - start.toordinal()) // 7  # week_index of each record
    end_week = options.end_week if options.end_week is not None else int(week.max())

    # per vehicle, in asset_id order: its first record and first record week
    asset_ids, asset = _codes([r.asset_id for r in records])
    by_asset = np.argsort(asset, kind="stable")
    starts = np.searchsorted(asset[by_asset], np.arange(len(asset_ids)))
    first = by_asset[starts]
    first_week = np.minimum.reduceat(week[by_asset], starts)
    anchor = np.array([
        w if (year := acquisition_year(a)) is None else min(week_index(date(year, 1, 1), start), w)
        for a, w in zip(asset_ids, first_week.tolist())
    ], dtype=np.int64)
    start_week = np.maximum(anchor, 0)
    if not (start_week <= end_week).any():
        raise NonPositiveSpanError(
            f"panel end week {end_week} precedes every vehicle's start week ({start_week.min()})"
        )

    # each vehicle's rows are start_week..end_week; a vehicle past the end gets none
    counts = np.maximum(end_week + 1 - start_week, 0)
    first_row = np.cumsum(counts) - counts
    vehicle = np.repeat(np.arange(len(asset_ids)), counts)
    row = np.arange(counts.sum())
    row_week = row - (first_row - start_week)[vehicle]

    # flags, then each row's gap since the row after the last earlier flag in its vehicle
    qualifying = np.fromiter(
        (classify_work_plan(r.work_plan_type) is WorkPlanClass.UNSCHEDULED for r in records), dtype=bool, count=len(records)
    ) | options.include_scheduled
    hit = qualifying & (week >= start_week[asset]) & (week <= end_week)
    repair_flag = np.zeros(len(row), dtype=np.int64)
    repair_flag[(first_row - start_week)[asset[hit]] + week[hit]] = 1
    flag_rows = np.flatnonzero(repair_flag)
    after_flag = np.concatenate(([0], flag_rows + 1))[np.searchsorted(flag_rows, row)]
    gap = np.minimum(row - np.maximum(after_flag, first_row[vehicle]), options.gap_cap)

    age = row_week - anchor[vehicle]
    utilization = age.astype(np.float64) * options.default_weekly_rate
    sidecar = options.utilization
    if sidecar is not None:  # a listed vehicle reads its latest reading at or before each week, else 0
        bounds = np.searchsorted(sidecar.asset, np.arange(len(sidecar.asset_ids) + 1))
        readings = {a: slice(lo, hi) for a, lo, hi in zip(sidecar.asset_ids, bounds, bounds[1:])}
        for v in np.flatnonzero(counts).tolist():
            if asset_ids[v] in readings:
                mine, rows = readings[asset_ids[v]], slice(first_row[v], first_row[v] + counts[v])
                j = np.searchsorted(sidecar.week[mine], row_week[rows], side="right")
                utilization[rows] = np.where(j > 0, sidecar.value[mine][j - 1], 0.0)

    vehicle_types, type_code = _codes([records[i].lin_tamcn for i in first])
    units, unit_code = _codes([records[i].equipment_pool for i in first])
    columns = dict(
        asset=vehicle, vehicle_type=type_code[vehicle], unit=unit_code[vehicle], week=row_week, operational_weeks=age,
        weeks_since_last_visit=gap, utilization=utilization, repair_flag=repair_flag,
    )
    return _panel(PanelVocab(asset_ids, vehicle_types, units), columns, start)


def load_utilization_csv(source: str | Path | IO[str] | bytes) -> Utilization:
    """Read the sidecar utilization CSV (asset_id, week, cumulative_units).

    Values must be finite, non-negative and non-decreasing per vehicle, with
    one reading per vehicle and week.
    """
    text = source_text(source)
    lines = text.splitlines()
    header = next(csv.reader(lines[:1]), [])
    missing = set(UTILIZATION_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"utilization CSV missing columns: {sorted(missing)}")
    body = list(filter(None, lines[1:]))  # a blank line holds no reading
    # unquoted rows as wide as the header split as one string, 4x faster than csv.reader
    if '"' not in text and set(map(str.count, body, repeat(","))) == {len(header) - 1}:
        cells = ",".join(body).split(",")
        columns = [cells[i :: len(header)] for i in range(len(header))]
    else:  # no rows, or quoted or ragged ones: csv splits them, and a short row reads "" past its end
        columns = [column[1:] for column in zip_longest(header, *csv.reader(body), fillvalue="")]
    position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    asset_ids, asset = _codes(columns[position["asset_id"]])
    week = np.fromiter(map(int, columns[position["week"]]), dtype=np.int64, count=len(asset))
    value = np.fromiter(map(float, columns[position["cumulative_units"]]), dtype=np.float64, count=len(asset))
    order = np.lexsort((week, asset))
    asset, week, value = asset[order], week[order], value[order]

    same = np.concatenate(([False], asset[1:] == asset[:-1]))  # the row before is the same vehicle's
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


def write_panel_csv(panel: Panel, stream: IO[str]) -> None:
    write_csv(stream, PANEL_COLUMNS, zip(*panel.lists()))


def read_panel_csv(source: str | Path | IO[str] | bytes) -> Panel:
    reader = csv.DictReader(source_text(source).splitlines())
    missing = set(PANEL_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"panel CSV missing columns: {sorted(missing)}")
    types = dict(zip(PANEL_COLUMNS, (str, str, str, int, int, int, float, int)))
    return panel_from_rows(PanelRow(**{name: t(row[name]) for name, t in types.items()}) for row in reader)
