"""Per-vehicle weekly panels: repair flags, age, service gaps, utilization.

Week indices are Monday-aligned and global to a panel: week 0 is the week
containing the earliest approval date in the dataset (or a configured start
date). A vehicle's age is anchored at Jan 1 of its acquisition year when
the asset ID encodes one, otherwise at its first appearance.
"""

from __future__ import annotations

import codecs
import io
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np

from .errors import DegeneratePanelError, EmptyDatasetError, InvalidConfigError, NonPositiveSpanError
from .ingest import WorkOrders, WorkPlanClass, acquisition_year, classify_work_plan, level_codes
from .ingest import WRITE_BLOCK, csv_cell, read_table, source_content, source_text, write_blocks

UTILIZATION_COLUMNS = ("asset_id", "week", "cumulative_units")
GAP_CAP = 104  # default cap on weeks since the last visit; synth plants its hazard with it
MAX_WEEKS = (date.max - date.min).days // 7  # 521,722: the most weeks two dates lie apart
MAX_PANEL_ROWS = 1 << 25  # 33,554,432 vehicle-weeks: 13 times a 10000x260 fleet, not a work order dated 9999


def monday_of(d: date) -> date:
    return d - timedelta(days=d.weekday())


def week_index(d: date, start_monday: date) -> int:
    """Weeks between the Monday of ``d`` and ``start_monday`` (may be negative)."""
    return (monday_of(d) - start_monday).days // 7


class PanelRow(NamedTuple):
    """One vehicle-week, as the `Panel.rows` view gives it."""

    asset_id: str
    vehicle_type: str
    unit: str
    week: int
    operational_weeks: int
    weeks_since_last_visit: int
    utilization: float
    repair_flag: int


PANEL_COLUMNS = ("asset_id", "vehicle_type", "unit", "week", "operational_weeks", "weeks_since_last_visit", "utilization",
                 "repair_flag")


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

    @cached_property
    def rows(self) -> list[PanelRow]:
        """The rows as `PanelRow`s, with names in place of codes, for tests and small callers."""
        names = [np.array(getattr(self.vocab, field), dtype=object)[getattr(self, code)].tolist() for code, field in CODED.items()]
        return list(map(PanelRow._make, zip(*names, *(getattr(self, name).tolist() for name in NUMERIC))))


def _panel(vocab: PanelVocab, columns: dict[str, np.ndarray], start_monday: date | None) -> Panel:
    """A panel over ordered columns, its vocab cut to the levels they contain."""
    levels = {}
    for code, field in CODED.items():
        present = np.bincount(columns[code], minlength=len(getattr(vocab, field))) > 0
        columns[code] = (np.cumsum(present) - 1)[columns[code]]
        levels[field] = tuple(compress(getattr(vocab, field), present))
    return Panel(PanelVocab(**levels), start_monday=start_monday, **columns)


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
    gap_cap: int = GAP_CAP
    utilization: Utilization | None = None
    default_weekly_rate: float = 1.0

    def __post_init__(self):
        if self.gap_cap < 1:
            raise InvalidConfigError(f"gap_cap must be >= 1, got {self.gap_cap}")
        for name, weeks in (("gap_cap", self.gap_cap), ("end_week", self.end_week or 0)):
            if weeks > MAX_WEEKS:
                raise InvalidConfigError(f"{name} must be <= {MAX_WEEKS}, the most weeks two dates lie apart, got {weeks}")
        if not 0 <= self.default_weekly_rate <= 168:  # hours of use a week; a week holds 168
            raise InvalidConfigError(f"default_weekly_rate must be in [0, 168] hours a week, got {self.default_weekly_rate!r}")


def build_panel(orders: WorkOrders, options: PanelOptions | None = None) -> Panel:
    """Expand work orders into one row per (vehicle, week).

    Rows run from each vehicle's start week (acquisition-year anchor when
    the asset ID yields one, else first appearance, clamped to week >= 0)
    through the panel end. repair_flag marks weeks with a qualifying
    approval; weeks_since_last_visit resets the week after each flagged
    week and is capped at options.gap_cap.
    """
    options = options or PanelOptions()
    if not orders:
        raise EmptyDatasetError("no records to build a panel from")

    day = np.fromiter(map(date.toordinal, orders.columns["approval_date"]), np.int64, len(orders))
    start = monday_of(options.start_date or date.fromordinal(int(day.min())))
    week = (day - start.toordinal()) // 7  # week_index of each record
    end_week = options.end_week if options.end_week is not None else int(week.max())

    # per vehicle, in asset_id order: its first record and first record week
    asset_ids, asset = level_codes(orders.columns["asset_id"])
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
    if counts.sum() > MAX_PANEL_ROWS:
        raise DegeneratePanelError(f"a panel of {counts.sum():,} rows over weeks {start_week.min()} to {end_week}"
                                   f" is more than the {MAX_PANEL_ROWS:,} rows a panel may hold")
    first_row = np.cumsum(counts) - counts
    vehicle = np.repeat(np.arange(len(asset_ids)), counts)
    row = np.arange(counts.sum())
    row_week = row - (first_row - start_week)[vehicle]

    # flags, then each row's gap since the row after the last earlier flag in its vehicle
    plans, plan = level_codes(orders.columns["work_plan_type"])
    qualifying = np.array([classify_work_plan(p) is WorkPlanClass.UNSCHEDULED for p in plans])[plan] | options.include_scheduled
    hit = qualifying & (week >= start_week[asset]) & (week <= end_week)
    repair_flag = np.zeros(len(row), dtype=np.int64)
    repair_flag[(first_row - start_week)[asset[hit]] + week[hit]] = 1
    flag_rows = np.flatnonzero(repair_flag)
    after_flag = np.concatenate(([0], flag_rows + 1))[np.searchsorted(flag_rows, row)]
    gap = np.minimum(row - np.maximum(after_flag, first_row[vehicle]), options.gap_cap)

    age = row_week - anchor[vehicle]
    utilization = age.astype(np.float64) * options.default_weekly_rate
    sidecar = options.utilization
    if sidecar is not None and len(sidecar.asset):  # a listed vehicle reads its latest reading at or before each week, else 0
        listed = dict(zip(sidecar.asset_ids, range(len(sidecar.asset_ids))))
        code = np.array([listed.get(a, -1) for a in asset_ids])[vehicle]  # each row's vehicle in the sidecar, or -1
        # a reading clamped into [-1, end_week + 1] keeps its matches, and (vehicle, week) keys fit in int64
        read_week, span = np.clip(sidecar.week, -1, end_week + 1), end_week + 3
        j = np.searchsorted(sidecar.asset * span + read_week + 1, code * span + row_week + 1, side="right") - 1
        reading = np.where((j >= 0) & (sidecar.asset[j] == code), sidecar.value[j], 0.0)
        utilization = np.where(code >= 0, reading, utilization)

    vehicle_types, type_code = level_codes([orders.columns["lin_tamcn"][i] for i in first.tolist()])
    units, unit_code = level_codes([orders.columns["equipment_pool"][i] for i in first.tolist()])
    columns = dict(
        asset=vehicle, vehicle_type=type_code[vehicle], unit=unit_code[vehicle], week=row_week, operational_weeks=age,
        weeks_since_last_visit=gap, utilization=utilization, repair_flag=repair_flag,
    )
    return _panel(PanelVocab(asset_ids, vehicle_types, units), columns, start)


def _plain_columns(data: bytes) -> tuple | None:
    """A plain sidecar's asset levels and codes, weeks and values, parsed by numpy with no object per cell.
    None for any other text, and for a cell numpy refuses that `int` or `float` may take, such as "1_0"."""
    lengths = np.diff(np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")), prepend=-1, append=len(data))  # line lengths + 1
    names = data[:lengths[0] - 1].decode("latin-1").split(",")
    if not (len(data) > lengths[0] and (lengths[:-1] > 1).all() and data.isascii()  # a row, and no empty line but the last
            and not any(s in data for s in (b"\0", b'"', b"\r")) and all(names.count(name) == 1 for name in UTILIZATION_COLUMNS)):
        return None
    kinds = {"asset_id": f"S{lengths.max()}", "week": "i8", "cumulative_units": "f8"}  # an unsized S field reads b""
    try:  # a ragged row is refused; with comments on, "1.0#x" would read as 1.0
        table = np.loadtxt(io.BytesIO(data), [(str(i), kinds.get(name, "S0")) for i, name in enumerate(names)],
                           comments=None, delimiter=",", skiprows=1, ndmin=1)
    except ValueError:
        return None
    ids, week, value = (table[str(names.index(name))] for name in UTILIZATION_COLUMNS)
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))  # rows whose id differs from the row before
    levels = np.unique(ids[starts])  # ASCII bytes sort as their strs do
    asset = np.repeat(np.searchsorted(levels, ids[starts]), np.diff(starts, append=len(ids)))
    return tuple(level.decode() for level in levels.tolist()), asset, week, value


def load_utilization_csv(source: str | Path | IO[str] | bytes) -> Utilization:
    """Read the sidecar utilization CSV (asset_id, week, cumulative_units).

    Plain text is parsed by numpy from its bytes: ASCII with no NUL, quote, carriage return or empty line but
    the last, every line as wide as a header that names each column once, after any UTF-8 byte-order mark. Other
    text, and plain text with a cell numpy refuses, goes through `read_table`, `int` and `float`; either way a
    text gives the same values or the same error. Values must be finite, non-negative and non-decreasing per
    vehicle, with one reading per vehicle and week.
    """
    content = source_content(source)
    data = content.encode() if isinstance(content, str) and content.isascii() else content
    plain = _plain_columns(data.removeprefix(codecs.BOM_UTF8)) if isinstance(data, bytes) else None
    if plain is None:
        header, columns, _lines, _widths = read_table(source_text(content))
        missing = set(UTILIZATION_COLUMNS) - set(header)
        if missing:
            raise ValueError(f"utilization CSV missing columns: {sorted(missing)}")
        position = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
        asset_ids, asset = level_codes(columns[position["asset_id"]])
        week = np.fromiter(map(int, columns[position["week"]]), dtype=np.int64, count=len(asset))
        value = np.fromiter(map(float, columns[position["cumulative_units"]]), dtype=np.float64, count=len(asset))
    else:
        asset_ids, asset, week, value = plain
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
    """Write the panel's rows as CSV, WRITE_BLOCK vehicles at a time."""
    columns = [np.array(list(map(csv_cell, getattr(panel.vocab, field))), dtype=object)[getattr(panel, code)]
               for code, field in CODED.items()]
    columns += [getattr(panel, name) for name in NUMERIC]
    bounds = [*np.flatnonzero(np.diff(panel.asset, prepend=-1))[::WRITE_BLOCK].tolist(), len(panel)]
    write_blocks(stream, PANEL_COLUMNS, bounds, lambda lo, hi: [
        f"{asset},{vtype},{unit},{week},{age},{gap},{util!r},{flag}\n"
        for asset, vtype, unit, week, age, gap, util, flag in zip(*(column[lo:hi].tolist() for column in columns))
    ])
