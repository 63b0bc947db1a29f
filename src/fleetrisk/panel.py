"""Per-vehicle weekly panels: repair flags, age, service gaps, utilization.

Week indices are Monday-aligned and global to a panel: week 0 is the week
containing the earliest approval date in the dataset (or a configured start
date). A vehicle's age is anchored at Jan 1 of its acquisition year when
the asset ID encodes one, otherwise at its first appearance.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import EmptyDatasetError, NonPositiveSpanError
from .ingest import SubWorkOrderRecord, WorkPlanClass, acquisition_year, classify_work_plan, source_text

PANEL_COLUMNS = (
    "asset_id",
    "vehicle_type",
    "unit",
    "week",
    "operational_weeks",
    "weeks_since_last_visit",
    "utilization",
    "repair_flag",
)

UTILIZATION_COLUMNS = ("asset_id", "week", "cumulative_units")


def monday_of(d: date) -> date:
    return d - timedelta(days=d.weekday())


def week_index(d: date, start_monday: date) -> int:
    """Weeks between the Monday of ``d`` and ``start_monday`` (may be negative)."""
    return (monday_of(d) - start_monday).days // 7


@dataclass(frozen=True)
class PanelRow:
    asset_id: str
    vehicle_type: str
    unit: str
    week: int
    operational_weeks: int
    weeks_since_last_visit: int
    utilization: float
    repair_flag: int


@dataclass(frozen=True)
class PanelVocab:
    asset_ids: tuple[str, ...]
    vehicle_types: tuple[str, ...]
    units: tuple[str, ...]


@dataclass
class Panel:
    rows: list[PanelRow]
    vocab: PanelVocab
    start_monday: date | None = None

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class PanelOptions:
    include_scheduled: bool = True
    start_date: date | None = None
    end_week: int | None = None
    gap_cap: int = 104
    utilization: Mapping[str, Sequence[tuple[int, float]]] | None = None
    weekly_rate_by_type: Mapping[str, float] = field(default_factory=dict)
    default_weekly_rate: float = 1.0


def panel_from_rows(rows: Iterable[PanelRow], start_monday: date | None = None) -> Panel:
    """Sort rows into canonical (asset_id, week) order and rebuild the vocab."""
    ordered = sorted(rows, key=lambda r: (r.asset_id, r.week))
    seen: set[tuple[str, int]] = set()
    for r in ordered:
        key = (r.asset_id, r.week)
        if key in seen:
            raise ValueError(f"duplicate panel row for {key}")
        seen.add(key)
    vocab = PanelVocab(
        asset_ids=tuple(sorted({r.asset_id for r in ordered})),
        vehicle_types=tuple(sorted({r.vehicle_type for r in ordered})),
        units=tuple(sorted({r.unit for r in ordered})),
    )
    return Panel(rows=ordered, vocab=vocab, start_monday=start_monday)


def _qualifies(record: SubWorkOrderRecord, include_scheduled: bool) -> bool:
    if include_scheduled:
        return True
    return classify_work_plan(record.work_plan_type) is WorkPlanClass.UNSCHEDULED


def repair_weeks(
    records: Sequence[SubWorkOrderRecord],
    asset_id: str,
    include_scheduled: bool,
    start_date: date | None = None,
) -> set[int]:
    """Weeks in which the vehicle has at least one qualifying record.

    Week 0 is anchored at the earliest approval date across ``records``
    unless ``start_date`` overrides it.
    """
    if not records:
        return set()
    start = monday_of(start_date or min(r.approval_date for r in records))
    return {
        week_index(r.approval_date, start)
        for r in records
        if r.asset_id == asset_id and _qualifies(r, include_scheduled)
    }


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

    start = monday_of(options.start_date or min(r.approval_date for r in records))

    by_asset: dict[str, list[SubWorkOrderRecord]] = {}
    for r in records:
        by_asset.setdefault(r.asset_id, []).append(r)

    record_weeks = [week_index(r.approval_date, start) for r in records]
    end_week = options.end_week if options.end_week is not None else max(record_weeks)

    rows: list[PanelRow] = []
    min_start_week: int | None = None
    for asset_id in sorted(by_asset):
        recs = by_asset[asset_id]
        first_record_week = min(week_index(r.approval_date, start) for r in recs)
        acq = acquisition_year(asset_id)
        if acq is not None:
            anchor = min(week_index(date(acq, 1, 1), start), first_record_week)
        else:
            anchor = first_record_week
        start_week = max(0, anchor)
        if min_start_week is None or start_week < min_start_week:
            min_start_week = start_week
        if start_week > end_week:
            continue

        vehicle_type = recs[0].lin_tamcn
        unit = recs[0].equipment_pool
        flagged = sorted(
            {
                week_index(r.approval_date, start)
                for r in recs
                if _qualifies(r, options.include_scheduled)
            }
        )
        flagged = [w for w in flagged if start_week <= w <= end_week]
        flag_set = set(flagged)

        sidecar = None
        if options.utilization is not None and asset_id in options.utilization:
            sidecar = sorted(options.utilization[asset_id])
        rate = options.weekly_rate_by_type.get(vehicle_type, options.default_weekly_rate)

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
                util = float(age) * rate

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

    if not rows:
        raise NonPositiveSpanError(
            f"panel end week {end_week} precedes every vehicle's start week ({min_start_week})"
        )
    return panel_from_rows(rows, start_monday=start)


def load_utilization_csv(source: str | Path | IO[str] | bytes) -> dict[str, list[tuple[int, float]]]:
    """Read the sidecar utilization CSV (asset_id, week, cumulative_units).

    Values must be finite, non-negative and non-decreasing per vehicle.
    """
    reader = csv.DictReader(source_text(source).splitlines())
    missing = set(UTILIZATION_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"utilization CSV missing columns: {sorted(missing)}")
    out: dict[str, list[tuple[int, float]]] = {}
    for row in reader:
        out.setdefault(row["asset_id"], []).append((int(row["week"]), float(row["cumulative_units"])))
    for asset_id, series in out.items():
        series.sort()
        last = -float("inf")
        for week, value in series:
            if not math.isfinite(value):
                raise ValueError(f"non-finite utilization for {asset_id} at week {week}")
            if value < 0:
                raise ValueError(f"negative utilization for {asset_id} at week {week}")
            if value < last:
                raise ValueError(f"utilization decreases for {asset_id} at week {week}")
            last = value
    return out


def write_panel_csv(panel: Panel, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PANEL_COLUMNS)
    for r in panel.rows:
        writer.writerow(
            [
                r.asset_id,
                r.vehicle_type,
                r.unit,
                r.week,
                r.operational_weeks,
                r.weeks_since_last_visit,
                repr(r.utilization),
                r.repair_flag,
            ]
        )


def read_panel_csv(source: str | Path | IO[str] | bytes) -> Panel:
    reader = csv.DictReader(source_text(source).splitlines())
    missing = set(PANEL_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"panel CSV missing columns: {sorted(missing)}")
    rows = [
        PanelRow(
            asset_id=row["asset_id"],
            vehicle_type=row["vehicle_type"],
            unit=row["unit"],
            week=int(row["week"]),
            operational_weeks=int(row["operational_weeks"]),
            weeks_since_last_visit=int(row["weeks_since_last_visit"]),
            utilization=float(row["utilization"]),
            repair_flag=int(row["repair_flag"]),
        )
        for row in reader
    ]
    return panel_from_rows(rows)
