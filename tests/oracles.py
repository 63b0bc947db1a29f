"""Test fixtures and oracles that no command needs: one work order as a
record, panels built from, or read back as, hand-written rows, and a
generated fleet's CSVs as strings."""

from __future__ import annotations

import io
from dataclasses import dataclass, fields
from datetime import date, datetime
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from fleetrisk.ingest import WorkOrders, level_codes, parse_subworkorders, read_table, source_text
from fleetrisk.panel import CODED, NUMERIC, PANEL_COLUMNS, Panel, PanelRow, PanelVocab
from fleetrisk.synth import FleetConfig, GroundTruth, generate_fleet


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


def orders_of(records: Iterable[SubWorkOrderRecord]) -> WorkOrders:
    """Records as the columns `parse_subworkorders` returns."""
    records = list(records)
    return WorkOrders({f.name: [getattr(r, f.name) for r in records] for f in fields(SubWorkOrderRecord)})


def records_of(orders: WorkOrders) -> list[SubWorkOrderRecord]:
    """Work orders as one record each, in order."""
    names = [f.name for f in fields(SubWorkOrderRecord)]
    return [SubWorkOrderRecord(*row) for row in zip(*(orders.columns[name] for name in names))]


def parse_records(source) -> tuple[list[SubWorkOrderRecord], list]:
    """`parse_subworkorders` with its work orders as records."""
    orders, errors = parse_subworkorders(source)
    return records_of(orders), errors


def panel_from_rows(rows: Iterable[PanelRow], start_monday: date | None = None) -> Panel:
    """Sort hand-built rows into (asset_id, week) order and build their vocab."""
    rows = sorted(rows, key=lambda r: (r.asset_id, r.week))
    values = list(zip(*rows)) or [()] * len(PANEL_COLUMNS)
    vocab, columns = {}, {}
    for (code, field), names in zip(CODED.items(), values):
        vocab[field], columns[code] = level_codes(names)
    for name, column in zip(NUMERIC, values[len(CODED):]):
        columns[name] = np.array(column, dtype=np.float64 if name == "utilization" else np.int64)
    repeated = np.flatnonzero((columns["asset"][1:] == columns["asset"][:-1]) & (np.diff(columns["week"]) == 0))
    if repeated.size:
        r = rows[repeated[0]]
        raise ValueError(f"duplicate panel row for {(r.asset_id, r.week)}")
    return Panel(PanelVocab(**vocab), start_monday=start_monday, **columns)


def read_panel_csv(source: str | Path | IO[str] | bytes) -> Panel:
    """Read a `write_panel_csv` file back; a cell that does not parse, a short row's included, raises ValueError."""
    header, columns, _lines, _widths = read_table(source_text(source))
    table = dict(zip(header, columns))  # a repeated name reads its last column
    missing = set(PANEL_COLUMNS) - set(table)
    if missing:
        raise ValueError(f"panel CSV missing columns: {sorted(missing)}")
    cells = (map(t, table[name]) for name, t in zip(PANEL_COLUMNS, (str, str, str, int, int, int, float, int)))
    return panel_from_rows(PanelRow(*row) for row in zip(*cells))


def rendered(write) -> str:
    """What a `write(stream)` artifact writer writes, as one string."""
    stream = io.StringIO()
    write(stream)
    return stream.getvalue()


def render_fleet(config: FleetConfig) -> tuple[str, str, GroundTruth]:
    """`generate_fleet` with its two CSV writers run: (work-order text, sidecar text, truth)."""
    write_work_orders, write_sidecar, truth = generate_fleet(config)
    return rendered(write_work_orders), rendered(write_sidecar), truth
