"""Synthetic fleet generator with a known discrete-time logistic hazard.

Every week each vehicle breaks down with probability
sigmoid(beta0 + log(type multiplier) + beta_age*age + beta_gap*gap + beta_util*util),
and each breakdown becomes one unscheduled sub-work-order row. The
covariates are computed with exactly the panel's conventions (same age
anchor, same gap reset-and-cap), so a generated dataset pushed back
through ingestion reproduces the generating features bit for bit and the
planted betas are recoverable by the estimators.

Vehicle 0 always carries a preventive row in week 0, which pins the
panel's derived start date to the configured start Monday.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import IO

import numpy as np
from scipy.special import expit

from .errors import InvalidConfigError
from .ingest import SubWorkOrderRecord, write_subworkorders
from .panel import monday_of, week_index


def _at_eight(day: date) -> datetime:
    return datetime(day.year, day.month, day.day, 8, 0, 0)

START_MONDAY = date(2015, 1, 5)
PREV_PERIOD_WEEKS = 26
UNSCHEDULED_CODE = "UM"
GAP_CAP = 104
N_ACQ_YEARS = 3  # acquisition years cycle start_year-2 .. start_year


@dataclass(frozen=True)
class VehicleTypeSpec:
    name: str
    hazard_multiplier: float
    weekly_utilization_rate: float


@dataclass(frozen=True)
class FleetConfig:
    n_vehicles: int
    n_weeks: int
    vehicle_types: tuple[VehicleTypeSpec, ...]
    units: tuple[str, ...]
    beta0: float
    beta_age: float = 0.0
    beta_gap: float = 0.0
    beta_util: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise InvalidConfigError("n_vehicles must be >= 1")
        if self.n_weeks < 2:
            raise InvalidConfigError("n_weeks must be >= 2")
        if not self.vehicle_types:
            raise InvalidConfigError("at least one vehicle type is required")
        if not self.units:
            raise InvalidConfigError("at least one unit is required")
        for t in self.vehicle_types:
            if t.hazard_multiplier <= 0:
                raise InvalidConfigError(f"hazard_multiplier for {t.name!r} must be > 0")
            if t.weekly_utilization_rate < 0:
                raise InvalidConfigError(f"weekly_utilization_rate for {t.name!r} must be >= 0")


def default_fleet_config(seed: int = 0) -> FleetConfig:
    return FleetConfig(
        n_vehicles=60,
        n_weeks=156,
        vehicle_types=(
            VehicleTypeSpec("bus", 0.35, 30.0),
            VehicleTypeSpec("truck", 1.0, 45.0),
            VehicleTypeSpec("loader", 3.0, 60.0),
        ),
        units=("82 LRS", "83 LRS"),
        beta0=-4.2,
        beta_age=0.003,
        beta_gap=0.08,
        beta_util=0.0,
        seed=seed,
    )


@dataclass
class VehicleTruth:
    asset_id: str
    type_name: str
    hazard_multiplier: float
    unit: str
    acquisition_year: int
    age_anchor_week: int  # panel week index of Jan 1 of the acquisition year
    hazard: list[float]          # one probability per week 0..n_weeks-1
    breakdown_weeks: list[int]
    prev_weeks: list[int]
    utilization: list[float]


@dataclass
class GroundTruth:
    beta0: float
    beta_age: float
    beta_gap: float
    beta_util: float
    seed: int
    n_weeks: int
    start_monday: date
    vehicles: list[VehicleTruth]

    def breakdown_weeks_by_asset(self) -> dict[str, list[int]]:
        return {v.asset_id: list(v.breakdown_weeks) for v in self.vehicles}

    def to_dict(self) -> dict:
        return {
            "beta0": self.beta0,
            "beta_age": self.beta_age,
            "beta_gap": self.beta_gap,
            "beta_util": self.beta_util,
            "seed": self.seed,
            "n_weeks": self.n_weeks,
            "start_monday": self.start_monday.isoformat(),
            "vehicles": [
                {
                    "asset_id": v.asset_id,
                    "type_name": v.type_name,
                    "hazard_multiplier": v.hazard_multiplier,
                    "unit": v.unit,
                    "acquisition_year": v.acquisition_year,
                    "age_anchor_week": v.age_anchor_week,
                    "hazard": v.hazard,
                    "breakdown_weeks": v.breakdown_weeks,
                    "prev_weeks": v.prev_weeks,
                    "utilization": v.utilization,
                }
                for v in self.vehicles
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GroundTruth":
        return cls(
            beta0=payload["beta0"],
            beta_age=payload["beta_age"],
            beta_gap=payload["beta_gap"],
            beta_util=payload["beta_util"],
            seed=payload["seed"],
            n_weeks=payload["n_weeks"],
            start_monday=date.fromisoformat(payload["start_monday"]),
            vehicles=[
                VehicleTruth(
                    asset_id=v["asset_id"],
                    type_name=v["type_name"],
                    hazard_multiplier=v["hazard_multiplier"],
                    unit=v["unit"],
                    acquisition_year=v["acquisition_year"],
                    age_anchor_week=v["age_anchor_week"],
                    hazard=list(v["hazard"]),
                    breakdown_weeks=list(v["breakdown_weeks"]),
                    prev_weeks=list(v["prev_weeks"]),
                    utilization=list(v["utilization"]),
                )
                for v in payload["vehicles"]
            ],
        )

    def save(self, destination: str | Path | IO[str]) -> None:
        text = json.dumps(self.to_dict())
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            Path(destination).write_text(text)

    @classmethod
    def load(cls, source: str | Path | IO[str]) -> "GroundTruth":
        if hasattr(source, "read"):
            return cls.from_dict(json.load(source))
        return cls.from_dict(json.loads(Path(source).read_text()))


def hazard_probability(
    beta0: float,
    multiplier: float,
    beta_age: float,
    age: float,
    beta_gap: float,
    gap: float,
    beta_util: float,
    util: float,
) -> float:
    """The generating hazard. Kept as one function so tests can recompute
    stored series from panel features and demand exact equality."""
    z = beta0 + np.log(multiplier) + beta_age * age + beta_gap * gap + beta_util * util
    return float(expit(z))


def generate_fleet(config: FleetConfig) -> tuple[bytes, str, GroundTruth]:
    """Returns (sub-work-order CSV bytes, utilization sidecar CSV text, truth)."""
    start_year = START_MONDAY.year
    records: list[SubWorkOrderRecord] = []
    vehicles: list[VehicleTruth] = []
    sidecar_rows: list[tuple[str, int, float]] = []
    wo_serial = 0

    for v in range(config.n_vehicles):
        vtype = config.vehicle_types[v % len(config.vehicle_types)]
        unit = config.units[v % len(config.units)]
        acq_year = start_year - (N_ACQ_YEARS - 1) + (v % N_ACQ_YEARS)
        asset_id = f"AF{acq_year % 100:02d}{v:05d}"
        anchor = week_index(monday_of(date(acq_year, 1, 1)), START_MONDAY)

        rng = np.random.default_rng([config.seed, v])
        increments = vtype.weekly_utilization_rate * rng.uniform(0.5, 1.5, config.n_weeks)
        utilization = np.cumsum(increments)
        draws = rng.random(config.n_weeks)

        hazard: list[float] = []
        breakdown_weeks: list[int] = []
        prev_weeks = [w for w in range(config.n_weeks) if w % PREV_PERIOD_WEEKS == v % PREV_PERIOD_WEEKS]
        last_breakdown = None
        for w in range(config.n_weeks):
            age = w - anchor
            if last_breakdown is None:
                gap = w
            else:
                gap = w - last_breakdown - 1
            gap = min(gap, GAP_CAP)
            p = hazard_probability(
                config.beta0, vtype.hazard_multiplier,
                config.beta_age, age,
                config.beta_gap, gap,
                config.beta_util, float(utilization[w]),
            )
            hazard.append(p)
            if draws[w] < p:
                breakdown_weeks.append(w)
                last_breakdown = w

        labor = np.round(rng.uniform(0.5, 8.0, len(breakdown_weeks)), 1)
        for k, w in enumerate(breakdown_weeks):
            day = START_MONDAY + timedelta(weeks=w)
            wo_serial += 1
            records.append(
                SubWorkOrderRecord(
                    work_order_id=f"W{wo_serial:07d}",
                    sub_work_order_id="1",
                    approval_date=day,
                    closed_date=day + timedelta(days=2),
                    asset_id=asset_id,
                    item_desc="UNSCHEDULED BREAKDOWN REPAIR",
                    lin_tamcn=vtype.name,
                    equipment_pool=unit,
                    maint_team=f"{vtype.name.upper()} SHOP",
                    estbd_datetime=_at_eight(day),
                    work_plan_type=UNSCHEDULED_CODE,
                    labor_hours=float(labor[k]),
                )
            )
        for w in prev_weeks:
            day = START_MONDAY + timedelta(weeks=w)
            wo_serial += 1
            records.append(
                SubWorkOrderRecord(
                    work_order_id=f"W{wo_serial:07d}",
                    sub_work_order_id="1",
                    approval_date=day,
                    closed_date=day,
                    asset_id=asset_id,
                    item_desc="SCHEDULED PREVENTIVE SERVICE",
                    lin_tamcn=vtype.name,
                    equipment_pool=unit,
                    maint_team=f"{vtype.name.upper()} SHOP",
                    estbd_datetime=_at_eight(day),
                    work_plan_type="PREV",
                    labor_hours=2.0,
                )
            )

        for w in range(config.n_weeks):
            sidecar_rows.append((asset_id, w, float(utilization[w])))
        vehicles.append(
            VehicleTruth(
                asset_id=asset_id,
                type_name=vtype.name,
                hazard_multiplier=vtype.hazard_multiplier,
                unit=unit,
                acquisition_year=acq_year,
                age_anchor_week=anchor,
                hazard=hazard,
                breakdown_weeks=breakdown_weeks,
                prev_weeks=prev_weeks,
                utilization=[float(u) for u in utilization],
            )
        )

    buffer = io.StringIO()
    write_subworkorders(records, buffer)
    csv_bytes = buffer.getvalue().encode("utf-8")

    sidecar = io.StringIO()
    writer = csv.writer(sidecar, lineterminator="\n")
    writer.writerow(["asset_id", "week", "cumulative_units"])
    for asset_id, w, value in sidecar_rows:
        writer.writerow([asset_id, w, repr(value)])

    truth = GroundTruth(
        beta0=config.beta0,
        beta_age=config.beta_age,
        beta_gap=config.beta_gap,
        beta_util=config.beta_util,
        seed=config.seed,
        n_weeks=config.n_weeks,
        start_monday=START_MONDAY,
        vehicles=vehicles,
    )
    return csv_bytes, sidecar.getvalue(), truth
