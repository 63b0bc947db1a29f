"""Synthetic fleet generator with a known discrete-time logistic hazard.

Every week each vehicle breaks down with probability
sigmoid(beta0 + log(type multiplier) + beta_age*age + beta_gap*gap + beta_util*util),
and each breakdown becomes one unscheduled sub-work-order row. The
covariates are computed with exactly the panel's conventions (same age
anchor, same gap reset-and-cap), so a generated dataset pushed back
through ingestion reproduces the generating features bit for bit and the
planted betas are recoverable by the estimators. For the same reason
`ground_truth.json` saves no per-week series: the hazard follows from the
betas and the panel's features through `hazard_probability`, and the
utilization is the sidecar's.

Vehicle 0 always carries a preventive row in week 0, which pins the
panel's derived start date to the configured start Monday.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import IO

import numpy as np
from scipy.special import expit

from .errors import InvalidConfigError
from .ingest import LABOR_COLUMN, REQUIRED_COLUMNS, write_csv
from .panel import GAP_CAP, UTILIZATION_COLUMNS, monday_of, week_index

START_MONDAY = date(2015, 1, 5)
PREV_PERIOD_WEEKS = 26
UNSCHEDULED_CODE = "UM"
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
        for name in ("beta0", "beta_age", "beta_gap", "beta_util"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be finite")
        for t in self.vehicle_types:
            if not (math.isfinite(t.hazard_multiplier) and t.hazard_multiplier > 0):
                raise InvalidConfigError(f"hazard_multiplier for {t.name!r} must be finite and > 0")
            if not (math.isfinite(t.weekly_utilization_rate) and t.weekly_utilization_rate >= 0):
                raise InvalidConfigError(f"weekly_utilization_rate for {t.name!r} must be finite and >= 0")


@dataclass
class VehicleTruth:
    asset_id: str
    type_name: str
    hazard_multiplier: float
    unit: str
    acquisition_year: int
    age_anchor_week: int  # panel week index of Jan 1 of the acquisition year
    breakdown_weeks: list[int]
    prev_weeks: list[int]


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
    hazard: np.ndarray  # n_vehicles x n_weeks, not saved: the betas and the panel's features give it

    def to_dict(self) -> dict:
        return {
            **{name: value for name, value in vars(self).items() if name != "hazard"},
            "start_monday": self.start_monday.isoformat(),
            "vehicles": [dict(vars(v)) for v in self.vehicles],
        }

    def save(self, stream: IO[str]) -> None:
        stream.write(json.dumps(self.to_dict()))


def hazard_probability(
    beta0: float,
    multiplier: float | np.ndarray,
    beta_age: float,
    age: float | np.ndarray,
    beta_gap: float,
    gap: float | np.ndarray,
    beta_util: float,
    util: float | np.ndarray,
) -> float | np.ndarray:
    """The generating hazard, for scalars or for arrays element by element.
    Kept as one function so tests can recompute the generated hazard from
    panel features and demand exact equality."""
    z = beta0 + np.log(multiplier) + beta_age * age + beta_gap * gap + beta_util * util
    return expit(z)


def generate_fleet(config: FleetConfig) -> tuple[str, str, GroundTruth]:
    """Returns (sub-work-order CSV text, utilization sidecar CSV text, truth).

    Each vehicle draws its utilization, weekly breakdown draws and labor
    hours from its own generator. The weeks are walked once for the whole
    fleet; the last breakdown week is the only state one week carries to
    the next.
    """
    n, weeks = config.n_vehicles, config.n_weeks
    start_year = START_MONDAY.year
    types = [config.vehicle_types[v % len(config.vehicle_types)] for v in range(n)]
    acq_years = [start_year - (N_ACQ_YEARS - 1) + (v % N_ACQ_YEARS) for v in range(n)]
    anchors = [week_index(monday_of(date(year, 1, 1)), START_MONDAY) for year in acq_years]

    rngs = [np.random.default_rng([config.seed, v]) for v in range(n)]
    utilization = np.empty((n, weeks))
    draws = np.empty((n, weeks))
    for v, (vtype, rng) in enumerate(zip(types, rngs)):
        utilization[v] = np.cumsum(vtype.weekly_utilization_rate * rng.uniform(0.5, 1.5, weeks))
        draws[v] = rng.random(weeks)

    # Ages and gaps are floats: an int beta times an int64 array could wrap,
    # where the scalar formula's Python ints grow.
    age0 = -np.array(anchors, dtype=float)
    multipliers = np.array([t.hazard_multiplier for t in types])
    hazard = np.empty((n, weeks))
    broke = np.empty((n, weeks), dtype=bool)
    last_breakdown = np.full(n, -1.0)  # so that the gap is w until the first breakdown
    for w in range(weeks):
        gap = np.minimum(w - last_breakdown - 1, GAP_CAP)
        hazard[:, w] = hazard_probability(
            config.beta0, multipliers,
            config.beta_age, age0 + w,
            config.beta_gap, gap,
            config.beta_util, utilization[:, w],
        )
        broke[:, w] = draws[:, w] < hazard[:, w]
        last_breakdown[broke[:, w]] = w

    approved = [(START_MONDAY + timedelta(weeks=w)).isoformat() for w in range(weeks)]
    closed_late = [(START_MONDAY + timedelta(weeks=w, days=2)).isoformat() for w in range(weeks)]
    established = [f"{day} 08:00:00" for day in approved]

    rows: list[tuple] = []
    vehicles: list[VehicleTruth] = []
    for v, (vtype, rng) in enumerate(zip(types, rngs)):
        unit = config.units[v % len(config.units)]
        asset_id = f"AF{acq_years[v] % 100:02d}{v:05d}"
        breakdown_weeks = np.flatnonzero(broke[v]).tolist()
        prev_weeks = list(range(v % PREV_PERIOD_WEEKS, weeks, PREV_PERIOD_WEEKS))
        labor = np.round(rng.uniform(0.5, 8.0, len(breakdown_weeks)), 1).tolist()
        # (week, closed date, description, work plan code, labor hours): breakdowns, then preventive visits
        orders = [(w, closed_late[w], "UNSCHEDULED BREAKDOWN REPAIR", UNSCHEDULED_CODE, h) for w, h in zip(breakdown_weeks, labor)]
        orders += [(w, approved[w], "SCHEDULED PREVENTIVE SERVICE", "PREV", 2.0) for w in prev_weeks]
        shop = f"{vtype.name.upper()} SHOP"
        rows += [
            (approved[w], asset_id, closed, desc, vtype.name, unit, shop, established[w], plan, hours)
            for w, closed, desc, plan, hours in orders
        ]
        vehicles.append(
            VehicleTruth(
                asset_id=asset_id,
                type_name=vtype.name,
                hazard_multiplier=vtype.hazard_multiplier,
                unit=unit,
                acquisition_year=acq_years[v],
                age_anchor_week=anchors[v],
                breakdown_weeks=breakdown_weeks,
                prev_weeks=prev_weeks,
            )
        )

    work_orders = io.StringIO()
    write_csv(work_orders, REQUIRED_COLUMNS + (LABOR_COLUMN,), ((f"W{i:07d}", "1", *row) for i, row in enumerate(rows, 1)))

    sidecar = io.StringIO()
    write_csv(sidecar, UTILIZATION_COLUMNS, zip(
        [v.asset_id for v in vehicles for _ in range(weeks)],
        list(range(weeks)) * n,
        utilization.ravel().tolist(),
    ))

    truth = GroundTruth(
        beta0=config.beta0,
        beta_age=config.beta_age,
        beta_gap=config.beta_gap,
        beta_util=config.beta_util,
        seed=config.seed,
        n_weeks=config.n_weeks,
        start_monday=START_MONDAY,
        vehicles=vehicles,
        hazard=hazard,
    )
    return work_orders.getvalue(), sidecar.getvalue(), truth
