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

import itertools
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cache, partial
from typing import IO, Callable

import numpy as np
from scipy.special import expit

from .errors import InvalidConfigError
from .ingest import LABOR_COLUMN, REQUIRED_COLUMNS, WRITE_BLOCK, csv_cell, write_blocks
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


def generate_fleet(config: FleetConfig) -> tuple[Callable[[IO[str]], None], Callable[[IO[str]], None], GroundTruth]:
    """Returns (sub-work-order CSV writer, utilization sidecar CSV writer, truth). A writer writes its CSV
    to a text stream WRITE_BLOCK vehicles at a time and draws nothing, so a second call writes the same text.

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
    cells = [f",{w}," for w in range(weeks)]  # the sidecar's week cells

    vehicles: list[VehicleTruth] = []
    labor: list[list[float]] = []  # each vehicle's breakdown hours, drawn here so that the writers draw nothing
    for v, (vtype, rng) in enumerate(zip(types, rngs)):
        breakdown_weeks = np.flatnonzero(broke[v]).tolist()
        labor.append(np.round(rng.uniform(0.5, 8.0, len(breakdown_weeks)), 1).tolist())
        vehicles.append(
            VehicleTruth(
                asset_id=f"AF{acq_years[v] % 100:02d}{v:05d}",
                type_name=vtype.name,
                hazard_multiplier=vtype.hazard_multiplier,
                unit=config.units[v % len(config.units)],
                acquisition_year=acq_years[v],
                age_anchor_week=anchors[v],
                breakdown_weeks=breakdown_weeks,
                prev_weeks=list(range(v % PREV_PERIOD_WEEKS, weeks, PREV_PERIOD_WEEKS)),
            )
        )
    quoted = cache(csv_cell)  # each config-supplied name is quoted once
    kinds = [f"{quoted(v.type_name)},{quoted(v.unit)},{quoted(f'{v.type_name.upper()} SHOP')}" for v in vehicles]
    first_number = np.cumsum([1] + [len(v.breakdown_weeks) + len(v.prev_weeks) for v in vehicles]).tolist()

    def order_lines(lo: int, hi: int) -> list[str]:
        """Vehicles lo..hi-1's work orders, each vehicle's breakdowns, then its preventive visits."""
        number, lines = itertools.count(first_number[lo]), []
        for v, kind, hours in zip(vehicles[lo:hi], kinds[lo:hi], labor[lo:hi]):
            lines += [f"W{next(number):07d},1,{approved[w]},{v.asset_id},{closed_late[w]},UNSCHEDULED BREAKDOWN REPAIR,"
                      f"{kind},{approved[w]} 08:00:00,{UNSCHEDULED_CODE},{h!r}\n" for w, h in zip(v.breakdown_weeks, hours)]
            lines += [f"W{next(number):07d},1,{approved[w]},{v.asset_id},{approved[w]},SCHEDULED PREVENTIVE SERVICE,"
                      f"{kind},{approved[w]} 08:00:00,PREV,2.0\n" for w in v.prev_weeks]
        return lines

    def sidecar_lines(lo: int, hi: int) -> list[str]:
        rows = zip(vehicles[lo:hi], utilization[lo:hi].tolist())
        return [f"{v.asset_id}{cell}{u!r}\n" for v, values in rows for cell, u in zip(cells, values)]

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
    bounds = [*range(0, n, WRITE_BLOCK), n]
    return (partial(write_blocks, header=REQUIRED_COLUMNS + (LABOR_COLUMN,), bounds=bounds, lines=order_lines),
            partial(write_blocks, header=UTILIZATION_COLUMNS, bounds=bounds, lines=sidecar_lines), truth)
