"""Run configuration: a flat JSON key set, CLI overrides, derived seeds.

One seed drives everything. Stage-specific randomness comes from
child_seed(seed, label), a sha256-based derivation, so adding draws to
one stage can never shift another stage's stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .errors import UsageError
from .features import FEATURE_NAMES, FeatureSpec
from .models import ForestHyper, GbtHyper, LogisticHyper
from .synth import FleetConfig, VehicleTypeSpec


def child_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()
    return int(digest[:8], 16)


DEFAULT_FEATURES = list(FEATURE_NAMES)

DEFAULT_ABLATION_SUBSETS = [
    ["vehicle_id", "vehicle_type", "unit", "operational_weeks", "weeks_since_last_visit", "utilization"],
    ["vehicle_type", "unit", "operational_weeks", "weeks_since_last_visit", "utilization"],
    ["vehicle_type", "operational_weeks", "weeks_since_last_visit", "utilization"],
    ["vehicle_type", "operational_weeks", "weeks_since_last_visit"],
    ["vehicle_type", "operational_weeks"],
    ["operational_weeks"],
]


@dataclass
class RunConfig:
    # paths
    input_csv: str | None = None
    utilization_csv: str | None = None
    out_dir: str = "out"
    # panel options
    include_scheduled: bool = True
    start_date: str | None = None
    end_week: int | None = None
    gap_cap: int = 104
    default_weekly_rate: float = 1.0
    # features / model
    features: list[str] = field(default_factory=lambda: list(DEFAULT_FEATURES))
    model: str = "logistic"
    l2_lambda: float = 1e-4
    max_iters: int = 500
    tol: float = 1e-8
    solver: str = "gd"
    n_estimators: int | None = None
    max_depth: int | None = None
    min_leaf: int = 5
    max_features: int | None = None
    learning_rate: float = 0.1
    # split / policy / mel
    split: str = "chronological"
    test_fraction: float = 0.3
    mel_specs: list[dict] = field(default_factory=list)
    ablation_subsets: list[list[str]] = field(default_factory=lambda: [list(s) for s in DEFAULT_ABLATION_SUBSETS])
    # synthetic data
    n_vehicles: int = 60
    n_weeks: int = 156
    beta0: float = -4.2
    beta_age: float = 0.003
    beta_gap: float = 0.08
    beta_util: float = 0.0
    vehicle_types: list[list] = field(
        default_factory=lambda: [["bus", 0.35, 30.0], ["truck", 1.0, 45.0], ["loader", 3.0, 60.0]]
    )
    units: list[str] = field(default_factory=lambda: ["82 LRS", "83 LRS"])
    # tuning grids: {hyper key: list of candidate values}
    tune_grid: dict[str, list] = field(default_factory=dict)
    # the one seed
    seed: int = 0


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def load_config_file(path: str | Path) -> dict[str, Any]:
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise UsageError("config file must contain a JSON object")
    unknown = set(payload) - _KNOWN_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return payload


def build_run_config(file_values: dict[str, Any], overrides: dict[str, Any]) -> RunConfig:
    """File values first, then non-None CLI overrides on top of defaults."""
    merged: dict[str, Any] = {}
    merged.update(file_values)
    for key, value in overrides.items():
        if value is not None:
            if key not in _KNOWN_KEYS:
                raise UsageError(f"unknown config key: {key}")
            merged[key] = value
    config = RunConfig(**merged)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.model not in ("logistic", "forest", "gbt"):
        raise UsageError(f"unknown model kind: {config.model!r}")
    if config.split not in ("chronological", "random"):
        raise UsageError(f"unknown split kind: {config.split!r}")
    if not 0.0 < config.test_fraction < 1.0:
        raise UsageError("test_fraction must be in (0, 1)")
    unknown = set(config.features) - set(FEATURE_NAMES)
    if unknown:
        raise UsageError(f"unknown feature names: {', '.join(sorted(unknown))}")
    if not config.features:
        raise UsageError("features must not be empty")
    for subset in config.ablation_subsets:
        bad = set(subset) - set(FEATURE_NAMES)
        if bad:
            raise UsageError(f"unknown feature names in ablation subset: {', '.join(sorted(bad))}")
    for entry in config.mel_specs:
        if not isinstance(entry, dict) or "vehicle_type" not in entry or "mel" not in entry:
            raise UsageError("each mel_specs entry needs vehicle_type and mel")
    if not isinstance(config.tune_grid, dict):
        raise UsageError("tune_grid must be an object of key -> list of values")
    tunable = {"l2_lambda", "max_iters", "tol", "solver", "n_estimators", "max_depth", "min_leaf", "max_features", "learning_rate"}
    bad = set(config.tune_grid) - tunable
    if bad:
        raise UsageError(f"tune_grid keys not tunable: {', '.join(sorted(bad))}")


def feature_spec(config: RunConfig) -> FeatureSpec:
    return FeatureSpec.of(config.features)


def model_hyper(config: RunConfig):
    """The model kind's hyperparameters; values they reject are usage errors."""
    try:
        if config.model == "logistic":
            return LogisticHyper(
                l2_lambda=config.l2_lambda,
                max_iters=config.max_iters,
                tol=config.tol,
                solver=config.solver,
            )
        if config.model == "forest":
            return ForestHyper(
                n_estimators=config.n_estimators if config.n_estimators is not None else 400,
                max_features=config.max_features,
                max_depth=config.max_depth if config.max_depth is not None else 12,
                min_leaf=config.min_leaf,
                seed=child_seed(config.seed, "model"),
            )
        return GbtHyper(
            learning_rate=config.learning_rate,
            n_estimators=config.n_estimators if config.n_estimators is not None else 200,
            max_depth=config.max_depth if config.max_depth is not None else 3,
            min_leaf=config.min_leaf,
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {config.model} hyperparameter: {exc}") from exc


def fleet_config(config: RunConfig) -> FleetConfig:
    types = []
    for entry in config.vehicle_types:
        if len(entry) != 3:
            raise UsageError("each vehicle_types entry is [name, hazard_multiplier, weekly_utilization_rate]")
        types.append(VehicleTypeSpec(str(entry[0]), float(entry[1]), float(entry[2])))
    return FleetConfig(
        n_vehicles=config.n_vehicles,
        n_weeks=config.n_weeks,
        vehicle_types=tuple(types),
        units=tuple(config.units),
        beta0=config.beta0,
        beta_age=config.beta_age,
        beta_gap=config.beta_gap,
        beta_util=config.beta_util,
        seed=child_seed(config.seed, "synth"),
    )


def config_to_dict(config: RunConfig) -> dict[str, Any]:
    out = {}
    for f in fields(RunConfig):
        out[f.name] = getattr(config, f.name)
    return out
