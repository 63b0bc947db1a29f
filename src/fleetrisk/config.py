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
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .errors import InvalidConfigError, UsageError
from .features import FEATURE_NAMES, FeatureSpec
from .models import MODEL_KINDS, MODELS
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
    # hyperparameters: None takes the model kind's default from its Hyper class
    l2_lambda: float | None = None
    max_iters: int | None = None
    tol: float | None = None
    solver: str | None = None
    n_estimators: int | None = None
    max_depth: int | None = None
    min_leaf: int | None = None
    max_features: int | None = None
    learning_rate: float | None = None
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
    # each [name, hazard_multiplier, weekly_utilization_rate]
    vehicle_types: list[tuple[str, float, float]] = field(
        default_factory=lambda: [["bus", 0.35, 30.0], ["truck", 1.0, 45.0], ["loader", 3.0, 60.0]]
    )
    units: list[str] = field(default_factory=lambda: ["82 LRS", "83 LRS"])
    # tuning grids: {hyper key: list of candidate values}
    tune_grid: dict[str, list] = field(default_factory=dict)
    # the one seed
    seed: int = 0


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}
_KEY_TYPES = get_type_hints(RunConfig)


def _hyper_keys(kind: str) -> set[str]:
    """The config keys a model kind takes: its Hyper fields but the derived seed."""
    return {f.name for f in fields(MODELS[kind][1])} - {"seed"}


_HYPER_KEYS = set().union(*map(_hyper_keys, MODEL_KINDS))


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


def _fits(value, hint) -> bool:
    """Whether a JSON value has an annotated type: a bool is neither an int
    nor a float, an int is also a float, and a tuple is a fixed-length list."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_fits(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(item, args[0]) for item in value)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _type_name(hint) -> str:
    return str(hint) if get_origin(hint) else hint.__name__


def _validate(config: RunConfig) -> None:
    if not _fits(config.features, list[str]):
        raise UsageError("features must be a list of feature names")
    for key, hint in _KEY_TYPES.items():
        value = getattr(config, key)
        if not _fits(value, hint):
            raise UsageError(f"{key} must be {_type_name(hint)}, got {value!r}")
    if config.model not in MODEL_KINDS:
        raise UsageError(f"unknown model kind: {config.model!r}")
    if config.split not in ("chronological", "random"):
        raise UsageError(f"unknown split kind: {config.split!r}")
    if not 0.0 < config.test_fraction < 1.0:
        raise UsageError("test_fraction must be in (0, 1)")
    if config.gap_cap < 1:
        raise UsageError(f"gap_cap must be >= 1, got {config.gap_cap}")
    if not config.features:
        raise UsageError("features must not be empty")
    for what, names in [("features", config.features), *(("ablation subset", s) for s in config.ablation_subsets)]:
        try:
            FeatureSpec.of(names)
        except ValueError as exc:
            raise UsageError(f"{what}: {exc}") from exc
    for entry in config.mel_specs:
        if "vehicle_type" not in entry or "mel" not in entry:
            raise UsageError("each mel_specs entry needs vehicle_type and mel")
        for key, hint in (("vehicle_type", str), ("mel", int), ("assigned", int)):
            if key in entry and not _fits(entry[key], hint):
                raise UsageError(f"mel_specs {key} must be {hint.__name__}, got {entry[key]!r}")
    grid = config.tune_grid
    if not all(grid.values()):
        raise UsageError("each tune_grid list needs at least one value")
    bad = set(grid) - _hyper_keys(config.model)
    if bad:
        raise UsageError(f"tune_grid keys the {config.model} model does not take: {', '.join(sorted(bad))}")
    for key, values in grid.items():
        if not _fits(values, list[_KEY_TYPES[key]]):
            raise UsageError(f"tune_grid {key} must be a list of {_type_name(_KEY_TYPES[key])}, got {values!r}")


def feature_spec(config: RunConfig) -> FeatureSpec:
    return FeatureSpec.of(config.features)


def model_hyper(config: RunConfig):
    """The model kind's Hyper, with every hyperparameter the config sets.

    A set key the kind does not take, or a value its Hyper rejects, is a
    usage error. A forest's seed derives from the run seed.
    """
    hyper_class = MODELS[config.model][1]
    taken = {f.name for f in fields(hyper_class)}
    given = {key: getattr(config, key) for key in _HYPER_KEYS if getattr(config, key) is not None}
    foreign = set(given) - taken
    if foreign:
        raise UsageError(f"the {config.model} model does not take: {', '.join(sorted(foreign))}")
    if "seed" in taken:
        given["seed"] = child_seed(config.seed, "model")
    try:
        return hyper_class(**given)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {config.model} hyperparameter: {exc}") from exc


def fleet_config(config: RunConfig) -> FleetConfig:
    types = tuple(VehicleTypeSpec(name, float(hazard), float(rate)) for name, hazard, rate in config.vehicle_types)
    try:
        return FleetConfig(
            n_vehicles=config.n_vehicles,
            n_weeks=config.n_weeks,
            vehicle_types=types,
            units=tuple(config.units),
            beta0=config.beta0,
            beta_age=config.beta_age,
            beta_gap=config.beta_gap,
            beta_util=config.beta_util,
            seed=child_seed(config.seed, "synth"),
        )
    except InvalidConfigError as exc:
        raise UsageError(str(exc)) from exc
