"""Command-line pipeline driver.

Subcommands compose the library stages and stage their artifacts. Once a
body returns, `_Run.commit` writes them and a manifest into the output
directory, so a run that fails writes nothing. Exit codes: 0 success, 1 data
errors (malformed or inconsistent inputs), 2 usage errors (bad flags, missing
prerequisite artifacts, an output path that cannot be written).

When --input is not given, commands look for a previous `synth` run's
subworkorders.csv in the output directory, so
`fleetrisk synth -o out && fleetrisk train -o out` works without
re-plumbing paths. The single --seed drives every random stage through
labeled child seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import os
import sys
from dataclasses import replace
from datetime import date, datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfg
from .errors import FleetRiskError, UsageError
from .evaluation import (
    ablation,
    fit_and_score,
    fit_on_train,
    score_panel,
    split,
    with_ratio,
    write_ablation_csv,
    write_eval_report,
    write_histogram_csv,
)
from .features import FeatureSpec
from .ingest import level_codes, parse_subworkorders, write_csv, write_subworkorders
from .models import MODEL_KINDS, load_model, predict_panel, save_model
from .panel import PanelOptions, build_panel, load_utilization_csv, write_panel_csv
from .policy import (
    HighestRisk,
    MelSpec,
    RandomUniform,
    mel_risk,
    simulate_policy,
    write_trace_csv,
    write_trace_histograms_csv,
)
from .synth import generate_fleet

SUBWORKORDERS_CSV = "subworkorders.csv"
UTILIZATION_CSV = "utilization.csv"
MODEL_JSON = "model.json"


class _Run:
    """One invocation: each setting built into the library object that takes
    it, each input file read once and hashed, and its artifacts staged to commit."""

    def __init__(self, command: str, config_path: str | None, overrides: dict):
        self.command = command
        self.inputs: dict[str, str] = {}
        file_values = self.read(Path(config_path), "config file", cfg.load_config_file) if config_path else {}
        self.config = config = cfg.build_run_config(file_values, overrides)
        # every setting is built before any input is read
        self.panel_options = cfg.panel_options(config)
        self.split_spec = cfg.split_spec(config)
        self.fleet = cfg.fleet_config(config)
        self.features = FeatureSpec.of(config.features)
        self.subsets = [FeatureSpec.of(names) for names in config.ablation_subsets]
        self.hyper = cfg.model_hyper(config)
        keys = sorted(config.tune_grid)
        points = [dict(zip(keys, combo)) for combo in itertools.product(*(config.tune_grid[k] for k in keys))]
        self.tune_points = [(point, cfg.model_hyper(replace(config, **point))) for point in points]
        self.out_dir = Path(config.out_dir)  # made by commit, so a run that fails leaves none
        ancestor = next(path for path in (self.out_dir, *self.out_dir.parents) if path.exists())
        if not ancestor.is_dir():
            raise UsageError(f"cannot make output directory {self.out_dir}: {ancestor} is not a directory")
        self.staged: dict = {}  # artifact name -> its writer, in staging order
        self.saved_model_kind: str | None = None  # set by eval, simulate and mel

    def read(self, path: Path, what: str, parse):
        """Parse an input file from the bytes its manifest hash is taken of.
        A file that cannot be read is a usage error, and bytes that `parse`
        refuses with a ValueError, OverflowError or csv.Error a data error naming `what`."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read {what} {path}: {exc.strerror}") from None
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        try:
            return parse(data)
        except (OverflowError, ValueError, csv.Error) as exc:
            raise FleetRiskError(f"bad {what}: {exc}") from None

    def write(self, name: str, write) -> None:
        """Stage an artifact; `write(stream)` writes it when the run commits."""
        self.staged[name] = write

    def commit(self) -> None:
        """Write each staged artifact, then the manifest that lists them, to a
        temporary name in the output directory and rename them into place, the
        manifest last. An artifact path that is a directory is refused before any
        byte is written; an OSError is a usage error and leaves no temporary file
        and no directory that the commit made."""
        manifest = {
            "command": self.command,
            "seed": self.config.seed,
            "config": vars(self.config),
            "inputs": self.inputs,
            "outputs": sorted(self.staged),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        if self.saved_model_kind is not None:
            manifest["saved_model_kind"] = self.saved_model_kind
        self.write("manifest.json", _json(manifest))
        for name in self.staged:
            if (self.out_dir / name).is_dir():
                raise UsageError(f"cannot write {self.out_dir / name}: Is a directory")
        # the output directory and its parents that the mkdir makes, deepest first
        made = list(itertools.takewhile(lambda path: not path.exists(), (self.out_dir, *self.out_dir.parents)))
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot make output directory {self.out_dir}: {exc.strerror}") from None
        temps = {name: self.out_dir / f".{name}.{os.getpid()}.tmp" for name in self.staged}
        try:
            for name, temp in temps.items():
                with open(temp, "w", encoding="utf-8", newline="") as stream:
                    self.staged[name](stream)
            for name, temp in temps.items():
                temp.replace(self.out_dir / name)
        except BaseException as exc:
            for temp in temps.values():
                temp.unlink(missing_ok=True)
            with contextlib.suppress(OSError):  # a directory that a rename went into stays
                for path in made:
                    path.rmdir()
            if isinstance(exc, OSError):
                raise UsageError(f"cannot write {self.out_dir / name}: {exc.strerror}") from None
            raise


def _json(payload):
    """A JSON artifact's writer: indented, keys sorted."""
    return lambda stream: json.dump(payload, stream, indent=2, sort_keys=True)


def _locate(run: _Run, configured: str | None, fallback_name: str) -> Path | None:
    """The configured file; else the output directory's `fallback_name` if
    a previous command wrote it; else None."""
    if configured:
        return Path(configured)
    fallback = run.out_dir / fallback_name
    return fallback if fallback.exists() else None


def _load_records(run: _Run):
    path = _locate(run, run.config.input_csv, SUBWORKORDERS_CSV)
    if path is None:
        raise UsageError("no input CSV: pass --input or run `synth` into this output directory first")
    return run.read(path, "input CSV", parse_subworkorders)


def _panel_options(run: _Run) -> PanelOptions:
    sidecar = _locate(run, run.config.utilization_csv, UTILIZATION_CSV)
    if sidecar is None:
        return run.panel_options
    return replace(run.panel_options, utilization=run.read(sidecar, "utilization sidecar", load_utilization_csv))


def _build_panel(run: _Run):
    records, _errors = _load_records(run)
    return build_panel(records, _panel_options(run))


def _load_saved_model(run: _Run):
    path = run.out_dir / MODEL_JSON
    if not path.exists():
        raise UsageError(f"no trained model at {path}; run `train` first")
    model = run.read(path, "saved model", load_model)
    run.saved_model_kind = model.kind
    return model


def _eval_artifacts(run: _Run, report) -> None:
    run.write("eval_report.json", partial(write_eval_report, report))
    run.write("histogram_true.csv", partial(write_histogram_csv, report.histogram_true))
    run.write("histogram_false.csv", partial(write_histogram_csv, report.histogram_false))


def _simulate_artifacts(run: _Run, model, test_panel) -> None:
    proactive = simulate_policy(model, test_panel, HighestRisk())
    random_arm = simulate_policy(model, test_panel, RandomUniform(seed=cfg.child_seed(run.config.seed, "policy")))

    run.write("policy_trace.csv", partial(write_trace_csv, proactive))
    summary = {}
    for arm, trace in (("proactive", proactive), ("random", random_arm)):
        run.write(f"policy_hist_{arm}.csv", partial(write_trace_histograms_csv, trace))
        summary[arm] = {
            "n_weeks": len(trace),
            "censored": trace.censored_count(),
            "mean_weeks_since_last_actual_service": trace.mean_weeks_since(),
            "mean_weeks_until_next_actual_service": trace.mean_weeks_until(),
        }
    run.write("policy_summary.json", _json(summary))


def _labor_artifacts(run: _Run, orders, start_monday: date) -> None:
    """Per-vehicle weekly labor-hours series from the work orders, on the panel's week index:
    each (vehicle, week) sums its hours in record order from 0.0, a blank cell adding 0.0."""
    asset_ids, asset = level_codes(orders.columns["asset_id"])
    day = np.fromiter(map(date.toordinal, orders.columns["approval_date"]), np.int64, len(orders))
    week = (day - start_monday.toordinal()) // 7
    span = int(week.max() - week.min()) + 1
    keys, key = np.unique(asset * span + week - week.min(), return_inverse=True)  # in (vehicle, week) order
    hours = np.bincount(key, [h or 0.0 for h in orders.columns["labor_hours"]]).tolist()
    ids = np.array(asset_ids, dtype=object)[keys // span].tolist()
    rows = zip(ids, (keys % span + week.min()).tolist(), hours)
    run.write("labor_hours.csv", lambda stream: write_csv(stream, ["asset_id", "week", "labor_hours"], rows))


# ---------------------------------------------------------------------------
# subcommand bodies: each stages its artifacts or raises; `main` commits them
# when the body returns and picks the exit code.


def _cmd_synth(run: _Run) -> None:
    write_work_orders, write_sidecar, truth = generate_fleet(run.fleet)
    run.write(SUBWORKORDERS_CSV, write_work_orders)
    run.write(UTILIZATION_CSV, write_sidecar)
    run.write("ground_truth.json", truth.save)


def _cmd_ingest(run: _Run) -> None:
    records, errors = _load_records(run)
    run.write("records.csv", partial(write_subworkorders, records))
    rows = (vars(e).values() for e in errors)
    run.write("row_errors.csv", lambda stream: write_csv(stream, ["line", "field", "reason"], rows))


def _cmd_panel(run: _Run) -> None:
    run.write("panel.csv", partial(write_panel_csv, _build_panel(run)))


def _cmd_train(run: _Run) -> None:
    train, _test = split(_build_panel(run), run.split_spec)
    run.write(MODEL_JSON, partial(save_model, fit_on_train(train, run.features, run.config.model, run.hyper)))


def _cmd_eval(run: _Run) -> None:
    model = _load_saved_model(run)
    _train, test = split(_build_panel(run), run.split_spec)
    _eval_artifacts(run, score_panel(model, test))


def _cmd_ablate(run: _Run) -> None:
    train, test = split(_build_panel(run), run.split_spec)
    reports = ablation(train, test, run.subsets, run.config.model, run.hyper)
    run.write("ablation.csv", partial(write_ablation_csv, run.subsets, reports))


def _cmd_simulate(run: _Run) -> None:
    model = _load_saved_model(run)
    _train, test = split(_build_panel(run), run.split_spec)
    _simulate_artifacts(run, model, test)


def _cmd_mel(run: _Run) -> None:
    if not run.config.mel_specs:
        raise UsageError("mel requires mel_specs in the config or --mel TYPE=COUNT flags")
    model = _load_saved_model(run)
    panel = _build_panel(run)
    # rows are sorted by (asset, week): each vehicle's last row is its latest week
    latest = panel.take(np.append(panel.asset[1:] != panel.asset[:-1], True))
    types = np.array(latest.vocab.vehicle_types, dtype=object)[latest.vehicle_type]
    probs = predict_panel(model, latest)  # a row's score does not depend on its batch

    results = []
    for entry in run.config.mel_specs:
        vtype = entry["vehicle_type"]  # config._validate checked each entry's types
        fleet = probs[types == vtype]
        if not len(fleet):
            raise FleetRiskError(f"no vehicles of type {vtype!r} in the panel")
        if entry.get("assigned", len(fleet)) != len(fleet):
            raise FleetRiskError(
                f"mel spec for {vtype!r} says assigned={entry['assigned']} but the panel has {len(fleet)}"
            )
        spec = MelSpec(vehicle_type=vtype, mel=entry["mel"], assigned=len(fleet))
        results.append({**vars(spec), "risk": mel_risk(fleet, spec)})
    run.write("mel_risk.json", _json({"specs": results}))


def _cmd_report(run: _Run) -> None:
    orders = _load_records(run)[0]
    panel = build_panel(orders, _panel_options(run))
    _labor_artifacts(run, orders, panel.start_monday)
    train, test = split(panel, run.split_spec)
    del orders, panel  # the fits below need only the two halves
    # the configured features, then each ablation subset: the first is the model saved and rolled out
    variants = [(spec, run.hyper) for spec in (run.features, *run.subsets)]
    (model, report), *ablated = fit_and_score(train, test, variants, run.config.model)
    run.write(MODEL_JSON, partial(save_model, model))
    _eval_artifacts(run, with_ratio(report))
    run.write("ablation.csv", partial(write_ablation_csv, run.subsets, [report for _model, report in ablated]))
    _simulate_artifacts(run, model, test)


def _cmd_tune(run: _Run) -> None:
    train, test = split(_build_panel(run), run.split_spec)
    sweep = fit_and_score(train, test, [(run.features, hyper) for _point, hyper in run.tune_points], run.config.model)
    results = [(point, with_ratio(report)) for (point, _hyper), (_model, report) in zip(run.tune_points, sweep)]
    rows = ([json.dumps(point, sort_keys=True), r.ratio, r.mean_pred_true, r.mean_pred_false] for point, r in results)
    header = ["params", "ratio", "mean_pred_true", "mean_pred_false"]
    run.write("tune_results.csv", lambda stream: write_csv(stream, header, rows))
    best, report = max(results, key=lambda result: result[1].ratio)  # the first of equal ratios
    run.write("tune_best.json", _json({"params": best, "ratio": report.ratio}))


_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic fleet with known hazard parameters"),
    "ingest": (_cmd_ingest, "parse and validate a sub-work-order CSV"),
    "panel": (_cmd_panel, "build the weekly per-vehicle panel"),
    "train": (_cmd_train, "fit a model on the train split and save it"),
    "eval": (_cmd_eval, "score the saved model on the test split"),
    "ablate": (_cmd_ablate, "refit over the configured feature subsets"),
    "simulate": (_cmd_simulate, "run the proactive-repair rollout and random baseline"),
    "mel": (_cmd_mel, "compute below-MEL risk per vehicle type"),
    "report": (_cmd_report, "produce the full artifact set in one run"),
    "tune": (_cmd_tune, "grid-search hyperparameters against the split"),
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("-o", "--out", dest="out_dir", help="output directory (default: out)")
    parser.add_argument("--input", dest="input_csv", help="sub-work-order CSV to read")
    parser.add_argument("--utilization", dest="utilization_csv", help="utilization sidecar CSV")
    parser.add_argument("--seed", type=int, help="master seed for all random stages")
    parser.add_argument("--model", choices=MODEL_KINDS, help="model kind")
    parser.add_argument("--features", help="comma-separated feature names")
    parser.add_argument("--split", choices=("chronological", "random"), help="train/test split kind")
    parser.add_argument("--test-fraction", dest="test_fraction", type=float, help="test share in (0,1)")
    scheduled = parser.add_mutually_exclusive_group()
    scheduled.add_argument(
        "--include-scheduled", dest="include_scheduled", action="store_true", default=None,
        help="count scheduled (preventive) visits as repair events",
    )
    scheduled.add_argument(
        "--exclude-scheduled", dest="include_scheduled", action="store_false", default=None,
        help="count only unscheduled repairs as events",
    )
    parser.add_argument("--start-date", dest="start_date", help="panel start date (ISO), overrides earliest approval")
    parser.add_argument("--end-week", dest="end_week", type=int, help="last panel week index")
    parser.add_argument("--gap-cap", dest="gap_cap", type=int, help="cap on weeks-since-last-visit")
    parser.add_argument("--l2-lambda", dest="l2_lambda", type=float, help="logistic L2 strength")
    parser.add_argument("--max-iters", dest="max_iters", type=int, help="logistic iteration cap")
    parser.add_argument("--tol", type=float, help="logistic gradient-norm stop")
    parser.add_argument("--solver", help="logistic solver: newton (default) or gd")
    parser.add_argument("--n-estimators", dest="n_estimators", type=int, help="trees in forest / boosting rounds")
    parser.add_argument("--max-depth", dest="max_depth", type=int, help="tree depth cap")
    parser.add_argument("--min-leaf", dest="min_leaf", type=int, help="min rows per leaf")
    parser.add_argument("--max-features", dest="max_features", type=int, help="features tried per forest split")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float, help="boosting shrinkage")
    parser.add_argument("--mel", action="append", metavar="TYPE=COUNT", help="MEL line, repeatable")
    parser.add_argument("--n-vehicles", dest="n_vehicles", type=int, help="synthetic fleet size")
    parser.add_argument("--n-weeks", dest="n_weeks", type=int, help="synthetic horizon in weeks")
    parser.add_argument("--beta0", type=float, help="synthetic baseline log-odds")
    parser.add_argument("--beta-age", dest="beta_age", type=float, help="synthetic per-week age effect")
    parser.add_argument("--beta-gap", dest="beta_gap", type=float, help="synthetic per-week gap effect")
    parser.add_argument("--beta-util", dest="beta_util", type=float, help="synthetic per-unit utilization effect")


class _Parser(argparse.ArgumentParser):
    """Reports a flag it rejects as one `error:` line, like every other usage error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fleetrisk",
        description="Weekly breakdown-risk pipeline: ingest, panel, models, evaluation, policy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, description=desc)
        _add_common(p)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """Every flag but the subcommand, --config and --mel names its config key."""
    overrides = {key: value for key, value in vars(args).items() if key not in ("command", "config", "mel")}
    if args.features is not None:
        overrides["features"] = [f.strip() for f in args.features.split(",") if f.strip()]
    if args.mel:
        specs = []
        for item in args.mel:
            if "=" not in item:
                raise UsageError(f"--mel expects TYPE=COUNT, got {item!r}")
            vtype, _, count = item.partition("=")
            try:
                specs.append({"vehicle_type": vtype, "mel": int(count)})
            except ValueError:
                raise UsageError(f"--mel count must be an integer, got {item!r}")
        overrides["mel_specs"] = specs
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _Run(args.command, args.config, _overrides_from_args(args))
        _COMMANDS[args.command][0](run)
        run.commit()
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FleetRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
