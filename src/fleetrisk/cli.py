"""Command-line pipeline driver.

Subcommands compose the library stages and drop their artifacts plus a
manifest into the output directory. Exit codes: 0 success, 1 data errors
(malformed or inconsistent inputs), 2 usage errors (bad flags, missing
prerequisite artifacts).

When --input is not given, commands look for a previous `synth` run's
subworkorders.csv in the output directory, so
`fleetrisk synth -o out && fleetrisk train -o out` works without
re-plumbing paths. The single --seed drives every random stage through
labeled child seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import replace
from datetime import date, datetime, timezone
from pathlib import Path
from typing import IO

import numpy as np

from . import config as cfg
from .errors import FleetRiskError, UsageError
from .evaluation import (
    ChronologicalSplit,
    RandomRowSplit,
    ablation,
    fit_on_train,
    score_panel,
    separation_ratio,
    split,
    write_ablation_csv,
    write_eval_report,
    write_histogram_csv,
)
from .features import FeatureSpec, encode, standardize, transform
from .ingest import parse_subworkorders, write_csv, write_subworkorders
from .models import MODEL_KINDS, fit_model, load_model, predict_proba, save_model
from .panel import PanelOptions, build_panel, load_utilization_csv, week_index, write_panel_csv
from .policy import (
    HighestRisk,
    MelSpec,
    RandomUniform,
    mel_risk,
    simulate_policy,
    trace_histograms,
    write_trace_csv,
    write_trace_histograms_csv,
)
from .synth import generate_fleet

SUBWORKORDERS_CSV = "subworkorders.csv"
UTILIZATION_CSV = "utilization.csv"
MODEL_JSON = "model.json"


class _Run:
    """Shared state for one invocation: resolved config, hashes, outputs."""

    def __init__(self, command: str, config: cfg.RunConfig):
        self.command = command
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.saved_model_kind: str | None = None  # set by eval, simulate and mel

    def note_input(self, path: Path) -> None:
        self.inputs[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()

    def open_output(self, name: str) -> IO[str]:
        """Open an artifact for writing and list it in the manifest."""
        self.outputs.append(name)
        return open(self.out_dir / name, "w", encoding="utf-8", newline="")

    def write_json(self, name: str, payload) -> None:
        """Write a JSON report artifact: indented, keys sorted."""
        with self.open_output(name) as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)

    def write_manifest(self) -> None:
        manifest = {
            "command": self.command,
            "seed": self.config.seed,
            "config": vars(self.config),
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        if self.saved_model_kind is not None:
            manifest["saved_model_kind"] = self.saved_model_kind
        (self.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _locate(run: _Run, configured: str | None, fallback_name: str, what: str) -> Path | None:
    """The configured file, which must exist; else the output directory's
    `fallback_name` if a previous command wrote it; else None."""
    if configured:
        path = Path(configured)
        if not path.exists():
            raise UsageError(f"{what} not found: {path}")
        return path
    fallback = run.out_dir / fallback_name
    return fallback if fallback.exists() else None


def _load_records(run: _Run):
    path = _locate(run, run.config.input_csv, SUBWORKORDERS_CSV, "input CSV")
    if path is None:
        raise UsageError("no input CSV: pass --input or run `synth` into this output directory first")
    run.note_input(path)
    return parse_subworkorders(path)


def _panel_options(run: _Run) -> PanelOptions:
    start = None
    if run.config.start_date is not None:
        try:
            start = date.fromisoformat(run.config.start_date)
        except ValueError:
            raise UsageError(f"start_date is not an ISO date: {run.config.start_date!r}")
    utilization = None
    sidecar = _locate(run, run.config.utilization_csv, UTILIZATION_CSV, "utilization CSV")
    if sidecar is not None:
        run.note_input(sidecar)
        try:
            utilization = load_utilization_csv(sidecar)
        except (OverflowError, ValueError) as exc:
            raise FleetRiskError(f"bad utilization sidecar: {exc}")
    return PanelOptions(
        include_scheduled=run.config.include_scheduled,
        start_date=start,
        end_week=run.config.end_week,
        gap_cap=run.config.gap_cap,
        utilization=utilization,
        default_weekly_rate=run.config.default_weekly_rate,
    )


def _build_panel(run: _Run):
    records, _errors = _load_records(run)
    return build_panel(records, _panel_options(run))


def _split_spec(run: _Run):
    if run.config.split == "random":
        return RandomRowSplit(run.config.test_fraction, seed=cfg.child_seed(run.config.seed, "split"))
    return ChronologicalSplit(run.config.test_fraction)


def _load_saved_model(run: _Run):
    path = run.out_dir / MODEL_JSON
    if not path.exists():
        raise UsageError(f"no trained model at {path}; run `train` first")
    run.note_input(path)
    model = load_model(path)
    run.saved_model_kind = model.kind
    return model


def _fit(run: _Run, train):
    """The configured model fitted on the train side."""
    return fit_on_train(train, cfg.feature_spec(run.config), run.config.model, cfg.model_hyper(run.config))


def _eval_artifacts(run: _Run, model, test_panel) -> None:
    report = score_panel(model, test_panel)
    with run.open_output("eval_report.json") as stream:
        write_eval_report(report, stream)
    for name, counts in (("histogram_true.csv", report.histogram_true), ("histogram_false.csv", report.histogram_false)):
        with run.open_output(name) as stream:
            write_histogram_csv(counts, stream)


def _ablate_artifacts(run: _Run, train, test) -> None:
    subsets = [FeatureSpec.of(names) for names in run.config.ablation_subsets]
    rows = ablation(train, test, subsets, run.config.model, cfg.model_hyper(run.config))
    with run.open_output("ablation.csv") as stream:
        write_ablation_csv(rows, stream)


def _simulate_artifacts(run: _Run, model, test_panel) -> None:
    proactive = simulate_policy(model, test_panel, HighestRisk())
    random_arm = simulate_policy(model, test_panel, RandomUniform(seed=cfg.child_seed(run.config.seed, "policy")))

    with run.open_output("policy_trace.csv") as stream:
        write_trace_csv(proactive, stream)
    for name, trace in (("policy_hist_proactive.csv", proactive), ("policy_hist_random.csv", random_arm)):
        with run.open_output(name) as stream:
            write_trace_histograms_csv(trace_histograms(trace), stream)

    summary = {}
    for arm, trace in (("proactive", proactive), ("random", random_arm)):
        summary[arm] = {
            "n_weeks": len(trace),
            "censored": trace.censored_count(),
            "mean_weeks_since_last_actual_service": trace.mean_weeks_since(),
            "mean_weeks_until_next_actual_service": trace.mean_weeks_until(),
        }
    run.write_json("policy_summary.json", summary)


def _mel_artifacts(run: _Run, model, panel) -> None:
    if not run.config.mel_specs:
        raise UsageError("mel requires mel_specs in the config or --mel TYPE=COUNT flags")
    # rows are sorted by (asset, week): each vehicle's last row is its latest week
    latest = panel.take(np.append(panel.asset[1:] != panel.asset[:-1], True))
    types = np.array(latest.vocab.vehicle_types, dtype=object)[latest.vehicle_type]

    results = []
    for entry in run.config.mel_specs:
        vtype = entry["vehicle_type"]  # config._validate checked each entry's types
        fleet = latest.take(types == vtype)
        if not len(fleet):
            raise FleetRiskError(f"no vehicles of type {vtype!r} in the panel")
        if entry.get("assigned", len(fleet)) != len(fleet):
            raise FleetRiskError(
                f"mel spec for {vtype!r} says assigned={entry['assigned']} but the panel has {len(fleet)}"
            )
        try:
            spec = MelSpec(vehicle_type=vtype, mel=entry["mel"], assigned=len(fleet))
        except ValueError as exc:
            raise UsageError(f"bad mel spec for {vtype!r}: {exc}") from exc
        probs = predict_proba(model, transform(fleet, model.columns, model.scale))
        results.append(
            {
                "vehicle_type": vtype,
                "mel": spec.mel,
                "assigned": spec.assigned,
                "risk": mel_risk(probs, spec),
            }
        )
    run.write_json("mel_risk.json", {"specs": results})


def _labor_artifacts(run: _Run, records, panel) -> None:
    """Per-vehicle weekly labor-hours series from the raw records, on the
    panel's week index."""
    totals: dict[tuple[str, int], float] = {}
    for r in records:
        key = (r.asset_id, week_index(r.approval_date, panel.start_monday))
        totals[key] = totals.get(key, 0.0) + (r.labor_hours or 0.0)
    with run.open_output("labor_hours.csv") as stream:
        write_csv(stream, ["asset_id", "week", "labor_hours"], ((*key, hours) for key, hours in sorted(totals.items())))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_synth(run: _Run) -> int:
    csv_bytes, sidecar, truth = generate_fleet(cfg.fleet_config(run.config))
    with run.open_output(SUBWORKORDERS_CSV) as stream:
        stream.write(csv_bytes.decode("utf-8"))
    with run.open_output(UTILIZATION_CSV) as stream:
        stream.write(sidecar)
    with run.open_output("ground_truth.json") as stream:
        truth.save(stream)
    return 0


def _cmd_ingest(run: _Run) -> int:
    records, errors = _load_records(run)
    with run.open_output("records.csv") as stream:
        write_subworkorders(records, stream)
    with run.open_output("row_errors.csv") as stream:
        write_csv(stream, ["line", "field", "reason"], (vars(e).values() for e in errors))
    return 0


def _cmd_panel(run: _Run) -> int:
    panel = _build_panel(run)
    with run.open_output("panel.csv") as stream:
        write_panel_csv(panel, stream)
    return 0


def _cmd_train(run: _Run) -> int:
    train, _test = split(_build_panel(run), _split_spec(run))
    model = _fit(run, train)
    with run.open_output(MODEL_JSON) as stream:
        save_model(model, stream)
    return 0


def _cmd_eval(run: _Run) -> int:
    model = _load_saved_model(run)
    panel = _build_panel(run)
    _train, test = split(panel, _split_spec(run))
    _eval_artifacts(run, model, test)
    return 0


def _cmd_ablate(run: _Run) -> int:
    _ablate_artifacts(run, *split(_build_panel(run), _split_spec(run)))
    return 0


def _cmd_simulate(run: _Run) -> int:
    model = _load_saved_model(run)
    panel = _build_panel(run)
    _train, test = split(panel, _split_spec(run))
    _simulate_artifacts(run, model, test)
    return 0


def _cmd_mel(run: _Run) -> int:
    model = _load_saved_model(run)
    panel = _build_panel(run)
    _mel_artifacts(run, model, panel)
    return 0


def _cmd_report(run: _Run) -> int:
    records, _errors = _load_records(run)
    panel = build_panel(records, _panel_options(run))
    _labor_artifacts(run, records, panel)
    train, test = split(panel, _split_spec(run))
    model = _fit(run, train)
    with run.open_output(MODEL_JSON) as stream:
        save_model(model, stream)
    _eval_artifacts(run, model, test)
    _ablate_artifacts(run, train, test)
    _simulate_artifacts(run, model, test)
    return 0


def _cmd_tune(run: _Run) -> int:
    panel = _build_panel(run)
    train, test = split(panel, _split_spec(run))

    grid = run.config.tune_grid
    keys = sorted(grid)
    combos = list(itertools.product(*(grid[k] for k in keys))) if keys else [()]

    # encode once; each grid point only refits
    matrix = standardize(encode(train, cfg.feature_spec(run.config)))
    test_values = transform(test, matrix.columns, matrix.scale)
    test_labels = test.repair_flag
    results = []
    best = None
    for combo in combos:
        overrides = dict(zip(keys, combo))
        trial = replace(run.config, **overrides)
        model = fit_model(trial.model, matrix, cfg.model_hyper(trial))
        report = separation_ratio(predict_proba(model, test_values), test_labels)
        results.append([json.dumps(overrides, sort_keys=True), report.ratio, report.mean_pred_true, report.mean_pred_false])
        if best is None or report.ratio > best[1]:
            best = (overrides, report.ratio)
    with run.open_output("tune_results.csv") as stream:
        write_csv(stream, ["params", "ratio", "mean_pred_true", "mean_pred_false"], results)
    run.write_json("tune_best.json", {"params": best[0], "ratio": best[1]})
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        file_values = cfg.load_config_file(args.config) if args.config else {}
        config = cfg.build_run_config(file_values, _overrides_from_args(args))
        run = _Run(args.command, config)
        if args.config:
            run.note_input(Path(args.config))
        code = _COMMANDS[args.command][0](run)
        run.write_manifest()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FleetRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
