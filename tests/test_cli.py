"""End-to-end runs of the command-line pipeline and its exit codes."""

import ast
import contextlib
import csv
import errno
import io
import json
import os
import sys
import tempfile
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fleetrisk import cli, features, models, panel
from fleetrisk.cli import build_parser, main
from fleetrisk.config import RunConfig, build_run_config, fleet_config
from fleetrisk.errors import FleetRiskError, InvalidConfigError, UsageError
from fleetrisk.evaluation import ChronologicalSplit, RandomRowSplit
from fleetrisk.features import FeatureSpec
from fleetrisk.models import MODELS
from fleetrisk.models.forest import ForestHyper
from fleetrisk.models.gbt import GbtHyper
from fleetrisk.models.logistic import LogisticHyper
from fleetrisk.models.tree import check_tree_size
from fleetrisk.panel import PanelOptions, week_index
from fleetrisk.policy import MelSpec, simulate_policy

from oracles import parse_records

SMALL = ["--n-vehicles", "18", "--n-weeks", "60"]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    assert main(["synth", "-o", str(d), *SMALL]) == 0
    assert main(["train", "-o", str(d)]) == 0
    return d


def test_synth_writes_dataset_and_manifest(tmp_path):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "30", "--seed", "2"]) == 0
    for name in ("subworkorders.csv", "utilization.csv", "ground_truth.json", "manifest.json"):
        assert (tmp_path / name).exists(), name
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert len(truth["vehicles"]) == 6
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 2
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert "created_utc" in manifest


def test_train_saves_model(trained_dir):
    payload = json.loads((trained_dir / "model.json").read_text())
    assert payload["kind"] == "logistic"
    assert set(payload) == {"format_version", "kind", "columns", "scale", "weights", "intercept"}
    assert len(payload["weights"]) == len(payload["columns"])


def test_eval_writes_report_and_histograms(trained_dir):
    assert main(["eval", "-o", str(trained_dir)]) == 0
    report = json.loads((trained_dir / "eval_report.json").read_text())
    assert report["ratio"] > 0
    assert report["n_bins"] == 50
    for name in ("histogram_true.csv", "histogram_false.csv"):
        lines = (trained_dir / name).read_text().splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 51


def test_eval_before_train_is_usage_error(tmp_path):
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    assert main(["eval", "-o", str(tmp_path)]) == 2


def test_missing_input_is_usage_error(tmp_path):
    assert main(["panel", "-o", str(tmp_path)]) == 2


def test_panel_artifact(trained_dir):
    assert main(["panel", "-o", str(trained_dir)]) == 0
    lines = (trained_dir / "panel.csv").read_text().splitlines()
    assert lines[0] == "asset_id,vehicle_type,unit,week,operational_weeks,weeks_since_last_visit,utilization,repair_flag"
    assert len(lines) == 18 * 60 + 1


def test_simulate_writes_trace_and_summary(trained_dir):
    assert main(["simulate", "-o", str(trained_dir)]) == 0
    trace = (trained_dir / "policy_trace.csv").read_text().splitlines()
    assert trace[0].startswith("week,chosen_asset,score,")
    assert len(trace) > 1
    summary = json.loads((trained_dir / "policy_summary.json").read_text())
    assert set(summary) == {"proactive", "random"}
    for arm in summary.values():
        assert arm["n_weeks"] == len(trace) - 1
    assert (trained_dir / "policy_hist_proactive.csv").exists()
    assert (trained_dir / "policy_hist_random.csv").exists()


def test_ablate_writes_table(trained_dir):
    assert main(["ablate", "-o", str(trained_dir)]) == 0
    lines = (trained_dir / "ablation.csv").read_text().splitlines()
    assert lines[0] == "features,mean_pred_true,mean_pred_false,ratio"
    assert len(lines) == 7  # six default subsets
    assert lines[-1].startswith("operational_weeks,")


def test_ablate_without_subsets_writes_the_header_only(trained_dir, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"ablation_subsets": []}))
    out = tmp_path / "out"
    assert main(["ablate", "--config", str(config), "-o", str(out), "--input", str(trained_dir / "subworkorders.csv")]) == 0
    assert (out / "ablation.csv").read_text() == "features,mean_pred_true,mean_pred_false,ratio\n"


def test_mel_needs_specs(trained_dir):
    assert main(["mel", "-o", str(trained_dir)]) == 2


def test_mel_computes_risk(trained_dir):
    assert main(["mel", "-o", str(trained_dir), "--mel", "truck=2"]) == 0
    payload = json.loads((trained_dir / "mel_risk.json").read_text())
    (spec,) = payload["specs"]
    assert spec["vehicle_type"] == "truck"
    assert spec["mel"] == 2
    assert spec["assigned"] == 6  # 18 vehicles over three types
    assert 0.0 <= spec["risk"] <= 1.0


def test_mel_unknown_type_is_data_error(trained_dir):
    assert main(["mel", "-o", str(trained_dir), "--mel", "zeppelin=1"]) == 1


def test_mel_bad_flag_format(trained_dir):
    assert main(["mel", "-o", str(trained_dir), "--mel", "truck"]) == 2
    assert main(["mel", "-o", str(trained_dir), "--mel", "truck=two"]) == 2


def test_report_produces_full_artifact_set(tmp_path):
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    assert main(["report", "-o", str(tmp_path)]) == 0
    expected = [
        "labor_hours.csv",
        "model.json",
        "eval_report.json",
        "histogram_true.csv",
        "histogram_false.csv",
        "ablation.csv",
        "policy_trace.csv",
        "policy_hist_proactive.csv",
        "policy_hist_random.csv",
        "policy_summary.json",
        "manifest.json",
    ]
    for name in expected:
        assert (tmp_path / name).exists(), name
    labor = (tmp_path / "labor_hours.csv").read_text().splitlines()
    assert labor[0] == "asset_id,week,labor_hours"
    assert len(labor) > 1


def test_labor_hours_keep_an_asset_id_with_a_comma(tmp_path):
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    with open(tmp_path / "subworkorders.csv", newline="") as stream:
        rows = list(csv.reader(stream))
    column = rows[0].index("Asset Id")
    renamed = "AF13,00000"
    for row in rows[1:]:
        row[column] = row[column].replace("AF1300000", renamed)
    source = tmp_path / "renamed.csv"
    with open(source, "w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)
    out = tmp_path / "out"
    assert main(["report", "-o", str(out), "--input", str(source)]) == 0
    with open(out / "labor_hours.csv", newline="") as stream:
        labor = list(csv.reader(stream))
    assert all(len(row) == 3 for row in labor)
    assert renamed in {row[0] for row in labor[1:]}


def test_labor_hours_add_each_vehicle_week_in_record_order(tmp_path):
    """labor_hours.csv against a per-record dict sum: blank and -0 labor, and
    approvals before --start-date (negative weeks) and after --end-week."""
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    with open(tmp_path / "subworkorders.csv", newline="") as stream:
        rows = list(csv.reader(stream))
    header, first = rows[0], rows[1]
    at = {name: header.index(name) for name in ("Work Order ID", "Approval Dt", "Closed Dt", "Labor Hours")}
    for n, (approval, labor) in enumerate([("2015-01-05", "0.1"), ("2015-01-06", ""), ("2015-01-07", "-0"),
                                           ("2015-06-01", "0.2"), ("2015-06-02", "0.3"), ("2015-06-03", "0.1")]):
        extra = list(first)
        extra[at["Work Order ID"]], extra[at["Approval Dt"]], extra[at["Closed Dt"]] = f"X{n}", approval, ""
        extra[at["Labor Hours"]] = labor
        rows.append(extra)
    source = tmp_path / "edited.csv"
    with open(source, "w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)
    out = tmp_path / "out"
    assert main(["report", "-o", str(out), "--input", str(source), "--start-date", "2015-01-19", "--end-week", "40"]) == 0

    records, errors = parse_records(source.read_bytes())
    assert errors == []
    totals = {}
    for r in records:
        key = (r.asset_id, week_index(r.approval_date, date(2015, 1, 19)))
        totals[key] = totals.get(key, 0.0) + (r.labor_hours or 0.0)
    assert min(week for _, week in totals) < 0 and max(week for _, week in totals) > 40
    with open(out / "labor_hours.csv", newline="") as stream:
        written = list(csv.reader(stream))
    assert written == [["asset_id", "week", "labor_hours"], *([a, str(w), repr(h)] for (a, w), h in sorted(totals.items()))]


def test_ingest_splits_good_and_bad_rows(tmp_path):
    src = tmp_path / "raw.csv"
    header = (
        "Work Order ID,Sub Work Order Id,Approval Dt,Asset Id,Closed Dt,Item Desc,"
        "Asset LIN/TAMCN,Equipment Pool,Maint Team Name,Estbd Dt/Time,Work Plan Type CD"
    )
    good = "W1,S1,1/6/2020,AF150001,1/7/2020,desc,truck,82 LRS,alpha,1/6/2020 8:00,UM"
    bad = "W2,S1,not-a-date,AF150002,1/7/2020,desc,truck,82 LRS,alpha,1/6/2020 8:00,UM"
    src.write_text(header + "\n" + good + "\n" + bad + "\n")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(src), "-o", str(out)]) == 0
    records = (out / "records.csv").read_text().splitlines()
    errors = (out / "row_errors.csv").read_text().splitlines()
    assert len(records) == 2  # header + the good row
    assert errors[0] == "line,field,reason"
    assert errors[1].startswith("3,Approval Dt,")


def test_bad_utilization_sidecar_is_data_error(tmp_path):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    (tmp_path / "utilization.csv").write_text("asset_id,week,cumulative_units\nA,0,5\nA,1,4\n")
    assert main(["panel", "-o", str(tmp_path)]) == 1


def test_duplicate_utilization_reading_is_data_error(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20", "--seed", "7"]) == 0
    sidecar = tmp_path / "utilization.csv"
    assert sidecar.read_text().splitlines()[1].startswith("AF1300000,0,")
    sidecar.write_text(sidecar.read_text() + "AF1300000,0,0.5\n")
    capsys.readouterr()
    assert main(["panel", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: bad utilization sidecar: duplicate utilization for AF1300000 at week 0"
    ]
    assert not (tmp_path / "panel.csv").exists()


def test_short_utilization_row_is_data_error(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "4", "--n-weeks", "10"]) == 0
    sidecar = tmp_path / "utilization.csv"
    sidecar.write_text(sidecar.read_text() + "AF1300000,11\n")
    capsys.readouterr()
    assert main(["panel", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: bad utilization sidecar: could not convert string to float: ''"
    ]


@pytest.mark.parametrize("power", [60, 62])
def test_sidecar_weeks_far_apart_leave_the_panel_as_it_is(tmp_path, power):
    """Two more readings, at weeks -2**power and 2**power, of a seed-3 20x60
    fleet's first vehicle: at 2**60 most panel rows used to read 0.0, and at
    2**62 the panel build ended in an OverflowError traceback."""
    assert main(["synth", "-o", str(tmp_path), "--seed", "3", "--n-vehicles", "20", "--n-weeks", "60"]) == 0
    assert main(["panel", "-o", str(tmp_path)]) == 0
    before = (tmp_path / "panel.csv").read_bytes()
    sidecar = tmp_path / "utilization.csv"
    first = sidecar.read_text().splitlines()[1].split(",")[0]
    sidecar.write_text(sidecar.read_text() + f"{first},{-2**power},0.0\n{first},{2**power},1e9\n")
    assert main(["panel", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "panel.csv").read_bytes() == before


def test_header_only_sidecar_leaves_every_vehicle_on_the_default_rate(tmp_path):
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    sidecar = tmp_path / "utilization.csv"
    sidecar.unlink()
    assert main(["panel", "-o", str(tmp_path)]) == 0
    without = (tmp_path / "panel.csv").read_bytes()
    sidecar.write_text("asset_id,week,cumulative_units\n")
    assert main(["panel", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "panel.csv").read_bytes() == without


def test_a_panel_above_the_row_bound_is_one_data_error_line(tmp_path, capsys, monkeypatch):
    """A panel of more rows than `MAX_PANEL_ROWS` is refused before its rows
    are allocated, with its row count and week span; a bound one row below a
    small fleet's panel stands in for the 249,981,600 rows that one work
    order dated 9999-12-20 asks of a 600x156 fleet."""
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    assert main(["panel", "-o", str(tmp_path)]) == 0
    weeks = [int(row["week"]) for row in csv.DictReader(io.StringIO((tmp_path / "panel.csv").read_text()))]
    monkeypatch.setattr(panel, "MAX_PANEL_ROWS", len(weeks))
    assert main(["panel", "-o", str(tmp_path)]) == 0
    monkeypatch.setattr(panel, "MAX_PANEL_ROWS", len(weeks) - 1)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    for command in ("panel", "report"):
        assert main([command, "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: a panel of {len(weeks):,} rows over weeks {min(weeks)} to {max(weeks)}"
            f" is more than the {len(weeks) - 1:,} rows a panel may hold"
        ]
    assert _snapshot(tmp_path) == before


def test_manifest_records_the_kind_of_the_loaded_model(tmp_path):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "8", "--n-weeks", "30"]) == 0
    assert main(["train", "-o", str(tmp_path), "--model", "forest", "--n-estimators", "2"]) == 0
    assert "saved_model_kind" not in json.loads((tmp_path / "manifest.json").read_text())
    for argv in (["eval"], ["eval", "--model", "gbt"], ["simulate"], ["mel", "--mel", "truck=1"]):
        assert main([*argv, "-o", str(tmp_path)]) == 0, argv
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["saved_model_kind"] == "forest", argv


def test_eval_on_a_forest_with_no_trees_is_data_error(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "8", "--n-weeks", "30"]) == 0
    assert main(["train", "-o", str(tmp_path), "--model", "forest", "--n-estimators", "2"]) == 0
    model_json = tmp_path / "model.json"
    model_json.write_text(json.dumps({**json.loads(model_json.read_text()), "trees": []}))
    capsys.readouterr()
    assert main(["eval", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: malformed model payload: a forest averages its trees, so it needs at least one"
    ]
    assert not (tmp_path / "eval_report.json").exists()


@pytest.mark.parametrize("init_score", [1e308, 40.0, -1e308])
def test_eval_on_a_gbt_whose_initial_score_is_no_prevalence_logit_is_data_error(tmp_path, capsys, init_score):
    """A saved GBT starts from the logit of a prevalence strictly between 0
    and 1. One that saturates the sigmoid (every score alike, or a zero
    mean over the false rows) is refused at load, and nothing is written."""
    assert main(["synth", "-o", str(tmp_path), "--seed", "7", "--n-vehicles", "30", "--n-weeks", "80"]) == 0
    assert main(["train", "-o", str(tmp_path), "--model", "gbt", "--n-estimators", "10", "--seed", "7"]) == 0
    model_json = tmp_path / "model.json"
    model_json.write_text(json.dumps({**json.loads(model_json.read_text()), "init_score": init_score}))
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["eval", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: malformed model payload: init_score must be the logit of a prevalence strictly between 0 and 1"
    ]
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "column, edit, message",
    [
        ("utilization", {"name": "bogus"}, "error: column 'bogus' of kind 'numeric' is not a panel feature"),
        ("utilization", {"kind": "weird"}, "error: malformed model payload: column 22 has kind 'weird', not numeric or onehot"),
        ("unit=<unknown>", {"level": "zzz"}, "error: one-hot group 'unit' has no '<unknown>' column"),
        ("unit=<unknown>", {"group": []}, "error: malformed model payload: column 19 needs a string name and kind,"
                                          " and a string or null group and level"),
        ("utilization", {"name": {}}, "error: malformed model payload: column 22 needs a string name and kind,"
                                      " and a string or null group and level"),
        ("unit=82 LRS", {"level": None}, "error: malformed model payload: one-hot column 17 needs a string group and level"),
        ("unit=83 LRS", {"level": "82 LRS"}, "error: malformed model payload: column 18 repeats the column for ('unit', '82 LRS')"),
    ],
    ids=["name", "kind", "unknown-level", "list-group", "object-name", "null-level", "repeated-level"],
)
def test_eval_on_a_model_with_an_unknown_column_is_data_error(tmp_path, capsys, column, edit, message):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "12", "--n-weeks", "40"]) == 0
    assert main(["train", "-o", str(tmp_path), "--model", "forest", "--n-estimators", "2"]) == 0
    model_json = tmp_path / "model.json"
    payload = json.loads(model_json.read_text())
    (target,) = [c for c in payload["columns"] if c["name"] == column]
    target.update(edit)
    model_json.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "eval_report.json").exists()


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A seed-7 20x60 fleet, and per model kind the payload of its saved
    model (five trees or rounds of depth 3, so test rows reach every node)
    and the eval artifacts it gives."""
    fleet = tmp_path_factory.mktemp("saved")
    assert main(["synth", "-o", str(fleet), "--seed", "7", "--n-vehicles", "20", "--n-weeks", "60"]) == 0
    saved = {}
    for kind in MODELS:
        out = fleet / kind
        trees = ["--n-estimators", "5", "--max-depth", "3"] if kind != "logistic" else []
        assert main(["train", "-o", str(out), "--seed", "7", "--model", kind, *trees,
                     "--input", str(fleet / "subworkorders.csv")]) == 0
        payload = json.loads((out / "model.json").read_text())
        code, err, artifacts = eval_saved(fleet, payload)
        assert code == 0, err
        saved[kind] = payload, artifacts
    return fleet, saved


def eval_saved(fleet: Path, payload) -> tuple[int, list[str], dict]:
    """`eval` of a model.json holding `payload`, in a directory of its own:
    the exit code, the stderr lines, and each file it wrote by name, with
    its bytes (None for the manifest, which holds a time and paths)."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()) as err:
        (Path(out) / "model.json").write_text(json.dumps(payload))
        code = main(["eval", "-o", out, "--seed", "7", "--input", str(fleet / "subworkorders.csv"),
                     "--utilization", str(fleet / "utilization.csv")])
        written = {p.name: None if p.name == "manifest.json" else p.read_bytes()
                   for p in Path(out).iterdir() if p.name != "model.json"}
    return code, err.getvalue().splitlines(), written


def json_nodes(value, path=()):
    """(path, value) of a JSON value and of each value inside it, depth first."""
    yield path, value
    for key, inner in value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ():
        yield from json_nodes(inner, (*path, key))


def json_type(value) -> str:
    if isinstance(value, (dict, list)):
        return "container"
    return {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string"}[type(value)]


FUZZ = [None, True, False, 0.5, -1, "x", "0.1", [], {}, [0], [[0]]]


@settings(max_examples=40, deadline=None)
@given(
    delete=st.booleans(),
    leaf_type=st.sampled_from(["number", "string", "null"]),
    at=st.integers(0, 10**6),
    edit=st.sampled_from(FUZZ),
)
# the model's last number (the intercept, or the last tree's last leaf value) read from a string or a boolean
@example(delete=False, leaf_type="number", at=-1, edit="0.1")
@example(delete=False, leaf_type="number", at=-1, edit=True)
@pytest.mark.parametrize("kind", list(MODELS))
def test_a_saved_model_with_one_value_of_another_json_type_or_one_key_less_scores_as_before_or_is_refused(
    saved_models, kind, delete, leaf_type, at, edit
):
    """A saved model with one scalar replaced by a value of another JSON
    type (a number by a string or boolean, say), or with one key deleted:
    eval either writes the unmutated model's artifacts, or exits 1 with one
    error line and writes nothing. The scalar is drawn by its type first,
    so the many column strings do not crowd out the numbers. A number read
    from a string or a boolean used to load as another model."""
    fleet, saved = saved_models
    payload, want = saved[kind]
    payload = json.loads(json.dumps(payload))
    nodes = list(json_nodes(payload))[1:]
    if delete:
        keys = [path for path, _ in nodes if isinstance(path[-1], str)]
    else:
        keys = [path for path, value in nodes if json_type(value) == leaf_type]
    path = keys[at % len(keys)]
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        assume(json_type(edit) != leaf_type)
        parent[path[-1]] = edit
    code, err, written = eval_saved(fleet, payload)
    if code == 0:
        assert written == want, (path, delete, edit)
    else:
        assert code == 1 and len(err) == 1 and err[0].startswith("error: ") and written == {}, (path, delete, edit, err)


def preorder(tree: dict) -> dict:
    """A saved tree renumbered as forests were numbered before they kept
    their growth order: each split node, in preorder, gives its children
    the next two ids."""
    new, stack = {0: 0}, [0]
    while stack:
        node = stack.pop()
        if tree["feature"][node] >= 0:
            left, right = tree["left"][node], tree["right"][node]
            new[left], new[right] = len(new), len(new) + 1
            stack += [right, left]
    old = sorted(new, key=new.get)
    renumbered = {name: [values[i] for i in old] for name, values in tree.items()}
    for name in ("left", "right"):
        renumbered[name] = [new.get(child, -1) for child in renumbered[name]]
    return renumbered


@pytest.mark.parametrize(
    "kind, layout", [("logistic", "growth"), ("gbt", "growth"), ("forest", "growth"), ("forest", "preorder")]
)
@pytest.mark.parametrize("standardized", [True, False, "x", "absent"])
def test_an_older_model_file_scores_as_before(saved_models, kind, layout, standardized):
    """A model file of format version 1 from before saved models kept their
    growth order and lost the `standardized` flag loads and gives the same
    eval artifacts, whatever that flag holds: forest trees numbered in
    preorder, and any value of the flag, or none."""
    fleet, saved = saved_models
    payload, want = saved[kind]
    older = dict(payload) if standardized == "absent" else {**payload, "standardized": standardized}
    if layout == "preorder":
        older["trees"] = [preorder(tree) for tree in payload["trees"]]
        assert older["trees"] != payload["trees"]
    assert eval_saved(fleet, older) == (0, [], want)


def test_an_ablation_subset_that_scores_zero_on_every_false_row_has_no_ratio(tmp_path, capsys):
    """Seed 0's three-tree forest on operational_weeks alone scores 0 on
    every false test row of a 12x40 fleet. Ablate and report write that
    subset's means and an empty ratio, where one such subset used to end
    the run; eval, tune and report of such a model stay data errors."""
    assert main(["synth", "-o", str(tmp_path), "--seed", "0", "--n-vehicles", "12", "--n-weeks", "40"]) == 0
    forest = ["--seed", "0", "--model", "forest", "--n-estimators", "3", "--input", str(tmp_path / "subworkorders.csv")]
    for command in ("ablate", "report"):
        assert main([command, "-o", str(tmp_path / command), *forest]) == 0
        rows = list(csv.reader(io.StringIO((tmp_path / command / "ablation.csv").read_text())))
        assert rows[-1] == ["operational_weeks", "0.0", "0.0", ""]
        assert all(float(row[3]) > 0 for row in rows[1:-1])
    config = tmp_path / "tune.json"
    config.write_text(json.dumps({"tune_grid": {"max_depth": [12]}}))
    alone = [*forest, "--features", "operational_weeks"]
    assert main(["train", "-o", str(tmp_path / "eval"), *alone]) == 0
    capsys.readouterr()
    for argv in (["eval"], ["tune", "--config", str(config)], ["report"]):
        out = tmp_path / argv[0]
        before = _snapshot(out) if out.exists() else None
        assert main([argv[0], "-o", str(out), *argv[1:], *alone]) == 1, argv
        assert capsys.readouterr().err.splitlines() == ["error: mean prediction over false rows is zero"]
        assert (_snapshot(out) if out.exists() else None) == before


@pytest.mark.parametrize("name, what", [("subworkorders.csv", "input CSV"), ("utilization.csv", "utilization sidecar")])
def test_a_stray_carriage_return_is_one_data_error_line(tmp_path, capsys, name, what):
    """csv.reader refuses a lone \r inside an unquoted cell; either reader
    reports it as bad input, where the export's was a csv.Error traceback."""
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    source = tmp_path / name
    lines = source.read_text().splitlines()
    lines[1] = lines[1].replace(",", ",x\ry", 1)
    source.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["panel", "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad {what}: ")
    assert not (tmp_path / "panel.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_utilization_sidecar_is_data_error(tmp_path, capsys, bad):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    sidecar = tmp_path / "utilization.csv"
    lines = sidecar.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + bad
    sidecar.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "-o", str(tmp_path), "--model", "forest", "--n-estimators", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad utilization sidecar: non-finite")
    assert not (tmp_path / "model.json").exists()


def test_config_file_with_flag_overrides(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n_vehicles": 10, "n_weeks": 30, "seed": 3}))
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "-o", str(out), "--n-vehicles", "8"]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert len(truth["vehicles"]) == 8   # flag beats file
    assert truth["n_weeks"] == 30        # file beats default
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_vehicles"] == 8
    assert str(config) in manifest["inputs"]


def test_unknown_config_key_is_usage_error(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n_vehicle": 10}))
    assert main(["synth", "--config", str(config), "-o", str(tmp_path / "out")]) == 2


def test_malformed_config_file_is_usage_error(tmp_path):
    config = tmp_path / "run.json"
    config.write_text("{broken")
    assert main(["synth", "--config", str(config), "-o", str(tmp_path / "out")]) == 2
    assert main(["synth", "--config", str(tmp_path / "nope.json"), "-o", str(tmp_path / "out")]) == 2


def test_bad_flag_values_are_usage_errors(tmp_path):
    assert main(["train", "--model", "svm", "-o", str(tmp_path)]) == 2       # argparse choices
    assert main(["train", "--test-fraction", "1.5", "-o", str(tmp_path)]) == 2
    assert main(["panel", "--start-date", "Jan 1", "-o", str(tmp_path)]) == 2


def test_unknown_feature_name_is_usage_error(tmp_path, capsys):
    assert main(["train", "--features", "odometer", "-o", str(tmp_path)]) == 2
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"features": "vehicle_type"}))  # a string, not a list of names
    capsys.readouterr()
    assert main(["train", "--config", str(config), "-o", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: features must be a list of feature names\n"


def test_tune_grid_search(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tune_grid": {"l2_lambda": [0.0001, 1.0]}}))
    out = tmp_path / "out"
    assert main(["synth", "-o", str(out), *SMALL]) == 0
    assert main(["tune", "--config", str(config), "-o", str(out)]) == 0
    lines = (out / "tune_results.csv").read_text().splitlines()
    assert lines[0] == "params,ratio,mean_pred_true,mean_pred_false"
    assert len(lines) == 3
    best = json.loads((out / "tune_best.json").read_text())
    assert best["params"] in ({"l2_lambda": 0.0001}, {"l2_lambda": 1.0})
    ratios = [float(line.rsplit(",", 3)[1]) for line in lines[1:]]
    assert best["ratio"] == pytest.approx(max(ratios))


def test_exclude_scheduled_flag_changes_panel(tmp_path):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "30"]) == 0
    assert main(["panel", "-o", str(tmp_path), "--include-scheduled"]) == 0
    with_prev = (tmp_path / "panel.csv").read_text()
    assert main(["panel", "-o", str(tmp_path), "--exclude-scheduled"]) == 0
    without = (tmp_path / "panel.csv").read_text()
    count = lambda text: sum(1 for line in text.splitlines()[1:] if line.endswith(",1"))
    assert count(with_prev) > count(without)


def _single_error_line(capsys) -> bool:
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["train", "--bogus"], ["train", "--seed", "x"], ["train", "--model", "svm"], []],
    ids=["unknown-flag", "bad-int", "bad-choice", "no-command"],
)
def test_a_flag_argparse_rejects_is_one_error_line(tmp_path, capsys, argv):
    assert main([*argv, "-o", str(tmp_path)] if argv else argv) == 2
    assert _single_error_line(capsys)
    assert not any(tmp_path.iterdir())


def test_help_still_prints_usage(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: fleetrisk train") and out.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--start-date", "notadate"],
        ["train", "--model", "forest", "--n-estimators", "0"],
        ["train", "--model", "forest", "--max-features", "0"],
        ["train", "--model", "forest", "--min-leaf", "0"],
        ["train", "--model", "forest", "--max-depth", "0"],
        ["train", "--model", "gbt", "--learning-rate", "2"],
        ["train", "--model", "gbt", "--min-leaf", "0"],
        ["train", "--model", "gbt", "--max-depth", "0"],
        ["train", "--l2-lambda", "-1"],
        ["tune", "--config", {"tune_grid": {"l2_lambda": [0.0001, -1.0]}}],
        ["mel", "--mel", "truck=-1"],
        ["mel", "--mel", "truck=99"],
        ["train", "--model", "gbt", "--max-features", "1"],
        ["train", "--model", "forest", "--learning-rate", "0.5"],
        ["train", "--min-leaf", "3"],
        ["train", "--model", "forest", "--solver", "newton"],
        ["tune", "--config", {"tune_grid": {"min_leaf": [1, 5]}}],
        ["mel", "--config", {"mel_specs": [{"vehicle_type": "truck", "mel": 1, "assigned": "x"}]}],
        ["tune", "--config", {"tune_grid": {"l2_lambda": 0.1}}],
        ["train", "--config", {"features": 7}],
        ["ablate", "--config", {"ablation_subsets": [["operational_weeks"], 7]}],
        ["mel", "--config", {"mel_specs": 5}],
        ["train", "--config", {"test_fraction": "x"}],
        ["synth", "--config", {"n_vehicles": "ten"}],
        ["synth", "--config", {"n_weeks": 30.5}],
        ["synth", "--config", {"vehicle_types": [5]}],
        ["train", "--config", {"units": "abc"}],
        ["train", "--config", {"gap_cap": "x"}],
        ["train", "--config", {"seed": "x"}],
        ["train", "--config", {"include_scheduled": "no"}],
        ["train", "--config", {"gap_cap": None}],
        ["train", "--config", {"n_vehicles": True}],
        ["synth", "--n-vehicles", "0"],
        ["synth", "--n-weeks", "1"],
        ["synth", "--config", {"vehicle_types": [["bus", 0, 30.0]]}],
        ["tune", "--config", {"tune_grid": {"max_iters": [2.5]}}],
        ["tune", "--config", {"tune_grid": {"tol": [True]}}],
        ["synth", "--beta0", "nan"],
        ["synth", "--beta-gap", "inf"],
        ["train", "--gap-cap", "-1"],
        ["train", "--gap-cap", "0"],
        ["mel", "--config", {"mel_specs": [{"vehicle_type": "truck", "mel": 1, "asigned": 3}]}],
        ["ablate", "--config", {"ablation_subsets": [[]]}],
        ["report", "--config", {"ablation_subsets": [["operational_weeks"], []]}],
        ["train", "--l2-lambda", "nan"],
        ["train", "--l2-lambda", "inf"],
        ["train", "--tol", "inf"],
        ["train", "--tol", "nan"],
        ["train", "--tol", "-1"],
        ["train", "--max-iters", "-5"],
        ["tune", "--config", {"tune_grid": {"max_iters": [5, -1]}}],
        ["train", "--max-iters", "0"],
        ["tune", "--config", {"tune_grid": {"max_iters": [0, 5]}}],
        ["train", "--model", "gbt", "--n-estimators", "0"],
        ["tune", "--config", {"model": "gbt", "tune_grid": {"n_estimators": [0, 3]}}],
    ],
    ids=[
        "start-date", "forest-n-estimators", "forest-max-features", "forest-min-leaf", "forest-max-depth",
        "gbt-learning-rate", "gbt-min-leaf", "gbt-max-depth", "l2-lambda", "tune-grid", "mel-negative",
        "mel-above-assigned", "gbt-max-features", "forest-learning-rate", "logistic-min-leaf", "forest-solver",
        "logistic-tune-grid-min-leaf", "mel-assigned-not-int", "tune-grid-not-list", "features-not-list",
        "ablation-subset-not-list", "mel-specs-not-list", "test-fraction-str", "n-vehicles-str", "n-weeks-float",
        "vehicle-types-entry-not-list", "units-str", "gap-cap-str", "seed-str", "include-scheduled-str",
        "gap-cap-null", "n-vehicles-bool", "synth-n-vehicles-0", "synth-n-weeks-1", "synth-hazard-multiplier-0",
        "tune-grid-float-for-int", "tune-grid-bool-for-float", "synth-beta0-nan", "synth-beta-gap-inf",
        "gap-cap-negative", "gap-cap-0", "mel-specs-unknown-key", "ablation-subset-empty", "report-ablation-subset-empty",
        "l2-lambda-nan", "l2-lambda-inf", "tol-inf", "tol-nan", "tol-negative", "max-iters-negative",
        "tune-grid-max-iters-negative", "max-iters-0", "tune-grid-max-iters-0", "gbt-n-estimators-0",
        "tune-grid-gbt-n-estimators-0",
    ],
)
def test_bad_values_reaching_the_pipeline_are_usage_errors(trained_dir, tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):  # a --config payload
        config = tmp_path / "run.json"
        config.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(config)]
    capsys.readouterr()
    assert main([*argv, "-o", str(trained_dir)]) == 2
    assert _single_error_line(capsys)


def test_a_mel_spec_key_it_does_not_take_is_named(tmp_path):
    with pytest.raises(UsageError, match="unknown mel_specs keys: asigned"):
        build_run_config({"mel_specs": [{"vehicle_type": "truck", "mel": 1, "asigned": 3}]}, {})


@pytest.mark.parametrize(
    "build",
    [
        lambda: LogisticHyper(l2_lambda=-1.0),
        lambda: ForestHyper(n_estimators=0),
        lambda: GbtHyper(learning_rate=2.0),
        lambda: check_tree_size(max_depth=0, min_leaf=5),
        lambda: PanelOptions(default_weekly_rate=-1.0),
        lambda: RandomRowSplit(test_fraction=1.5),
        lambda: ChronologicalSplit(test_fraction=0.0),
        lambda: MelSpec("truck", mel=-1, assigned=3),
        lambda: replace(fleet_config(RunConfig()), n_weeks=1),
        lambda: FeatureSpec.of(["odometer"]),
    ],
    ids=["logistic", "forest", "gbt", "tree-size", "panel", "random-split", "chronological-split", "mel", "fleet",
         "features"],
)
def test_every_refused_setting_is_one_error_type(build):
    """A usage error to the CLI, which exits 2 on it, and a ValueError to a library caller."""
    with pytest.raises(InvalidConfigError) as caught:
        build()
    assert isinstance(caught.value, UsageError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "--start-date", "notadate"], "start_date is not an ISO date: 'notadate'"),
        (["synth", "--start-date", "notadate"], "start_date is not an ISO date: 'notadate'"),
        (["train", "--test-fraction", "1.5"], "test_fraction must be in (0, 1)"),
        (["panel", "--gap-cap", "0"], "gap_cap must be >= 1, got 0"),
        (["train", "--gap-cap", "100000000000000000000"],
         "gap_cap must be <= 521722, the most weeks two dates lie apart, got 100000000000000000000"),
        (["train", "--end-week", "4611686018427387904"],
         "end_week must be <= 521722, the most weeks two dates lie apart, got 4611686018427387904"),
        (["train", "--end-week", "2000000000"], "end_week must be <= 521722, the most weeks two dates lie apart, got 2000000000"),
        (["train", "--end-week", "99999999999999999999"],
         "end_week must be <= 521722, the most weeks two dates lie apart, got 99999999999999999999"),
        (["train", {"default_weekly_rate": -1}], "default_weekly_rate must be in [0, 168] hours a week, got -1"),
        (["mel", {"mel_specs": [{"vehicle_type": "truck", "mel": 3, "assigned": 2}]}], "assigned for 'truck' must be >= mel"),
        (["mel"], "mel requires mel_specs in the config or --mel TYPE=COUNT flags"),
    ],
    ids=["report-start-date", "synth-start-date", "test-fraction", "gap-cap", "gap-cap-past-int64", "end-week-2**62",
         "end-week-2e9", "end-week-past-int64", "default-weekly-rate", "mel-assigned-below-mel", "mel-no-specs"],
)
def test_a_refused_setting_is_named_before_any_input_is_read(tmp_path, capsys, argv, message):
    """The input named is missing and the output directory does not exist:
    the setting is what the one error line names, and no directory is made."""
    if isinstance(argv[-1], dict):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], "--config", str(config)]
    out = tmp_path / "out"
    assert main([*argv, "--input", str(tmp_path / "missing.csv"), "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_a_negative_mel_count_is_refused_before_the_model_or_input_is_read(trained_dir, tmp_path, capsys):
    before = {p.name: p.stat().st_mtime_ns for p in trained_dir.iterdir()}
    capsys.readouterr()
    assert main(["mel", "--mel", "truck=-1", "--input", str(tmp_path / "missing.csv"), "-o", str(trained_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: mel for 'truck' must be >= 0"]
    assert {p.name: p.stat().st_mtime_ns for p in trained_dir.iterdir()} == before


def test_hyperparameters_are_declared_once(tmp_path):
    """Every Hyper field but a forest's derived seed is a config key that
    defaults to None and a CLI flag, and a manifest records it as null."""
    hyper_keys = {f.name for _, hyper, _ in MODELS.values() for f in fields(hyper)} - {"seed"}
    none_keys = {f.name for f in fields(RunConfig) if f.default is None}
    assert none_keys - hyper_keys == {"input_csv", "utilization_csv", "start_date", "end_week"}
    assert hyper_keys <= none_keys
    assert hyper_keys <= set(vars(build_parser().parse_args(["train"])))
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "10", "--n-weeks", "30"]) == 0
    assert main(["train", "-o", str(tmp_path)]) == 0
    recorded = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert {key: recorded[key] for key in hyper_keys} == dict.fromkeys(hyper_keys)


# Per config key, values it must refuse: a wrong type, or a right type out of range.
INVALID_CONFIG_VALUES = {
    "test_fraction": ["x", 0, 1.5, None],
    "n_vehicles": ["ten", 0, 2.5, True],
    "n_weeks": [30.5, 1, "x"],
    "vehicle_types": [
        [5], "bus", [["bus", 1.0]], [["bus", 0, 1.0]], [[7, 1.0, 1.0]],
        [["bus", float("nan"), 30.0]], [["bus", 1.0, float("inf")]],
    ],
    "units": ["abc", [], [1]],
    "gap_cap": ["x", None, 2.5, -1, 0, 521_723, 10**20],
    "default_weekly_rate": [-1, float("nan"), float("inf"), 1e308],
    "seed": ["x", 1.5],
    "beta0": [float("nan"), float("inf")],
    "beta_age": [float("nan"), float("inf")],
    "beta_gap": [float("nan"), float("inf")],
    "beta_util": [float("nan"), float("inf")],
    "include_scheduled": ["no", 1],
    "start_date": [5, "notadate"],
    "end_week": ["x", 2.5, 521_723, 2**62, 2_000_000_000, 10**20],
    "model": ["svm", 3],
    "split": ["weekly", None],
    "features": ["vehicle_type", [], ["odometer"], [3]],
    "ablation_subsets": [[["odometer"]], [7], "x", [[]]],
    "l2_lambda": [-1, "x", float("nan"), float("inf")],
    "max_iters": [-5, 0],
    "tol": [float("nan"), float("inf"), -1],
    "solver": ["lbfgs", 1],
    "mel_specs": [
        5, [{"mel": 1}], ["truck"],
        [{"vehicle_type": "truck", "mel": 2.7}], [{"vehicle_type": "truck", "mel": True}],
        [{"vehicle_type": "truck", "mel": "2"}], [{"vehicle_type": "truck", "mel": 1, "assigned": 4.9}],
        [{"vehicle_type": 7, "mel": 1}], [{"vehicle_type": "truck", "mel": 1, "asigned": 3}],
        [{"vehicle_type": "truck", "mel": -1}],
    ],
    "tune_grid": [{"l2_lambda": []}, {"min_leaf": [1]}, {"l2_lambda": 0.1}, [], {"max_iters": [2.5]}, {"tol": [True]},
                  {"max_iters": [0, 5]}],
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(INVALID_CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(INVALID_CONFIG_VALUES[key]))
))
def test_an_invalid_config_value_is_one_clean_error(drawn):
    """synth then train under a small fleet config with one key made invalid:
    the first command to fail exits 1 or 2 with one error line, and one does."""
    key, value = drawn
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()) as err:
        config = Path(out) / "run.json"
        config.write_text(json.dumps({"n_vehicles": 6, "n_weeks": 20, key: value}))
        for command in ("synth", "train"):
            code = main([command, "--config", str(config), "-o", out])
            if code != 0:
                break
    assert code in (1, 2), (key, value)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (key, value, lines)


@pytest.mark.parametrize("rate", [-1, float("nan"), float("inf"), 1e308], ids=["negative", "nan", "inf", "huge"])
def test_a_default_weekly_rate_out_of_range_is_a_usage_error_naming_it(tmp_path, capsys, rate):
    """Without a sidecar every vehicle's utilization is its age times this
    rate: a negative one used to train on negative utilization, and a
    non-finite or overflowing one failed only at the fit, as a data error."""
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    (tmp_path / "utilization.csv").unlink()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"default_weekly_rate": rate}))
    capsys.readouterr()
    assert main(["train", "--config", str(config), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: default_weekly_rate must be in [0, 168]"), err
    assert not (tmp_path / "model.json").exists()


def test_a_default_weekly_rate_in_range_trains(tmp_path):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    (tmp_path / "utilization.csv").unlink()
    for rate in (0, 168):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"default_weekly_rate": rate}))
        assert main(["train", "--config", str(config), "-o", str(tmp_path)]) == 0


def test_split_with_an_empty_side_is_data_error(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "10", "--n-weeks", "30"]) == 0
    capsys.readouterr()
    assert main(["train", "-o", str(tmp_path), "--test-fraction", "0.99"]) == 1
    assert _single_error_line(capsys)
    assert not (tmp_path / "model.json").exists()


def test_report_writes_nothing_when_its_split_fails(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "10", "--n-weeks", "30"]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(["report", "-o", str(tmp_path), "--test-fraction", "0.99"]) == 1
    assert _single_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--model", "forest", "--min-leaf", "0"],
        ["report", "--n-estimators", "5"],
        ["train", "--model", "forest", "--min-leaf", "0"],
        ["ablate", "--n-estimators", "5"],
        ["tune", "--model", "forest", "--config", {"tune_grid": {"min_leaf": [1, 0]}}],
        ["eval", "--l2-lambda", "-1"],
        ["simulate", "--l2-lambda", "-1"],
        ["mel", "--mel", "truck=1", "--l2-lambda", "-1"],
        ["synth", "--model", "forest", "--min-leaf", "0"],
        ["eval", "--model", "forest", "--l2-lambda", "0.1"],
        ["train", "--n-vehicles", "0"],
        ["train", "--config", {"tune_grid": {"l2_lambda": [1.0, -1.0]}}],
    ],
    ids=["report-forest-min-leaf-0", "report-logistic-n-estimators", "train", "ablate", "tune-later-grid-point",
         "eval", "simulate", "mel", "synth-forest-min-leaf-0", "eval-forest-l2-lambda", "train-n-vehicles-0",
         "train-tune-grid-point"],
)
def test_a_bad_hyperparameter_stops_a_run_before_it_reads_input(tmp_path, capsys, argv):
    """One error line, no artifact beside the previous command's, and the
    same error when the input is missing too: the check comes first."""
    if isinstance(argv[-1], dict):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(config)]
    out = tmp_path / "out"
    assert main(["synth", "-o", str(out), "--n-vehicles", "10", "--n-weeks", "40"]) == 0
    if argv[0] in ("eval", "simulate", "mel"):  # with a saved model, only the setting can stop them
        assert main(["train", "-o", str(out)]) == 0
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == before
    assert main([*argv, "-o", str(out), "--input", str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["synth", "--config", "{dir}", "-o", "{fleet}"], 2, "{dir}"),
        (["synth", "--config", "{latin1}", "-o", "{fleet}"], 2, "config file is not valid JSON"),
        (["panel", "--input", "{dir}", "-o", "{fleet}"], 2, "{dir}"),
        (["panel", "--input", "{latin1}", "-o", "{fleet}"], 1, "bad input CSV"),
        (["panel", "--utilization", "{dir}", "-o", "{fleet}"], 2, "{dir}"),
        (["synth", "-o", "{file}"], 2, "{file}"),
        (["report", "--input", "{dir}", "-o", "{file}"], 2, "{file}"),
        (["eval", "-o", "{fleet}"], 2, "{fleet}/model.json"),
    ],
    ids=["config-dir", "config-not-utf8", "input-dir", "input-not-utf8", "utilization-dir", "out-is-a-file",
         "report-out-is-a-file-before-input", "model-is-a-dir"],
)
def test_an_unreadable_path_is_one_error_line_and_writes_nothing(tmp_path, capsys, argv, code, named):
    paths = {"fleet": tmp_path / "fleet", "dir": tmp_path / "dir", "latin1": tmp_path / "latin1", "file": tmp_path / "file"}
    assert main(["synth", "-o", str(paths["fleet"]), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    (paths["fleet"] / "model.json").mkdir()
    paths["dir"].mkdir()
    paths["latin1"].write_bytes("café".encode("latin-1"))
    paths["file"].write_text("")
    before = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named.format(**paths) in err[0]
    assert {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "argv",
    [["train", "--input", "{tmp}/missing.csv"], ["eval", "--input", "{tmp}/fleet/subworkorders.csv"]],
    ids=["train-input-missing", "eval-no-saved-model"],
)
def test_a_run_that_fails_before_its_first_artifact_makes_no_output_directory(tmp_path, capsys, argv):
    assert main(["synth", "-o", str(tmp_path / "fleet"), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    capsys.readouterr()
    assert main([*(arg.format(tmp=tmp_path) for arg in argv), "-o", str(tmp_path / "new" / "out")]) == 2
    assert _single_error_line(capsys)
    assert not (tmp_path / "new").exists()


def _count_calls(monkeypatch, module, name: str) -> list:
    """The arguments of each call to `module.name`, through every fleetrisk module that binds it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for loaded in [m for key, m in sys.modules.items() if key.split(".")[0] == "fleetrisk"]:
        for attr, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, attr, counted)
    return calls


def test_report_and_tune_encode_each_half_once(tmp_path, monkeypatch):
    """One fit-and-score sweep per run: a report encodes the train half once
    for its main fit and six ablation fits, and a two-point tune also
    transforms its test half once."""
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "10", "--n-weeks", "40"]) == 0
    encodes = _count_calls(monkeypatch, features, "encode")
    transforms = _count_calls(monkeypatch, features, "transform")
    fits = _count_calls(monkeypatch, models, "fit_model")
    assert main(["report", "-o", str(tmp_path)]) == 0
    assert (len(encodes), len(fits)) == (1, 7)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tune_grid": {"l2_lambda": [0.0001, 1.0]}}))
    for calls in (encodes, transforms, fits):
        calls.clear()
    assert main(["tune", "--config", str(config), "-o", str(tmp_path)]) == 0
    assert (len(encodes), len(transforms), len(fits)) == (1, 1, 2)


def _snapshot(directory: Path) -> dict:
    """Each entry's name, bytes (None for a directory) and mtime."""
    return {p.name: (p.read_bytes() if p.is_file() else None, p.stat().st_mtime_ns) for p in directory.iterdir()}


@pytest.mark.parametrize(
    "command, artifact", [("train", "model.json"), ("panel", "manifest.json"), ("report", "eval_report.json")]
)
def test_an_artifact_path_that_is_a_directory_is_one_error_line(tmp_path, capsys, command, artifact):
    """Refused before any artifact is written: the directory is left as it was."""
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    (tmp_path / artifact).unlink(missing_ok=True)
    (tmp_path / artifact).mkdir()
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main([command, "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / artifact) in err[0]
    assert _snapshot(tmp_path) == before


def test_a_run_that_fails_after_its_fits_writes_nothing(tmp_path, capsys, monkeypatch):
    """A report whose rollout fails has fitted and scored its model, yet
    leaves an existing directory as it was and makes no new one; so does a
    report whose commit runs out of disk after making the directories."""
    fleet = tmp_path / "fleet"
    assert main(["synth", "-o", str(fleet), "--n-vehicles", "6", "--n-weeks", "20"]) == 0
    before = _snapshot(fleet)

    def fail(*_args):
        raise FleetRiskError("rollout failed")

    monkeypatch.setattr(cli, "simulate_policy", fail)
    capsys.readouterr()
    assert main(["report", "-o", str(fleet)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: rollout failed"]
    assert _snapshot(fleet) == before
    assert main(["report", "--input", str(fleet / "subworkorders.csv"), "-o", str(tmp_path / "new" / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: rollout failed"]
    assert not (tmp_path / "new").exists()

    def full_disk(*_args):  # a writer that fails once commit has made the output directory
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "simulate_policy", simulate_policy)
    monkeypatch.setattr(cli, "write_eval_report", full_disk)
    for out in (fleet, tmp_path / "new" / "out"):
        assert main(["report", "--input", str(fleet / "subworkorders.csv"), "-o", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out / 'eval_report.json'}: No space left on device"]
    assert _snapshot(fleet) == before
    assert not (tmp_path / "new").exists()


def test_every_command_adds_only_the_outputs_its_manifest_lists(tmp_path):
    """No temporary file is left behind, and nothing unlisted appears."""
    commands = [["synth", *SMALL], ["ingest"], ["panel"], ["train"], ["eval"], ["ablate"], ["simulate"],
                ["mel", "--mel", "truck=1"], ["report"], ["tune"]]
    for argv in commands:
        before = {p.name for p in tmp_path.iterdir()}
        assert main([*argv, "-o", str(tmp_path)]) == 0
        outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert "manifest.json" not in outputs
        assert {p.name for p in tmp_path.iterdir()} == before | set(outputs) | {"manifest.json"}, argv[0]


def _writes_a_file(call: ast.Call) -> bool:
    """A call that makes a directory, writes a path's contents, or opens a file in any mode but reading."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in ("write_text", "write_bytes", "mkdir"):
        return True
    if name != "open":
        return False
    modes = [*(call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]),
             *(k.value for k in call.keywords if k.arg == "mode")]
    return any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+") for mode in modes)


def test_only_the_run_commit_writes_files():
    """One way to write an artifact: `cli._Run.commit` is the package's only
    call that opens a file for writing or makes a directory."""
    package = Path(cli.__file__).parent
    trees = {path.relative_to(package).as_posix(): ast.parse(path.read_text()) for path in package.rglob("*.py")}
    run = next(n for n in trees["cli.py"].body if isinstance(n, ast.ClassDef) and n.name == "_Run")
    commit = next(n for n in run.body if isinstance(n, ast.FunctionDef) and n.name == "commit")

    def writes(tree, where):
        return {(where, call.lineno) for call in ast.walk(tree) if isinstance(call, ast.Call) and _writes_a_file(call)}

    committed = writes(commit, "cli.py")
    assert len(committed) == 2  # the temporary file's open and the output directory's mkdir
    assert set().union(*(writes(tree, where) for where, tree in trees.items())) == committed


def test_mel_with_several_specs_writes_each_single_spec_risk(trained_dir):
    def specs(*flags):
        assert main(["mel", "-o", str(trained_dir), *flags]) == 0
        return json.loads((trained_dir / "mel_risk.json").read_text())["specs"]

    together = specs("--mel", "truck=2", "--mel", "bus=1")
    assert together == specs("--mel", "truck=2") + specs("--mel", "bus=1")
    assert [spec["vehicle_type"] for spec in together] == ["truck", "bus"]
