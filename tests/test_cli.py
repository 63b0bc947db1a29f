"""End-to-end runs of the command-line pipeline and its exit codes."""

import contextlib
import csv
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetrisk.cli import build_parser, main
from fleetrisk.config import RunConfig
from fleetrisk.models import MODELS

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
    assert payload["standardized"] is True
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


def test_header_only_sidecar_leaves_every_vehicle_on_the_default_rate(tmp_path):
    assert main(["synth", "-o", str(tmp_path), *SMALL]) == 0
    sidecar = tmp_path / "utilization.csv"
    sidecar.unlink()
    assert main(["panel", "-o", str(tmp_path)]) == 0
    without = (tmp_path / "panel.csv").read_bytes()
    sidecar.write_text("asset_id,week,cumulative_units\n")
    assert main(["panel", "-o", str(tmp_path)]) == 0
    assert (tmp_path / "panel.csv").read_bytes() == without


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


@pytest.mark.parametrize(
    "column, edit, message",
    [
        ("utilization", {"name": "bogus"}, "error: column 'bogus' of kind 'numeric' is not a panel feature"),
        ("utilization", {"kind": "weird"}, "error: column 'utilization' of kind 'weird' is not a panel feature"),
        ("unit=<unknown>", {"level": "zzz"}, "error: one-hot group 'unit' has no '<unknown>' column"),
    ],
    ids=["name", "kind", "unknown-level"],
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
        "gap-cap-negative", "gap-cap-0",
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
    "gap_cap": ["x", None, 2.5, -1, 0],
    "seed": ["x", 1.5],
    "beta0": [float("nan"), float("inf")],
    "beta_age": [float("nan"), float("inf")],
    "beta_gap": [float("nan"), float("inf")],
    "beta_util": [float("nan"), float("inf")],
    "include_scheduled": ["no", 1],
    "start_date": [5, "notadate"],
    "end_week": ["x", 2.5],
    "model": ["svm", 3],
    "split": ["weekly", None],
    "features": ["vehicle_type", [], ["odometer"], [3]],
    "ablation_subsets": [[["odometer"]], [7], "x"],
    "l2_lambda": [-1, "x"],
    "solver": ["lbfgs", 1],
    "mel_specs": [
        5, [{"mel": 1}], ["truck"],
        [{"vehicle_type": "truck", "mel": 2.7}], [{"vehicle_type": "truck", "mel": True}],
        [{"vehicle_type": "truck", "mel": "2"}], [{"vehicle_type": "truck", "mel": 1, "assigned": 4.9}],
        [{"vehicle_type": 7, "mel": 1}],
    ],
    "tune_grid": [{"l2_lambda": []}, {"min_leaf": [1]}, {"l2_lambda": 0.1}, [], {"max_iters": [2.5]}, {"tol": [True]}],
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


def test_split_with_an_empty_side_is_data_error(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "10", "--n-weeks", "30"]) == 0
    capsys.readouterr()
    assert main(["train", "-o", str(tmp_path), "--test-fraction", "0.99"]) == 1
    assert _single_error_line(capsys)
    assert not (tmp_path / "model.json").exists()
