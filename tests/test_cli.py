"""End-to-end runs of the command-line pipeline and its exit codes."""

import json

import pytest

from fleetrisk.cli import main

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


def test_unknown_feature_name_is_usage_error(tmp_path):
    assert main(["train", "--features", "odometer", "-o", str(tmp_path)]) == 2


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
        ["tune", "--config", "GRID"],
        ["mel", "--mel", "truck=-1"],
        ["mel", "--mel", "truck=99"],
    ],
    ids=[
        "start-date", "forest-n-estimators", "forest-max-features", "forest-min-leaf", "forest-max-depth",
        "gbt-learning-rate", "gbt-min-leaf", "gbt-max-depth", "l2-lambda", "tune-grid", "mel-negative",
        "mel-above-assigned",
    ],
)
def test_bad_values_reaching_the_pipeline_are_usage_errors(trained_dir, tmp_path, capsys, argv):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"tune_grid": {"l2_lambda": [0.0001, -1.0]}}))
    argv = [str(grid) if a == "GRID" else a for a in argv]
    capsys.readouterr()
    assert main([*argv, "-o", str(trained_dir)]) == 2
    assert _single_error_line(capsys)


def test_split_with_an_empty_side_is_data_error(tmp_path, capsys):
    assert main(["synth", "-o", str(tmp_path), "--n-vehicles", "10", "--n-weeks", "30"]) == 0
    capsys.readouterr()
    assert main(["train", "-o", str(tmp_path), "--test-fraction", "0.99"]) == 1
    assert _single_error_line(capsys)
    assert not (tmp_path / "model.json").exists()
