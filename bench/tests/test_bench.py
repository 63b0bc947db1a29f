"""Self-tests of the benchmark: wrappers, self time, output checks.

    python3 -m pytest bench/tests
"""

import json
from pathlib import Path

import pytest

import fleetrisk.cli
import fleetrisk.panel
import run
from check import check_command, compare_runs, expected_panel
from fleetrisk.evaluation import ChronologicalSplit, split
from fleetrisk.ingest import parse_subworkorders
from fleetrisk.panel import PanelOptions, build_panel, load_utilization_csv
from spans import Tracer, install, uninstall

TINY = run.Workload(
    "tiny-report",
    ("--n-vehicles", "20", "--n-weeks", "60"),
    1,
    (("report", "--solver", "newton"),),
    (run.DATA_PATH, 0.5),
)
TINY_FOREST = run.Workload(
    "tiny-forest",
    ("--n-vehicles", "20", "--n-weeks", "60"),
    1,
    (("train", "--model", "forest", "--n-estimators", "5"), ("eval",), ("simulate",), ("mel", "--mel", "truck=1")),
    (("models.predict.self_s",), 0.2),
)


def test_wrapper_passes_arguments_results_and_exceptions_through():
    tracer = Tracer()
    sentinel = object()

    def fn(a, *rest, key=None):
        if key == "raise":
            raise KeyError(a)
        return a, rest, key, sentinel

    wrapped = tracer.wrap("layer", fn)
    assert wrapped(1, 2, 3, key="k") == (1, (2, 3), "k", sentinel)
    assert wrapped.__name__ == "fn" and wrapped.__wrapped__ is fn
    with pytest.raises(KeyError) as caught:
        wrapped("boom", key="raise")
    assert caught.value.args == ("boom",)
    assert tracer.counts["layer.calls"] == 2
    assert not tracer._stack  # the failed call's span was closed


def test_self_time_subtracts_direct_children_on_a_toy_nested_span():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")      # 0.0
    first = tracer.open("inner")      # 1.0
    tracer.close(first)               # 4.0
    second = tracer.open("inner")     # 5.0
    tracer.close(second)              # 6.5
    tracer.close(outer)               # 10.0
    assert tracer.self_times() == {"outer": 10.0 - 3.0 - 1.5, "inner": 4.5}


def test_install_patches_import_sites_and_uninstall_restores_them():
    original = fleetrisk.panel.build_panel
    assert fleetrisk.cli.build_panel is original
    patched = install(Tracer())
    try:
        assert fleetrisk.cli.build_panel is not original
        assert fleetrisk.cli.build_panel is fleetrisk.panel.build_panel
        assert fleetrisk.cli.build_panel.__wrapped__ is original
    finally:
        uninstall(patched)
    assert fleetrisk.cli.build_panel is original and fleetrisk.panel.build_panel is original


@pytest.fixture
def tiny_fleet(tmp_path):
    out = tmp_path / "out"
    assert fleetrisk.cli.main(["synth", "-o", str(out), "--seed", "7", "--n-vehicles", "20", "--n-weeks", "60"]) == 0
    return out


def test_expected_panel_matches_the_built_panel_and_split(tiny_fleet):
    records, _errors = parse_subworkorders((tiny_fleet / "subworkorders.csv").read_bytes())
    utilization = load_utilization_csv(tiny_fleet / "utilization.csv")
    panel = build_panel(records, PanelOptions(utilization=utilization))
    _train, test = split(panel, ChronologicalSplit(0.3))
    expected = expected_panel(json.loads((tiny_fleet / "ground_truth.json").read_text()), 0.3)
    assert expected.rows == len(panel)
    assert expected.test_rows == len(test)
    assert expected.test_weeks == sorted({r.week for r in test.rows})


def _report_entry(out: Path) -> dict:
    argv = ["report", "-o", str(out), "--seed", "7", "--solver", "newton"]
    code = fleetrisk.cli.main(argv)
    return {"argv": argv, "code": code, "error": None, "manifest": (out / "manifest.json").read_text()}


def test_check_accepts_a_real_report_and_flags_a_tampered_ratio(tiny_fleet):
    truth = json.loads((tiny_fleet / "ground_truth.json").read_text())
    entry = _report_entry(tiny_fleet)
    assert check_command(tiny_fleet, entry, truth) == []

    report = tiny_fleet / "eval_report.json"
    payload = json.loads(report.read_text())
    report.write_text(json.dumps({**payload, "ratio": 0.9}))
    assert any("ratio 0.9" in problem for problem in check_command(tiny_fleet, entry, truth))


def test_check_flags_a_missing_artifact_and_a_failed_exit(tiny_fleet):
    truth = json.loads((tiny_fleet / "ground_truth.json").read_text())
    entry = _report_entry(tiny_fleet)
    (tiny_fleet / "policy_trace.csv").unlink()
    assert check_command(tiny_fleet, entry, truth) == ["policy_trace.csv is listed in manifest.json but missing"]
    assert check_command(tiny_fleet, {**entry, "code": 1}, truth) == ["exit code 1"]


@pytest.fixture
def bench_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    return tmp_path


def test_untampered_run_passes_and_traced_artifacts_match(bench_root):
    tally = run.Tally()
    metrics = run.run_workload(TINY, seed=7, seconds=0, traced=True, tally=tally)
    assert tally.failures == []
    assert tally.attempted == 4  # synth, traced synth, report, traced report
    assert [name for name in run.PER_LAYER if not metrics.get(name)] == []
    assert metrics["ingest.calls"] == 1 and metrics["models.fit.calls"] == 7
    assert not (bench_root / ".bench_work").exists()


@pytest.mark.parametrize("traced", [False, True])
def test_every_declared_metric_is_nonzero_on_a_forest_run(bench_root, traced):
    tally = run.Tally()
    metrics = run.run_workload(TINY_FOREST, seed=7, seconds=0, traced=traced, tally=tally)
    assert tally.failures == []
    declared = run.PER_LAYER if traced else run.END_TO_END
    assert [name for name in declared if not metrics.get(name)] == []


def test_compare_runs_ignores_created_utc_and_names_what_differs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, created, text in ((out_a, "t0", "x"), (out_b, "t1", "y")):
        out.mkdir()
        (out / "same.csv").write_text("1")
        (out / "diff.csv").write_text(text)
        (out / "manifest.json").write_text(json.dumps({"command": "eval", "created_utc": created}))
    (out_b / "extra.json").write_text("{}")
    entries_a = [{"argv": ["eval"], "manifest": (out_a / "manifest.json").read_text()}]
    entries_b = [{"argv": ["eval"], "manifest": (out_b / "manifest.json").read_text()}]
    assert compare_runs(out_a, entries_a, out_b, entries_b) == ["extra.json (in one run only)", "diff.csv"]
    (out_b / "extra.json").unlink()
    (out_b / "diff.csv").write_text("x")
    assert compare_runs(out_a, entries_a, out_b, entries_b) == []
    entries_b[0]["manifest"] = json.dumps({"command": "simulate"})
    assert compare_runs(out_a, entries_a, out_b, entries_b) == ["manifest.json of eval"]


def test_a_tampered_artifact_makes_the_run_report_failures(bench_root, monkeypatch):
    real_run_body = run.run_body

    def tampering_run_body(cwd, commands, traced):
        body = real_run_body(cwd, commands, traced)
        report = cwd / "out" / "eval_report.json"
        if report.exists():
            report.write_text(json.dumps({**json.loads(report.read_text()), "ratio": 0.9}))
        return body

    monkeypatch.setattr(run, "run_body", tampering_run_body)
    tally = run.Tally()
    run.run_workload(TINY, seed=7, seconds=0, traced=False, tally=tally)
    assert tally.failed / tally.attempted > 0
    assert "ratio 0.9" in tally.failures[0]


def test_benchmark_json_declares_what_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
