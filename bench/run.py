"""fleetrisk benchmark: real CLI commands on a seeded synthetic fleet.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run repeats rounds for about ``--seconds``. A round generates the fleet
with ``synth`` in one fresh process and runs the workload's timed body on it
in another. Every command's artifacts are checked (check.py). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` each round also runs the body with
the layer wrappers of spans.py in a third process, the two artifact sets
must match byte for byte, and the JSON holds the per-layer metrics. The
lines before it give the machine and a table of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150
RUN_SECONDS = 55  # BENCHMARK.json's run_seconds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    fleet: tuple[str, ...]                 # synth flags
    setups: int                            # synth repeats per round
    commands: tuple[tuple[str, ...], ...]  # timed body; the first fits and saves model.json
    purpose: tuple[tuple[str, ...], float]  # these self times exceed this share of traced wall


DATA_PATH = (
    "ingest.self_s", "panel.build.self_s", "panel.util_load.self_s", "evaluation.split.self_s",
    "features.encode.self_s", "features.standardize.self_s", "features.transform.self_s",
)
SMALL_FLEET = ("--n-vehicles", "60", "--n-weeks", "156")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-logistic-1000x260",
            ("--n-vehicles", "1000", "--n-weeks", "260"),
            1,
            (("report", "--solver", "newton"),),
            (DATA_PATH, 0.5),
        ),
        Workload(
            "forest-score-60x156",
            SMALL_FLEET,
            3,
            (
                ("train", "--model", "forest", "--n-estimators", "100"),
                ("eval",),
                ("simulate",),
                ("mel", "--mel", "truck=10"),
            ),
            (("models.predict.self_s",), 0.2),
        ),
        Workload(
            "report-gbt-60x156",
            SMALL_FLEET,
            3,
            (("report", "--model", "gbt", "--n-estimators", "50"),),
            (("models.fit.self_s",), 0.75),
        ),
    )
}

# Metrics in the JSON line, as declared in BENCHMARK.json: each is defined
# and nonzero on every workload.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_NAMES = (
    "synth", "ingest", "panel.build", "panel.util_load", "features.encode", "features.standardize",
    "features.transform", "evaluation.split", "models.fit", "models.predict", "persist.save",
    "policy.simulate", "cli",
)
COUNTERS = (
    "ingest.calls", "ingest.records", "panel.calls", "panel.rows",
    "features.encode.calls", "features.encode.rows", "features.transform.calls", "features.transform.rows",
    "models.fit.calls", "models.predict.calls", "models.predict.rows", "policy.weeks",
)
PER_LAYER = {
    **{f"{span}.self_s": "s" for span in SPAN_NAMES},
    **{name: "count" for name in COUNTERS},
    "persist.model_bytes": "bytes",
    "evaluation.ratio": "ratio",
    "trace.overhead_frac": "fraction",
}
# Printed only, since they are zero or undefined on some workload: a report
# has no scoring commands, no model load and no mel; forest-score runs no
# ablation and no logistic fit; a logistic fit has no tree nodes; synth
# writes no invalid rows, so ingest rejects none; failed_frac is 0 when all
# is well.
SCORING = {"train_s": "s", "score_s": "s"}
COUNTERS_PRINTED_ONLY = (
    "ingest.rejected", "models.fit.tree_nodes", "models.logistic.iters", "models.logistic.converged",
    "persist.load.calls",
)
LAYERS_PRINTED_ONLY = {
    "evaluation.ablation.self_s": "s",
    "persist.load.self_s": "s",
    "policy.mel.self_s": "s",
    **{name: "count" for name in COUNTERS_PRINTED_ONLY},
    "models.fit.us_per_node": "us",
}


def _env() -> dict[str, str]:
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return env


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": BLAS_THREADS,
    }


def run_body(cwd: Path, commands: list[list[str]], traced: bool) -> dict:
    """Run commands in a fresh body.py process; a crash fails every command."""
    handle, spec_name = tempfile.mkstemp(suffix=".json", dir=cwd)
    os.close(handle)
    spec, result = Path(spec_name), Path(spec_name).with_suffix(".result.json")
    spec.write_text(json.dumps({"cwd": str(cwd), "commands": commands, "trace": traced}))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "body.py"), str(spec), str(result)],
            env=_env(), stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, check=False,
        )
        failure = None if proc.returncode == 0 else f"body process exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        failure = f"body process killed after {CHILD_TIMEOUT_S} s"
    if failure is None:
        body = json.loads(result.read_text())
    else:
        body = {
            "commands": [{"argv": argv, "code": None, "error": failure, "seconds": 0.0, "manifest": None} for argv in commands],
            "peak_rss_mb": 0.0,
        }
    spec.unlink()
    result.unlink(missing_ok=True)
    return body


class Tally:
    """Commands attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, entry: dict, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{' '.join(entry['argv'])}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def end_to_end_sample(body: dict) -> dict[str, float]:
    times = [entry["seconds"] for entry in body["commands"]]
    return {"wall_s": sum(times), "train_s": times[0], "score_s": sum(times[1:]), "peak_rss_mb": body["peak_rss_mb"]}


def layer_sample(body: dict, out: Path, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced body, summed over its commands."""
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for entry in body["commands"]:
        for name, seconds in entry["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, n in entry["counts"].items():
            counts[name] = counts.get(name, 0) + n
    sample = {f"{span}.self_s": self_s.get(span, 0.0) for span in SPAN_NAMES + ("evaluation.ablation", "persist.load", "policy.mel")}
    sample.update({name: counts.get(name, 0) for name in COUNTERS + COUNTERS_PRINTED_ONLY})
    nodes = counts.get("models.fit.tree_nodes", 0)
    sample["models.fit.us_per_node"] = 1e6 * self_s.get("models.fit", 0.0) / nodes if nodes else 0.0
    sample["persist.model_bytes"] = (out / "model.json").stat().st_size
    sample["evaluation.ratio"] = json.loads((out / "eval_report.json").read_text())["ratio"]
    sample["traced_wall_s"] = sum(entry["seconds"] for entry in body["commands"])
    sample["trace.overhead_frac"] = sample["traced_wall_s"] / untraced_wall - 1
    return sample


def _check_traced(plain: dict, plain_out: Path, body: dict, traced_out: Path, truth: dict | None, tally: Tally) -> bool:
    """Tally the traced twin of a set-up or body; any artifact that differs fails all its commands."""
    from check import check_command, check_split_sizes, compare_runs

    differing = compare_runs(plain_out, plain["commands"], traced_out, body["commands"])
    mismatch = [f"differs from the untraced run: {', '.join(differing)}"] if differing else []
    passed = []
    for entry in body["commands"]:
        problems = mismatch + check_command(traced_out, entry, truth)
        sizes = entry.get("notes", {}).get("evaluation.split.sizes")
        if sizes and not problems:
            problems = check_split_sizes(sizes, truth, json.loads(entry["manifest"])["config"]["test_fraction"])
        passed.append(tally.add(entry, problems))
    return all(passed)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, tally: Tally) -> dict[str, float]:
    """Repeat set-up and timed body while the next round is expected to end within `seconds`.

    Each round generates the fleet in one fresh process (``setups`` synth
    runs into the same directory), then runs the timed body on it in
    another. With ``traced``, the set-up and the body each have a traced
    twin in a process of its own, which writes to a directory of its own
    and must leave the same artifacts. Set-up time is the median of every
    synth run (traced synth runs for ``synth.self_s``); body samples are
    averaged over rounds.
    The machine's speed drifts over seconds, so spreading the set-ups over
    the run and averaging all measured time gives steadier figures than a
    median of a few back-to-back samples.
    """
    from check import check_command  # imports fleetrisk, which main() put on sys.path

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    synth = [["synth", "-o", "out", "--seed", str(seed), *workload.fleet]] * workload.setups
    commands = [[*cmd, "-o", "out", "--seed", str(seed)] for cmd in workload.commands]
    truth = None
    setup_s: list[float] = []
    synth_self_s: list[float] = []
    samples: dict[str, list[float]] = {}
    durations: list[float] = []
    started = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            plain_dir = work / f"round{len(durations)}"
            plain_out = plain_dir / "out"
            plain_dir.mkdir()
            setup = run_body(plain_dir, synth, traced=False)
            if not all([tally.add(entry, check_command(plain_out, entry, None)) for entry in setup["commands"]]):
                return {}
            setup_s += [entry["seconds"] for entry in setup["commands"]]
            truth = truth or json.loads((plain_out / "ground_truth.json").read_text())
            if traced:
                traced_out = work / f"traced{len(durations)}" / "out"
                traced_out.parent.mkdir()
                traced_setup = run_body(traced_out.parent, synth, traced=True)
                if not _check_traced(setup, plain_out, traced_setup, traced_out, None, tally):
                    return {}
                synth_self_s += [entry["self_s"]["synth"] for entry in traced_setup["commands"]]
            plain = run_body(plain_dir, commands, traced=False)
            passed = [tally.add(entry, check_command(plain_out, entry, truth)) for entry in plain["commands"]]
            sample = end_to_end_sample(plain)
            if traced:
                body = run_body(traced_out.parent, commands, traced=True)
                traced_passed = _check_traced(plain, plain_out, body, traced_out, truth, tally)
                if all(passed) and traced_passed:
                    sample = layer_sample(body, traced_out, sample["wall_s"])
                else:
                    sample = {}
                shutil.rmtree(traced_out.parent)
            shutil.rmtree(plain_dir)
            for name, value in sample.items():
                samples.setdefault(name, []).append(value)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - started + statistics.fmean(durations) > seconds:
                break
        metrics = {name: values[0] if len(set(values)) == 1 else statistics.fmean(values) for name, values in samples.items()}
        if traced:
            metrics["synth.self_s"] = statistics.median(synth_self_s)
        else:
            metrics["setup_s"] = statistics.median(setup_s)
        metrics["rounds"] = len(durations)
        return metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _print_table(workload: Workload, measured: dict, traced: bool) -> None:
    if traced:
        shown = {**PER_LAYER, **LAYERS_PRINTED_ONLY}
    else:
        shown = {**END_TO_END, **(SCORING if len(workload.commands) > 1 else {})}
    shown["failed_frac"] = "fraction"
    for metric, unit in shown.items():
        if metric in measured:
            value = measured[metric]
            shown_value = f"{value:.0f}" if unit in ("count", "bytes") else f"{value:.6g}"
            print(f"  {metric:<28} {shown_value:>14} {unit}")
    if traced and "traced_wall_s" in measured:
        names, share = workload.purpose
        got = sum(measured[name] for name in names) / measured["traced_wall_s"]
        verdict = "holds" if got > share else "DOES NOT HOLD"
        print(f"  purpose: {' + '.join(names)} = {got:.3f} of traced wall, needs > {share}: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS), help="how long each workload's timed body repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fleetrisk" / "cli.py").is_file():
        print(f"error: no fleetrisk sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[0:0] = [str(SRC), str(BENCH)]
    import fleetrisk

    if SRC not in Path(fleetrisk.__file__).resolve().parents:
        print(f"error: fleetrisk imported from {fleetrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # subprocess.run kills its child when SystemExit unwinds through it
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    traced = bool(args.trace)
    declared = PER_LAYER if traced else END_TO_END
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tally = Tally()
    results = {}
    for name in names:
        before = (tally.attempted, tally.failed)
        measured = run_workload(WORKLOADS[name], args.seed, args.seconds, traced, tally)
        attempted, failed = tally.attempted - before[0], tally.failed - before[1]
        measured["failed_frac"] = failed / max(attempted, 1)
        print(
            f"workload {name} seed={args.seed} trace={args.trace} rounds={measured.get('rounds', 0)} "
            f"commands={attempted} failed={failed}"
        )
        _print_table(WORKLOADS[name], measured, traced)
        results[name] = {metric: {"value": measured[metric], "unit": unit} for metric, unit in declared.items() if metric in measured}
    for failure in tally.failures:
        print(f"FAILED {failure}")

    complete = all(len(metrics) == len(declared) for metrics in results.values())
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{w}/{m}": v for w, ms in results.items() for m, v in ms.items()}
    print(json.dumps({
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
