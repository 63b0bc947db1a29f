"""Every function in the package runs under some command. A function that
only tests call is an oracle or a fixture, and belongs beside the tests."""

import inspect
import json
import os
import sys
from pathlib import Path

import fleetrisk
from fleetrisk.cli import main

PACKAGE = Path(fleetrisk.__file__).resolve().parent

# module:qualname -> why no command on a valid fleet runs it
UNREACHED = {
    "errors:MissingColumnError.__init__": "raised only for a header that lacks a required column",
    "errors:WidthMismatchError.__init__": "raised only for a matrix that does not fit the model",
    "cli:_Parser.error": "called only for a flag argparse refuses",
    "config:_type_name": "names a type only in the message for a config value of the wrong type",
    "models.forest:_start_worker": "runs in the forked pool workers, which one usable core never starts",
    "features:apply_scale": "bench/spans.py wraps it by name, so it stays until the bench reads spans from the program",
    "panel:Panel.rows": "bench/tests/test_bench.py reads the test half's rows",
}


def function_name(code) -> str:
    """module:qualname of a code object compiled from a package file."""
    module = ".".join(Path(code.co_filename).resolve().relative_to(PACKAGE).with_suffix("").parts)
    return f"{module.removesuffix('.__init__')}:{code.co_qualname}"


def package_functions() -> set[str]:
    """Every def in the package, nested ones included."""
    found = set()
    for path in PACKAGE.rglob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            # no class body, lambda or comprehension
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add(function_name(code))
    return found


def run_every_command(out: Path) -> None:
    """Each command on a 12x40 fleet for all three model kinds, then the
    second logistic solver and split, and a tuning grid from a config file.
    Seed 1, because seed 0's forest ablation scores 0 on every false row."""
    run = lambda *argv: main([argv[0], "-o", str(out), "--seed", "1", *argv[1:]])
    assert run("synth", "--n-vehicles", "12", "--n-weeks", "40") == 0
    for command in ("ingest", "panel"):
        assert run(command) == 0
    for kind, flags in (("logistic", ()), ("forest", ("--n-estimators", "3")), ("gbt", ("--n-estimators", "3"))):
        for command, more in (("train", ()), ("eval", ()), ("simulate", ()), ("mel", ("--mel", "truck=2")),
                              ("ablate", ()), ("report", ())):
            assert run(command, "--model", kind, *flags, *more) == 0, (command, kind)
    assert run("report", "--solver", "gd", "--split", "random", "--max-iters", "30") == 0
    config = out / "tune.json"
    config.write_text(json.dumps({"model": "gbt", "n_estimators": 3, "tune_grid": {"learning_rate": [0.1, 0.3]}}))
    assert run("tune", "--config", str(config)) == 0


def test_every_command_runs_every_function_in_the_package(tmp_path, monkeypatch):
    # one usable core: the forest grows its trees in this process, where the trace sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    called, previous = set(), sys.gettrace()
    sys.settrace(lambda frame, event, arg: called.add(frame.f_code))  # a "call" event per frame, and no line events
    try:
        run_every_command(tmp_path)
    finally:
        sys.settrace(previous)
    ran = {function_name(code) for code in called if Path(code.co_filename).resolve().is_relative_to(PACKAGE)}
    functions = package_functions()
    assert set(UNREACHED) <= functions, f"allowed but not defined: {sorted(set(UNREACHED) - functions)}"
    assert sorted(functions - ran - set(UNREACHED)) == [], "functions that no command runs"
    assert sorted(set(UNREACHED) & ran) == [], "allowed as unreached, but a command runs them"
