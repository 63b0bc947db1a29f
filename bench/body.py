"""Run fleetrisk CLI commands in this process and write what happened as JSON.

    python3 bench/body.py SPEC.json RESULT.json

SPEC holds ``cwd``, ``commands`` (a list of argv lists for
``fleetrisk.cli.main``) and ``trace``. run.py starts one of these per
set-up or timed body, so each gets a fresh interpreter and its own peak
RSS. Imports happen before the clock starts; each command is timed on its
own. With ``trace`` set, the layer wrappers from spans.py are installed
and every command reports its per-layer self times and counters.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import fleetrisk.cli as cli

from spans import Tracer, install, uninstall


def run_commands(commands: list[list[str]], traced: bool) -> list[dict]:
    results = []
    for argv in commands:
        tracer = Tracer()
        patched = install(tracer) if traced else []
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        uninstall(patched)
        manifest = Path(argv[argv.index("-o") + 1]) / "manifest.json"
        entry = {
            "argv": argv,
            "code": code,
            "error": error,
            "seconds": seconds,
            "manifest": manifest.read_text() if manifest.is_file() else None,
        }
        if traced:
            entry["self_s"] = tracer.self_times()
            entry["counts"] = tracer.counts
            entry["notes"] = tracer.notes
        results.append(entry)
    return results


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result_path = Path(result_path).resolve()
    os.chdir(spec["cwd"])
    commands = run_commands(spec["commands"], spec["trace"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result_path.write_text(json.dumps({"commands": commands, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
