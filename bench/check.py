"""Checks on the artifacts fleetrisk commands leave in their output directory.

No artifact's bytes are pinned: a change may move a ratio digit by design.
Each check states a property any correct run has instead. The panel size
and the test weeks are derived from ``ground_truth.json`` the same way the
panel and the chronological split define them, without calling fleetrisk.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from fleetrisk.errors import FleetRiskError
from fleetrisk.models import load_model


@dataclass(frozen=True)
class ExpectedPanel:
    rows: int
    test_rows: int
    test_weeks: list[int]


def expected_panel(truth: dict, test_fraction: float) -> ExpectedPanel:
    """Panel rows and chronological test weeks that follow from the ground truth.

    Each vehicle with records gets one row per week from its start (its
    acquisition anchor or first record, clamped to week 0) to the last
    record week of the fleet. The test side starts at the latest week whose
    tail holds at least ``test_fraction`` of the rows.
    """
    record_weeks = []
    for v in truth["vehicles"]:
        weeks = v["breakdown_weeks"] + v["prev_weeks"]
        if weeks:
            record_weeks.append((v["age_anchor_week"], min(weeks), max(weeks)))
    shift = min(first for _anchor, first, _last in record_weeks)
    end = max(last for _anchor, _first, last in record_weeks) - shift
    per_week = [0] * (end + 1)
    for anchor, first, _last in record_weeks:
        for week in range(max(0, min(anchor, first) - shift), end + 1):
            per_week[week] += 1
    rows = sum(per_week)
    tail = 0
    for week in range(end, -1, -1):
        tail += per_week[week]
        if per_week[week] and tail >= test_fraction * rows:
            break
    test_weeks = [w for w in range(week, end + 1) if per_week[w]]
    return ExpectedPanel(rows=rows, test_rows=tail, test_weeks=test_weeks)


def _csv_rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    width = len(rows[0])
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"line {number} has {len(row)} fields, header has {width}")
    return rows


def _parse(path: Path):
    if path.name == "model.json":
        return load_model(path)
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        return _csv_rows(text)
    raise ValueError(f"no parser for {path.suffix!r} files")


def _histogram_total(path: Path) -> int:
    rows = _csv_rows(path.read_text())
    return sum(int(row[rows[0].index("count")]) for row in rows[1:])


def _check_eval_report(report: dict, out: Path, expected: ExpectedPanel) -> list[str]:
    problems = []
    ratio = report["ratio"]
    if not (math.isfinite(ratio) and ratio > 1):
        problems.append(f"eval_report.json ratio {ratio!r} is not finite and > 1")
    n_test = report["n_test"]
    if sum(report["histogram_true"]) + sum(report["histogram_false"]) != n_test:
        problems.append(f"eval_report.json histograms do not sum to n_test={n_test}")
    csv_total = sum(_histogram_total(out / name) for name in ("histogram_true.csv", "histogram_false.csv"))
    if csv_total != n_test:
        problems.append(f"histogram CSVs sum to {csv_total}, not n_test={n_test}")
    if n_test != expected.test_rows:
        problems.append(
            f"n_test={n_test}: a {expected.rows}-row panel leaves {expected.test_rows} test rows "
            f"and {expected.rows - expected.test_rows} train rows"
        )
    return problems


def _check_policy_trace(rows: list[list[str]], _out: Path, expected: ExpectedPanel) -> list[str]:
    week = rows[0].index("week")
    weeks = [int(row[week]) for row in rows[1:]]
    if weeks != expected.test_weeks:
        return [f"policy_trace.csv has {len(weeks)} entries, not one per test week ({len(expected.test_weeks)})"]
    return []


def _check_mel_risk(payload: dict, _out: Path, _expected: ExpectedPanel) -> list[str]:
    return [
        f"mel_risk.json risk {spec['risk']!r} for {spec['vehicle_type']!r} is outside [0, 1]"
        for spec in payload["specs"]
        if not (math.isfinite(spec["risk"]) and 0.0 <= spec["risk"] <= 1.0)
    ]


_CONTENT_CHECKS = {
    "eval_report.json": _check_eval_report,
    "policy_trace.csv": _check_policy_trace,
    "mel_risk.json": _check_mel_risk,
}


def check_command(out: Path, entry: dict, truth: dict | None) -> list[str]:
    """Problems with one command's outcome; an empty list means it passed.

    ``entry`` is one command record from body.py. ``truth`` is the parsed
    ``ground_truth.json`` of the fleet the command read (None for synth).
    """
    if entry["code"] != 0:
        detail = entry["error"].strip().splitlines()[-1] if entry["error"] else ""
        return [f"exit code {entry['code']} {detail}".strip()]
    try:
        manifest = json.loads(entry["manifest"])
    except (TypeError, ValueError):
        return ["manifest.json is missing or not JSON"]
    problems = []
    if manifest.get("command") != entry["argv"][0]:
        problems.append(f"manifest.json names command {manifest.get('command')!r}")
    for name in manifest["outputs"]:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} is listed in manifest.json but missing")
            continue
        try:
            content = _parse(path)
            check = _CONTENT_CHECKS.get(name)
            if check is not None:
                problems += check(content, out, expected_panel(truth, manifest["config"]["test_fraction"]))
        except (ValueError, KeyError, TypeError, OSError, FleetRiskError) as exc:
            problems.append(f"{name} does not parse or lacks a field: {exc!r}")
    return problems


def check_split_sizes(sizes: list[list[int]], truth: dict, test_fraction: float) -> list[str]:
    """Every traced split's train plus test rows must make up the whole panel."""
    expected = expected_panel(truth, test_fraction)
    return [
        f"split gave {train} train + {test} test rows, panel has {expected.rows} ({expected.test_rows} test)"
        for train, test in sizes
        if train + test != expected.rows or test != expected.test_rows
    ]


def _without_created(text: str | None):
    if text is None:
        return None
    manifest = json.loads(text)
    manifest.pop("created_utc", None)
    return manifest


def compare_runs(out_a: Path, entries_a: list[dict], out_b: Path, entries_b: list[dict]) -> list[str]:
    """What differs between two runs of the same commands; empty when they match.

    Files must match byte for byte; each command's manifest must match
    except for ``created_utc``.
    """
    differing = [
        f"manifest.json of {b['argv'][0]}"
        for a, b in zip(entries_a, entries_b)
        if _without_created(a["manifest"]) != _without_created(b["manifest"])
    ]
    names_a = {p.name for p in out_a.iterdir()} - {"manifest.json"}
    names_b = {p.name for p in out_b.iterdir()} - {"manifest.json"}
    differing += [f"{name} (in one run only)" for name in sorted(names_a ^ names_b)]
    differing += [name for name in sorted(names_a & names_b) if (out_a / name).read_bytes() != (out_b / name).read_bytes()]
    return differing
