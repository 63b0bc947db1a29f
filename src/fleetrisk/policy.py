"""Proactive-repair rollout, its random baseline, and MEL shortfall risk.

The rollout walks the test weeks in order and "repairs" one vehicle per
week. Repairing resets that vehicle's weeks-since-last-visit going
forward, which changes what the model sees in later weeks; the recorded
gaps to actual service always come from the untouched panel.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from typing import IO, Sequence

import numpy as np

from .errors import EmptyTestRangeError, LengthMismatchError
from .features import transform
from .models import predict_proba
from .panel import Panel


@dataclass(frozen=True)
class HighestRisk:
    """Repair the highest-scoring active vehicle; ties go to the
    lexicographically smallest asset id."""


@dataclass(frozen=True)
class RandomUniform:
    """Repair a uniformly random active vehicle (the control arm)."""

    seed: int = 0


PolicyKind = HighestRisk | RandomUniform


@dataclass(frozen=True)
class TraceEntry:
    week: int
    chosen_asset: str
    score: float
    weeks_since_last_actual_service: int
    weeks_until_next_actual_service: int | None  # None = censored at panel end


@dataclass
class PolicyTrace:
    entries: list[TraceEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def censored_count(self) -> int:
        return sum(1 for e in self.entries if e.weeks_until_next_actual_service is None)

    def mean_weeks_until(self) -> float | None:
        gaps = [e.weeks_until_next_actual_service for e in self.entries if e.weeks_until_next_actual_service is not None]
        return sum(gaps) / len(gaps) if gaps else None

    def mean_weeks_since(self) -> float:
        return sum(e.weeks_since_last_actual_service for e in self.entries) / len(self.entries)


def simulate_policy(model, test_panel: Panel, policy: PolicyKind) -> PolicyTrace:
    rows = test_panel.rows
    if not rows:
        raise EmptyTestRangeError("test panel has no rows")

    rows_by_week: dict[int, list] = {}
    flagged: dict[str, list[int]] = {}
    first_week: dict[str, int] = {}
    for r in rows:  # rows arrive sorted by (asset, week)
        rows_by_week.setdefault(r.week, []).append(r)
        if r.asset_id not in first_week or r.week < first_week[r.asset_id]:
            first_week[r.asset_id] = r.week
        if r.repair_flag:
            flagged.setdefault(r.asset_id, []).append(r.week)
    for weeks in flagged.values():
        weeks.sort()

    rng = np.random.default_rng(policy.seed) if isinstance(policy, RandomUniform) else None
    last_proactive: dict[str, int] = {}
    entries: list[TraceEntry] = []

    for week in sorted(rows_by_week):
        active = sorted(rows_by_week[week], key=lambda r: r.asset_id)
        scored_rows = []
        for r in active:
            repaired_at = last_proactive.get(r.asset_id)
            if repaired_at is not None:
                # serviced at `repaired_at`: gap runs from there unless an
                # actual visit since then is more recent
                gap = min(r.weeks_since_last_visit, week - repaired_at - 1)
                r = replace(r, weeks_since_last_visit=gap)
            scored_rows.append(r)
        X = transform(scored_rows, model.columns, model.scale)
        scores = predict_proba(model, X)

        if rng is None:
            chosen = int(np.argmax(scores))  # first max = smallest asset id
        else:
            chosen = int(rng.integers(0, len(active)))
        asset = active[chosen].asset_id

        asset_flags = flagged.get(asset, [])
        i = bisect_left(asset_flags, week)
        since = week - asset_flags[i - 1] if i > 0 else week - first_week[asset]
        j = bisect_right(asset_flags, week)
        until = asset_flags[j] - week if j < len(asset_flags) else None

        entries.append(
            TraceEntry(
                week=week,
                chosen_asset=asset,
                score=float(scores[chosen]),
                weeks_since_last_actual_service=since,
                weeks_until_next_actual_service=until,
            )
        )
        last_proactive[asset] = week

    return PolicyTrace(entries=entries)


@dataclass
class TraceHistograms:
    since_last: dict[int, int]
    until_next: dict[int, int]
    censored: int


def trace_histograms(trace: PolicyTrace) -> TraceHistograms:
    """Integer-binned counts of both gap columns; censored rows are tallied
    separately rather than folded into the until-next histogram."""
    since = Counter(e.weeks_since_last_actual_service for e in trace.entries)
    until = Counter(
        e.weeks_until_next_actual_service
        for e in trace.entries
        if e.weeks_until_next_actual_service is not None
    )
    return TraceHistograms(
        since_last=dict(sorted(since.items())),
        until_next=dict(sorted(until.items())),
        censored=trace.censored_count(),
    )


@dataclass(frozen=True)
class MelSpec:
    """Minimum equipment list line: `mel` of `assigned` vehicles must stay up."""

    vehicle_type: str
    mel: int
    assigned: int

    def __post_init__(self):
        if self.mel < 0:
            raise ValueError("mel must be >= 0")
        if self.assigned < self.mel:
            raise ValueError("assigned must be >= mel")


def mel_risk(per_vehicle_breakdown_prob: Sequence[float], spec: MelSpec) -> float:
    """P(operational count < mel) when vehicle i fails independently with
    probability p_i: the exact Poisson-binomial tail P(failures > assigned - mel),
    by dynamic-programming convolution over vehicles."""
    probs = np.asarray(per_vehicle_breakdown_prob, dtype=np.float64)
    if len(probs) != spec.assigned:
        raise LengthMismatchError(
            f"expected {spec.assigned} probabilities for {spec.vehicle_type!r}, got {len(probs)}"
        )
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise ValueError("breakdown probabilities must lie in [0, 1]")

    n = len(probs)
    dist = np.zeros(n + 1)
    dist[0] = 1.0
    for k, p in enumerate(probs):
        dist[1 : k + 2] = dist[1 : k + 2] * (1.0 - p) + dist[: k + 1] * p
        dist[0] *= 1.0 - p
    return float(dist[spec.assigned - spec.mel + 1 :].sum())


def write_trace_csv(trace: PolicyTrace, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ["week", "chosen_asset", "score", "weeks_since_last_actual_service", "weeks_until_next_actual_service"]
    )
    for e in trace.entries:
        until = "" if e.weeks_until_next_actual_service is None else e.weeks_until_next_actual_service
        writer.writerow([e.week, e.chosen_asset, repr(e.score), e.weeks_since_last_actual_service, until])


def write_trace_histograms_csv(hists: TraceHistograms, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["metric", "weeks", "count"])
    for weeks, count in hists.since_last.items():
        writer.writerow(["since_last", weeks, count])
    for weeks, count in hists.until_next.items():
        writer.writerow(["until_next", weeks, count])
    writer.writerow(["until_next_censored", "", hists.censored])
