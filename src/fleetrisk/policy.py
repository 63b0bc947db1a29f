"""Proactive-repair rollout, its random baseline, and MEL shortfall risk.

The rollout walks the test weeks in order and "repairs" one vehicle per
week. Repairing resets that vehicle's weeks-since-last-visit going
forward, which changes what the model sees in later weeks; the recorded
gaps to actual service always come from the untouched panel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import IO, Sequence

import numpy as np

from .errors import EmptyTestRangeError, InvalidConfigError, LengthMismatchError
from .ingest import write_csv
from .models import predict_panel
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


@dataclass
class PolicyTrace:
    """The rollout's weeks as columns, one entry a week in week order; a
    None in weeks_until_next_actual_service marks a week censored at the panel's end."""

    week: list[int] = field(default_factory=list)
    chosen_asset: list[str] = field(default_factory=list)
    score: list[float] = field(default_factory=list)
    weeks_since_last_actual_service: list[int] = field(default_factory=list)
    weeks_until_next_actual_service: list[int | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.week)

    def censored_count(self) -> int:
        return self.weeks_until_next_actual_service.count(None)

    def mean_weeks_until(self) -> float | None:
        gaps = [gap for gap in self.weeks_until_next_actual_service if gap is not None]
        return sum(gaps) / len(gaps) if gaps else None

    def mean_weeks_since(self) -> float:
        return sum(self.weeks_since_last_actual_service) / len(self)


def simulate_policy(model, test_panel: Panel, policy: PolicyKind) -> PolicyTrace:
    if not len(test_panel):
        raise EmptyTestRangeError("test panel has no rows")
    asset, week = test_panel.asset, test_panel.week
    # rows are sorted by (asset, week): a stable sort by week keeps each
    # week's rows in asset order, and an asset's flagged rows come in order
    by_week = np.argsort(week, kind="stable")
    weeks, starts = np.unique(week[by_week], return_index=True)
    first_week = week[np.searchsorted(asset, np.arange(len(test_panel.vocab.asset_ids)))]
    flagged = np.flatnonzero(test_panel.repair_flag)

    def scores(rows, gap):  # the rows (ascending) scored with these gaps
        return predict_panel(model, replace(test_panel.take(rows), weeks_since_last_visit=gap))

    rng = np.random.default_rng(policy.seed) if isinstance(policy, RandomUniform) else None
    repaired_at = np.full(len(first_week), -np.inf)  # each vehicle's last proactive repair week
    trace, picks, gaps = PolicyTrace(), [], []  # the trace, and each week's chosen row and its gap

    for w, rows in zip(weeks.tolist(), np.split(by_week, starts[1:])):
        a = asset[rows]
        # a vehicle repaired at `repaired_at` was serviced then: its gap runs
        # from there unless an actual visit since then is more recent
        gap = np.minimum(test_panel.weeks_since_last_visit[rows], w - repaired_at[a] - 1)
        # highest risk takes the first max, which is the smallest asset id; the random draw reads no score
        chosen = int(np.argmax(scores(rows, gap)) if rng is None else rng.integers(0, len(rows)))
        row, vehicle = rows[chosen], a[chosen]
        picks.append(row)
        gaps.append(gap[chosen])

        # the vehicle's flagged rows before and after the chosen one
        i = np.searchsorted(flagged, row)
        before = flagged[i - 1] if i > 0 and asset[flagged[i - 1]] == vehicle else None
        j = np.searchsorted(flagged, row, side="right")
        after = flagged[j] if j < len(flagged) and asset[flagged[j]] == vehicle else None

        trace.week.append(w)
        trace.chosen_asset.append(test_panel.vocab.asset_ids[vehicle])
        trace.weeks_since_last_actual_service.append(w - int(first_week[vehicle] if before is None else week[before]))
        trace.weeks_until_next_actual_service.append(None if after is None else int(week[after]) - w)
        repaired_at[vehicle] = w

    # a row's score does not depend on its batch: score every pick at once, in row order
    order = np.argsort(picks)
    trace.score = scores(np.array(picks)[order], np.array(gaps)[order])[np.argsort(order)].tolist()
    return trace


@dataclass(frozen=True)
class MelSpec:
    """Minimum equipment list line: `mel` of `assigned` vehicles must stay up."""

    vehicle_type: str
    mel: int
    assigned: int

    def __post_init__(self):
        if self.mel < 0:
            raise InvalidConfigError(f"mel for {self.vehicle_type!r} must be >= 0")
        if self.assigned < self.mel:
            raise InvalidConfigError(f"assigned for {self.vehicle_type!r} must be >= mel")


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
    """One row per week; the columns are PolicyTrace's fields, in order."""
    names = [f.name for f in fields(PolicyTrace)]
    write_csv(stream, names, zip(*(getattr(trace, name) for name in names)))


def write_trace_histograms_csv(trace: PolicyTrace, stream: IO[str]) -> None:
    """Integer-binned counts of both gap columns; censored weeks are tallied
    separately rather than folded into the until-next counts."""
    since = Counter(trace.weeks_since_last_actual_service)
    until = Counter(gap for gap in trace.weeks_until_next_actual_service if gap is not None)
    write_csv(stream, ["metric", "weeks", "count"], [
        *(["since_last", weeks, count] for weeks, count in sorted(since.items())),
        *(["until_next", weeks, count] for weeks, count in sorted(until.items())),
        ["until_next_censored", "", trace.censored_count()],
    ])
