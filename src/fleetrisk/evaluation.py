"""Train/test splits, the separation-ratio metric, and the ablation harness.

The headline metric is the ratio of mean predicted probability on rows
where a repair actually happened to the mean on rows where it did not.
Equal distributions give 1.0; anything meaningfully above 1 means the
model pushes mass toward the true breakdowns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import (
    DegeneratePanelError,
    SingleClassLabelsError,
    ZeroFalseMeanError,
)
from .features import FeatureSpec, encode, standardize, transform
from .models import fit_model, predict_proba
from .panel import Panel, panel_from_rows

N_BINS = 50


@dataclass(frozen=True)
class RandomRowSplit:
    """Each row lands in test independently with probability test_fraction."""

    test_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


@dataclass(frozen=True)
class ChronologicalSplit:
    """Test = all rows at or after a week boundary chosen so the test share
    is at least test_fraction (the latest such boundary)."""

    test_fraction: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


SplitSpec = RandomRowSplit | ChronologicalSplit


def split(panel: Panel, spec: SplitSpec) -> tuple[Panel, Panel]:
    rows = panel.rows
    n = len(rows)
    if isinstance(spec, RandomRowSplit):
        rng = np.random.default_rng(spec.seed)
        in_test = rng.random(n) < spec.test_fraction
    else:
        weeks = np.fromiter((r.week for r in rows), dtype=np.int64, count=n)
        distinct = np.unique(weeks)
        if len(distinct) < 2:
            raise DegeneratePanelError("chronological split needs >= 2 distinct weeks")
        # share of rows at or after each distinct week, scanning from the
        # latest: the first week whose share reaches the fraction wins
        boundary = None
        for w in distinct[::-1]:
            if np.count_nonzero(weeks >= w) >= spec.test_fraction * n:
                boundary = w
                break
        in_test = weeks >= boundary
    if in_test.all() or not in_test.any():
        side = "train" if in_test.all() else "test"
        raise DegeneratePanelError(f"split leaves the {side} side empty ({n} rows, test_fraction {spec.test_fraction})")
    train = [r for r, t in zip(rows, in_test) if not t]
    test = [r for r, t in zip(rows, in_test) if t]
    return (
        panel_from_rows(train, start_monday=panel.start_monday),
        panel_from_rows(test, start_monday=panel.start_monday),
    )


@dataclass
class EvalReport:
    mean_pred_true: float
    mean_pred_false: float
    ratio: float
    histogram_true: np.ndarray   # int counts, 50 uniform bins on [0,1]
    histogram_false: np.ndarray
    n_test: int


def _bin_counts(preds: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(preds, bins=N_BINS, range=(0.0, 1.0))
    return counts


def separation_ratio(preds: Sequence[float], labels: Sequence[int]) -> EvalReport:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    true_mask = labels == 1
    n_true = int(true_mask.sum())
    if n_true == 0 or n_true == len(labels):
        raise SingleClassLabelsError("both label classes must be present")
    mean_true = float(preds[true_mask].mean())
    mean_false = float(preds[~true_mask].mean())
    if mean_false == 0.0:
        raise ZeroFalseMeanError("mean prediction over false rows is zero")
    return EvalReport(
        mean_pred_true=mean_true,
        mean_pred_false=mean_false,
        ratio=mean_true / mean_false,
        histogram_true=_bin_counts(preds[true_mask]),
        histogram_false=_bin_counts(preds[~true_mask]),
        n_test=len(labels),
    )


def fit_on_train(train: Panel, feature_spec: FeatureSpec, model_kind: str, hyper):
    """encode -> standardize -> fit. The model carries the train panel's
    column layout and scale, which score_panel applies to held-out rows."""
    return fit_model(model_kind, standardize(encode(train, feature_spec)), hyper)


def score_panel(model, panel: Panel) -> EvalReport:
    """Separation ratio of a fitted model's predictions over a panel."""
    preds = predict_proba(model, transform(panel.rows, model.columns, model.scale))
    return separation_ratio(preds, [r.repair_flag for r in panel.rows])


def evaluate_split(panel: Panel, feature_spec: FeatureSpec, model_kind: str, hyper, split_spec: SplitSpec) -> tuple[EvalReport, object]:
    """Fit on the train side, score the test side.

    Returns the report along with the fitted model so callers can reuse it
    (the policy rollout wants the exact model the report describes).
    """
    train, test = split(panel, split_spec)
    model = fit_on_train(train, feature_spec, model_kind, hyper)
    return score_panel(model, test), model


@dataclass
class AblationRow:
    features: tuple[str, ...]
    mean_pred_true: float
    mean_pred_false: float
    ratio: float


def ablation(
    panel: Panel,
    subsets: Sequence[FeatureSpec],
    model_kind: str,
    hyper,
    split_spec: SplitSpec,
) -> list[AblationRow]:
    """One fit per feature subset against a single shared split realization."""
    train, test = split(panel, split_spec)
    out = []
    for spec in subsets:
        report = score_panel(fit_on_train(train, spec, model_kind, hyper), test)
        out.append(
            AblationRow(
                features=spec.names(),
                mean_pred_true=report.mean_pred_true,
                mean_pred_false=report.mean_pred_false,
                ratio=report.ratio,
            )
        )
    return out


def report_to_dict(report: EvalReport) -> dict:
    return {
        "mean_pred_true": report.mean_pred_true,
        "mean_pred_false": report.mean_pred_false,
        "ratio": report.ratio,
        "n_test": report.n_test,
        "n_bins": N_BINS,
        "histogram_true": report.histogram_true.tolist(),
        "histogram_false": report.histogram_false.tolist(),
    }


def write_eval_report(report: EvalReport, stream: IO[str]) -> None:
    stream.write(json.dumps(report_to_dict(report), indent=2))


def write_histogram_csv(counts: np.ndarray, stream: IO[str]) -> None:
    """Per-bin CSV: bin_low, bin_high, count over 50 uniform bins on [0,1]."""
    edges = np.linspace(0.0, 1.0, N_BINS + 1)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["bin_low", "bin_high", "count"])
    for i, count in enumerate(counts):
        writer.writerow([f"{edges[i]:.2f}", f"{edges[i + 1]:.2f}", int(count)])


def write_ablation_csv(rows: Sequence[AblationRow], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["features", "mean_pred_true", "mean_pred_false", "ratio"])
    for row in rows:
        writer.writerow(["+".join(row.features), repr(row.mean_pred_true), repr(row.mean_pred_false), repr(row.ratio)])
