"""Train/test splits, the separation-ratio metric, and the ablation harness.

The headline metric is the ratio of mean predicted probability on rows
where a repair actually happened to the mean on rows where it did not.
Equal distributions give 1.0; anything meaningfully above 1 means the
model pushes mass toward the true breakdowns.
"""

from __future__ import annotations

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
from .ingest import write_csv
from .models import fit_model, predict_proba
from .panel import Panel

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
    """Train and test halves, each in the panel's order with its own vocab."""
    n = len(panel)
    if isinstance(spec, RandomRowSplit):
        rng = np.random.default_rng(spec.seed)
        in_test = rng.random(n) < spec.test_fraction
    else:
        distinct, counts = np.unique(panel.week, return_counts=True)
        if len(distinct) < 2:
            raise DegeneratePanelError("chronological split needs >= 2 distinct weeks")
        # rows at or after each distinct week: the latest week whose share
        # reaches the fraction is the boundary
        at_or_after = np.cumsum(counts[::-1])[::-1]
        boundary = distinct[np.flatnonzero(at_or_after >= spec.test_fraction * n)[-1]]
        in_test = panel.week >= boundary
    if in_test.all() or not in_test.any():
        side = "train" if in_test.all() else "test"
        raise DegeneratePanelError(f"split leaves the {side} side empty ({n} rows, test_fraction {spec.test_fraction})")
    return panel.take(~in_test), panel.take(in_test)


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
    preds = predict_proba(model, transform(panel, model.columns, model.scale))
    return separation_ratio(preds, panel.repair_flag)


@dataclass
class AblationRow:
    features: tuple[str, ...]
    mean_pred_true: float
    mean_pred_false: float
    ratio: float


def ablation(train: Panel, test: Panel, subsets: Sequence[FeatureSpec], model_kind: str, hyper) -> list[AblationRow]:
    """One fit per feature subset, all on the same train and test halves."""
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
    edges = [f"{edge:.2f}" for edge in np.linspace(0.0, 1.0, N_BINS + 1)]
    write_csv(stream, ["bin_low", "bin_high", "count"], zip(edges, edges[1:], map(int, counts)))


def write_ablation_csv(rows: Sequence[AblationRow], stream: IO[str]) -> None:
    write_csv(
        stream,
        ["features", "mean_pred_true", "mean_pred_false", "ratio"],
        (["+".join(row.features), row.mean_pred_true, row.mean_pred_false, row.ratio] for row in rows),
    )
