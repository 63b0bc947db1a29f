"""Spans and counters around fleetrisk's public layer functions.

The package is observed from outside: `install` replaces each layer
function listed in LAYERS with a wrapper, in every loaded ``fleetrisk``
module that holds it. That covers the import sites too (``cli`` does
``from .panel import build_panel``, ``policy`` does ``from .features
import transform``), which patching only the defining module would miss.
`uninstall` puts the originals back.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct child spans; calls run on one thread, so the
children never overlap and their sum is the part of the parent they cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int | None] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    notes: dict[str, list] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """Return fn wrapped in a span; arguments, results and exceptions pass through."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ends.append(float("nan"))
        self.count(f"{name}.calls")
        self._stack.append(span)
        self.starts.append(self.clock())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = self.clock()
        popped = self._stack.pop()
        if popped != span:
            raise RuntimeError(f"span {self.names[span]!r} closed out of order")

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def note(self, name: str, value) -> None:
        self.notes.setdefault(name, []).append(value)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span counted without its child spans."""
        child = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent is not None:
                child[parent] += self.ends[span] - self.starts[span]
        totals: dict[str, float] = {}
        for span, name in enumerate(self.names):
            own = self.ends[span] - self.starts[span] - child[span]
            totals[name] = totals.get(name, 0.0) + own
        return totals


def _ingest(tracer: Tracer, result) -> None:
    records, errors = result
    tracer.count("ingest.records", len(records))
    tracer.count("ingest.rejected", len(errors))


def _rows(name: str, rows_of: Callable) -> Callable:
    def hook(tracer: Tracer, result) -> None:
        tracer.count(name, rows_of(result))

    return hook


def _panel(tracer: Tracer, panel) -> None:
    tracer.count("panel.calls")
    tracer.count("panel.rows", len(panel))


def _split(tracer: Tracer, result) -> None:
    train, test = result
    tracer.note("evaluation.split.sizes", [len(train), len(test)])


def _fit(tracer: Tracer, model) -> None:
    trees = getattr(model, "trees", None)
    if trees is not None:
        tracer.count("models.fit.tree_nodes", sum(tree.n_nodes for tree in trees))
    if model.kind == "logistic":
        tracer.count("models.logistic.iters", model.n_iters)
        tracer.count("models.logistic.converged", int(model.converged))


# (span name, defining module, function, result hook)
LAYERS = (
    ("cli", "fleetrisk.cli", "main", None),
    ("synth", "fleetrisk.synth", "generate_fleet", None),
    ("ingest", "fleetrisk.ingest", "parse_subworkorders", _ingest),
    ("panel.util_load", "fleetrisk.panel", "load_utilization_csv", None),
    ("panel.build", "fleetrisk.panel", "build_panel", _panel),
    ("features.encode", "fleetrisk.features", "encode", _rows("features.encode.rows", lambda m: m.values.shape[0])),
    ("features.standardize", "fleetrisk.features", "standardize", None),
    ("features.standardize", "fleetrisk.features", "apply_scale", None),
    ("features.transform", "fleetrisk.features", "transform", _rows("features.transform.rows", lambda x: x.shape[0])),
    ("evaluation.split", "fleetrisk.evaluation", "split", _split),
    ("evaluation.ablation", "fleetrisk.evaluation", "ablation", None),
    ("models.fit", "fleetrisk.models", "fit_model", _fit),
    ("models.predict", "fleetrisk.models", "predict_proba", _rows("models.predict.rows", len)),
    ("persist.save", "fleetrisk.models.persist", "save_model", None),
    ("persist.load", "fleetrisk.models.persist", "load_model", None),
    ("policy.simulate", "fleetrisk.policy", "simulate_policy", _rows("policy.weeks", len)),
    ("policy.mel", "fleetrisk.policy", "mel_risk", None),
)


def install(tracer: Tracer, layers=LAYERS) -> list[tuple[object, str, Callable]]:
    """Patch every fleetrisk module attribute bound to a layer function.

    Returns the (module, attribute, original) triples for `uninstall`.
    """
    for _name, module, _attr, _hook in layers:
        importlib.import_module(module)
    loaded = [m for key, m in sys.modules.items() if key == "fleetrisk" or key.startswith("fleetrisk.")]
    patched = []
    for name, module, attr, hook in layers:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, hook)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched


def uninstall(patched: list[tuple[object, str, Callable]]) -> None:
    for mod, key, original in reversed(patched):
        setattr(mod, key, original)
