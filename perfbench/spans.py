"""Spans around the public calls the harness makes, recorded from outside.

The tracer replaces module attributes with timing wrappers and puts the
originals back afterwards.  The harness looks these names up as module
globals at call time, so patching `memperceptron.harness.<name>` times
every call it makes through that name.  Spans are kept in memory; the
benchmark is single-threaded, so they nest strictly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

# (module attribute path, span name).  The span name is the layer metric
# the time is booked to; several functions may share one.
TARGETS = (
    ("memperceptron.parse_config", "harness.parse_config"),
    ("memperceptron.harness.generate_dataset", "data.generate_dataset"),
    ("memperceptron.harness.trained_ensemble", "harness.trained_ensemble"),
    ("memperceptron.harness.train_slp_ensemble", "slp.train"),
    ("memperceptron.harness.train_mlp_ensemble", "mlp.train"),
    ("memperceptron.harness.ensemble_scores", "harness.ensemble_scores"),
    ("memperceptron.harness.roc_points", "metrics.roc"),
    ("memperceptron.harness.auc", "metrics.roc"),
    ("memperceptron.harness.aggregate_curve", "harness.aggregate_curve"),
    ("memperceptron.harness.write_curve_csv", "metrics.csv"),
    ("memperceptron.harness.write_roc_csv", "metrics.csv"),
    ("memperceptron.harness.write_curve_svg", "svgplot.svg"),
    ("memperceptron.harness.write_roc_svg", "svgplot.svg"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    context: dict | None = None
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records one span per wrapped call while installed.

    `context` is set by the caller before each experiment and attached
    to every span, so a trainer span knows its model's R and steps.
    A target the package no longer has is listed in `missing` and
    skipped; it never raises.
    """

    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    context: dict | None = None
    _stack: list[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, perf_counter(), parent=self._stack[-1] if self._stack else -1,
                                   context=self.context))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span = self.spans[idx]
                span.end = perf_counter()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.seconds
        return traced

    def install(self, modules: dict) -> None:
        """Patch every target; `modules` maps dotted module names to modules."""
        self.missing = []
        for path, name in TARGETS:
            module_name, attr = path.rsplit(".", 1)
            module = modules[module_name]
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(path)
                continue
            setattr(module, attr, self._wrap(name, original))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def missing_spans(missing: list[str]) -> set[str]:
    """Span names with at least one target that could not be wrapped."""
    return {name for path, name in TARGETS if path in missing}
