"""Outside-in spans around pibgen's modules.

The tracer replaces module attributes with timing wrappers at the names that
callers actually resolve (``pibgen.cli``'s imported names, and the module
globals that ``bounds``, ``stratify``, ``points`` and ``oracle`` call through),
so nothing under ``src/`` changes.  Spans stay in memory until the run writes
them out.  A span's self time is its duration minus its children's durations,
so the self times of one op sum to the op's root span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


def _rows(frame):
    return frame.n_units


def _resliced(pieces):
    return sum(p.frame.n_units for p in pieces)


def _iterations(model):
    return model.iterations


def _reps(estimate):
    return estimate.details["bootstrap_reps"]


def _bytes(text):
    return len(text.encode("utf-8"))


def _completions(enumeration):
    return enumeration.n_completions


# (module, attribute, span name, count taken from the return value)
TARGETS = (
    ("pibgen.cli", "load_frame", "frame.load", _rows),
    ("pibgen.cli", "design_probs", "frame.stats", None),
    ("pibgen.cli", "empirical_rates", "frame.stats", None),
    ("pibgen.bounds", "design_probs", "frame.stats", None),
    ("pibgen.bounds", "empirical_rates", "frame.stats", None),
    ("pibgen.cli", "fit_propensity", "propensity.fit", _iterations),
    ("pibgen.cli", "compute_balance", "propensity.balance", None),
    ("pibgen.cli", "logit_scores", "propensity.scores", None),
    ("pibgen.points", "propensity_scores", "propensity.scores", None),
    ("pibgen.cli", "strata_for_frame", "stratify.assign", None),
    ("pibgen.stratify", "stratum_frames", "stratify.slice", _resliced),
    ("pibgen.points", "stratum_frames", "stratify.slice", _resliced),
    ("pibgen.bounds", "stratified_bounds", "bounds.stratified", None),
    ("pibgen.bounds", "worst_case_bounds", "bounds.formula", None),
    ("pibgen.bounds", "bsv_bounds", "bounds.formula", None),
    ("pibgen.bounds", "mtr_bounds", "bounds.formula", None),
    ("pibgen.cli", "naive_sate", "points.naive", None),
    ("pibgen.cli", "ipw_estimate", "points.ipw", _reps),
    ("pibgen.cli", "subclass_estimate", "points.subclass", None),
    ("pibgen.cli", "lambda_report", "lambda_select", None),
    ("pibgen.cli", "resolve_lambda", "lambda_select", None),
    ("pibgen.cli", "to_json", "report.render", _bytes),
    ("pibgen.oracle", "enumerate_worst_case", "oracle.enumerate", _completions),
    ("pibgen.oracle", "enumerate_bsv", "oracle.enumerate", _completions),
    ("pibgen.oracle", "enumerate_mtr", "oracle.enumerate", _completions),
    ("pibgen.oracle", "exact_rates", "oracle.exact", None),
    ("pibgen.oracle", "exact_design_probs", "oracle.exact", None),
)

ROOT_SPAN = "cli"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans; -1 for an op's root
    op: int
    count: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def call(self, name, fn, count, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)
        if count is not None:
            self.spans[index] = Span(name, start, end, parent, self.op, count(result))
        return result

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, count, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def per_op(spans) -> dict[int, dict]:
    """For each op: self ms, call count and summed return-value count per span name."""
    children = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    ops: dict[int, dict] = {}
    for i, span in enumerate(spans):
        tallies = ops.setdefault(span.op, {"self_ms": defaultdict(float),
                                           "calls": defaultdict(int),
                                           "count": defaultdict(int),
                                           "op_ms": 0.0})
        tallies["self_ms"][span.name] += (span.end - span.start - children[i]) * 1e3
        tallies["calls"][span.name] += 1
        if span.count is not None:
            tallies["count"][span.name] += span.count
        if span.parent < 0:
            tallies["op_ms"] += (span.end - span.start) * 1e3
    return ops
