"""Spans around the public functions of each credalmc module.

The package imports names with ``from .x import y``, so a function is
patched in every module that calls it, not where it is defined.  Each call
records one span (name, parent, start, end) in memory; a span's self time is
its duration minus the time its child spans cover.  A call made directly
inside a span of the same name belongs to that span, so a recursive function
such as ``dumps_document`` shows once per top-level call.  A name that does
not exist is skipped and reported in ``absent``: the benchmark keeps running
when a refactor removes or merges functions.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module under credalmc, attribute at the call site, span name)
PATCHES = (
    ("cli", "_load_json", "cli.parse"),
    ("cli", "parse_model", "cli.parse"),
    ("cli", "parse_query", "cli.parse"),
    ("cli", "validate_model", "core.validate"),
    ("cli", "dumps_document", "cli.serialize"),
    ("cli", "infer", "engine.infer"),
    ("cli", "conditional_bounds", "engine.conditional"),
    ("engine", "conditional_bounds", "engine.conditional"),
    ("engine", "unconditional_bounds", "engine.unconditional"),
    ("inferences", "unconditional_bounds", "engine.unconditional"),
    ("engine", "recursion_step", "engine.recursion_step"),
    ("inferences", "recursion_step", "engine.recursion_step"),
    ("cli", "limit_infer", "inferences.limit"),
    ("engine", "upper_transition", "operators.transition"),
    ("engine", "lower_transition", "operators.transition"),
    ("inferences", "upper_transition", "operators.transition"),
    ("inferences", "lower_transition", "operators.transition"),
    ("oracle", "extended_upper", "operators.extended"),
    ("oracle", "extended_lower", "operators.extended"),
    ("cli", "materialize_path_function", "oracle.materialize"),
    ("cli", "naive_conditional_bounds", "oracle.contract"),
    # Row optimisations; the span is named after the row kind, lp.<kind>.
    ("operators", "maximize", "lp"),
    ("operators", "minimize", "lp"),
    ("engine", "maximize", "lp"),
    ("engine", "minimize", "lp"),
)

_ROW_KINDS = {"IntervalRow": "interval", "VertexRow": "vertex",
              "ConstraintRow": "constraint"}

# Span fields, stored as lists for speed.
NAME, PARENT, START, END, ITERATIONS = range(5)


class Tracer:
    """Patches the call sites on ``install`` and restores them on ``remove``."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple] = []

    def install(self):
        self.absent = []
        for module_name, attr, span in PATCHES:
            try:
                module = importlib.import_module(f"credalmc.{module_name}")
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    @contextmanager
    def span(self, name: str):
        """An explicit span, such as the root span around one op."""
        spans, stack = self.spans, self._stack
        record = [name, stack[-1], 0.0, 0.0, None]
        stack.append(len(spans))
        spans.append(record)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        is_lp = name == "lp"

        def traced(*args, **kwargs):
            span_name = name
            if is_lp and args:
                kind = type(args[0]).__name__
                span_name = "lp." + _ROW_KINDS.get(kind, kind.lower())
            top = stack[-1]
            if top >= 0 and spans[top][NAME] == span_name:
                return fn(*args, **kwargs)
            record = [span_name, top, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if is_lp:
                record[ITERATIONS] = getattr(result, "iterations", None)
            return result

        traced.__wrapped__ = fn
        return traced


def summarise(spans) -> dict:
    """Per span name: call count, total duration, total self time (seconds)
    and summed solver iterations."""
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for s, dur in zip(spans, duration):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur
    out = defaultdict(lambda: {"calls": 0, "time": 0.0, "self": 0.0, "iterations": 0})
    for s, dur, covered in zip(spans, duration, child_time):
        entry = out[s[NAME]]
        entry["calls"] += 1
        entry["time"] += dur
        entry["self"] += dur - covered
        entry["iterations"] += s[ITERATIONS] or 0
    return dict(out)
