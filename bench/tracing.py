"""Spans around calls into mvsched's layers, and per-layer metrics from them.

Wrappers replace functions where the calling module binds them (for example
``mvsched.robustness.complete_under_allocation``, which is what the
enumeration calls), so no file of the program changes.  A span is the list
``[name, start, end, parent, decision, value]``: ``parent`` indexes the
enclosing span or is -1, ``decision`` numbers the command being run, and
``value`` carries what a count needs from the call's result.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

NAME, START, END, PARENT, DECISION, VALUE = range(6)


def _accepted(result):
    return result is not None


def _exhausted(result):
    return result.exhausted


#: (module, attribute, span name, value taken from the result).  Only the
#: boundaries the benchmark's commands reach are listed.
BOUNDARIES = (
    ("mvsched.cli", "run", "cli.run", None),
    ("mvsched.textio", "parse_workload", "textio.parse", None),
    ("mvsched.textio", "parse_schedule", "textio.parse", None),
    ("mvsched.textio", "parse_polygraph", "textio.parse", None),
    ("mvsched.textio", "render_schedule", "textio.render", None),
    ("mvsched.textio", "validate_schedule", "core.validate", None),
    ("mvsched.polygraph", "validate_schedule", "core.validate", None),
    ("mvsched.robustness", "complete_under_allocation", "isolation.complete", _accepted),
    ("mvsched.polygraph", "complete_under_allocation", "isolation.complete", _accepted),
    ("mvsched.cli", "allowed_under_allocation", "isolation.allowed", None),
    ("mvsched.isolation", "find_dangerous_structures", "isolation.dangerous", None),
    ("mvsched.cli", "is_conflict_robust", "robustness.enumerate", None),
    ("mvsched.cli", "is_view_robust", "robustness.enumerate", None),
    ("mvsched.cli", "find_split_counterexample", "robustness.split", None),
    ("mvsched.robustness", "is_generalized_split_schedule", "robustness.split_recognize", None),
    ("mvsched.cli", "is_conflict_serializable", "serializability.conflict", None),
    ("mvsched.robustness", "is_conflict_serializable", "serializability.conflict", None),
    ("mvsched.serializability", "serialization_graph", "serializability.graph", None),
    ("mvsched.robustness", "serialization_graph", "serializability.graph", None),
    ("mvsched.cli", "is_view_serializable", "serializability.view", _exhausted),
    ("mvsched.polygraph", "is_view_serializable", "serializability.view", _exhausted),
    ("mvsched.isolation", "is_view_serializable", "serializability.view", _exhausted),
    ("mvsched.robustness", "serial_signature_pool", "serializability.pool", None),
    ("mvsched.polygraph", "is_acyclic_polygraph", "polygraph.acyclic", None),
    ("mvsched.polygraph", "reduce_to_schedule", "polygraph.reduce", None),
    ("mvsched.cli", "verify_reduction", "polygraph.verify", None),
)


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.decision = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        self.pool_hits = 0
        self.pool_misses = 0

    def wrap(self, name, fn, value_of):
        spans, stack = self.spans, self._stack
        clock = time.process_time  # the clock of decide.run_one

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.decision, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if value_of is not None:
                span[VALUE] = value_of(result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, value_of in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, value_of))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach, s[START])
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _under(spans, i: int, names) -> str | None:
    """Name of the nearest enclosing span whose name is in ``names``."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return spans[p][NAME]
        p = spans[p][PARENT]
    return None


#: Per-layer metric -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "cli.run_self_s": "cli.run",
    "textio.parse_s": "textio.parse",
    "textio.render_s": "textio.render",
    "core.validate_s": "core.validate",
    "isolation.complete_s": "isolation.complete",
    "isolation.allowed_s": "isolation.allowed",
    "isolation.dangerous_s": "isolation.dangerous",
    "robustness.enumerate_self_s": "robustness.enumerate",
    "robustness.split_self_s": "robustness.split",
    "robustness.split_recognize_s": "robustness.split_recognize",
    "serializability.conflict_s": "serializability.conflict",
    "serializability.graph_s": "serializability.graph",
    "serializability.view_s": "serializability.view",
    "serializability.pool_s": "serializability.pool",
    "polygraph.acyclic_s": "polygraph.acyclic",
    "polygraph.reduce_s": "polygraph.reduce",
    "polygraph.verify_self_s": "polygraph.verify",
}


def layer_metrics(spans) -> dict[str, float]:
    """Self times per layer plus the counts taken at the same boundaries."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        by_name[s[NAME]] += t
        calls[s[NAME]] += 1
    out = {metric: by_name[name] for metric, name in SELF_TIME_METRICS.items()}
    completes = [i for i, s in enumerate(spans) if s[NAME] == "isolation.complete"]
    accepted = sum(1 for i in completes if spans[i][VALUE])
    searches = {"robustness.enumerate", "robustness.split"}
    under = [_under(spans, i, searches) for i in completes]
    out.update(
        {
            "textio.parse_calls": calls["textio.parse"],
            "isolation.complete_calls": len(completes),
            "isolation.complete_accept_ratio": accepted / len(completes) if completes else 0.0,
            "robustness.interleavings": under.count("robustness.enumerate"),
            "robustness.split_candidates": under.count("robustness.split"),
            "serializability.conflict_calls": calls["serializability.conflict"],
            "serializability.view_calls": calls["serializability.view"],
            "serializability.view_exhausted": sum(
                s[VALUE] for s in spans if s[NAME] == "serializability.view" and s[VALUE] is not None
            ),
        }
    )
    return out
