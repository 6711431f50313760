"""Polygraphs and their reduction to multiversion schedules.

A polygraph is a directed graph with mandatory arcs plus three-node
choices; it is acyclic when some resolution of every choice (one of its two
optional edges) yields a DAG.  Deciding that is the hard core of
view-serializability, and :func:`reduce_to_schedule` realizes the
connection constructively: it builds a schedule that is view-serializable
exactly when the polygraph is acyclic, fixing its version orders and version
function by construction.  :func:`verify_reduction` checks on its own that
every transaction of it is admissible under both RC and SI, and runs both
deciders and cross-checks them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from .core import (
    DEFAULT_LIMITS,
    INIT,
    Action,
    Budget,
    Operation,
    OperationId,
    Schedule,
    SearchLimits,
    Transaction,
    validate_schedule,
)
from .errors import ScheduleError
from .isolation import Clause, IsolationLevel, allowed_at_levels
from .serializability import is_view_serializable, resolve_choices

_READ, _WRITE, _COMMIT = Action


@dataclass(frozen=True)
class Polygraph:
    nodes: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    choices: frozenset[tuple[str, str, str]]

    @classmethod
    def of(
        cls,
        nodes: Iterable[str],
        arcs: Iterable[tuple[str, str]] = (),
        choices: Iterable[tuple[str, str, str]] = (),
    ) -> "Polygraph":
        return cls(frozenset(nodes), frozenset(tuple(a) for a in arcs), frozenset(tuple(c) for c in choices))


class PolygraphDefect(enum.Enum):
    UNKNOWN_NODE = "unknown-node"
    SELF_ARC = "self-arc"
    CHOICE_NODES_NOT_DISTINCT = "choice-nodes-not-distinct"
    MISSING_CHOICE_ARC = "missing-choice-arc"


@dataclass(frozen=True)
class PolygraphViolation:
    kind: PolygraphDefect
    subject: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.kind.value}: {','.join(self.subject)}"


def validate_polygraph(p: Polygraph) -> list[PolygraphViolation]:
    """Structural rules: arcs join distinct known nodes; each choice names
    three distinct known nodes and is anchored by the arc from its third
    node back to its first."""
    out: list[PolygraphViolation] = []
    for w, u in sorted(p.arcs):
        for x in (w, u):
            if x not in p.nodes:
                out.append(PolygraphViolation(PolygraphDefect.UNKNOWN_NODE, (x,)))
        if w == u:
            out.append(PolygraphViolation(PolygraphDefect.SELF_ARC, (w, u)))
    for u, v, w in sorted(p.choices):
        for x in (u, v, w):
            if x not in p.nodes:
                out.append(PolygraphViolation(PolygraphDefect.UNKNOWN_NODE, (x,)))
        if len({u, v, w}) != 3:
            out.append(PolygraphViolation(PolygraphDefect.CHOICE_NODES_NOT_DISTINCT, (u, v, w)))
        if (w, u) not in p.arcs:
            out.append(PolygraphViolation(PolygraphDefect.MISSING_CHOICE_ARC, (u, v, w)))
    return out


@dataclass(frozen=True)
class CompatibilityWitness:
    """A resolved edge per choice whose union with the arcs is a DAG."""

    extra_edges: tuple[tuple[str, str], ...]
    full_graph: frozenset[tuple[str, str]]


def is_acyclic_polygraph(p: Polygraph, limits: SearchLimits = DEFAULT_LIMITS) -> tuple[bool, CompatibilityWitness | None]:
    """Whether some resolution of the choices leaves the graph acyclic; the
    canonically first one is the witness: choices sorted, and for each the
    forward edge (u, v) before the closing edge (v, w).

    :func:`resolve_choices` closes the arcs, which refutes cyclic arcs at
    the root, and propagates the choices before it branches on one, so it
    finds the resolution a brute force would; the worst case stays
    exponential.  Charges against ``limits.max_orders``: one candidate for
    the root step, and one per option tested, dead ones included.
    """
    index = {node: i for i, node in enumerate(p.nodes)}
    pred = [0] * len(index)
    for a, b in p.arcs:
        pred[index[b]] |= 1 << index[a]
    choices = sorted(p.choices)
    back = resolve_choices(pred, [(index[v], index[w], 1 << index[u]) for u, v, w in choices], Budget(limits))
    if back is None:
        return False, None
    # a choice took its forward edge exactly when the final closure holds that edge
    extra = tuple((u, v) if back[index[v]] >> index[u] & 1 else (v, w) for u, v, w in choices)
    return True, CompatibilityWitness(extra, p.arcs | frozenset(extra))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def _writer(tid: str, obj: str) -> Transaction:
    first, commit = tuple.__new__(OperationId, (tid, 1)), tuple.__new__(OperationId, (tid, 2))
    return Transaction(tid, (Operation(first, _WRITE, obj), Operation(commit, _COMMIT)))


def reduce_to_schedule(p: Polygraph) -> tuple[tuple[Transaction, ...], Schedule]:
    """Build the schedule that is view-serializable iff the polygraph is acyclic.

    One transaction per node plus an opening and a closing writer per
    choice.  A node's transaction reads the object of every arc it starts,
    writes the object of every arc it ends, reads each choice object where
    it appears first or third, and writes it where it appears second.  The
    schedule runs the opening writers serially, then all node transactions
    concurrently (first operations, then bodies, then commits, each section
    in node order), then the closing writers serially.  Versions install in
    commit order, and every read comes before the first node commit, so it
    observes its choice's opening writer, or INIT on an arc object; the
    schedule is built from those facts, which :func:`verify_reduction`
    checks rather than assumes.  The names are ``T:x`` per node,
    ``T0:u,v,w`` and ``Tinf:u,v,w`` per choice, and objects ``arc:x->y``
    and ``choice:u,v,w``, so a node name holding ``->``, ``,``, ``(``,
    ``)`` or ``<`` (which version chains and read entries split on) raises
    :class:`ScheduleError` before anything is built.
    """
    named = sorted(p.nodes.union(*p.arcs, *p.choices))
    for x in named:
        for bad in ("->", ",", "(", ")", "<"):
            if bad in x:
                raise ScheduleError(f"node {x!r} contains {bad!r}, which the reduction cannot encode in its names")
    # per node, its operations in the five groups above, each in arc or choice order
    groups = {x: ([], [], [], [], []) for x in named}
    for u, v in sorted(p.arcs):
        obj = f"arc:{u}->{v}"
        groups[u][0].append((_READ, obj))
        groups[v][2].append((_WRITE, obj))
    opening, closing = [], []  # per choice, the writers of its first and its last version
    for u, v, w in sorted(p.choices):
        tag = f"{u},{v},{w}"
        obj = "choice:" + tag
        groups[u][1].append((_READ, obj))
        groups[v][3].append((_WRITE, obj))
        groups[w][4].append((_READ, obj))
        opening.append(_writer("T0:" + tag, obj))
        closing.append(_writer("Tinf:" + tag, obj))
    nodes: list[Transaction] = []
    for x in sorted(p.nodes):
        tid = "T:" + x
        # ids built as make_transaction builds them, past the named tuple's Python-level __new__
        ops = [Operation(tuple.__new__(OperationId, (tid, k)), a, obj)
               for k, (a, obj) in enumerate(itertools.chain(*groups[x]), 1)]
        ops.append(Operation(tuple.__new__(OperationId, (tid, len(ops) + 1)), _COMMIT))
        nodes.append(Transaction(tid, tuple(ops)))
    concurrent = [t.ops for t in nodes if len(t.ops) > 1]
    order = [INIT, *[op.id for t in opening for op in t.ops]]
    order += [ops[0].id for ops in concurrent]
    order += [op.id for ops in concurrent for op in ops[1:-1]]
    order += [ops[-1].id for ops in concurrent]
    order += [t.ops[0].id for t in nodes if len(t.ops) == 1]
    order += [op.id for t in closing for op in t.ops]
    # an object's writers commit in the order of their ids: T0:, T:, Tinf:
    txns = tuple(sorted(opening + nodes + closing, key=attrgetter("id")))
    ops = [op for t in txns for op in t.ops]
    chains: dict[str, list[OperationId]] = {}
    for op in ops:
        if op.action is _WRITE:
            chains.setdefault(op.obj, [INIT]).append(op.id)
    reads = [op for op in ops if op.action is _READ]
    vorder = {obj: tuple(c) for obj, c in chains.items()} | {op.obj: (INIT,) for op in reads if op.obj not in chains}
    opened = {t.ops[0].obj: t.ops[0].id for t in opening}
    vf = {op.id: opened.get(op.obj, INIT) for op in reads}
    return txns, Schedule(txns=txns, order=tuple(order), vorder=vorder, vf=vf)


@dataclass(frozen=True)
class ReductionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ReductionReport:
    polygraph_acyclic: bool
    schedule_view_serializable: bool
    checks: tuple[ReductionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_reduction(p: Polygraph, limits: SearchLimits = DEFAULT_LIMITS) -> ReductionReport:
    """Cross-check the reduction on one polygraph.

    Asserts that the generated schedule is well-formed, free of concurrent
    writes, commit-order-respecting, fresh on every read relative to both
    reference points, admissible per transaction under RC and under SI,
    linear in size, and that its view-serializability verdict coincides
    with the polygraph's acyclicity verdict.  The reduction is built
    without the clauses, so these checks are independent of it; one clause
    pass per transaction (:func:`allowed_at_levels`) gives both reports.
    Each of the two searches gets its own ``Budget(limits)``: only
    ``limits.max_orders`` and ``limits.budget_seconds`` bound them,
    whatever the polygraph's size.
    """
    txns, s = reduce_to_schedule(p)
    checks: list[ReductionCheck] = []

    violations = validate_schedule(s)
    checks.append(ReductionCheck("schedule-valid", not violations, "; ".join(map(str, violations))))

    # each transaction's RC and SI reports hold the four clause checks below
    reports = [allowed_at_levels(s, t, (IsolationLevel.RC, IsolationLevel.SI)) for t in s.txns]
    rc, si = [r for r, _ in reports], [r for _, r in reports]

    def failing(reports, clause):
        return [v for r in reports for v in r.violations if v.clause is clause]

    bad_commit = [v.witnesses[0] for v in failing(rc, Clause.COMMIT_ORDER)]
    checks.append(ReductionCheck("writes-respect-commit-order", not bad_commit, repr(bad_commit)))
    cw = [v.txn for v in failing(si, Clause.CONCURRENT_WRITE)]
    checks.append(ReductionCheck("no-concurrent-writes", not cw, repr(cw)))
    stale_self = [v.witnesses[0] for v in failing(rc, Clause.READ_LAST_COMMITTED)]
    checks.append(ReductionCheck("reads-fresh-at-read", not stale_self, repr(stale_self)))
    stale_first = [v.witnesses[0] for v in failing(si, Clause.READ_LAST_COMMITTED)]
    checks.append(ReductionCheck("reads-fresh-at-start", not stale_first, repr(stale_first)))
    not_rc = [t.id for t, r in zip(s.txns, rc) if not r.allowed]
    checks.append(ReductionCheck("rc-admissible", not_rc == [], repr(not_rc)))
    not_si = [t.id for t, r in zip(s.txns, si) if not r.allowed]
    checks.append(ReductionCheck("si-admissible", not_si == [], repr(not_si)))

    total_ops = sum(len(t.ops) for t in txns)
    expected = 2 * len(p.arcs) + 7 * len(p.choices) + len(p.nodes)
    checks.append(
        ReductionCheck("size-linear", total_ops == expected, f"ops={total_ops}, expected={expected}")
    )

    acyclic, _ = is_acyclic_polygraph(p, limits)
    vs = is_view_serializable(s, budget=Budget(limits))
    checks.append(
        ReductionCheck(
            "verdicts-match",
            acyclic == vs.verdict,
            f"acyclic={acyclic}, view-serializable={vs.verdict}",
        )
    )

    return ReductionReport(polygraph_acyclic=acyclic, schedule_view_serializable=vs.verdict, checks=tuple(checks))
