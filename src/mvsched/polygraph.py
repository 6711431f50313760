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
from typing import Iterable, NamedTuple

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
    new = tuple.__new__
    first, commit = new(OperationId, (tid, 1)), new(OperationId, (tid, 2))
    return new(Transaction, (tid, (new(Operation, (first, _WRITE, obj)), new(Operation, (commit, _COMMIT, None)))))


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
    version orders and the version function are built from those facts as
    each operation is made, and :func:`verify_reduction` checks them rather
    than assumes them.  The names are ``T:x`` per node, ``T0:u,v,w`` and
    ``Tinf:u,v,w`` per choice, and objects ``arc:x->y`` and
    ``choice:u,v,w``, so a node name holding ``->``, ``,``, ``(``, ``)`` or
    ``<`` raises :class:`ScheduleError` before anything is built; one search
    per token over the names joined by line breaks clears them all.
    """
    named, tokens = p.nodes.union(*p.arcs, *p.choices), ("->", ",", "(", ")", "<")
    joined = "\n".join(named)  # no token spans a line break, so one search per token clears every name
    if any(bad in joined for bad in tokens):
        for x in sorted(named):
            for bad in tokens:
                if bad in x:
                    raise ScheduleError(f"node {x!r} contains {bad!r}, which the reduction cannot encode in its names")
    nodes = p.nodes
    # per node, its operations in the five groups above, each in arc or choice
    # order, as (action, object, for a read the version it observes)
    groups = {x: ([], [], [], [], []) for x in named}
    chains: dict[str, list[OperationId]] = {}  # per object, its version order so far
    for u, v in sorted(p.arcs):
        obj = f"arc:{u}->{v}"
        groups[u][0].append((_READ, obj, INIT))
        groups[v][2].append((_WRITE, obj, None))
        if u in nodes or v in nodes:
            chains[obj] = [INIT]
    opening, closing = [], []  # per choice, the writers of its first and its last version
    for u, v, w in sorted(p.choices):
        tag = f"{u},{v},{w}"
        obj = "choice:" + tag
        t0 = _writer("T0:" + tag, obj)
        opened = t0.ops[0].id
        chains[obj] = [INIT, opened]
        groups[u][1].append((_READ, obj, opened))
        groups[v][3].append((_WRITE, obj, None))
        groups[w][4].append((_READ, obj, opened))
        opening.append(t0)
        closing.append(_writer("Tinf:" + tag, obj))
    node_txns: list[Transaction] = []
    node_ids: list[list[OperationId]] = []  # per node transaction, its ids, which the order lists
    vf: dict[OperationId, OperationId] = {}
    new = tuple.__new__  # ids and operations built as make_transaction builds them
    for x in sorted(nodes):
        tid, ops, ids = "T:" + x, [], []
        for k, (a, obj, seen) in enumerate(itertools.chain(*groups[x]), 1):
            opid = new(OperationId, (tid, k))
            ids.append(opid)
            ops.append(new(Operation, (opid, a, obj)))
            if seen is None:
                chains[obj].append(opid)  # the node's version, between its choice's two writers
            else:
                vf[opid] = seen
        ids.append(new(OperationId, (tid, len(ids) + 1)))
        ops.append(new(Operation, (ids[-1], _COMMIT, None)))
        node_txns.append(new(Transaction, (tid, tuple(ops))))
        node_ids.append(ids)
    for t in closing:
        w = t.ops[0]
        chains[w.obj].append(w.id)
    concurrent = [ids for ids in node_ids if len(ids) > 1]
    order = [INIT, *[op.id for t in opening for op in t.ops]]
    order += [ids[0] for ids in concurrent]
    order += [opid for ids in concurrent for opid in ids[1:-1]]
    order += [ids[-1] for ids in concurrent]
    order += [ids[0] for ids in node_ids if len(ids) == 1]
    order += [op.id for t in closing for op in t.ops]
    # an object's writers commit in the order of their ids: T0:, T:, Tinf:
    txns = tuple(sorted(opening + node_txns + closing, key=attrgetter("id")))
    vorder = {obj: tuple(c) for obj, c in chains.items()}
    return txns, Schedule(txns=txns, order=tuple(order), vorder=vorder, vf=vf)


class ReductionCheck(NamedTuple):
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
    pass over the schedule (:func:`allowed_at_levels`) gives every
    transaction's RC and SI reports, which hold the four clause checks.
    Each of the two searches gets its own ``Budget(limits)``: only
    ``limits.max_orders`` and ``limits.budget_seconds`` bound them,
    whatever the polygraph's size.
    """
    txns, s = reduce_to_schedule(p)
    violations = validate_schedule(s)
    checks = [("schedule-valid", not violations, "; ".join(map(str, violations)))]  # (name, passed, detail)

    bad_commit, cw, stale_self, stale_first, not_rc, not_si = [], [], [], [], [], []
    for t, (rc, si) in zip(s.txns, allowed_at_levels(s, [(IsolationLevel.RC, IsolationLevel.SI)] * len(s.txns))):
        if rc.violations:
            not_rc.append(t.id)
            bad_commit += [v.witnesses[0] for v in rc.violations if v.clause is Clause.COMMIT_ORDER]
            stale_self += [v.witnesses[0] for v in rc.violations if v.clause is Clause.READ_LAST_COMMITTED]
        if si.violations:
            not_si.append(t.id)
            cw += [v.txn for v in si.violations if v.clause is Clause.CONCURRENT_WRITE]
            stale_first += [v.witnesses[0] for v in si.violations if v.clause is Clause.READ_LAST_COMMITTED]
    checks.append(("writes-respect-commit-order", not bad_commit, repr(bad_commit)))
    checks.append(("no-concurrent-writes", not cw, repr(cw)))
    checks.append(("reads-fresh-at-read", not stale_self, repr(stale_self)))
    checks.append(("reads-fresh-at-start", not stale_first, repr(stale_first)))
    checks.append(("rc-admissible", not_rc == [], repr(not_rc)))
    checks.append(("si-admissible", not_si == [], repr(not_si)))

    total_ops = sum(len(t.ops) for t in txns)
    expected = 2 * len(p.arcs) + 7 * len(p.choices) + len(p.nodes)
    checks.append(("size-linear", total_ops == expected, f"ops={total_ops}, expected={expected}"))

    acyclic, _ = is_acyclic_polygraph(p, limits)
    vs = is_view_serializable(s, budget=Budget(limits))
    checks.append(("verdicts-match", acyclic == vs.verdict, f"acyclic={acyclic}, view-serializable={vs.verdict}"))

    checks = tuple([tuple.__new__(ReductionCheck, c) for c in checks])  # past the named tuple's Python-level __new__
    return ReductionReport(polygraph_acyclic=acyclic, schedule_view_serializable=vs.verdict, checks=checks)
