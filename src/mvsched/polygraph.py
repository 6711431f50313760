"""Polygraphs and their reduction to multiversion schedules.

A polygraph is a directed graph with mandatory arcs plus three-node
choices; it is acyclic when some resolution of every choice (one of its two
optional edges) yields a DAG.  Deciding that is the hard core of
view-serializability, and :func:`reduce_to_schedule` realizes the
connection constructively: it emits a schedule whose transactions are
individually admissible under both RC and SI and which is view-serializable
exactly when the polygraph is acyclic.  :func:`verify_reduction` runs both
deciders and cross-checks them.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .core import (
    DEFAULT_LIMITS,
    Action,
    Budget,
    Operation,
    OperationId,
    Schedule,
    SearchLimits,
    Transaction,
    validate_schedule,
)
from .errors import ReductionInadmissible
from .isolation import Clause, IsolationLevel, LevelAllocation, allowed_under_rc, allowed_under_si, complete_under_allocation
from .serializability import has_cycle, is_view_serializable

#: Bounds sized for reduction outputs, which are larger than the desk-scale
#: robustness defaults (a polygraph with 5 nodes and 3 choices yields 11
#: transactions).
REDUCTION_LIMITS = SearchLimits(max_txns=12, max_ops=128, max_orders=10_000_000, budget_seconds=300.0)


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
    """Brute force over all choice resolutions; first DAG found is the witness.

    Resolutions are tried in canonical order: choices sorted, and for each
    choice the forward edge (u, v) before the closing edge (v, w).  Each
    resolution tried counts as one candidate against ``limits.max_orders``
    and the time budget.
    """
    choices = sorted(p.choices)
    budget = Budget(limits)
    index = {node: i for i, node in enumerate(p.nodes)}
    for bits in itertools.product((0, 1), repeat=len(choices)):
        budget.tick()
        extra = tuple((u, v) if bit == 0 else (v, w) for bit, (u, v, w) in zip(bits, choices))
        full = p.arcs | frozenset(extra)
        succ = [0] * len(index)
        for a, b in full:
            succ[index[a]] |= 1 << index[b]
        if not has_cycle(succ):
            return True, CompatibilityWitness(extra, full)
    return False, None


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def arc_object(arc: tuple[str, str]) -> str:
    return f"arc:{arc[0]}->{arc[1]}"


def choice_object(choice: tuple[str, str, str]) -> str:
    return f"choice:{choice[0]},{choice[1]},{choice[2]}"


def _node_txn_id(node: str) -> str:
    return f"T:{node}"


def _choice_txn_ids(choice: tuple[str, str, str]) -> tuple[str, str]:
    tag = ",".join(choice)
    return f"T0:{tag}", f"Tinf:{tag}"


def reduce_to_schedule(p: Polygraph) -> tuple[tuple[Transaction, ...], Schedule]:
    """Build the schedule that is view-serializable iff the polygraph is acyclic.

    One transaction per node plus an opening and a closing writer per
    choice.  A node's transaction reads the object of every arc it starts,
    writes the object of every arc it ends, reads each choice object where
    it appears first or third, and writes it where it appears second.  The
    schedule runs the opening writers serially, then all node transactions
    concurrently (first operations, then bodies, then commits, each section
    in node order), then the closing writers serially; versions install in
    commit order and every read observes the newest version committed
    before it.
    """
    arcs = sorted(p.arcs)
    choices = sorted(p.choices)
    nodes = sorted(p.nodes)

    # per node, its operations in the five groups above, each in arc or choice order
    groups: dict[str, tuple[list, ...]] = defaultdict(lambda: ([], [], [], [], []))
    for a in arcs:
        groups[a[0]][0].append((Action.READ, arc_object(a)))
        groups[a[1]][2].append((Action.WRITE, arc_object(a)))
    for c in choices:
        groups[c[0]][1].append((Action.READ, choice_object(c)))
        groups[c[1]][3].append((Action.WRITE, choice_object(c)))
        groups[c[2]][4].append((Action.READ, choice_object(c)))
    node_txns: list[Transaction] = []
    for x in nodes:
        tid = _node_txn_id(x)
        specs = itertools.chain.from_iterable(groups[x])
        ops = [Operation(OperationId(tid, k), action, obj) for k, (action, obj) in enumerate(specs, start=1)]
        ops.append(Operation(OperationId(tid, len(ops) + 1), Action.COMMIT))
        node_txns.append(Transaction(tid, tuple(ops)))

    opening: list[Transaction] = []
    closing: list[Transaction] = []
    for c in choices:
        t0_id, tinf_id = _choice_txn_ids(c)
        obj = choice_object(c)
        opening.append(
            Transaction(
                t0_id,
                (
                    Operation(OperationId(t0_id, 1), Action.WRITE, obj),
                    Operation(OperationId(t0_id, 2), Action.COMMIT),
                ),
            )
        )
        closing.append(
            Transaction(
                tinf_id,
                (
                    Operation(OperationId(tinf_id, 1), Action.WRITE, obj),
                    Operation(OperationId(tinf_id, 2), Action.COMMIT),
                ),
            )
        )
    txns = opening + node_txns + closing

    order: list[OperationId] = []
    for t in opening:
        order.extend(t.op_ids)
    concurrent = [t for t in node_txns if len(t.ops) > 1]
    commit_only = [t for t in node_txns if len(t.ops) == 1]
    order.extend(t.ops[0].id for t in concurrent)
    for t in concurrent:
        order.extend(op.id for op in t.ops[1:-1])
    order.extend(t.ops[-1].id for t in concurrent)
    order.extend(t.ops[-1].id for t in commit_only)
    for t in closing:
        order.extend(t.op_ids)

    alloc = LevelAllocation.uniform(IsolationLevel.RC, (t.id for t in txns))
    schedule = complete_under_allocation(txns, order, alloc)
    if schedule is None:
        raise ReductionInadmissible("reduction output is not admissible under RC")
    return tuple(sorted(txns, key=lambda t: t.id)), schedule


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


def verify_reduction(p: Polygraph, limits: SearchLimits = REDUCTION_LIMITS) -> ReductionReport:
    """Cross-check the reduction on one polygraph.

    Asserts that the generated schedule is well-formed, free of concurrent
    writes, commit-order-respecting, fresh on every read relative to both
    reference points, admissible per transaction under RC and under SI,
    linear in size, and that its view-serializability verdict coincides
    with the polygraph's acyclicity verdict.
    """
    txns, s = reduce_to_schedule(p)
    checks: list[ReductionCheck] = []

    violations = validate_schedule(s)
    checks.append(ReductionCheck("schedule-valid", not violations, "; ".join(map(str, violations))))

    # each transaction's RC and SI reports hold the four clause checks below
    rc = [allowed_under_rc(s, t) for t in s.txns]
    si = [allowed_under_si(s, t) for t in s.txns]

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
    vs = is_view_serializable(s, max_txns=limits.max_txns, max_ops=limits.max_ops, budget=Budget(limits))
    checks.append(
        ReductionCheck(
            "verdicts-match",
            acyclic == vs.verdict,
            f"acyclic={acyclic}, view-serializable={vs.verdict}",
        )
    )

    return ReductionReport(polygraph_acyclic=acyclic, schedule_view_serializable=vs.verdict, checks=tuple(checks))
