"""Isolation levels: per-transaction admissibility, SSI structures, completion.

RC and SI are per-transaction conditions: writes must install in commit
order, reads must observe the most recently committed version relative to a
reference operation (the read itself for RC, the transaction's first
operation for SI), and RC forbids dirty writes where SI forbids the broader
class of concurrent writes.  SSI additionally rules out a whole-schedule
pattern of two consecutive rw-antidependencies between concurrent
transactions.

Because commit order pins the version order and the read rules pin the
version function, a total operation order has at most one completion into
an allowed schedule under a level allocation; :func:`complete_under_allocation`
constructs it.  That uniqueness is what keeps exhaustive enumeration of
allowed schedules finite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import INIT, Budget, Operation, OperationId, Schedule, SearchLimits, Transaction, are_concurrent, txn_id
from .errors import AllocationIncomplete, UnknownOperation
from .serializability import ConflictKind, DependencyEdge, is_view_serializable


class IsolationLevel(enum.Enum):
    RC = "RC"
    SI = "SI"
    SSI = "SSI"


@dataclass(frozen=True)
class LevelAllocation:
    """Assigns an isolation level to each transaction by id."""

    levels: Mapping[str, IsolationLevel]

    @classmethod
    def uniform(cls, level: IsolationLevel, txn_ids: Iterable[str]) -> "LevelAllocation":
        return cls({tid: level for tid in txn_ids})

    def level_of(self, tid: str) -> IsolationLevel:
        try:
            return self.levels[tid]
        except KeyError:
            raise AllocationIncomplete(f"no isolation level allocated to transaction {tid!r}") from None

    def restrict(self, txn_ids: Iterable[str]) -> "LevelAllocation":
        keep = set(txn_ids)
        return LevelAllocation({tid: lvl for tid, lvl in self.levels.items() if tid in keep})

    def ssi_ids(self) -> tuple[str, ...]:
        return tuple(sorted(tid for tid, lvl in self.levels.items() if lvl is IsolationLevel.SSI))


#: Name of the test-only predicate allocation admitting exactly the
#: view-serializable schedules over any transaction subset.
VIEW_SERIALIZABLE_ONLY = "view-serializable-only"

_PREDICATES = {
    VIEW_SERIALIZABLE_ONLY: lambda s, **bounds: is_view_serializable(s, **bounds).verdict,
}


@dataclass(frozen=True)
class PredicateAllocation:
    """Test-only allocation: a named schedule predicate decides admissibility.

    Restriction to a transaction subset is the predicate itself, evaluated
    on schedules over that subset.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in _PREDICATES:
            raise ValueError(f"unknown allocation predicate {self.name!r}")

    def holds(self, s: Schedule, limits: SearchLimits | None = None, budget: Budget | None = None) -> bool:
        """Whether the predicate admits ``s``, deciding it within ``limits``
        (the predicate's own bounds when None) and charging ``budget``."""
        bounds = {} if limits is None else {"max_txns": limits.max_txns, "max_ops": limits.max_ops}
        return _PREDICATES[self.name](s, budget=budget, **bounds)

    def restrict(self, txn_ids: Iterable[str]) -> "PredicateAllocation":
        return self


Allocation = LevelAllocation | PredicateAllocation


class Clause(enum.Enum):
    """Which admissibility condition a violation falls under."""

    COMMIT_ORDER = "commit-order"
    READ_LAST_COMMITTED = "read-last-committed"
    DIRTY_WRITE = "dirty-write"
    CONCURRENT_WRITE = "concurrent-write"
    DANGEROUS_STRUCTURE = "dangerous-structure"
    PREDICATE = "predicate"


@dataclass(frozen=True)
class AdmissibilityViolation:
    """One failed clause; ``txn`` is None for schedule-level predicate failures."""

    txn: str | None
    clause: Clause
    witnesses: tuple = ()

    def __str__(self) -> str:
        who = self.txn if self.txn is not None else "<schedule>"
        return f"{who}: {self.clause.value}"


@dataclass(frozen=True)
class AdmissibilityReport:
    violations: tuple[AdmissibilityViolation, ...]

    @property
    def allowed(self) -> bool:
        return not self.violations

    def clauses(self) -> frozenset[Clause]:
        return frozenset(v.clause for v in self.violations)


@dataclass(frozen=True)
class DangerousStructure:
    """Two chained rw-antidependencies t1 -> t2 -> t3 between concurrent
    transactions, with t3 committing first (t1 and t3 may coincide)."""

    t1: str
    t2: str
    t3: str
    witnesses: tuple[DependencyEdge, DependencyEdge]


# ---------------------------------------------------------------------------
# Per-operation clauses
# ---------------------------------------------------------------------------


def respects_commit_order(s: Schedule, w: OperationId) -> bool:
    """Versions install in commit order: for every other transaction's write
    on the same object, vorder and commit order point the same way."""
    op = s.operation(w)
    if not op.is_write:
        raise UnknownOperation(f"{w!r} is not a write operation")
    my_commit = s.commit_pos[w.txn]
    vpos = s.vpos[op.obj]
    for other in s.writes_by_obj[op.obj]:
        if other.id.txn == w.txn:
            continue
        if (vpos[w] < vpos[other.id]) != (my_commit < s.commit_pos[other.id.txn]):
            return False
    return True


def read_last_committed(s: Schedule, r: OperationId, rel: OperationId) -> bool:
    """The read observes the most recently committed version as of ``rel``.

    Holds when the observed version is INIT or committed before ``rel``, and
    no version committed before ``rel`` installs after the observed one.
    """
    read_op = s.operation(r)
    if not read_op.is_read:
        raise UnknownOperation(f"{r!r} is not a read operation")
    rel_op = s.operation(rel)
    if rel_op.id.txn != r.txn:
        raise ValueError("the reference operation must belong to the reading transaction")
    rel_pos = s.pos[rel]
    observed = s.vf[r]
    if not observed.is_init and s.commit_pos[observed.txn] >= rel_pos:
        return False
    vpos = s.vpos[read_op.obj]
    observed_rank = vpos[observed]
    for w in s.writes_by_obj.get(read_op.obj, ()):
        if s.commit_pos[w.id.txn] < rel_pos and vpos[w.id] > observed_rank:
            return False
    return True


def _dirty_write_witness(s: Schedule, tid: str) -> tuple[OperationId, OperationId] | None:
    """A pair (other write, own write) with the own write landing before the
    other transaction commits, or None."""
    t = s.transaction(tid)
    pos = s.pos
    for own in t.ops:
        if not own.is_write:
            continue
        own_pos = pos[own.id]
        for other in s.writes_by_obj.get(own.obj, ()):
            if other.id.txn == tid:
                continue
            if pos[other.id] < own_pos < s.commit_pos[other.id.txn]:
                return (other.id, own.id)
    return None


def exhibits_dirty_write(s: Schedule, t: Transaction | str) -> bool:
    """The transaction overwrites an object whose earlier writer has not committed yet."""
    return _dirty_write_witness(s, txn_id(t)) is not None


def _concurrent_write_witness(s: Schedule, tid: str) -> tuple[OperationId, OperationId] | None:
    t = s.transaction(tid)
    pos = s.pos
    my_first = s.first_pos[tid]
    for own in t.ops:
        if not own.is_write:
            continue
        own_pos = pos[own.id]
        for other in s.writes_by_obj.get(own.obj, ()):
            if other.id.txn == tid:
                continue
            if pos[other.id] < own_pos and my_first < s.commit_pos[other.id.txn]:
                return (other.id, own.id)
    return None


def exhibits_concurrent_write(s: Schedule, t: Transaction | str) -> bool:
    """The transaction overwrites an object modified earlier by a concurrent transaction."""
    return _concurrent_write_witness(s, txn_id(t)) is not None


# ---------------------------------------------------------------------------
# Per-transaction admissibility
# ---------------------------------------------------------------------------


def allowed_under_rc(s: Schedule, t: Transaction | str) -> AdmissibilityReport:
    """Commit-ordered writes, reads fresh at the moment of the read, no dirty writes."""
    tid = txn_id(t)
    txn = s.transaction(tid)
    violations: list[AdmissibilityViolation] = []
    for op in txn.ops:
        if op.is_write and not respects_commit_order(s, op.id):
            violations.append(AdmissibilityViolation(tid, Clause.COMMIT_ORDER, (op.id,)))
    for op in txn.ops:
        if op.is_read and not read_last_committed(s, op.id, op.id):
            violations.append(AdmissibilityViolation(tid, Clause.READ_LAST_COMMITTED, (op.id,)))
    dirty = _dirty_write_witness(s, tid)
    if dirty is not None:
        violations.append(AdmissibilityViolation(tid, Clause.DIRTY_WRITE, dirty))
    return AdmissibilityReport(tuple(violations))


def allowed_under_si(s: Schedule, t: Transaction | str) -> AdmissibilityReport:
    """Commit-ordered writes, reads from the transaction-start snapshot, no concurrent writes."""
    tid = txn_id(t)
    txn = s.transaction(tid)
    first_id = txn.ops[0].id
    violations: list[AdmissibilityViolation] = []
    for op in txn.ops:
        if op.is_write and not respects_commit_order(s, op.id):
            violations.append(AdmissibilityViolation(tid, Clause.COMMIT_ORDER, (op.id,)))
    for op in txn.ops:
        if op.is_read and not read_last_committed(s, op.id, first_id):
            violations.append(AdmissibilityViolation(tid, Clause.READ_LAST_COMMITTED, (op.id,)))
    concurrent = _concurrent_write_witness(s, tid)
    if concurrent is not None:
        violations.append(AdmissibilityViolation(tid, Clause.CONCURRENT_WRITE, concurrent))
    return AdmissibilityReport(tuple(violations))


# ---------------------------------------------------------------------------
# Dangerous structures (SSI)
# ---------------------------------------------------------------------------


def _rw_edges(s: Schedule, scope: frozenset[str]) -> dict[tuple[str, str], DependencyEdge]:
    """First witnessing rw-antidependency for each ordered transaction pair in scope."""
    edges: dict[tuple[str, str], DependencyEdge] = {}
    for obj, writes in s.writes_by_obj.items():
        vpos = s.vpos[obj]
        for read in s.reads:
            if read.obj != obj or read.id.txn not in scope:
                continue
            observed_rank = vpos[s.vf[read.id]]
            for w in writes:
                if w.id.txn == read.id.txn or w.id.txn not in scope:
                    continue
                if observed_rank < vpos[w.id]:
                    pair = (read.id.txn, w.id.txn)
                    edge = DependencyEdge(read.id, w.id, ConflictKind.RW)
                    if pair not in edges or (edge.src, edge.dst) < (edges[pair].src, edges[pair].dst):
                        edges[pair] = edge
    return edges


def find_dangerous_structures(
    s: Schedule,
    scope: Iterable[str],
    *,
    allow_degenerate_pivot: bool = False,
) -> list[DangerousStructure]:
    """All chains t1 -> t2 -> t3 of rw-antidependencies within ``scope`` where
    both hops are between concurrent transactions, t3 commits before t2 (and
    before t1 when the ends differ), and a read-only t1 starts only after t3
    commits.

    With the ends equal (t1 == t3) the commit clause "t3 commits before t1"
    degenerates; read literally it is false, which rules such chains out.
    Pass ``allow_degenerate_pivot=True`` for the alternative reading that
    drops the degenerate comparison.
    """
    scope_set = frozenset(scope)
    for tid in scope_set:
        s.transaction(tid)
    rw = _rw_edges(s, scope_set)
    commit = s.commit_pos
    found: list[DangerousStructure] = []
    for t1 in sorted(scope_set):
        for t2 in sorted(scope_set):
            if (t1, t2) not in rw:
                continue
            for t3 in sorted(scope_set):
                if (t2, t3) not in rw:
                    continue
                if t1 == t3:
                    if not allow_degenerate_pivot:
                        continue
                elif commit[t3] >= commit[t1]:
                    continue
                if commit[t3] >= commit[t2]:
                    continue
                if not are_concurrent(s, t1, t2) or not are_concurrent(s, t2, t3):
                    continue
                if s.transaction(t1).read_only and commit[t3] >= s.first_pos[t1]:
                    continue
                found.append(DangerousStructure(t1, t2, t3, (rw[(t1, t2)], rw[(t2, t3)])))
    return found


# ---------------------------------------------------------------------------
# Whole-schedule admissibility and completion
# ---------------------------------------------------------------------------


def allowed_under_allocation(
    s: Schedule,
    alloc: Allocation,
    *,
    allow_degenerate_pivot: bool = False,
) -> AdmissibilityReport:
    """Admissibility of a schedule under an allocation.

    For level allocations: RC transactions must pass the RC clauses, SI and
    SSI transactions the SI clauses, and no dangerous structure may exist
    among the SSI-mapped transactions.  For predicate allocations the named
    predicate alone decides.
    """
    if isinstance(alloc, PredicateAllocation):
        if alloc.holds(s):
            return AdmissibilityReport(())
        return AdmissibilityReport((AdmissibilityViolation(None, Clause.PREDICATE),))

    violations: list[AdmissibilityViolation] = []
    for t in s.txns:
        level = alloc.level_of(t.id)
        report = allowed_under_rc(s, t) if level is IsolationLevel.RC else allowed_under_si(s, t)
        violations.extend(report.violations)
    ssi_scope = [tid for tid in alloc.ssi_ids() if tid in s.txn_by_id]
    for structure in find_dangerous_structures(s, ssi_scope, allow_degenerate_pivot=allow_degenerate_pivot):
        violations.append(
            AdmissibilityViolation(structure.t2, Clause.DANGEROUS_STRUCTURE, (structure.t1, structure.t2, structure.t3))
        )
    return AdmissibilityReport(tuple(violations))


def complete_under_allocation(
    txns: Iterable[Transaction],
    order: Sequence[OperationId],
    alloc: LevelAllocation,
    *,
    allow_degenerate_pivot: bool = False,
) -> Schedule | None:
    """Complete a total operation order into the unique allowed schedule, if any.

    The version order is forced by commit order (transaction-internal order
    between writes of one transaction), and the version function is forced
    by the read-last-committed rule at each transaction's level.  That
    construction satisfies the commit-order and read-freshness clauses
    outright, so admissibility of the completion reduces to the dirty-write,
    concurrent-write, and dangerous-structure clauses; the result is exactly
    the schedule accepted by :func:`allowed_under_allocation`, or None when
    the order admits none.
    """
    txns = tuple(sorted(txns, key=lambda t: t.id))
    if len({t.id for t in txns}) != len(txns):
        raise ValueError("duplicate transaction ids")
    order_t = tuple(order)
    if INIT not in order_t:
        order_t = (INIT,) + order_t
    pos = {opid: i for i, opid in enumerate(order_t)}
    commit_pos = {t.id: pos[t.ops[-1].id] for t in txns}
    first_pos = {t.id: pos[t.ops[0].id] for t in txns}
    levels = {t.id: alloc.level_of(t.id) for t in txns}

    writes: dict[str, list[Operation]] = {}
    for t in txns:
        for op in t.ops:
            if op.is_write:
                writes.setdefault(op.obj, []).append(op)

    # dirty writes (RC transactions) and concurrent writes (SI/SSI) reject
    # the order before any schedule is built
    for ws in writes.values():
        for a in ws:
            a_pos = pos[a.id]
            rc = levels[a.id.txn] is IsolationLevel.RC
            bound = a_pos if rc else first_pos[a.id.txn]
            for b in ws:
                if b.id.txn != a.id.txn and pos[b.id] < a_pos and bound < commit_pos[b.id.txn]:
                    return None

    vorder: dict[str, tuple[OperationId, ...]] = {}
    for obj, ws in writes.items():
        ws_sorted = sorted(ws, key=lambda op: (commit_pos[op.id.txn], op.id.index))
        vorder[obj] = (INIT,) + tuple(op.id for op in ws_sorted)

    vf: dict[OperationId, OperationId] = {}
    for t in txns:
        first_id = t.ops[0].id
        rc = levels[t.id] is IsolationLevel.RC
        for op in t.ops:
            if not op.is_read:
                continue
            rel_pos = pos[op.id] if rc else pos[first_id]
            chosen = INIT
            for wid in reversed(vorder.get(op.obj, (INIT,))[1:]):
                if commit_pos[wid.txn] < rel_pos:
                    chosen = wid
                    break
            vf[op.id] = chosen

    for t in txns:
        for op in t.ops:
            if op.obj is not None and op.obj not in vorder:
                vorder[op.obj] = (INIT,)

    s = Schedule(txns=txns, order=order_t, vorder=vorder, vf=vf)

    ssi_scope = [tid for tid, lvl in levels.items() if lvl is IsolationLevel.SSI]
    if len(ssi_scope) >= (2 if allow_degenerate_pivot else 3):
        if find_dangerous_structures(s, ssi_scope, allow_degenerate_pivot=allow_degenerate_pivot):
            return None
    return s
