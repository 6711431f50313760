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
an allowed schedule under a level allocation.  That uniqueness is what
keeps exhaustive enumeration of allowed schedules finite.  The completion
is coded once, as the step function of :class:`LevelEngine` over a
workload compiled to small ints; :func:`complete_under_allocation` drives
it over one order, the robustness enumeration over every interleaving and
the split decider over one order per candidate.
:func:`allowed_under_allocation` stays the clause-by-clause specification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import DEFAULT_LIMITS, INIT, Budget, OperationId, Schedule, ScheduleIndex, SearchLimits, Transaction, are_concurrent, txn_id
from .errors import AllocationIncomplete, UnknownOperation
from .serializability import ConflictKind, DependencyEdge, dependency_masks, is_view_serializable, serialization_graph


class IsolationLevel(enum.Enum):
    RC = "RC"
    SI = "SI"
    SSI = "SSI"


_RC, _SI, _SSI = IsolationLevel  # faster to compare with than a lookup on the Enum class


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


@dataclass(frozen=True)
class PredicateAllocation:
    """Test-only allocation: a named schedule predicate decides admissibility.

    Restriction to a transaction subset is the predicate itself, evaluated
    on schedules over that subset.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name != VIEW_SERIALIZABLE_ONLY:
            raise ValueError(f"unknown allocation predicate {self.name!r}")

    def holds(self, s: Schedule, budget: Budget | None = None) -> bool:
        """Whether the predicate admits ``s``, charging its search to
        ``budget`` (``Budget(DEFAULT_LIMITS)`` when None)."""
        return is_view_serializable(s, budget=budget).verdict

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


_ALLOWED = AdmissibilityReport(())


@dataclass(frozen=True)
class DangerousStructure:
    """Two chained rw-antidependencies t1 -> t2 -> t3 between concurrent
    transactions, with t3 committing first (so t1 and t3 differ)."""

    t1: str
    t2: str
    t3: str
    witnesses: tuple[DependencyEdge, DependencyEdge]


# ---------------------------------------------------------------------------
# Per-operation clauses
# ---------------------------------------------------------------------------


def _commit_ordered(ix: ScheduleIndex, p: int) -> bool:
    """Whether the write at position ``p`` installs in commit order against
    every other transaction's write on its object."""
    txn, rank, commit = ix.txn, ix.rank, ix.commit
    t, r = txn[p], rank[p]
    for q in ix.writes[ix.obj[p]]:
        if txn[q] != t and (r < rank[q]) != (commit[t] < commit[txn[q]]):
            return False
    return True


def _fresh_window(ix: ScheduleIndex, p: int) -> tuple[int, int]:
    """The read at position ``p`` observes the newest version committed
    before a position ``rel`` exactly when ``lo < rel <= hi``: ``lo`` is
    where the observed version commits (INIT at -1), ``hi`` where the first
    newer version does (the schedule's length when none does)."""
    txn, rank, commit, v = ix.txn, ix.rank, ix.commit, ix.vf[p]
    seen, hi = rank[v], len(txn)
    for q in ix.writes[ix.obj[p]]:
        if rank[q] > seen and commit[txn[q]] < hi:
            hi = commit[txn[q]]
    return commit[txn[v]], hi


def respects_commit_order(s: Schedule, w: OperationId) -> bool:
    """Versions install in commit order: for every other transaction's write
    on the same object, vorder and commit order point the same way.  Reads
    the schedule's int index."""
    if not s.operation(w).is_write:
        raise UnknownOperation(f"{w!r} is not a write operation")
    return _commit_ordered(s.index, s.pos[w])


def read_last_committed(s: Schedule, r: OperationId, rel: OperationId) -> bool:
    """The read observes the most recently committed version as of ``rel``.

    Holds when the observed version is INIT or committed before ``rel``, and
    no version committed before ``rel`` installs after the observed one.
    Reads the schedule's int index.
    """
    if not s.operation(r).is_read:
        raise UnknownOperation(f"{r!r} is not a read operation")
    if s.operation(rel).id.txn != r.txn:
        raise ValueError("the reference operation must belong to the reading transaction")
    lo, hi = _fresh_window(s.index, s.pos[r])
    return lo < s.pos[rel] <= hi


def _overwrites(ix: ScheduleIndex, order: Sequence[OperationId], i: int) -> tuple[tuple | None, tuple | None]:
    """The first pairs (other write, own write), in one walk over
    transaction ``i``'s writes, with ``i``'s write landing after the other
    and before the other transaction commits (a dirty write) and with the
    other committing after ``i``'s start (a concurrent write), None where
    there is none.  A dirty write is a concurrent one, so the walk stops at
    the first dirty pair."""
    txn, commit, kind, WRITE = ix.txn, ix.commit, ix.kind, ix.WRITE
    start, concurrent = ix.first[i], None
    for p in ix.at[i]:
        if kind[p] == WRITE:
            for q in ix.writes[ix.obj[p]]:
                if txn[q] != i and q < p and start < commit[txn[q]]:
                    concurrent = concurrent or (order[q], order[p])
                    if p < commit[txn[q]]:
                        return (order[q], order[p]), concurrent
    return None, concurrent


def _overwrite_witness(s: Schedule, tid: str, concurrent: bool) -> tuple[OperationId, OperationId] | None:
    """:func:`_overwrites` on the transaction ``tid``: with ``concurrent``
    its first concurrent write, else its first dirty one."""
    dirty, concurrent_write = _overwrites(s.index, s.order, s.index.number[s.transaction(tid).id])
    return concurrent_write if concurrent else dirty


def exhibits_dirty_write(s: Schedule, t: Transaction | str) -> bool:
    """The transaction overwrites an object whose earlier writer has not committed yet."""
    return _overwrite_witness(s, txn_id(t), False) is not None


def exhibits_concurrent_write(s: Schedule, t: Transaction | str) -> bool:
    """The transaction overwrites an object modified earlier by a concurrent transaction."""
    return _overwrite_witness(s, txn_id(t), True) is not None


# ---------------------------------------------------------------------------
# Per-transaction admissibility
# ---------------------------------------------------------------------------


def allowed_at_levels(s: Schedule, t: Transaction | str, levels: Sequence[IsolationLevel]) -> list[AdmissibilityReport]:
    """Per level, the transaction's report: the RC clauses for RC, the SI
    ones for SI and SSI.  The commit-order clause, each read's freshness
    window and the overwrite walk are evaluated once for all levels, which
    differ in the read's reference operation (the read itself, or the
    transaction's first operation) and in dirty against concurrent writes.
    Reads the int index."""
    tid = txn_id(t)
    ix, order = s.index, s.order
    i = ix.number[s.transaction(tid).id]
    at, kind, READ, WRITE = ix.at[i], ix.kind, ix.READ, ix.WRITE
    ordered, windows = [], []  # the commit-order violations; per read, its position and window
    for p in at:
        k = kind[p]
        if k == READ:
            windows.append((p, *_fresh_window(ix, p)))
        elif k == WRITE and not _commit_ordered(ix, p):
            ordered.append(AdmissibilityViolation(tid, Clause.COMMIT_ORDER, (order[p],)))
    rel, reports = ix.first[i], []
    dirty, concurrent = _overwrites(ix, order, i)
    for level in levels:
        si = level is not _RC
        violations = ordered + [
            AdmissibilityViolation(tid, Clause.READ_LAST_COMMITTED, (order[p],))
            for p, lo, hi in windows
            if not lo < (rel if si else p) <= hi
        ]
        overwrite = concurrent if si else dirty
        if overwrite is not None:
            violations.append(AdmissibilityViolation(tid, Clause.CONCURRENT_WRITE if si else Clause.DIRTY_WRITE, overwrite))
        reports.append(AdmissibilityReport(tuple(violations)) if violations else _ALLOWED)
    return reports


# ---------------------------------------------------------------------------
# Dangerous structures (SSI)
# ---------------------------------------------------------------------------


def find_dangerous_structures(s: Schedule, scope: Iterable[str]) -> list[DangerousStructure]:
    """All chains t1 -> t2 -> t3 of rw-antidependencies within ``scope`` where
    both hops are between concurrent transactions, t3 commits before t2 and
    before t1, and a read-only t1 starts only after t3 commits.

    With the ends equal (t1 == t3) the commit clause "t3 commits before t1"
    degenerates; read literally it is false, which rules such chains out, so
    a scope of fewer than three transactions holds none.  Each hop's
    witness is the pair's least rw-antidependency in
    :func:`serialization_graph`.
    """
    scope_set = frozenset(scope)
    for tid in scope_set:
        s.transaction(tid)
    if len(scope_set) < 3:
        return []
    rw: dict[tuple[str, str], DependencyEdge] = {}
    for (u, v), deps in serialization_graph(s).edges.items():
        first = next((d for d in deps if d.kind is ConflictKind.RW), None)
        if first is not None and u in scope_set and v in scope_set:
            rw[u, v] = first
    ix = s.index
    start, commit = ({t: ends[ix.number[t]] for t in scope_set} for ends in (ix.first, ix.commit))
    found: list[DangerousStructure] = []
    for t1 in sorted(scope_set):
        for t2 in sorted(scope_set):
            if (t1, t2) not in rw:
                continue
            for t3 in sorted(scope_set):
                if (t2, t3) not in rw:
                    continue
                if commit[t3] >= commit[t1] or commit[t3] >= commit[t2]:
                    continue
                if not are_concurrent(s, t1, t2) or not are_concurrent(s, t2, t3):
                    continue
                if s.transaction(t1).read_only and commit[t3] >= start[t1]:
                    continue
                found.append(DangerousStructure(t1, t2, t3, (rw[(t1, t2)], rw[(t2, t3)])))
    return found


# ---------------------------------------------------------------------------
# Whole-schedule admissibility and completion
# ---------------------------------------------------------------------------


def allowed_under_allocation(
    s: Schedule,
    alloc: Allocation,
    limits: SearchLimits = DEFAULT_LIMITS,
) -> AdmissibilityReport:
    """Admissibility of a schedule under an allocation.

    For level allocations: RC transactions must pass the RC clauses, SI and
    SSI transactions the SI clauses, and no dangerous structure may exist
    among the SSI-mapped transactions.  For predicate allocations the named
    predicate alone decides, within ``limits`` (see
    :meth:`PredicateAllocation.holds`).
    """
    if isinstance(alloc, PredicateAllocation):
        if alloc.holds(s, Budget(limits)):
            return AdmissibilityReport(())
        return AdmissibilityReport((AdmissibilityViolation(None, Clause.PREDICATE),))

    violations: list[AdmissibilityViolation] = []
    for t in s.txns:
        violations.extend(allowed_at_levels(s, t, (alloc.level_of(t.id),))[0].violations)
    ssi_scope = [tid for tid in alloc.ssi_ids() if tid in s.txn_by_id]
    for structure in find_dangerous_structures(s, ssi_scope):
        violations.append(
            AdmissibilityViolation(structure.t2, Clause.DANGEROUS_STRUCTURE, (structure.t1, structure.t2, structure.t3))
        )
    return AdmissibilityReport(tuple(violations))


# ---------------------------------------------------------------------------
# The completion rule, compiled to small ints
# ---------------------------------------------------------------------------


class LevelEngine:
    """A level-allocated transaction set compiled to small ints (transactions
    in id order, operations from 1 with INIT at 0, objects by first mention),
    with the one step function that completes an order under RC, SI and SSI.

    A walk begins with :meth:`start`; ``place(g, d)`` then puts operation
    ``g`` at position ``d`` and ``undo(g)`` takes it back.  A dirty write
    (RC) or concurrent write (SI, SSI) is refused; an RC read observes the
    newest version committed when it is placed, an SI or SSI read the
    newest committed at its transaction's first operation; a commit appends
    its writes to the version orders.  Its drivers are
    :func:`complete_under_allocation` (one order, :meth:`walk`), the
    robustness enumeration and the split decider.
    """

    READ, WRITE, COMMIT = 0, 1, 2

    def __init__(self, txns: Iterable[Transaction], alloc: LevelAllocation) -> None:
        txns = self.txns = tuple(sorted(txns, key=lambda t: t.id))
        n = self.n = len(txns)
        index, bits, rc, ssi = self.index, self.bits, self.rc, self.ssi = {}, [], [], []
        for i, t in enumerate(txns):
            level = alloc.level_of(t.id)
            index[t.id] = i
            bits.append(1 << i)
            rc.append(level is _RC)
            ssi.append(level is _SSI)
        if len(index) != n:
            raise ValueError("duplicate transaction ids")
        self.ssi_mask = sum(b for b, x in zip(bits, ssi) if x)
        READ, WRITE, COMMIT = self.READ, self.WRITE, self.COMMIT
        obj_ids: dict[str, int] = {}
        # per operation g: its id, owner, kind, object, and for writes whether
        # it is its transaction's first on that object
        opids, owner, kind, obj_of, first_write = [INIT], [-1], [-1], [-1], [False]
        # per transaction: its operations, its reads and writes, (object, g) per
        # write, and bitmasks of the objects it writes and of those it touches
        self.ops_of, body, writes_of, self.wmask, self.touch = [], [], [], [], []
        reads = self.reads = []  # (g, transaction, object), in transaction order
        for i, t in enumerate(txns):
            g0 = len(opids)
            bd, ws, wm, tm = [], [], 0, 0
            for g, op in enumerate(t.ops, g0):
                opids.append(op.id)
                owner.append(i)
                if op.obj is None:
                    kind.append(COMMIT)
                    obj_of.append(-1)
                    first_write.append(False)
                    continue
                o = obj_ids.setdefault(op.obj, len(obj_ids))
                obj_of.append(o)
                bd.append(g)
                tm |= 1 << o
                if op.is_read:
                    kind.append(READ)
                    first_write.append(False)
                    reads.append((g, i, o))
                else:
                    kind.append(WRITE)
                    first_write.append(not wm >> o & 1)
                    wm |= 1 << o
                    ws.append((o, g))
            self.ops_of.append(list(range(g0, len(opids))))
            body.append(bd)
            writes_of.append(ws)
            self.wmask.append(wm)
            self.touch.append(tm)
        self.opids, self.owner, self.kind, self.obj_of, self.writes_of = opids, owner, kind, obj_of, writes_of
        self.names = list(obj_ids)
        heads = [gs[0] if gs else -1 for gs in self.ops_of]

        # the walk: committed versions per object and each one's position in
        # its chain (INIT at 0), the version each read observes, per object
        # the transactions with uncommitted writes on it, per operation of a
        # non-RC transaction its chain's length at the transaction's start
        chains = self.chains = [[] for _ in self.names]
        rank = self.rank = [0] * len(opids)
        vf = self.vf = [0] * len(opids)
        pending = self.pending = [0] * len(self.names)
        snap = [0] * len(opids)
        first, commit = self.first, self.commit = [0] * n, [0] * n
        # the walk's transactions, as a bitmask too, the objects they write and their reads
        self.active, self.mask, self.written, self.active_reads = [], 0, [], []

        def place(g: int, d: int) -> bool:
            """Place ``g`` at position ``d``; False when refused (only ``first`` changes)."""
            i = owner[g]
            if g == heads[i]:
                first[i] = d
                if not rc[i]:
                    for h in body[i]:
                        snap[h] = len(chains[obj_of[h]])
            k = kind[g]
            if k == WRITE:
                o = obj_of[g]
                if pending[o] & ~bits[i] or (not rc[i] and len(chains[o]) > snap[g]):
                    return False
                pending[o] |= bits[i]
            elif k == READ:
                c = chains[obj_of[g]]
                seen = len(c) if rc[i] else snap[g]
                vf[g] = c[seen - 1] if seen else 0
            else:
                commit[i] = d
                for o, wg in writes_of[i]:
                    c = chains[o]
                    c.append(wg)
                    rank[wg] = len(c)
                    pending[o] &= ~bits[i]
            return True

        def undo(g: int) -> None:
            """Take back ``g``, the last operation placed."""
            i = owner[g]
            if kind[g] == COMMIT:
                for o, _ in writes_of[i]:
                    chains[o].pop()
                    pending[o] |= bits[i]
            elif first_write[g]:
                pending[obj_of[g]] &= ~bits[i]

        self.place, self.undo = place, undo

    def start(self, active: list[int]) -> None:
        """Begin a walk over the transactions ``active`` (ascending)."""
        for o in self.written:
            self.chains[o].clear()
            self.pending[o] = 0
        self.active = active
        mask = 0
        for i in active:
            mask |= self.bits[i]
        self.mask = mask
        self.written = list(dict.fromkeys(o for i in active for o, _ in self.writes_of[i]))
        self.active_reads = [(g, t, o) for g, t, o in self.reads if mask & self.bits[t]]

    def order_of(self, order: Iterable[OperationId]) -> list[int]:
        """The operation numbers of an interleaving of all the transactions
        (INIT may lead it); ValueError for anything else."""
        done, out = [0] * self.n, []
        for opid in order:
            i = self.index.get(opid.txn)
            if i is None and opid.is_init:
                continue
            if i is None or opid.index != done[i] + 1 or done[i] == len(self.ops_of[i]):
                raise ValueError(f"{opid!r} breaks the interleaving of the transactions' operations")
            out.append(self.ops_of[i][done[i]])
            done[i] += 1
        if len(out) != len(self.opids) - 1:
            raise ValueError("the order misses operations of the transactions")
        return out

    def walk(self, order: list[int], active: list[int]) -> bool:
        """Place ``order``, every operation of ``active`` in an order that
        keeps each transaction's own, from scratch; whether it completes into
        an allowed schedule."""
        self.start(active)
        place = self.place
        for d, g in enumerate(order):
            if not place(g, d):
                return False
        return not self.dangerous()

    def dependencies(self) -> list[int]:
        """Per transaction, the bitmask of the transactions that depend on it
        in the completed walk (see :func:`dependency_masks`)."""
        owner, rank, vf, chains = self.owner, self.rank, self.vf, self.chains
        writers = {o: [owner[g] for g in chains[o]] for o in self.written}
        return dependency_masks(self.n, writers, [(t, o, rank[vf[g]]) for g, t, o in self.active_reads])

    def dangerous(self) -> bool:
        """Whether the completed walk holds a dangerous structure among its
        SSI transactions, as :func:`find_dangerous_structures` defines it."""
        mask, bits, first, commit, ssi = self.mask, self.bits, self.first, self.commit, self.ssi
        if bin(mask & self.ssi_mask).count("1") < 3:
            return False
        rw: dict[int, int] = {}
        for g, t, o in self.active_reads:
            if ssi[t]:
                for wg in self.chains[o][self.rank[self.vf[g]] :]:
                    u = self.owner[wg]
                    if u != t and ssi[u]:
                        rw[t] = rw.get(t, 0) | bits[u]
        for t1, r1 in rw.items():
            for t2, r2 in rw.items():
                if not r1 & bits[t2] or not (first[t1] < commit[t2] and first[t2] < commit[t1]):
                    continue
                for t3 in self.active:  # concurrent with t2 and committing before it
                    if r2 & bits[t3] and first[t2] < commit[t3] < commit[t2]:
                        if commit[t3] < commit[t1] and (self.wmask[t1] or commit[t3] < first[t1]):
                            return True
        return False

    def schedule(self, order: list[int]) -> Schedule:
        """The completed walk over ``order`` as a :class:`Schedule`."""
        opids, names, vf, reads = self.opids, self.names, self.vf, self.active_reads
        vorder = {names[o]: (INIT, *[opids[g] for g in self.chains[o]]) for o in self.written}
        vorder.update({names[o]: (INIT,) for _, _, o in reads if names[o] not in vorder})  # objects only read
        return Schedule(
            txns=tuple([self.txns[i] for i in self.active]),
            order=(INIT, *[opids[g] for g in order]),
            vorder=vorder,
            vf={opids[g]: opids[vf[g]] for g, _, _ in reads},
        )


def complete_under_allocation(
    txns: Iterable[Transaction],
    order: Sequence[OperationId],
    alloc: LevelAllocation,
) -> Schedule | None:
    """Complete a total operation order into the unique allowed schedule, if any.

    The version order is forced by commit order (transaction-internal order
    between writes of one transaction), and the version function is forced
    by the read-last-committed rule at each transaction's level.  That
    construction satisfies the commit-order and read-freshness clauses
    outright, so admissibility of the completion reduces to the dirty-write,
    concurrent-write, and dangerous-structure clauses; the result is exactly
    the schedule accepted by :func:`allowed_under_allocation`, or None when
    the order admits none.  This walks the one order through
    :class:`LevelEngine`; an order that is not an interleaving of the
    transactions' operations raises ValueError.
    """
    engine = LevelEngine(txns, alloc)
    gs = engine.order_of(order)
    if not engine.walk(gs, list(range(engine.n))):
        return None
    return engine.schedule(gs)
