"""Isolation levels: per-transaction admissibility, SSI structures, completion.

RC and SI are per-transaction conditions: writes must install in commit
order, reads must observe the most recently committed version relative to a
reference operation (the read itself for RC, the transaction's first
operation for SI), and RC forbids dirty writes where SI forbids the broader
class of concurrent writes.  SSI additionally rules out a whole-schedule
pattern of two consecutive rw-antidependencies between concurrent
transactions, decided by one linear rule over an rw index (:func:`_chains`).

Because commit order pins the version order and the read rules pin the
version function, a total operation order has at most one completion into
an allowed schedule under a level allocation.  That uniqueness is what
keeps exhaustive enumeration of allowed schedules finite.  The completion
is coded once, as the step function of :class:`LevelEngine` over a
workload compiled to small ints; :func:`complete_under_allocation` drives
it over one order, the robustness enumeration over every interleaving and
the split decider over its winner.
:func:`allowed_under_allocation` stays the clause-by-clause specification:
one :func:`clause_pass` over a schedule's int index evaluates every
transaction's clauses, and it alone, for every level report, the
per-operation predicates, the polygraph checks and the split shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .core import DEFAULT_LIMITS, INIT, Action, Budget, OperationId, Schedule, SearchLimits, Transaction, txn_id
from .errors import AllocationIncomplete, UnknownOperation
from .serializability import ConflictKind, DependencyEdge, dependency_masks, is_view_serializable, set_bits


class IsolationLevel(enum.Enum):
    RC = "RC"
    SI = "SI"
    SSI = "SSI"


_RC, _SI, _SSI = IsolationLevel  # faster to compare with than a lookup on the Enum class
_READ = Action.READ


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
# The clause pass
# ---------------------------------------------------------------------------


def clause_pass(s: Schedule, tids: Iterable[str] | None = None) -> Iterator[tuple]:
    """Every per-transaction clause in one walk over the int index, in
    positions of ``s.order``.  Per transaction of ``tids`` (default: all, in
    ``s.txns`` order) it yields ``(start, bad, windows, dirty, concurrent)``:
    its first operation; its writes that break commit order (another
    transaction's write on the object installs on the other side of it than
    its commit falls); per read ``(p, lo, hi)``, where the read at ``p``
    observes the newest version committed before a position ``rel`` exactly
    when ``lo < rel <= hi`` (``lo`` is where the observed version commits,
    INIT at -1, and ``hi`` where the first newer one does, else the
    schedule's length); and its first dirty and first concurrent overwrite:
    pairs (other write, own write) with the own write landing before the
    other transaction commits, or with the other committing after ``start``,
    None where there is none.  A dirty write is a concurrent one, so the
    first dirty pair settles both."""
    ix = s.index
    txn, kind, obj, rank, vf, first, commit, writes = ix.txn, ix.kind, ix.obj, ix.rank, ix.vf, ix.first, ix.commit, ix.writes
    READ, WRITE, size = ix.READ, ix.WRITE, len(txn)
    numbers = range(len(ix.at)) if tids is None else [ix.number[s.transaction(tid).id] for tid in tids]
    for i in numbers:
        start, end = first[i], commit[i]
        bad, windows, dirty, concurrent = [], [], None, None
        for p in ix.at[i]:
            k = kind[p]
            if k == READ:
                v = vf[p]
                seen, hi = rank[v], size
                for q in writes[obj[p]]:
                    if rank[q] > seen and commit[txn[q]] < hi:
                        hi = commit[txn[q]]
                windows.append((p, commit[txn[v]], hi))
            elif k == WRITE:
                r, ordered = rank[p], True
                for q in writes[obj[p]]:
                    u = txn[q]
                    if u != i:
                        ordered = ordered and (r < rank[q]) == (end < commit[u])
                        if dirty is None and q < p and start < commit[u]:
                            concurrent = concurrent or (q, p)
                            if p < commit[u]:
                                dirty = (q, p)
                if not ordered:
                    bad.append(p)
        yield start, bad, windows, dirty, concurrent


def read_last_committed(s: Schedule, r: OperationId, rel: OperationId) -> bool:
    """The read observes the most recently committed version as of ``rel``.

    Holds when the observed version is INIT or committed before ``rel``, and
    no version committed before ``rel`` installs after the observed one.
    Reads the read's window off :func:`clause_pass`.
    """
    if not s.operation(r).is_read:
        raise UnknownOperation(f"{r!r} is not a read operation")
    if s.operation(rel).id.txn != r.txn:
        raise ValueError("the reference operation must belong to the reading transaction")
    (_, _, windows, _, _), = clause_pass(s, (r.txn,))
    p = s.pos[r]
    return next(lo < s.pos[rel] <= hi for q, lo, hi in windows if q == p)


def _overwrite_witness(s: Schedule, tid: str, concurrent: bool) -> tuple[OperationId, OperationId] | None:
    """The transaction's first concurrent write with ``concurrent``, else
    its first dirty one, as operation ids (see :func:`clause_pass`)."""
    (_, _, _, dirty, concurrent_write), = clause_pass(s, (tid,))
    pair = concurrent_write if concurrent else dirty
    return pair and (s.order[pair[0]], s.order[pair[1]])


def exhibits_dirty_write(s: Schedule, t: Transaction | str) -> bool:
    """The transaction overwrites an object whose earlier writer has not committed yet."""
    return _overwrite_witness(s, txn_id(t), False) is not None


def exhibits_concurrent_write(s: Schedule, t: Transaction | str) -> bool:
    """The transaction overwrites an object modified earlier by a concurrent transaction."""
    return _overwrite_witness(s, txn_id(t), True) is not None


# ---------------------------------------------------------------------------
# Per-transaction admissibility
# ---------------------------------------------------------------------------


def allowed_at_levels(s: Schedule, levels: Iterable[Sequence[IsolationLevel]]) -> list[list[AdmissibilityReport]]:
    """Per transaction of ``s.txns``, a report per level of its entry in
    ``levels``: the RC clauses for RC, the SI ones for SI and SSI.  One
    :func:`clause_pass` gives them all; the levels differ only in a read's
    reference operation (the read itself, or the transaction's first
    operation) and in dirty against concurrent writes."""
    order, out = s.order, []
    for t, mine, (rel, bad, windows, dirty, concurrent) in zip(s.txns, levels, clause_pass(s)):
        if not bad and concurrent is None and all(lo < rel and p <= hi for p, lo, hi in windows):
            out.append([_ALLOWED] * len(mine))  # reads fresh at both references (rel <= p), no overwrite
            continue
        tid, reports = t.id, []
        ordered = [AdmissibilityViolation(tid, Clause.COMMIT_ORDER, (order[p],)) for p in bad]
        for level in mine:
            si = level is not _RC
            violations = ordered + [
                AdmissibilityViolation(tid, Clause.READ_LAST_COMMITTED, (order[p],))
                for p, lo, hi in windows
                if not lo < (rel if si else p) <= hi
            ]
            overwrite = concurrent if si else dirty
            if overwrite is not None:
                clause = Clause.CONCURRENT_WRITE if si else Clause.DIRTY_WRITE
                violations.append(AdmissibilityViolation(tid, clause, (order[overwrite[0]], order[overwrite[1]])))
            reports.append(AdmissibilityReport(tuple(violations)) if violations else _ALLOWED)
        out.append(reports)
    return out


# ---------------------------------------------------------------------------
# Dangerous structures (SSI)
# ---------------------------------------------------------------------------


def _chains(rw: Sequence[int], first: Sequence[int], commit: Sequence[int], writer: Sequence) -> Iterator[tuple[int, int, int]]:
    """Dangerous structures (t1, t2, t3), ascending; ``rw[t]`` holds those t
    rw-precedes.  t2's earliest-committing t3 decides each edge t1 -> t2: it
    must commit before t1's bound (its commit, or its start if read-only)."""
    ends: dict[int, tuple] = {}  # per t2 reached: the earliest commit of its t3s (else its own) and the t3s
    for t1, m in enumerate(rw):
        while m:  # inline, as this runs at every leaf of the enumeration
            low = m & -m
            t2 = low.bit_length() - 1
            m ^= low
            if first[t1] < commit[t2] and first[t2] < commit[t1]:
                if t2 not in ends:
                    ts = [t3 for t3 in set_bits(rw[t2]) if first[t2] < commit[t3] < commit[t2]]
                    ends[t2] = (min([commit[t3] for t3 in ts], default=commit[t2]), ts)
                bound = commit[t1] if writer[t1] else first[t1]
                if ends[t2][0] < bound:
                    yield from ((t1, t2, t3) for t3 in ends[t2][1] if commit[t3] < bound)


def find_dangerous_structures(s: Schedule, scope: Iterable[str]) -> list[DangerousStructure]:
    """All chains t1 -> t2 -> t3 of rw-antidependencies within ``scope``, in
    ascending order, where both hops are between concurrent transactions, t3
    commits before t2 and t1, and a read-only t1 starts after t3 commits.

    With the ends equal (t1 == t3) the commit clause "t3 commits before t1"
    degenerates; read literally it is false, so a scope of fewer than three
    transactions holds none.  :func:`_chains` decides on the int index's rw
    edges, with no serialization graph; a hop's witness is its least rw edge."""
    scope_set, ix = frozenset(scope), s.index
    if not ix.number.keys() >= scope_set:
        for tid in scope_set:
            s.transaction(tid)  # UnknownOperation for a stranger
    if len(scope_set) < 3:
        return []
    txn, kind, obj, rank, vf, writes, READ, WRITE = ix.txn, ix.kind, ix.obj, ix.rank, ix.vf, ix.writes, ix.READ, ix.WRITE
    ids = sorted(scope_set)
    local = {ix.number[tid]: k for k, tid in enumerate(ids)}  # schedule's transaction number -> scope's
    hops: dict[tuple[int, int], tuple[int, int]] = {}  # (t, u) -> its least (read, write) positions
    rw, writer = [0] * len(ids), [False] * len(ids)
    for i, k in local.items():  # positions ascend with operation indexes within a transaction
        for p in ix.at[i]:
            if kind[p] == READ:
                for q in writes[obj[p]]:
                    u = local.get(txn[q], k)  # k for the reader itself and for writers out of scope
                    if u != k and rank[q] > rank[vf[p]]:
                        hops.setdefault((k, u), (p, q))
                        rw[k] |= 1 << u
            writer[k] = writer[k] or kind[p] == WRITE
    found = list(_chains(rw, [ix.first[i] for i in local], [ix.commit[i] for i in local], writer))
    edge = {pair: DependencyEdge(s.order[p], s.order[q], ConflictKind.RW) for pair, (p, q) in hops.items()} if found else {}
    return [DangerousStructure(ids[t1], ids[t2], ids[t3], (edge[t1, t2], edge[t2, t3])) for t1, t2, t3 in found]


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
    for (report,) in allowed_at_levels(s, ((alloc.level_of(t.id),) for t in s.txns)):
        violations += report.violations
    for d in find_dangerous_structures(s, [t.id for t in s.txns if alloc.levels[t.id] is _SSI]):
        violations.append(AdmissibilityViolation(d.t2, Clause.DANGEROUS_STRUCTURE, (d.t1, d.t2, d.t3)))
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
        # write, and bitmasks of the objects it reads and of those it writes
        self.ops_of, body, writes_of, self.rmask, self.wmask = [], [], [], [], []
        reads = self.reads = []  # (g, transaction, object), in transaction order
        for i, t in enumerate(txns):
            g0 = len(opids)
            bd, ws, rm, wm = [], [], 0, 0
            for g, (opid, action, name) in enumerate(t.ops, g0):  # each operation read once, by unpacking
                opids.append(opid)
                owner.append(i)
                if name is None:
                    kind.append(COMMIT)
                    obj_of.append(-1)
                    first_write.append(False)
                    continue
                o = obj_ids.setdefault(name, len(obj_ids))
                obj_of.append(o)
                bd.append(g)
                if action is _READ:
                    kind.append(READ)
                    first_write.append(False)
                    reads.append((g, i, o))
                    rm |= 1 << o
                else:
                    kind.append(WRITE)
                    first_write.append(not wm >> o & 1)
                    wm |= 1 << o
                    ws.append((o, g))
            self.ops_of.append(list(range(g0, len(opids))))
            body.append(bd)
            writes_of.append(ws)
            self.rmask.append(rm)
            self.wmask.append(wm)
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
        self.mask = mask = sum(self.bits[i] for i in active)
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
        """Whether the completed walk holds a dangerous structure: :func:`_chains`
        on its rw index, per SSI transaction the SSI ones it rw-precedes."""
        if (self.mask & self.ssi_mask).bit_count() < 3:
            return False
        ssi, bits, owner, rank, vf, chains = self.ssi, self.bits, self.owner, self.rank, self.vf, self.chains
        rw = [0] * self.n
        for g, t, o in self.active_reads:
            if ssi[t]:
                for wg in chains[o][rank[vf[g]] :]:
                    u = owner[wg]
                    if u != t and ssi[u]:
                        rw[t] |= bits[u]
        return next(_chains(rw, self.first, self.commit, self.wmask), None) is not None

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
