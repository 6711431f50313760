"""Core value types and well-formedness checks for multiversion schedules.

A multiversion schedule couples three pieces of data: a total order over
all operations, a per-object installation order for written versions, and
a version function telling each read which write it observed.  The version
order may disagree with the operation order; that gap is what makes the
model multiversion.  ``INIT`` is a distinguished pseudo-operation that
installs the initial version of every object and sits first both in the
operation order and in every per-object version order.

All schedule types here are immutable values and all functions on them are
pure, so callers are free to share them across threads and to evaluate many
schedules in parallel; operation ids, operations and transactions are named
tuples.  The search limits every search obeys, and the per-call
:class:`Budget` that enforces them, live here too.
"""

from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import LimitExceeded, ScheduleError, UnknownOperation


class Action(enum.Enum):
    """What an operation does: read an object, write it, or commit."""

    READ = "R"
    WRITE = "W"
    COMMIT = "C"


# looking a member up on an Enum class is slow; the per-operation tests use these
_READ, _WRITE, _COMMIT = Action


class _cached(cached_property):
    """``functools.cached_property`` without the lock Python 3.11 takes on each first access:
    every value cached here is a pure function of immutable ones, so racing threads store equal values."""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class OperationId(NamedTuple):
    """Positional identity of an operation: owning transaction and 1-based index.

    The initial pseudo-operation is the single value with an empty
    transaction id and index 0; it belongs to no transaction.  A named
    tuple, so hashing and comparing ids runs in C; ids sort by (txn, index)
    and equal the plain tuple ``(txn, index)``.
    """

    txn: str
    index: int

    @property
    def is_init(self) -> bool:
        return self.index == 0 and self.txn == ""

    def __repr__(self) -> str:
        return "INIT" if self.is_init else f"{self.txn}#{self.index}"


INIT = OperationId("", 0)


class _OperationFields(NamedTuple):
    id: OperationId
    action: Action
    obj: str | None = None


class Operation(_OperationFields):
    """A single read, write, or commit: a named tuple ``(id, action, obj)``.

    Reads and writes carry exactly one object; commits carry none.
    ``Operation(...)``, ``_make`` and ``_replace`` enforce this in ``__new__``,
    because no useful value violates it; this package's builders, whose values
    hold it by construction, skip the check with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, id: OperationId, action: Action, obj: str | None = None) -> "Operation":
        if action is _COMMIT:
            if obj is not None:
                raise ValueError(f"commit {id!r} must not carry an object")
        elif not obj:
            raise ValueError(f"{action.value} operation {id!r} needs a nonempty object")
        return tuple.__new__(cls, (id, action, obj))

    @classmethod
    def _make(cls, iterable) -> "Operation":
        return cls(*iterable)

    @property
    def is_read(self) -> bool:
        return self.action is _READ

    @property
    def is_write(self) -> bool:
        return self.action is _WRITE

    @property
    def is_commit(self) -> bool:
        return self.action is _COMMIT

    def __repr__(self) -> str:
        opid, action, obj = self
        return f"C[{opid.txn}]" if action is _COMMIT else f"{action.value}[{opid.txn}]({obj})"


class Transaction(NamedTuple):
    """A finite sequence of operations ending in its unique commit; a named tuple.

    Multiple reads and multiple writes of the same object are permitted.
    Structural rules (commit placement, id/index consistency) are checked by
    :func:`validate_transaction`, not at construction, so that defective
    values can be represented and reported.
    """

    id: str
    ops: tuple[Operation, ...]

    @property
    def op_ids(self) -> tuple[OperationId, ...]:
        return tuple([op.id for op in self.ops])

    @property
    def read_only(self) -> bool:
        """True when every non-commit operation is a read (or there are none)."""
        return all(op.action is not _WRITE for op in self.ops)


_TOKEN = re.compile(r"(?:([RW])\(([^()\s<]+)\)|C)(?!\S)|(?P<refused>\S+)")
_ACTIONS = {"R": _READ, "W": _WRITE, "": _COMMIT}


def make_transaction(tid: str, actions: str) -> Transaction:
    """Build a transaction from compact notation, e.g. ``"R(t) W(t) C"``.

    Indices are assigned positionally starting at 1.  One regex match per
    token of the body; the first token it refuses names the error.
    """
    new, ops = tuple.__new__, []
    for k, (a, obj, refused) in enumerate(_TOKEN.findall(actions), 1):
        if refused:
            raise ValueError(f"bad operation token {refused!r} in transaction {tid}")
        ops.append(new(Operation, (new(OperationId, (tid, k)), _ACTIONS[a], obj or None)))
    return new(Transaction, (tid, tuple(ops)))


@dataclass(frozen=True, eq=False)
class Schedule:
    """A multiversion schedule: operation order, version order, version function.

    ``order`` lists every operation id including INIT.  ``vorder`` maps each
    object to the installation order of its versions, starting with INIT.
    ``vf`` maps every read to INIT or to the write whose version it observed.

    Build instances through :func:`make_schedule`, which normalizes the
    representation (sorted transactions, trivial version orders filled in)
    so that structural equality compares canonical forms.  Derived lookups
    are cached on first use; :func:`validate_schedule` on a valid schedule
    leaves its :attr:`index` cached for the deciders.
    """

    txns: tuple[Transaction, ...]
    order: tuple[OperationId, ...]
    vorder: Mapping[str, tuple[OperationId, ...]]
    vf: Mapping[OperationId, OperationId]

    # -- identity ---------------------------------------------------------

    @_cached
    def _key(self):
        return (
            self.txns,
            self.order,
            tuple(sorted(self.vorder.items())),
            tuple(sorted(self.vf.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    # -- derived lookups (computed once per schedule) ---------------------

    @_cached
    def txn_by_id(self) -> dict[str, Transaction]:
        return {t.id: t for t in self.txns}

    @_cached
    def txn_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.txns)

    @_cached
    def op_by_id(self) -> dict[OperationId, Operation]:
        return {op.id: op for t in self.txns for op in t.ops}

    @_cached
    def pos(self) -> dict[OperationId, int]:
        return {opid: i for i, opid in enumerate(self.order)}

    @_cached
    def writes_by_obj(self) -> dict[str, tuple[Operation, ...]]:
        out: dict[str, list[Operation]] = {}
        for t in self.txns:
            for op in t.ops:
                if op.action is _WRITE:
                    out.setdefault(op.obj, []).append(op)
        return {obj: tuple(ws) for obj, ws in out.items()}

    @_cached
    def reads(self) -> tuple[Operation, ...]:
        return tuple(op for t in self.txns for op in t.ops if op.is_read)

    @_cached
    def _walk(self) -> "ScheduleIndex":
        return ScheduleIndex(self)

    @_cached
    def index(self) -> "ScheduleIndex":
        """The int index the deciders read; :class:`ScheduleError` on an invalid schedule."""
        if not self._walk.clean:
            raise ScheduleError("the schedule is not valid: validate_schedule lists its defects")
        return self._walk

    # -- small accessors ---------------------------------------------------

    def operation(self, opid: OperationId) -> Operation:
        try:
            return self.op_by_id[opid]
        except KeyError:
            raise UnknownOperation(f"{opid!r} is not an operation of this schedule") from None

    def transaction(self, tid: str) -> Transaction:
        try:
            return self.txn_by_id[tid]
        except KeyError:
            raise UnknownOperation(f"transaction {tid!r} is not part of this schedule") from None


class ScheduleIndex:
    """A schedule indexed by small ints: transactions numbered (``number``) in
    ``txns`` order, operations by position in ``order`` (INIT at 0).  Per
    position: ``txn`` and ``kind`` (-1 for INIT), ``obj`` (None for commits
    and INIT), a write's ``rank`` in its version order (INIT's 0) and the
    position ``vf`` of the version a read observes.  Per transaction: its
    positions ``at``, ``first`` and ``commit``, ending in INIT's -1.  Per
    object it touches: its ``writes``' positions in transaction order.

    One pass over the version orders and one over the operations build it
    and, on the way, clear every rule of :func:`validate_schedule` by counts
    and position comparisons: ``clean`` is True when they all hold, and then
    the schedule is valid.  On an invalid schedule the arrays hold whatever
    the walk wrote, and :attr:`Schedule.index` raises rather than return it."""

    READ, WRITE, COMMIT = 0, 1, 2
    __slots__ = ("txn", "kind", "obj", "rank", "vf", "number", "at", "writes", "first", "commit", "clean")

    def __init__(self, s: Schedule) -> None:
        pos, vf, size = s.pos, s.vf, len(s.order)
        get = pos.get
        # one spare slot at the end takes what an id missing from the order (-1) writes
        txn, kind, obj, rank, seen = self.txn, self.kind, self.obj, self.rank, self.vf = (
            [-1] * (size + 1), [-1] * (size + 1), [None] * (size + 1), [0] * (size + 1), [0] * (size + 1))
        number, at, writes = self.number, self.at, self.writes = {}, [], {}
        first, commit = self.first, self.commit = [], []
        READ, WRITE, COMMIT = self.READ, self.WRITE, self.COMMIT
        # each chain entry's rank, and its chain's object in obj, which a read's entry gets from the walk below
        clean, entries = get(INIT) == 0, 0
        for o, chain in s.vorder.items():
            clean = clean and len(chain) > 0 and chain[0] == INIT
            entries += len(chain)
            for r, w in enumerate(chain):
                q = get(w, -1)
                rank[q], obj[q] = r, o
        obj[0] = None  # INIT's, which every chain's first entry set
        nops = nreads = 0
        for i, (tid, ops) in enumerate(s.txns):
            n = len(ops)
            number[tid], here, prev, k = i, [], 0, 0
            at.append(here)
            nops += n
            for opid, a, o in ops:  # each operation read once, by unpacking
                k += 1
                p = get(opid, -1)
                here.append(p)
                if p <= prev or opid != (tid, k):  # out of the order, before its predecessor, or misnumbered
                    clean = False
                prev = p
                txn[p] = i
                if o is None:
                    kind[p] = COMMIT
                    clean = clean and k == n
                    continue
                if o not in writes:
                    writes[o] = []
                if a is _WRITE:
                    kind[p], ws = WRITE, writes[o]
                    # in its object's chain, which wrote obj[p], above this transaction's last write of it
                    clean = clean and obj[p] == o and not (ws and txn[ws[-1]] == i and rank[ws[-1]] >= rank[p])
                    ws.append(p)
                else:
                    nreads += 1
                    kind[p] = READ
                    # INIT, or a write of the object placed earlier: one in its chain if not walked yet
                    q = seen[p] = get(vf.get(opid), -1)
                    clean = clean and (q == 0 or 0 < q < p and obj[q] == o and kind[q] != READ)
                    obj[p] = o
            clean = clean and n > 0 and a is _COMMIT  # the last operation's action, when there is one
            first.append(here[0] if n else -1)
            commit.append(prev if n else -1)
        first.append(-1)
        commit.append(-1)
        # with every write in its own chain, the counts leave no room for another entry
        self.clean = (clean and len(number) == len(s.txns) and size == nops + 1 and len(vf) == nreads
                      and entries == sum(map(len, writes.values())) + len(s.vorder))
        del txn[-1], kind[-1], obj[-1], rank[-1], seen[-1]


def make_schedule(
    txns: Iterable[Transaction],
    order: Sequence[OperationId],
    vorder: Mapping[str, Sequence[OperationId]],
    vf: Mapping[OperationId, OperationId],
) -> Schedule:
    """Normalize and build a :class:`Schedule`.

    Transactions are sorted by id, INIT is prepended to the order and to each
    version order when missing, and objects that are never written get the
    trivial version order consisting of INIT alone.  Duplicate transaction
    ids are rejected here; every other defect is left to
    :func:`validate_schedule` to report.
    """
    txns = tuple(sorted(txns, key=attrgetter("id")))
    for a, b in zip(txns, txns[1:]):  # sorted, so a duplicate follows its twin
        if a.id == b.id:
            raise ValueError(f"duplicate transaction id {a.id!r}")

    order_t = tuple(order)
    if INIT not in order_t:
        order_t = (INIT,) + order_t

    mentioned = {op.obj for t in txns for op in t.ops}
    mentioned.discard(None)  # a commit's
    chains: dict[str, tuple[OperationId, ...]] = {}
    for obj, chain in vorder.items():
        chain_t = tuple(chain)
        if INIT not in chain_t:
            chain_t = (INIT,) + chain_t
        if len(chain_t) == 1 and obj not in mentioned:
            continue  # trivial chain for an object this schedule never touches
        chains[obj] = chain_t
    for obj in mentioned:
        chains.setdefault(obj, (INIT,))

    return Schedule(txns=txns, order=order_t, vorder=chains, vf=dict(vf))


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


class ViolationKind(enum.Enum):
    """Classes of well-formedness defects for transactions and schedules."""

    # transaction-level
    MISSING_COMMIT = "missing-commit"
    COMMIT_NOT_LAST = "commit-not-last"
    BAD_OPERATION_ID = "bad-operation-id"
    # schedule-level, structural
    DUPLICATE_TRANSACTION = "duplicate-transaction"
    UNKNOWN_OPERATION = "unknown-operation"
    DUPLICATE_POSITION = "duplicate-position"
    ORDER_NOT_TOTAL = "order-not-total"
    VORDER_NOT_TOTAL = "vorder-not-total"
    UNMAPPED_READ = "unmapped-read"
    VF_TARGET_NOT_WRITE = "vf-target-not-write"
    # schedule-level, ordering clauses
    INIT_NOT_FIRST = "init-not-first"
    INTRA_TXN_VORDER = "intra-txn-vorder"
    TXN_ORDER_NOT_PRESERVED = "txn-order-not-preserved"
    VERSION_READS_FUTURE = "version-reads-future"
    VERSION_OBJECT_MISMATCH = "version-object-mismatch"


@dataclass(frozen=True)
class ScheduleViolation:
    """One well-formedness defect, pointing at the operations involved."""

    kind: ViolationKind
    offenders: tuple[OperationId, ...] = ()

    def __str__(self) -> str:
        if not self.offenders:
            return self.kind.value
        return f"{self.kind.value}: " + ", ".join(repr(o) for o in self.offenders)


def validate_transaction(t: Transaction) -> list[ScheduleViolation]:
    """Check the structural rules for a single transaction.

    Returns the empty list exactly when the transaction is well-formed:
    nonempty, exactly one commit placed last, and operation ids that match
    the transaction id with positions 1..len.
    """
    out: list[ScheduleViolation] = []
    if not t.ops:
        return [ScheduleViolation(ViolationKind.MISSING_COMMIT)]
    for k, op in enumerate(t.ops, start=1):
        if op.id.txn != t.id or op.id.index != k:
            out.append(ScheduleViolation(ViolationKind.BAD_OPERATION_ID, (op.id,)))
    for op in t.ops[:-1]:
        if op.action is _COMMIT:
            out.append(ScheduleViolation(ViolationKind.COMMIT_NOT_LAST, (op.id,)))
    if not t.ops[-1].is_commit:
        out.append(ScheduleViolation(ViolationKind.MISSING_COMMIT, (t.ops[-1].id,)))
    return out


def validate_schedule(s: Schedule) -> list[ScheduleViolation]:
    """Check every well-formedness rule of a schedule; empty list means valid.

    All defects are reported, not just the first: member transactions are
    validated and must have distinct ids, the operation order must be a
    total order over all operations plus INIT with INIT first, the
    per-object version orders must cover exactly the writes of that object
    (INIT first, same-transaction writes in transaction order), the
    operation order must embed every transaction's internal order, and the
    version function must map every read to INIT or to an earlier write on
    the same object.

    The walk behind :attr:`Schedule.index` clears every rule on the way, so
    a valid schedule leaves its index built for the deciders; the
    per-offender loops below run only when it could not.
    """
    if s._walk.clean:
        return []
    V, K = ScheduleViolation, ViolationKind
    order, pos, vorder, vf = s.order, s.pos, s.vorder, s.vf
    out = [v for t in s.txns for v in validate_transaction(t)]
    out += [V(K.DUPLICATE_TRANSACTION, t.op_ids) for k, t in enumerate(s.txns) if t.id in s.txn_ids[:k]]

    # total order over all operations plus INIT
    all_ops = s.op_by_id.keys()
    seen: set[OperationId] = set()
    for opid in order:
        if opid in seen:
            out.append(V(K.DUPLICATE_POSITION, (opid,)))
        seen.add(opid)
        if opid not in all_ops and not opid.is_init:
            out.append(V(K.UNKNOWN_OPERATION, (opid,)))
    out += [V(K.ORDER_NOT_TOTAL, (opid,)) for opid in sorted((all_ops | {INIT}) - seen)]
    if not order or order[0] != INIT:
        out.append(V(K.INIT_NOT_FIRST, (INIT,)))

    # version order: per object a total order over INIT and that object's writes
    for obj in sorted(set(vorder) | set(s.writes_by_obj)):
        chain = vorder.get(obj)
        writes = {op.id for op in s.writes_by_obj.get(obj, ())}
        if chain is None:
            out.append(V(K.VORDER_NOT_TOTAL, tuple(sorted(writes))))
            continue
        chain_seen: set[OperationId] = set()
        for opid in chain:
            if opid in chain_seen:
                out.append(V(K.DUPLICATE_POSITION, (opid,)))
            chain_seen.add(opid)
            if opid not in writes and not opid.is_init:
                out.append(V(K.UNKNOWN_OPERATION, (opid,)))
        out += [V(K.VORDER_NOT_TOTAL, (opid,)) for opid in sorted(writes - chain_seen)]
        if not chain or chain[0] != INIT:
            out.append(V(K.INIT_NOT_FIRST, (INIT,)))

    # same-object writes within one transaction install in transaction order
    for t in s.txns:
        own = [op for op in t.ops if op.action is _WRITE]
        for obj in dict.fromkeys(op.obj for op in own):
            ws, ranks = [op.id for op in own if op.obj == obj], {w: r for r, w in enumerate(vorder.get(obj, ()))}
            pairs = [(a, b) for a, b in zip(ws, ws[1:]) if a in ranks and b in ranks and ranks[a] >= ranks[b]]
            out += [V(K.INTRA_TXN_VORDER, pair) for pair in pairs]

    # transaction-internal order is preserved by the operation order
    out += [
        V(K.TXN_ORDER_NOT_PRESERVED, (a.id, b.id))
        for t in s.txns
        for a, b in zip(t.ops, t.ops[1:])
        if a.id in pos and b.id in pos and pos[a.id] >= pos[b.id]
    ]

    # version function: total on reads, targets are earlier same-object writes
    op_by_id = s.op_by_id
    read_ids = {op.id for op in s.reads}
    out += [V(K.UNMAPPED_READ, (rid,)) for rid in sorted(read_ids - set(vf))]
    for rid in sorted(vf):
        target = vf[rid]
        if rid not in read_ids:
            out.append(V(K.UNKNOWN_OPERATION, (rid,)))
            continue
        if not target.is_init:
            target_op = op_by_id.get(target)
            if target_op is None:
                out.append(V(K.UNKNOWN_OPERATION, (rid, target)))
                continue
            if target_op.action is not _WRITE:
                out.append(V(K.VF_TARGET_NOT_WRITE, (rid, target)))
                continue
            if target_op.obj != op_by_id[rid].obj:
                out.append(V(K.VERSION_OBJECT_MISMATCH, (rid, target)))
        if rid in pos and target in pos and pos[target] >= pos[rid]:
            out.append(V(K.VERSION_READS_FUTURE, (rid, target)))
    return out


# ---------------------------------------------------------------------------
# Structural predicates and constructors
# ---------------------------------------------------------------------------


def txn_id(t: Transaction | str) -> str:
    """The id of a transaction given as itself or by its id."""
    return t.id if isinstance(t, Transaction) else t


def are_concurrent(s: Schedule, ti: Transaction | str, tj: Transaction | str) -> bool:
    """True when the two transactions overlap: each starts before the other commits."""
    a, b = txn_id(ti), txn_id(tj)
    if a == b:
        raise ValueError("concurrency is defined for two distinct transactions")
    ix = s.index
    i, j = (ix.number[s.transaction(tid).id] for tid in (a, b))  # UnknownOperation for a stranger
    return ix.first[i] < ix.commit[j] and ix.first[j] < ix.commit[i]


def serial_schedule(txns: Sequence[Transaction]) -> Schedule:
    """The unique single-version serial schedule with the given transaction order.

    Transactions run back to back; versions install in operation order; every
    read observes the latest preceding write on its object (INIT if none),
    including writes earlier in its own transaction.
    """
    ids = [t.id for t in txns]
    if len(set(ids)) != len(ids):
        raise ValueError("serial schedule needs pairwise distinct transactions")
    order: list[OperationId] = [INIT]
    vorder: dict[str, list[OperationId]] = {}
    vf: dict[OperationId, OperationId] = {}
    last_write: dict[str, OperationId] = {}
    for t in txns:
        for op in t.ops:
            order.append(op.id)
            if op.is_write:
                vorder.setdefault(op.obj, []).append(op.id)
                last_write[op.obj] = op.id
            elif op.is_read:
                vf[op.id] = last_write.get(op.obj, INIT)
    return make_schedule(txns, order, vorder, vf)


# ---------------------------------------------------------------------------
# Search limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchLimits:
    """Caps for the searches: the three counts at least 1, the budget a
    non-negative number of seconds (0 stops at the first check).

    ``max_txns`` and ``max_ops`` cap the input of the exhaustive robustness
    enumerations only.  ``max_orders`` and ``budget_seconds`` bound the work
    of every search, through one :class:`Budget` per search.  ``max_orders``
    counts candidates: operation orders, those dropped with a rejected
    prefix and those the robustness deciders skip as equivalent to an order
    already checked included (and, for predicate allocations, candidate
    version-data completions), the root step and each option tested of
    polygraph acyclicity, and the prefixes the view search extends plus the
    options its completion checks test when they branch.  The clock is read
    at every count and where nothing is counted: per serial order of the
    level walk's signature pool and per (T1, cut) of the split decider
    (once, when no subset can fail).
    """

    max_txns: int = 4
    max_ops: int = 16
    max_orders: int = 10_000_000
    budget_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in ("max_txns", "max_ops", "max_orders"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.budget_seconds >= 0:
            raise ValueError(f"budget_seconds must be a non-negative number, got {self.budget_seconds}")


DEFAULT_LIMITS = SearchLimits()


class Budget:
    """Candidate counter plus wall-clock deadline for one search call."""

    __slots__ = ("max_orders", "deadline", "count")

    def __init__(self, limits: SearchLimits):
        self.max_orders = limits.max_orders
        self.deadline = time.monotonic() + limits.budget_seconds
        self.count = 0

    def tick(self, n: int = 1) -> None:
        """Count ``n`` candidates (a pruned block, or 0 to only check the clock) and read the clock."""
        self.count += n
        if self.count > self.max_orders:
            raise LimitExceeded(f"more than {self.max_orders} candidate orders examined")
        if time.monotonic() >= self.deadline:
            raise LimitExceeded("search exceeded its wall-clock budget")
