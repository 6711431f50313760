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
schedules in parallel.  The search limits every exhaustive search obeys,
and the per-call :class:`Budget` that enforces them, live here too.
"""

from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import LimitExceeded, UnknownOperation


class Action(enum.Enum):
    """What an operation does: read an object, write it, or commit."""

    READ = "R"
    WRITE = "W"
    COMMIT = "C"


@dataclass(frozen=True, order=True)
class OperationId:
    """Positional identity of an operation: owning transaction and 1-based index.

    The initial pseudo-operation is the single value with an empty
    transaction id and index 0; it belongs to no transaction.
    """

    txn: str
    index: int

    @property
    def is_init(self) -> bool:
        return self.index == 0 and self.txn == ""

    def __repr__(self) -> str:
        return "INIT" if self.is_init else f"{self.txn}#{self.index}"


INIT = OperationId("", 0)


@dataclass(frozen=True)
class Operation:
    """A single read, write, or commit.

    Reads and writes carry exactly one object; commits carry none.  This is
    enforced at construction time because no useful value violates it.
    """

    id: OperationId
    action: Action
    obj: str | None = None

    def __post_init__(self) -> None:
        if self.action is Action.COMMIT:
            if self.obj is not None:
                raise ValueError(f"commit {self.id!r} must not carry an object")
        else:
            if not self.obj:
                raise ValueError(f"{self.action.value} operation {self.id!r} needs a nonempty object")

    @property
    def is_read(self) -> bool:
        return self.action is Action.READ

    @property
    def is_write(self) -> bool:
        return self.action is Action.WRITE

    @property
    def is_commit(self) -> bool:
        return self.action is Action.COMMIT

    def __repr__(self) -> str:
        if self.is_commit:
            return f"C[{self.id.txn}]"
        return f"{self.action.value}[{self.id.txn}]({self.obj})"


@dataclass(frozen=True)
class Transaction:
    """A finite sequence of operations ending in its unique commit.

    Multiple reads and multiple writes of the same object are permitted.
    Structural rules (commit placement, id/index consistency) are checked by
    :func:`validate_transaction`, not at construction, so that defective
    values can be represented and reported.
    """

    id: str
    ops: tuple[Operation, ...]

    @property
    def first(self) -> Operation:
        return self.ops[0]

    @property
    def commit(self) -> Operation:
        return self.ops[-1]

    @cached_property
    def op_ids(self) -> tuple[OperationId, ...]:
        return tuple(op.id for op in self.ops)

    @cached_property
    def by_id(self) -> dict[OperationId, Operation]:
        return {op.id: op for op in self.ops}

    def __contains__(self, opid: OperationId) -> bool:
        return opid in self.by_id

    @property
    def read_only(self) -> bool:
        """True when every non-commit operation is a read (or there are none)."""
        return all(not op.is_write for op in self.ops)


_OP_TOKEN = re.compile(r"^([RW])\(([^()\s]+)\)$|^(C)$")


def make_transaction(tid: str, actions: str) -> Transaction:
    """Build a transaction from compact notation, e.g. ``"R(t) W(t) C"``.

    Indices are assigned positionally starting at 1.
    """
    ops: list[Operation] = []
    for k, token in enumerate(actions.split(), start=1):
        m = _OP_TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad operation token {token!r} in transaction {tid}")
        if m.group(3):
            ops.append(Operation(OperationId(tid, k), Action.COMMIT))
        else:
            action = Action.READ if m.group(1) == "R" else Action.WRITE
            ops.append(Operation(OperationId(tid, k), action, m.group(2)))
    return Transaction(tid, tuple(ops))


@dataclass(frozen=True, eq=False)
class Schedule:
    """A multiversion schedule: operation order, version order, version function.

    ``order`` lists every operation id including INIT.  ``vorder`` maps each
    object to the installation order of its versions, starting with INIT.
    ``vf`` maps every read to INIT or to the write whose version it observed.

    Build instances through :func:`make_schedule`, which normalizes the
    representation (sorted transactions, trivial version orders filled in)
    so that structural equality compares canonical forms.
    """

    txns: tuple[Transaction, ...]
    order: tuple[OperationId, ...]
    vorder: Mapping[str, tuple[OperationId, ...]]
    vf: Mapping[OperationId, OperationId]

    # -- identity ---------------------------------------------------------

    @cached_property
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

    @cached_property
    def txn_by_id(self) -> dict[str, Transaction]:
        return {t.id: t for t in self.txns}

    @cached_property
    def txn_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.txns)

    @cached_property
    def op_by_id(self) -> dict[OperationId, Operation]:
        return {op.id: op for t in self.txns for op in t.ops}

    @cached_property
    def pos(self) -> dict[OperationId, int]:
        return {opid: i for i, opid in enumerate(self.order)}

    @cached_property
    def vpos(self) -> dict[str, dict[OperationId, int]]:
        return {obj: {opid: i for i, opid in enumerate(chain)} for obj, chain in self.vorder.items()}

    @cached_property
    def commit_pos(self) -> dict[str, int]:
        """Position of each transaction's last operation in the order."""
        return {t.id: self.pos[t.ops[-1].id] for t in self.txns if t.ops}

    @cached_property
    def first_pos(self) -> dict[str, int]:
        return {t.id: self.pos[t.ops[0].id] for t in self.txns if t.ops}

    @cached_property
    def writes_by_obj(self) -> dict[str, tuple[Operation, ...]]:
        out: dict[str, list[Operation]] = {}
        for t in self.txns:
            for op in t.ops:
                if op.is_write:
                    out.setdefault(op.obj, []).append(op)
        return {obj: tuple(ws) for obj, ws in out.items()}

    @cached_property
    def reads(self) -> tuple[Operation, ...]:
        return tuple(op for t in self.txns for op in t.ops if op.is_read)

    @cached_property
    def objects(self) -> frozenset[str]:
        return frozenset(op.obj for t in self.txns for op in t.ops if op.obj is not None)

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

    def before(self, a: OperationId, b: OperationId) -> bool:
        """True when a is strictly before b in the operation order."""
        return self.pos[a] < self.pos[b]

    def vorder_before(self, obj: str, a: OperationId, b: OperationId) -> bool:
        """True when version a is installed strictly before version b for obj."""
        chain = self.vpos[obj]
        return chain[a] < chain[b]


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
    txns = tuple(sorted(txns, key=lambda t: t.id))
    seen: set[str] = set()
    for t in txns:
        if t.id in seen:
            raise ValueError(f"duplicate transaction id {t.id!r}")
        seen.add(t.id)

    order_t = tuple(order)
    if INIT not in order_t:
        order_t = (INIT,) + order_t

    mentioned = {op.obj for t in txns for op in t.ops if op.obj is not None}
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


EMPTY_SCHEDULE = make_schedule((), (INIT,), {}, {})


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
        if op.is_commit:
            out.append(ScheduleViolation(ViolationKind.COMMIT_NOT_LAST, (op.id,)))
    if not t.ops[-1].is_commit:
        out.append(ScheduleViolation(ViolationKind.MISSING_COMMIT, (t.ops[-1].id,)))
    return out


def validate_schedule(s: Schedule) -> list[ScheduleViolation]:
    """Check every well-formedness rule of a schedule; empty list means valid.

    All defects are reported, not just the first: member transactions are
    validated, the operation order must be a total order over all operations
    plus INIT with INIT first, the per-object version orders must cover
    exactly the writes of that object (INIT first, same-transaction writes
    in transaction order), the operation order must embed every
    transaction's internal order, and the version function must map every
    read to INIT or to an earlier write on the same object.
    """
    out: list[ScheduleViolation] = []
    for t in s.txns:
        out.extend(validate_transaction(t))

    all_ops = {op.id for t in s.txns for op in t.ops}

    # total order over all operations plus INIT
    seen: set[OperationId] = set()
    for opid in s.order:
        if opid in seen:
            out.append(ScheduleViolation(ViolationKind.DUPLICATE_POSITION, (opid,)))
        seen.add(opid)
        if not opid.is_init and opid not in all_ops:
            out.append(ScheduleViolation(ViolationKind.UNKNOWN_OPERATION, (opid,)))
    missing = (all_ops | {INIT}) - seen
    for opid in sorted(missing):
        out.append(ScheduleViolation(ViolationKind.ORDER_NOT_TOTAL, (opid,)))
    if s.order and (INIT not in seen or s.order[0] != INIT):
        out.append(ScheduleViolation(ViolationKind.INIT_NOT_FIRST, (INIT,)))
    elif not s.order:
        out.append(ScheduleViolation(ViolationKind.INIT_NOT_FIRST, (INIT,)))

    pos = {opid: i for i, opid in enumerate(s.order)}

    # version order: per object a total order over INIT and that object's writes
    for obj in sorted(set(s.vorder) | set(s.writes_by_obj)):
        chain = s.vorder.get(obj)
        writes = {op.id for op in s.writes_by_obj.get(obj, ())}
        if chain is None:
            out.append(ScheduleViolation(ViolationKind.VORDER_NOT_TOTAL, tuple(sorted(writes))))
            continue
        chain_seen: set[OperationId] = set()
        for opid in chain:
            if opid in chain_seen:
                out.append(ScheduleViolation(ViolationKind.DUPLICATE_POSITION, (opid,)))
            chain_seen.add(opid)
            if not opid.is_init and opid not in writes:
                out.append(ScheduleViolation(ViolationKind.UNKNOWN_OPERATION, (opid,)))
        for opid in sorted(writes - chain_seen):
            out.append(ScheduleViolation(ViolationKind.VORDER_NOT_TOTAL, (opid,)))
        if not chain or chain[0] != INIT or INIT not in chain_seen:
            out.append(ScheduleViolation(ViolationKind.INIT_NOT_FIRST, (INIT,)))

    # same-object writes within one transaction install in transaction order
    for t in s.txns:
        writes_per_obj: dict[str, list[OperationId]] = {}
        for op in t.ops:
            if op.is_write:
                writes_per_obj.setdefault(op.obj, []).append(op.id)
        for obj, ws in writes_per_obj.items():
            chain = s.vorder.get(obj)
            if chain is None:
                continue
            vpos = {opid: i for i, opid in enumerate(chain)}
            for a, b in zip(ws, ws[1:]):
                if a in vpos and b in vpos and vpos[a] >= vpos[b]:
                    out.append(ScheduleViolation(ViolationKind.INTRA_TXN_VORDER, (a, b)))

    # transaction-internal order is preserved by the operation order
    for t in s.txns:
        for a, b in zip(t.ops, t.ops[1:]):
            if a.id in pos and b.id in pos and pos[a.id] >= pos[b.id]:
                out.append(ScheduleViolation(ViolationKind.TXN_ORDER_NOT_PRESERVED, (a.id, b.id)))

    # version function: total on reads, targets are earlier same-object writes
    op_by_id = {op.id: op for t in s.txns for op in t.ops}
    reads = {op.id for t in s.txns for op in t.ops if op.is_read}
    for rid in sorted(reads - set(s.vf)):
        out.append(ScheduleViolation(ViolationKind.UNMAPPED_READ, (rid,)))
    for rid in sorted(s.vf):
        target = s.vf[rid]
        if rid not in reads:
            out.append(ScheduleViolation(ViolationKind.UNKNOWN_OPERATION, (rid,)))
            continue
        read_op = op_by_id[rid]
        if not target.is_init:
            target_op = op_by_id.get(target)
            if target_op is None:
                out.append(ScheduleViolation(ViolationKind.UNKNOWN_OPERATION, (rid, target)))
                continue
            if not target_op.is_write:
                out.append(ScheduleViolation(ViolationKind.VF_TARGET_NOT_WRITE, (rid, target)))
                continue
            if target_op.obj != read_op.obj:
                out.append(ScheduleViolation(ViolationKind.VERSION_OBJECT_MISMATCH, (rid, target)))
        if rid in pos and target in pos and pos[target] >= pos[rid]:
            out.append(ScheduleViolation(ViolationKind.VERSION_READS_FUTURE, (rid, target)))

    return out


# ---------------------------------------------------------------------------
# Structural predicates and constructors
# ---------------------------------------------------------------------------


def is_single_version(s: Schedule) -> bool:
    """Decide clause by clause whether a schedule behaves single-version.

    Two clauses, both evaluated literally: the version order must agree with
    the operation order on every pair of same-object writes, and for every
    read no same-object write may sit strictly between the observed version
    and the read in the operation order.
    """
    pos = s.pos
    for obj, writes in s.writes_by_obj.items():
        vpos = s.vpos[obj]
        for i, a in enumerate(writes):
            for b in writes[i + 1 :]:
                if (vpos[a.id] < vpos[b.id]) != (pos[a.id] < pos[b.id]):
                    return False
    for read in s.reads:
        lo = pos[s.vf[read.id]]
        hi = pos[read.id]
        for w in s.writes_by_obj.get(read.obj, ()):
            if lo < pos[w.id] < hi:
                return False
    return True


def is_single_version_serial(s: Schedule) -> bool:
    """True for single-version schedules whose transactions do not interleave."""
    if not is_single_version(s):
        return False
    spans: dict[str, tuple[int, int]] = {}
    for t in s.txns:
        if not t.ops:
            continue
        positions = [s.pos[op.id] for op in t.ops]
        spans[t.id] = (min(positions), max(positions))
        if max(positions) - min(positions) + 1 != len(positions):
            return False
    ordered = sorted(spans.values())
    for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
        if lo <= hi:
            return False
    return True


def txn_id(t: Transaction | str) -> str:
    """The id of a transaction given as itself or by its id."""
    return t.id if isinstance(t, Transaction) else t


def are_concurrent(s: Schedule, ti: Transaction | str, tj: Transaction | str) -> bool:
    """True when the two transactions overlap: each starts before the other commits."""
    a, b = txn_id(ti), txn_id(tj)
    if a == b:
        raise ValueError("concurrency is defined for two distinct transactions")
    for tid in (a, b):
        if tid not in s.txn_by_id:
            raise UnknownOperation(f"transaction {tid!r} is not part of this schedule")
    return s.first_pos[a] < s.commit_pos[b] and s.first_pos[b] < s.commit_pos[a]


def split(t: Transaction, b: OperationId) -> tuple[tuple[Operation, ...], tuple[Operation, ...]]:
    """Split a transaction at an operation: (ops up to and including b, ops after b)."""
    if b not in t:
        raise UnknownOperation(f"{b!r} does not occur in transaction {t.id}")
    cut = next(i for i, op in enumerate(t.ops) if op.id == b) + 1
    return t.ops[:cut], t.ops[cut:]


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
    """Caps for the exhaustive searches: the three counts at least 1, the
    budget a non-negative number of seconds (0 stops at the first check).

    ``max_orders`` counts candidates: operation orders, those dropped with a
    rejected prefix and those the robustness deciders skip as equivalent to
    an order already checked included (and, for predicate allocations,
    candidate version-data completions), the choice resolutions polygraph
    acyclicity tries, and the prefixes the view search extends.
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

    __slots__ = ("max_orders", "deadline", "count", "_clock_check")

    def __init__(self, limits: SearchLimits):
        self.max_orders = limits.max_orders
        self.deadline = time.monotonic() + limits.budget_seconds
        self.count = 0
        self._clock_check = 0

    def tick(self, n: int = 1) -> None:
        """Count ``n`` candidates: one examined, or a pruned block of them."""
        self.count += n
        if self.count > self.max_orders:
            raise LimitExceeded(f"more than {self.max_orders} candidate orders examined")
        self._clock_check += n
        if self._clock_check >= 256 or self.count == n:
            self._clock_check = 0
            if time.monotonic() >= self.deadline:
                raise LimitExceeded("search exceeded its wall-clock budget")
