"""Workload robustness: split-schedule search, enumeration oracles, transforms.

A workload (transactions plus an allocation) is robust when every allowed
schedule over every subset of its transactions is serializable; the exact
variants quantify over the full set only.  Two independent deciders are
provided: exhaustive enumeration of allowed schedules (the oracle, correct
at desk scale by construction) and a search for split-form counterexamples,
which by their shape are serializable in neither the conflict nor the view
sense.  For level allocations the two must agree, and the test suite holds
them to that.

The split search has two paths.  :func:`find_split_counterexample` decides
level allocations in polynomial time, one transaction pair and one
breadth-first search at a time; :func:`iter_split_schedules` tries every
subset, permutation and pivot and serves predicate allocations and, for
level allocations, as the exhaustive oracle the fast path is tested
against.

The enumeration walks the interleavings depth-first in canonical order.
Under a level allocation it builds each completion while it places the
operations (see :func:`_enumerate_level`): a prefix holding a dirty or
concurrent write is dropped with its whole subtree, and a leaf is checked
on small-int ids, so a :class:`Schedule` is built only for a schedule that
is emitted or returned as the counterexample.  The robustness deciders,
which only look for the first schedule that is not serializable, check
one interleaving per commuting class (sleep sets, after Godefroid's
partial-order methods): an interleaving is skipped when an equivalent one,
reached by swapping adjacent operations that commute, came earlier.  The
counterexamples are those of the full walk.  ``max_orders`` counts
interleavings, a dropped or skipped subtree adding all of those below it,
so limits are hit exactly where completing every interleaving would hit
them.  Predicate allocations still complete every interleaving, in every
way.

Also here: recognizers for the two split-schedule shapes and the three
constructive schedule transforms (serial-tail extension, restriction to a
cycle, counterexample minimization).
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import DEFAULT_LIMITS, INIT, Budget, OperationId, Schedule, SearchLimits, Transaction, make_schedule
from .errors import LimitExceeded, NotACycle, TransactionSetMismatch
from .isolation import (
    Allocation,
    IsolationLevel,
    LevelAllocation,
    complete_under_allocation,
    respects_commit_order,
)
from .serializability import (
    is_conflict_serializable,
    serial_signature_pool,
    serialization_graph,
    view_signature,
)


@dataclass(frozen=True)
class Workload:
    """A transaction set together with the allocation it runs under."""

    txns: tuple[Transaction, ...]
    alloc: Allocation

    def __post_init__(self) -> None:
        object.__setattr__(self, "txns", tuple(sorted(self.txns, key=lambda t: t.id)))
        if isinstance(self.alloc, LevelAllocation):
            for t in self.txns:
                self.alloc.level_of(t.id)

    @property
    def txn_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.txns)

    @property
    def total_ops(self) -> int:
        return sum(len(t.ops) for t in self.txns)

    def restrict(self, txn_ids: Iterable[str]) -> "Workload":
        keep = set(txn_ids)
        return Workload(tuple(t for t in self.txns if t.id in keep), self.alloc.restrict(keep))


class RobustnessMode(enum.Enum):
    CONFLICT = "conflict"
    VIEW = "view"
    EXACT_CONFLICT = "exact-conflict"
    EXACT_VIEW = "exact-view"


@dataclass(frozen=True)
class RobustnessVerdict:
    """Outcome of a robustness check.

    When not robust, ``counterexample`` holds the transaction subset and an
    allowed schedule over it that fails the mode's serializability notion.
    """

    robust: bool
    mode: RobustnessMode
    counterexample: tuple[tuple[str, ...], Schedule] | None


def _check_limits(w: Workload, limits: SearchLimits) -> None:
    if len(w.txns) > limits.max_txns:
        raise LimitExceeded(f"{len(w.txns)} transactions exceed the limit of {limits.max_txns}")
    if w.total_ops > limits.max_ops:
        raise LimitExceeded(f"{w.total_ops} operations exceed the limit of {limits.max_ops}")


def _subsets(ids: Sequence[str]) -> Iterator[tuple[str, ...]]:
    ordered = sorted(ids)
    for size in range(len(ordered) + 1):
        yield from itertools.combinations(ordered, size)


def _multinomial(counts: Iterable[int]) -> int:
    """Number of interleavings of sequences with these lengths."""
    total, out = 0, 1
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def _iter_interleavings(txns: Sequence[Transaction], budget: Budget) -> Iterator[tuple[OperationId, ...]]:
    """All operation orders respecting each transaction's internal order.

    Canonical order: at every step the next operation is taken from the
    transaction with the smallest id whose turn is possible, exploring
    depth-first, so serial-prefix orders come out before heavily interleaved
    ones and results are reproducible.  The walk keeps its own stack, so a
    long transaction does not run into the recursion limit.
    """
    seqs = [t.op_ids for t in txns]
    n = len(seqs)
    total = sum(len(ops) for ops in seqs)
    idx = [0] * n
    path: list[OperationId] = [INIT]
    nxt = [0] * (total + 1)  # per depth: the next transaction to try there
    on = [0] * total  # per depth: the transaction placed there
    d = 0
    while True:
        if d == total:
            budget.tick()
            yield tuple(path)
        else:
            i = nxt[d]
            while i < n and idx[i] == len(seqs[i]):
                i += 1
            if i < n:
                nxt[d] = i + 1
                path.append(seqs[i][idx[i]])
                idx[i] += 1
                on[d] = i
                d += 1
                nxt[d] = 0
                continue
        if d == 0:
            return
        d -= 1
        idx[on[d]] -= 1
        path.pop()


def _vorder_candidates(txns: Sequence[Transaction]) -> dict[str, list[tuple[OperationId, ...]]]:
    """Per object, every version order consistent with transaction-internal order."""
    writes: dict[str, list[OperationId]] = {}
    for t in txns:
        for op in t.ops:
            if op.is_write:
                writes.setdefault(op.obj, []).append(op.id)
    out: dict[str, list[tuple[OperationId, ...]]] = {}
    for obj, wids in writes.items():
        valid: list[tuple[OperationId, ...]] = []
        for perm in itertools.permutations(wids):
            rank = {wid: i for i, wid in enumerate(perm)}
            ok = True
            for a, b in zip(wids, wids[1:]):
                if a.txn == b.txn and rank[a] >= rank[b]:
                    ok = False
                    break
            if ok:
                valid.append(perm)
        out[obj] = valid
    return out


def _iter_free_completions(
    txns: Sequence[Transaction],
    order: tuple[OperationId, ...],
    vorder_cands: dict[str, list[tuple[OperationId, ...]]],
    budget: Budget,
) -> Iterator[Schedule]:
    """Every valid schedule with this operation order: all version orders
    crossed with all version functions (each read may observe INIT or any
    earlier same-object write)."""
    pos = {opid: i for i, opid in enumerate(order)}
    read_ops = [op for t in txns for op in t.ops if op.is_read]
    read_options: list[list[OperationId]] = []
    for op in read_ops:
        options = [INIT]
        for t in txns:
            for w in t.ops:
                if w.is_write and w.obj == op.obj and pos[w.id] < pos[op.id]:
                    options.append(w.id)
        read_options.append(options)
    objs = sorted(vorder_cands)
    for chains in itertools.product(*(vorder_cands[obj] for obj in objs)):
        vorder = dict(zip(objs, chains))
        for choice in itertools.product(*read_options):
            budget.tick()
            vf = {op.id: target for op, target in zip(read_ops, choice)}
            yield make_schedule(txns, order, vorder, vf)


_READ, _WRITE, _COMMIT = 0, 1, 2


def _enumerate_level(w: Workload, budget: Budget, failing: str | None) -> Iterator[Schedule]:
    """The allowed schedules of a level-allocated workload, in canonical order,
    completed while the interleaving walk places their operations.

    Operations, transactions and objects are small ints here.  Placing a
    write that is a dirty write (RC) or a concurrent write (SI, SSI) drops
    the whole subtree below it, and the budget is charged for every
    interleaving in that subtree.  An RC read observes the newest version
    committed when it is placed, an SI or SSI read the newest committed at
    its transaction's first operation, and a commit appends its
    transaction's writes to the version orders.  SSI dangerous structures
    are checked at the leaf.  This builds exactly the schedule
    :func:`complete_under_allocation` builds for the order, and rejects
    exactly the orders it rejects.

    With ``failing`` set to ``"conflict"`` or ``"view"`` only the schedules
    that are not serializable in that sense come out: a bitmask cycle test
    on the dependencies, or a lookup of the view signature among those of
    the serial orders.  A :class:`Schedule` is built only for a schedule
    that comes out.

    With ``failing`` set the walk also keeps a sleep set, a bitmask of
    transactions, per depth.  Two operations of different transactions
    are dependent (do not commute) when both write one object; when one
    is T's commit and the other a write of an object T writes, an RC read
    of one, or the first operation of a non-RC transaction U where T
    writes an object U touches or both are SSI under the three-SSI gate
    of the dangerous-structure check; or when both are commits whose
    write sets meet or that are both SSI under that gate.  Reads see only
    committed versions, so a read never depends on an uncommitted write.
    Swapping adjacent operations that commute keeps the dropped-prefix
    decision, the completion and the first/commit orders the dangerous-
    structure check compares, hence the leaf's verdict.  A child's sleep
    set holds the transactions, asleep at the parent or explored there
    before it (a dropped sibling counts as explored), whose next operation
    commutes with the one placed; a sleeping transaction is not placed,
    and its subtree is charged to the budget like a dropped one.  Two
    invariants follow.  The walk is lexicographic in transaction index and
    a leaf is skipped only after an equivalent leaf, so the first failing
    leaf, the least of its class, is never skipped: the yielded schedule
    is the full walk's.  And every interleaving is still charged once, so
    the budget's count and where ``max_orders`` trips do not change.
    """
    txns = w.txns
    n = len(txns)
    bits = [1 << i for i in range(n)]
    rc = [w.alloc.level_of(t.id) is IsolationLevel.RC for t in txns]
    ssi = [w.alloc.level_of(t.id) is IsolationLevel.SSI for t in txns]
    read_only = [t.read_only for t in txns]
    obj_ids: dict[str, int] = {}
    for t in txns:
        for op in t.ops:
            if op.obj is not None:
                obj_ids.setdefault(op.obj, len(obj_ids))
    # per operation id g (0 is INIT): the OperationId, owner, kind, object,
    # and for writes whether it is its transaction's first on that object
    opids, owner, kind, obj_of, first_write = [INIT], [-1], [-1], [-1], [False]
    ops_of: list[list[int]] = []
    writes_of: list[list[tuple[int, int]]] = []  # per transaction, (object, g) in order
    reads: list[tuple[int, int, int]] = []  # (g, transaction, object), in transaction order
    wmask = [0] * n  # per transaction, bitmask of the objects it writes
    touch = [0] * n  # ... and of those it reads or writes
    for i, t in enumerate(txns):
        gs: list[int] = []
        ws: list[tuple[int, int]] = []
        for op in t.ops:
            g = len(opids)
            o = -1 if op.obj is None else obj_ids[op.obj]
            k = _READ if op.is_read else _WRITE if op.is_write else _COMMIT
            opids.append(op.id)
            owner.append(i)
            kind.append(k)
            obj_of.append(o)
            first_write.append(k == _WRITE and all(wo != o for wo, _ in ws))
            gs.append(g)
            if k == _WRITE:
                ws.append((o, g))
                wmask[i] |= 1 << o
            elif k == _READ:
                reads.append((g, i, o))
            if k != _COMMIT:
                touch[i] |= 1 << o
        ops_of.append(gs)
        writes_of.append(ws)
    names = list(obj_ids)
    written = list(dict.fromkeys(o for ws in writes_of for o, _ in ws))  # in first-write order
    reads_on: list[list[tuple[int, int]]] = [[] for _ in names]
    for g, i, o in reads:
        reads_on[o].append((g, i))
    ssi_reads = [(g, i, o) for g, i, o in reads if ssi[i]]
    check_ssi = sum(ssi) >= 3

    lens = [len(t.ops) for t in txns]
    total = sum(lens)
    idx = [0] * n
    chains: list[list[int]] = [[] for _ in names]  # committed versions per object
    rank = [0] * len(opids)  # position of a version in its chain, INIT at 0
    vf = [0] * len(opids)
    pending = [0] * len(names)  # per object, transactions with uncommitted writes on it
    snap: list[list[int]] = [[] for _ in txns]  # chain lengths at an SI transaction's start
    first = [0] * n
    commit = [0] * n
    order = [0] * total  # per depth: the operation placed there
    on = [0] * total  # per depth: its transaction
    nxt = [0] * (total + 1)  # per depth: the next transaction to try there

    def concurrent(a: int, b: int) -> bool:
        return first[a] < commit[b] and first[b] < commit[a]

    def dependent(g: int, h: int) -> bool:
        """Whether two operations of different transactions fail to commute."""
        if kind[g] != _COMMIT:
            if kind[h] != _COMMIT:
                return kind[g] == _WRITE and kind[h] == _WRITE and obj_of[g] == obj_of[h]
            g, h = h, g
        t, u = owner[g], owner[h]
        both_ssi = check_ssi and ssi[t] and ssi[u]
        if kind[h] == _COMMIT:
            return bool(wmask[t] & wmask[u]) or both_ssi
        if (kind[h] == _WRITE or rc[u]) and wmask[t] >> obj_of[h] & 1:
            return True
        return h == ops_of[u][0] and not rc[u] and bool(wmask[t] & touch[u] or both_ssi)

    def skip(i: int) -> None:
        """Charge the budget for every interleaving below placing ``i`` next."""
        rest = [lens[j] - idx[j] for j in range(n)]
        rest[i] -= 1
        budget.tick(_multinomial(rest))

    def dangerous() -> bool:
        """A chain t1 -> t2 -> t3 of rw-antidependencies among SSI
        transactions, as :func:`find_dangerous_structures` defines it."""
        rw = [0] * n
        for g, t, o in ssi_reads:
            for wg in chains[o][rank[vf[g]] :]:
                u = owner[wg]
                if u != t and ssi[u]:
                    rw[t] |= bits[u]
        for t1 in range(n):
            for t2 in range(n):
                if not rw[t1] & bits[t2] or not concurrent(t1, t2):
                    continue
                for t3 in range(n):
                    if (
                        t3 != t1
                        and rw[t2] & bits[t3]
                        and concurrent(t2, t3)
                        and commit[t3] < min(commit[t1], commit[t2])
                        and (not read_only[t1] or commit[t3] < first[t1])
                    ):
                        return True
        return False

    def conflict_cyclic() -> bool:
        succ = [0] * n
        for o in written:
            ow = [owner[g] for g in chains[o]]
            later = 0
            for u in reversed(ow):  # ww: every earlier version's writer -> later writers
                succ[u] |= later & ~bits[u]
                later |= bits[u]
            for g, t in reads_on[o]:
                seen = rank[vf[g]]
                for p, u in enumerate(ow, 1):
                    if u != t:
                        if p <= seen:  # wr: the version read or an earlier one
                            succ[u] |= bits[t]
                        else:  # rw: a version installed after the one read
                            succ[t] |= bits[u]
        left = (1 << n) - 1
        while left:
            for t in range(n):
                if left & bits[t] and not succ[t] & left:
                    left ^= bits[t]
                    break
            else:
                return True
        return False

    read_gids = [g for g, _, _ in reads]
    pool: set | None = None

    def view_fails() -> bool:
        nonlocal pool
        if pool is None:
            pool = serial_pool()
        return (tuple([vf[g] for g in read_gids]), tuple([chains[o][-1] for o in written])) not in pool

    def serial_pool() -> set:
        """View signatures of every serial order, in the leaf's encoding."""
        out = set()
        for perm in itertools.permutations(range(n)):
            last = [0] * len(names)
            seen: dict[int, int] = {}
            for i in perm:
                for g in ops_of[i]:
                    if kind[g] == _WRITE:
                        last[obj_of[g]] = g
                    elif kind[g] == _READ:
                        seen[g] = last[obj_of[g]]
            out.add((tuple([seen[g] for g in read_gids]), tuple([last[o] for o in written])))
        return out

    def build() -> Schedule:
        vorder = {names[o]: (INIT,) + tuple(opids[g] for g in chains[o]) for o in written}
        for name in names:
            vorder.setdefault(name, (INIT,))
        return Schedule(
            txns=txns,
            order=(INIT,) + tuple(opids[g] for g in order),
            vorder=vorder,
            vf={opids[g]: opids[vf[g]] for g in read_gids},
        )

    fails = conflict_cyclic if failing == "conflict" else view_fails
    # per depth: the transactions asleep there, then also the siblings
    # explored or dropped there (all below the next one to try)
    sleep = [0] * (total + 1)
    d = 0
    while True:
        if d == total:
            budget.tick()
            if not (check_ssi and dangerous()) and (failing is None or fails()):
                yield build()
        else:
            i = nxt[d]
            while i < n and idx[i] == lens[i]:
                i += 1
            if i < n:
                nxt[d] = i + 1
                if sleep[d] & bits[i]:
                    skip(i)
                    continue
                g = ops_of[i][idx[i]]
                if idx[i] == 0:
                    first[i] = d
                    if not rc[i]:
                        snap[i] = [len(c) for c in chains]
                k = kind[g]
                if k == _WRITE:
                    o = obj_of[g]
                    if pending[o] & ~bits[i] or (not rc[i] and len(chains[o]) > snap[i][o]):
                        skip(i)
                        sleep[d] |= bits[i]
                        continue
                    pending[o] |= bits[i]
                elif k == _READ:
                    o = obj_of[g]
                    c = chains[o]
                    seen = len(c) if rc[i] else snap[i][o]
                    vf[g] = c[seen - 1] if seen else 0
                else:
                    commit[i] = d
                    for o, wg in writes_of[i]:
                        c = chains[o]
                        c.append(wg)
                        rank[wg] = len(c)
                        pending[o] &= ~bits[i]
                z = 0
                if failing is not None:
                    for j in range(n):
                        if sleep[d] & bits[j] and not dependent(g, ops_of[j][idx[j]]):
                            z |= bits[j]
                    sleep[d] |= bits[i]
                idx[i] += 1
                order[d] = g
                on[d] = i
                d += 1
                nxt[d] = 0
                sleep[d] = z
                continue
        if d == 0:
            return
        d -= 1
        i = on[d]
        idx[i] -= 1
        g = order[d]
        if kind[g] == _COMMIT:
            for o, wg in writes_of[i]:
                chains[o].pop()
                pending[o] |= bits[i]
        elif kind[g] == _WRITE and first_write[g]:
            pending[obj_of[g]] &= ~bits[i]


def _enumerate_allowed(
    w: Workload, limits: SearchLimits, budget: Budget, failing: str | None = None
) -> Iterator[Schedule]:
    """Allowed schedules over the workload's full transaction set, in
    canonical order; with ``failing`` (``"conflict"`` or ``"view"``) only
    those that are not serializable in that sense."""
    if isinstance(w.alloc, LevelAllocation):
        yield from _enumerate_level(w, budget, failing)
        return
    vorder_cands = _vorder_candidates(w.txns)
    for order in _iter_interleavings(w.txns, budget):
        for s in _iter_free_completions(w.txns, order, vorder_cands, budget):
            if not w.alloc.holds(s, limits, budget):
                continue
            if failing == "conflict" and is_conflict_serializable(s)[0]:
                continue
            if failing == "view" and view_signature(s) in serial_signature_pool(s.txns):
                continue
            yield s


def enumerate_allowed_schedules(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> Iterator[Schedule]:
    """Yield, in canonical order, every schedule over the workload's full
    transaction set that is allowed under its allocation.

    Under a level allocation each interleaving has at most one completion,
    built while the interleavings are walked; a prefix that already holds a
    dirty or concurrent write is dropped whole.  ``max_orders`` still counts
    every interleaving, those of a dropped prefix included, so a limit is
    hit exactly where examining them one by one would hit it.  Under a
    predicate allocation all valid schedules are generated (all
    interleavings crossed with all version orders and version functions)
    and filtered, which is far more expensive and gated by the same limits.
    """
    _check_limits(w, limits)
    yield from _enumerate_allowed(w, limits, Budget(limits))


# ---------------------------------------------------------------------------
# Robustness deciders (enumeration oracle)
# ---------------------------------------------------------------------------


def _first_failure(w: Workload, limits: SearchLimits, mode: RobustnessMode) -> RobustnessVerdict:
    """The one sweep behind the four deciders: the allowed schedules of each
    subset, smallest first and under one shared budget (the exact modes
    sweep just the full set), until one is not serializable in the mode's
    sense; that one is the counterexample."""
    _check_limits(w, limits)
    budget = Budget(limits)
    exact = mode.value.startswith("exact-")
    failing = mode.value.removeprefix("exact-")
    for subset in [w.txn_ids] if exact else _subsets(w.txn_ids):
        bad = next(_enumerate_allowed(w.restrict(subset), limits, budget, failing), None)
        if bad is not None:
            return RobustnessVerdict(False, mode, (subset, bad))
    return RobustnessVerdict(True, mode, None)


def is_exact_conflict_robust(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> RobustnessVerdict:
    """Every allowed schedule over exactly the full transaction set is
    conflict-serializable."""
    return _first_failure(w, limits, RobustnessMode.EXACT_CONFLICT)


def is_exact_view_robust(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> RobustnessVerdict:
    """Every allowed schedule over exactly the full transaction set is
    view-serializable."""
    return _first_failure(w, limits, RobustnessMode.EXACT_VIEW)


def is_conflict_robust(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> RobustnessVerdict:
    """Every allowed schedule over every transaction subset is conflict-serializable."""
    return _first_failure(w, limits, RobustnessMode.CONFLICT)


def is_view_robust(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> RobustnessVerdict:
    """Every allowed schedule over every transaction subset is view-serializable."""
    return _first_failure(w, limits, RobustnessMode.VIEW)


# ---------------------------------------------------------------------------
# Split-schedule recognizers
# ---------------------------------------------------------------------------


class SplitDefect(enum.Enum):
    """Why a schedule fails to be a generalized split schedule."""

    FORM = "form"
    NO_CHAIN = "no-cyclic-chain"
    EXTRA_DEPENDENCY = "non-consecutive-dependency"
    COMMIT_ORDER = "commit-order"


def _whole_txn_groups(s: Schedule, ops: Sequence[OperationId], exclude: set[str]) -> list[str] | None:
    """Parse a run of operations as whole back-to-back transactions.

    Returns their ids in appearance order, or None when the run interleaves,
    repeats, or touches an excluded transaction.
    """
    seq: list[str] = []
    j = 0
    while j < len(ops):
        tid = ops[j].txn
        if tid in exclude or tid in seq:
            return None
        t_ops = s.txn_by_id[tid].op_ids
        if tuple(ops[j : j + len(t_ops)]) != t_ops:
            return None
        seq.append(tid)
        j += len(t_ops)
    return seq


def _split_prefix(s: Schedule) -> tuple[str, int, OperationId] | None:
    """The forced pieces of any split labeling: first transaction, length of
    its initial run, and the pivot operation ending the run."""
    ops = [opid for opid in s.order if not opid.is_init]
    if not ops:
        return None
    t1 = ops[0].txn
    run = 0
    while run < len(ops) and ops[run].txn == t1:
        run += 1
    return t1, run, ops[run - 1]


def is_generalized_split_schedule(s: Schedule) -> tuple[bool, SplitDefect | None]:
    """Recognize the split counterexample shape.

    The operation order must read as: a prefix of one transaction up to a
    pivot operation, then every other transaction whole and back to back,
    then the rest of the split transaction.  On top of the shape: the
    consecutive transactions (wrapping around) must carry a cycle of
    dependencies, no dependency may skip ahead in that cycle, and every
    write must install in commit order.  Returns the first failing clause.
    """
    if len(s.txns) < 2:
        return False, SplitDefect.FORM
    pieces = _split_prefix(s)
    if pieces is None:
        return False, SplitDefect.FORM
    t1, run, _b1 = pieces
    ops = [opid for opid in s.order if not opid.is_init]
    t1_ops = s.txn_by_id[t1].op_ids
    rest = t1_ops[run:]
    if rest:
        if tuple(ops[-len(rest) :]) != rest:
            return False, SplitDefect.FORM
        middle = ops[run : len(ops) - len(rest)]
    else:
        middle = ops[run:]
    seq_mid = _whole_txn_groups(s, middle, exclude={t1})
    if seq_mid is None or 1 + len(seq_mid) != len(s.txns):
        return False, SplitDefect.FORM
    seq = [t1] + seq_mid

    n = len(seq)
    index = {tid: i for i, tid in enumerate(seq)}
    pairs = serialization_graph(s).edge_pairs
    for i in range(n):
        if (seq[i], seq[(i + 1) % n]) not in pairs:
            return False, SplitDefect.NO_CHAIN
    for u, v in pairs:
        if (index[u] + 1) % n != index[v]:
            return False, SplitDefect.EXTRA_DEPENDENCY
    for t in s.txns:
        for op in t.ops:
            if op.is_write and not respects_commit_order(s, op.id):
                return False, SplitDefect.COMMIT_ORDER
    return True, None


def is_multiversion_split_schedule(s: Schedule) -> tuple[bool, int | None]:
    """Recognize the looser split shape with a serial tail.

    The order must read as: prefix of the split transaction, some whole
    transactions, the rest of the split transaction, then more whole
    transactions back to back; the split transaction and the middle block
    (m transactions in total, m >= 2) must carry a cycle of dependencies.
    Returns the split index m of the first labeling that works.
    """
    if len(s.txns) < 2:
        return False, None
    pieces = _split_prefix(s)
    if pieces is None:
        return False, None
    t1, run, _b1 = pieces
    ops = [opid for opid in s.order if not opid.is_init]
    t1_ops = s.txn_by_id[t1].op_ids
    rest = t1_ops[run:]
    pairs = serialization_graph(s).edge_pairs

    def chain_holds(seq: list[str]) -> bool:
        m = len(seq)
        return all((seq[i], seq[(i + 1) % m]) in pairs for i in range(m))

    if rest:
        j = next((k for k in range(run, len(ops)) if ops[k].txn == t1), None)
        if j is None or tuple(ops[j : j + len(rest)]) != rest:
            return False, None
        seq_mid = _whole_txn_groups(s, ops[run:j], exclude={t1})
        seq_tail = _whole_txn_groups(s, ops[j + len(rest) :], exclude={t1})
        if seq_mid is None or seq_tail is None or not seq_mid:
            return False, None
        if set(seq_mid) & set(seq_tail) or 1 + len(seq_mid) + len(seq_tail) != len(s.txns):
            return False, None
        seq = [t1] + seq_mid
        return (True, len(seq)) if chain_holds(seq) else (False, None)

    # Empty postfix: the boundary between middle block and serial tail is
    # not visible in the order, so try every split index.
    seq_all = _whole_txn_groups(s, ops[run:], exclude={t1})
    if seq_all is None or 1 + len(seq_all) != len(s.txns):
        return False, None
    full = [t1] + seq_all
    for m in range(2, len(full) + 1):
        if chain_holds(full[:m]):
            return True, m
    return False, None


# ---------------------------------------------------------------------------
# Split-schedule search
# ---------------------------------------------------------------------------


def iter_split_schedules(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> Iterator[tuple[tuple[str, ...], Schedule]]:
    """Every generalized split schedule the search can build from the workload.

    Candidates are tried over subsets ascending by size then lexicographic
    order, over orderings of each subset, and over pivot operations of the
    split transaction; each candidate operation order is completed under the
    (restricted) allocation and kept when the completion is an allowed
    generalized split schedule.
    """
    _check_limits(w, limits)
    budget = Budget(limits)
    by_id = {t.id: t for t in w.txns}
    for size in range(2, len(w.txns) + 1):
        for subset in itertools.combinations(sorted(by_id), size):
            sub_alloc = w.alloc.restrict(subset)
            sub_txns = tuple(by_id[tid] for tid in subset)
            free_cands = None if isinstance(sub_alloc, LevelAllocation) else _vorder_candidates(sub_txns)
            for perm in itertools.permutations(subset):
                t1 = by_id[perm[0]]
                middle_ops: list[OperationId] = []
                for tid in perm[1:]:
                    middle_ops.extend(by_id[tid].op_ids)
                for cut in range(1, len(t1.ops) + 1):
                    order = (
                        (INIT,)
                        + t1.op_ids[:cut]
                        + tuple(middle_ops)
                        + t1.op_ids[cut:]
                    )
                    if isinstance(sub_alloc, LevelAllocation):
                        budget.tick()
                        s = complete_under_allocation(sub_txns, order, sub_alloc)
                        if s is not None and is_generalized_split_schedule(s)[0]:
                            yield subset, s
                    else:
                        for s in _iter_free_completions(sub_txns, order, free_cands, budget):
                            if sub_alloc.holds(s, limits, budget) and is_generalized_split_schedule(s)[0]:
                                yield subset, s


def _conflict_neighbours(txns: Sequence[Transaction]) -> dict[str, tuple[str, ...]]:
    """Per transaction, the sorted ids of the others it has a conflicting
    operation with (same object, at least one of the two a write)."""
    reads = {t.id: {op.obj for op in t.ops if op.is_read} for t in txns}
    writes = {t.id: {op.obj for op in t.ops if op.is_write} for t in txns}
    out: dict[str, list[str]] = {t.id: [] for t in txns}
    for a, b in itertools.combinations(sorted(out), 2):
        if writes[a] & (reads[b] | writes[b]) or writes[b] & reads[a]:
            out[a].append(b)
            out[b].append(a)
    return {tid: tuple(ids) for tid, ids in out.items()}


def _shortest_paths(
    start: str, neighbours: dict[str, tuple[str, ...]], free: set[str], last: set[str], max_len: int
) -> Iterator[tuple[str, ...]]:
    """For every ``last`` transaction reachable from ``start`` through ``free``
    ones, the first shortest path found by a breadth-first search expanding
    neighbours in sorted order; paths of more than ``max_len`` transactions
    are not sought."""
    parent = {start: start}
    frontier = [start]
    length = 1
    while frontier and length < max_len:
        length += 1
        nxt: list[str] = []
        for u in frontier:
            for v in neighbours[u]:
                if v in parent or not (v in free or v in last):
                    continue
                parent[v] = u
                if v in free:
                    nxt.append(v)
                    continue
                path = [v]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                yield tuple(reversed(path))
        frontier = nxt


def _decide_split(w: Workload, limits: SearchLimits) -> tuple[tuple[str, ...], Schedule] | None:
    """Polynomial split-schedule search for a level allocation.

    In an order ``T1[:cut] . T2 ... Tm . T1[cut:]`` the middle runs
    serially, so every conflicting pair of middle transactions carries a
    single forward dependency, and the dependencies, dirty writes and
    concurrent writes between T1 and a middle transaction are those of the
    two-transaction order ``T1[:cut] . Tj . T1[cut:]`` alone.  Per (T1, cut)
    each other transaction is therefore: free (no conflict with T1), first
    (only T1 -> Tj), last (only Tj -> T1), a two-transaction candidate (both
    ways) or excluded (the pair has no completion).  A generalized split
    schedule is then T1 with a first T2, a chordless path through free
    transactions and a last Tm; a breadth-first shortest path is chordless.
    Each candidate is completed over its subset, which rejects the one case
    left (the SSI dangerous structure Tm -> T1 -> T2), and re-checked with
    :func:`is_generalized_split_schedule`.

    The result is the candidate smallest in (size, sorted subset,
    permutation, cut), the order :func:`iter_split_schedules` yields in.
    Every two- and three-transaction candidate is tried, so the result is
    the exhaustive search's first whenever that has at most three
    transactions; above that there is one path per (T1, cut, T2, Tm), so
    the size is still minimal but a tie may resolve differently.
    """
    deadline = time.monotonic() + limits.budget_seconds
    by_id = {t.id: t for t in w.txns}
    neighbours = _conflict_neighbours(w.txns)
    best: tuple | None = None
    best_schedule: Schedule | None = None

    def consider(perm: tuple[str, ...], cut: int) -> None:
        nonlocal best, best_schedule
        subset = tuple(sorted(perm))
        key = (len(perm), subset, perm, cut)
        if best is not None and key >= best:
            return
        t1 = by_id[perm[0]]
        order = (INIT,) + t1.op_ids[:cut] + tuple(op for tid in perm[1:] for op in by_id[tid].op_ids) + t1.op_ids[cut:]
        s = complete_under_allocation(tuple(by_id[tid] for tid in subset), order, w.alloc)
        if s is not None and is_generalized_split_schedule(s)[0]:
            best, best_schedule = key, s

    for t1 in w.txns:
        others = set(by_id) - {t1.id} - set(neighbours[t1.id])
        for cut in range(1, len(t1.ops)):
            if time.monotonic() >= deadline:
                raise LimitExceeded("search exceeded its wall-clock budget")
            head, tail = t1.op_ids[:cut], t1.op_ids[cut:]
            first: list[str] = []
            last: set[str] = set()
            for tid in neighbours[t1.id]:
                tj = by_id[tid]
                s = complete_under_allocation((t1, tj), (INIT,) + head + tj.op_ids + tail, w.alloc)
                if s is None:
                    continue
                pairs = serialization_graph(s).edge_pairs
                forward, backward = (t1.id, tid) in pairs, (tid, t1.id) in pairs
                if forward and backward:
                    consider((t1.id, tid), cut)
                elif forward:
                    first.append(tid)
                elif backward:
                    last.add(tid)
            for t2 in first:
                max_len = len(by_id) - 1 if best is None else best[0] - 1
                for path in _shortest_paths(t2, neighbours, others, last, max_len):
                    consider((t1.id,) + path, cut)
    return None if best is None else (best[1], best_schedule)


def find_split_counterexample(
    w: Workload, limits: SearchLimits = DEFAULT_LIMITS
) -> tuple[tuple[str, ...], Schedule] | None:
    """A generalized split schedule allowed under the restricted allocation,
    as (subset, schedule), or None when no subset admits one.

    Level allocations go to the polynomial decider (see
    :func:`_decide_split` for its witness order); it runs no exhaustive
    search, so only ``limits.budget_seconds`` applies.  Predicate
    allocations take the canonically first hit of the exhaustive
    :func:`iter_split_schedules`.
    """
    if isinstance(w.alloc, LevelAllocation):
        return _decide_split(w, limits)
    return next(iter_split_schedules(w, limits), None)


def check_condition_1(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> bool:
    """Either the workload is conflict-robust, or a split-form counterexample
    witnesses that it is not."""
    if is_conflict_robust(w, limits).robust:
        return True
    return find_split_counterexample(w, limits) is not None


# ---------------------------------------------------------------------------
# Constructive transforms
# ---------------------------------------------------------------------------


def extend_with_serial_tail(s: Schedule, full: Iterable[Transaction]) -> Schedule:
    """Append the missing transactions serially after the schedule.

    Appended writes install last (per object, in append order); appended
    reads observe the most recent write before them in the extended order
    (INIT when there is none).  The original order, version order, and
    version function are preserved verbatim.
    """
    full_by_id = {t.id: t for t in full}
    for t in s.txns:
        if full_by_id.get(t.id) != t:
            raise TransactionSetMismatch(f"transaction {t.id!r} of the schedule is missing from the full set")
    tail = [full_by_id[tid] for tid in sorted(full_by_id) if tid not in s.txn_by_id]

    order = list(s.order)
    vorder = {obj: [x for x in chain if not x.is_init] for obj, chain in s.vorder.items()}
    vf = dict(s.vf)
    last_written: dict[str, OperationId] = {}
    for opid in s.order:
        if not opid.is_init and s.op_by_id[opid].is_write:
            last_written[s.op_by_id[opid].obj] = opid
    for t in tail:
        for op in t.ops:
            order.append(op.id)
            if op.is_write:
                vorder.setdefault(op.obj, []).append(op.id)
                last_written[op.obj] = op.id
            elif op.is_read:
                vf[op.id] = last_written.get(op.obj, INIT)
    return make_schedule(tuple(full_by_id.values()), order, vorder, vf)


def _assert_set_is_cycle(s: Schedule, keep: frozenset[str]) -> None:
    if len(keep) < 2:
        raise NotACycle("a cycle needs at least two transactions")
    pairs = serialization_graph(s).edge_pairs
    nodes = sorted(keep)
    first = nodes[0]
    for perm in itertools.permutations(nodes[1:]):
        ring = [first, *perm]
        if all((ring[i], ring[(i + 1) % len(ring)]) in pairs for i in range(len(ring))):
            return
    raise NotACycle(f"{sorted(keep)} is not the transaction set of a cycle in the serialization graph")


def restrict_to_cycle(s: Schedule, cycle: Iterable[str]) -> Schedule:
    """Drop every transaction outside the cycle, remapping dangling reads.

    A read whose observed write is dropped falls back to the latest retained
    version installed before it (INIT when none remains); everything else is
    the original schedule filtered down.
    """
    keep = frozenset(cycle)
    for tid in keep:
        s.transaction(tid)
    _assert_set_is_cycle(s, keep)

    txns = tuple(t for t in s.txns if t.id in keep)
    order = [opid for opid in s.order if opid.is_init or opid.txn in keep]
    vorder: dict[str, list[OperationId]] = {}
    kept_rank: dict[str, dict[OperationId, int]] = {}
    for obj, chain in s.vorder.items():
        kept = [opid for opid in chain if opid.is_init or opid.txn in keep]
        vorder[obj] = [opid for opid in kept if not opid.is_init]
        kept_rank[obj] = {opid: i for i, opid in enumerate(kept)}
    vf: dict[OperationId, OperationId] = {}
    for t in txns:
        for op in t.ops:
            if not op.is_read:
                continue
            target = s.vf[op.id]
            if target.is_init or target.txn in keep:
                vf[op.id] = target
            else:
                # latest retained version installed strictly before the
                # dropped one
                chain = s.vorder[op.obj]
                rank = s.vpos[op.obj]
                best = INIT
                for opid in chain:
                    if opid.is_init or opid.txn in keep:
                        if rank[opid] < rank[target]:
                            best = opid
                vf[op.id] = best
    return make_schedule(txns, order, vorder, vf)


def minimize_counterexample(
    s: Schedule, alloc: LevelAllocation, limits: SearchLimits = DEFAULT_LIMITS
) -> Schedule:
    """Shrink a split-form counterexample to a generalized split schedule.

    Repeatedly restricts the schedule to a minimal cycle of its
    serialization graph; when the minimal cycle already spans every
    remaining transaction but the shape still does not match, a split-form
    counterexample is re-derived by search over the reduced workload.  The
    transaction set strictly shrinks, so this terminates.
    """
    current = s
    while True:
        ok, _ = is_generalized_split_schedule(current)
        if ok:
            return current
        _, cycle = is_conflict_serializable(current)
        if cycle is None:
            raise ValueError("schedule is conflict-serializable; there is nothing to minimize")
        if frozenset(cycle) != frozenset(current.txn_ids):
            current = restrict_to_cycle(current, cycle)
            continue
        reduced = Workload(current.txns, alloc.restrict(current.txn_ids))
        hit = find_split_counterexample(reduced, limits)
        if hit is None:
            raise LimitExceeded("no split-form counterexample found within the configured limits")
        current = hit[1]
