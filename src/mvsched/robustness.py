"""Workload robustness: split-schedule search, enumeration oracles, transforms.

A workload (transactions plus an allocation) is robust when every allowed
schedule over every subset of its transactions is serializable; the exact
variants quantify over the full set only.  Two independent deciders are
provided: exhaustive enumeration of allowed schedules (the oracle, correct
at desk scale by construction) and a search for split-form counterexamples,
which by their shape are serializable in neither the conflict nor the view
sense.  For level allocations the two must agree, and the test suite holds
them to that, against an exhaustive split search of its own.

Under a level allocation each decider compiles the workload once into a
:class:`~mvsched.isolation.LevelEngine`, whose step function completes an
operation order as it is placed.  :func:`find_split_counterexample`
decides in polynomial time, classifying transaction pairs and checking
candidates on small ints, and builds a :class:`Schedule` for its witness
alone; in the view sense a transaction reading its own earlier write
comes first, and under the predicate it answers None (no split schedule
is view-serializable).  The enumeration, one sweep (:func:`_sweep`)
behind the listing and the four deciders, walks each level subset's
interleavings depth-first in canonical order (:func:`_enumerate_level`):
a refused write drops its whole subtree, and the robustness deciders
check one interleaving per commuting class (sleep sets, after Godefroid's
partial-order methods).  The counterexamples are those of the full walk,
and ``max_orders`` counts every interleaving, dropped and skipped ones
included, so limits are hit where completing each interleaving would hit
them.  A subset whose static conflict multigraph is a forest cannot fail
(:func:`_has_conflict_cycle`) and is charged without a walk.  Predicate
allocations still complete every interleaving, in every way, and search
each view signature once per subset (:func:`_enumerate_allowed`).

Also here: the recognizer of the split-schedule shape and the three
constructive schedule transforms (serial-tail extension, restriction to a
cycle, counterexample minimization).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from operator import or_
from typing import Iterable, Iterator, Sequence

from .core import DEFAULT_LIMITS, INIT, Action, Budget, Operation, OperationId, Schedule, SearchLimits, Transaction, make_schedule
from .errors import LimitExceeded, NotACycle, TransactionSetMismatch
from .isolation import (
    Allocation,
    LevelAllocation,
    LevelEngine,
    clause_pass,
)
from .serializability import (
    dependency_masks,
    has_cycle,
    is_conflict_serializable,
    serialization_graph,
)

_WRITE = Action.WRITE


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


def _multinomial(counts: Iterable[int]) -> int:
    """Number of interleavings of sequences with these lengths."""
    total, out = 0, 1
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def _iter_interleavings(txns: Sequence[Transaction], budget: Budget) -> Iterator[tuple[OperationId, ...]]:
    """All operation orders respecting each transaction's internal order.

    Canonical order: an order is the word of its operations' transaction
    numbers, and the words come out lexicographically, each the next
    permutation of the multiset of those numbers, so serial-prefix orders
    come out before heavily interleaved ones and results are reproducible.
    """
    seqs = [t.op_ids for t in txns]
    word = [i for i, ops in enumerate(seqs) for _ in ops]
    path = [INIT, *[op for ops in seqs for op in ops]]
    placed = [len(ops) for ops in seqs]  # per transaction, its operations in the path
    while True:
        budget.tick()
        yield tuple(path)
        k = len(word) - 2  # the last ascent; the letters after it never rise
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return
        j = len(word) - 1  # the last letter above word[k]
        while word[j] <= word[k]:
            j -= 1
        for i in word[k:]:
            placed[i] -= 1
        word[k], word[j] = word[j], word[k]
        word[k + 1 :] = word[:k:-1]
        for d in range(k, len(word)):  # only the operations from the ascent on move
            i = word[d]
            path[d + 1] = seqs[i][placed[i]]
            placed[i] += 1


def _version_orders(txns: Sequence[Transaction]) -> list[dict[str, tuple[OperationId, ...]]]:
    """Every version order consistent with transaction-internal order, each
    a chain per object written, the objects in sorted order."""
    writes: dict[str, list[OperationId]] = {}
    for t in txns:
        for opid, action, obj in t.ops:
            if action is _WRITE:
                writes.setdefault(obj, []).append(opid)
    objs, per_obj = sorted(writes), []
    for obj in objs:
        wids = writes[obj]
        own = [(a, b) for a, b in zip(wids, wids[1:]) if a.txn == b.txn]  # consecutive writes of one transaction
        per_obj.append([perm for perm in itertools.permutations(wids) if all(perm.index(a) < perm.index(b) for a, b in own)])
    return [dict(zip(objs, chains)) for chains in itertools.product(*per_obj)]


def _read_sources(txns: Sequence[Transaction]) -> list[tuple[Operation, list[OperationId]]]:
    """Per read of ``txns``, in transaction order: the read, and the writes
    of its object in transaction order."""
    writes = [op for t in txns for op in t.ops if op.is_write]
    return [(r, [w.id for w in writes if w.obj == r.obj]) for t in txns for r in t.ops if r.is_read]


def _read_options(sources: list[tuple[Operation, list[OperationId]]], order: tuple[OperationId, ...]) -> tuple:
    """Per read of ``sources``, the versions it may see in this operation
    order: INIT and every earlier write of its object."""
    pos = {opid: i for i, opid in enumerate(order)}
    return tuple(tuple([INIT] + [w for w in ws if pos[w] < pos[r.id]]) for r, ws in sources)


def _enumerate_level(eng: LevelEngine, active: list[int], budget: Budget, failing: str | None, own: int) -> Iterator[Schedule]:
    """The allowed schedules over the transactions ``active`` of a compiled
    level workload, in canonical order, the engine's step completing each
    while the walk places its operations.

    A refused write (dirty under RC, concurrent under SI or SSI) drops the
    whole subtree below it, charged to the budget interleaving by
    interleaving; SSI dangerous structures are checked at the leaf.  With
    ``failing`` (``"conflict"`` or ``"view"``) only the schedules that are
    not serializable in that sense come out (a bitmask cycle test, or, when
    that finds a cycle or a transaction of ``own`` is active, the view
    signature looked up in :func:`serial_signature_pool`), and the walk
    keeps a sleep set of transactions per depth.  In the view sense ``own``
    holds the transactions of :func:`_own_write_readers`, else none.  Two
    operations of different transactions are dependent when both write one
    object; when one is T's commit and the other a write of an object T
    writes, an RC read of one, or the first operation of a non-RC
    transaction U where T writes an object U touches or both are SSI under
    the three-SSI gate of the dangerous-structure check; or when both are
    commits whose write sets meet or that are both SSI under that gate.
    Swapping adjacent commuting operations keeps the dropped-prefix
    decision, the completion and the orders the dangerous-structure check
    compares.  A child's sleep set holds the transactions, asleep at the
    parent or explored there before it, whose next operation commutes with
    the one placed; a sleeping transaction is not placed and its subtree is
    charged like a dropped one.  So the first failing leaf, least of its
    class, is never skipped, and every interleaving is still charged once.
    """
    eng.start(active)
    n, bits, ops_of, kind, owner, obj_of = eng.n, eng.bits, eng.ops_of, eng.kind, eng.owner, eng.obj_of
    rc, ssi, rmask, wmask, chains, vf = eng.rc, eng.ssi, eng.rmask, eng.wmask, eng.chains, eng.vf
    place, undo, dangerous = eng.place, eng.undo, eng.dangerous
    WRITE, COMMIT = eng.WRITE, eng.COMMIT
    check_ssi = sum(ssi[i] for i in active) >= 3
    lens = [len(ops_of[i]) if eng.mask & bits[i] else 0 for i in range(n)]  # the others count as done
    total = sum(lens)
    idx = [0] * n
    order = [0] * total  # per depth: the operation placed there
    on = [0] * total  # per depth: its transaction
    nxt = [0] * (total + 1)  # per depth: the next transaction to try there
    # per depth: the interleavings of the operations left there; placing one of
    # transaction i's r_i of the R left leaves r_i / R of them (M(r - e_i) = M(r) r_i / R)
    ways = [_multinomial(lens)] + [0] * total

    def dependent(g: int, h: int) -> bool:
        """Whether two operations of different transactions fail to commute."""
        if kind[g] != COMMIT:
            if kind[h] != COMMIT:
                return kind[g] == WRITE and kind[h] == WRITE and obj_of[g] == obj_of[h]
            g, h = h, g
        t, u = owner[g], owner[h]
        both_ssi = check_ssi and ssi[t] and ssi[u]
        if kind[h] == COMMIT:
            return bool(wmask[t] & wmask[u]) or both_ssi
        if (kind[h] == WRITE or rc[u]) and wmask[t] >> obj_of[h] & 1:
            return True
        return h == ops_of[u][0] and not rc[u] and bool(wmask[t] & (rmask[u] | wmask[u]) or both_ssi)

    read_gids = [g for g, _, _ in eng.active_reads]
    written = eng.written
    pool: set | None = None
    own_write = bool(own & eng.mask)

    def view_fails() -> bool:
        nonlocal pool
        # conflict-serializable is view-serializable unless a read misses its own write
        if not own_write and not has_cycle(eng.dependencies()):
            return False
        if pool is None:
            pool = serial_signature_pool(eng, budget)
        return (tuple([vf[g] for g in read_gids]), tuple([chains[o][-1] for o in written])) not in pool

    fails = (lambda: has_cycle(eng.dependencies())) if failing == "conflict" else view_fails
    # per depth: the transactions asleep there, then also the siblings
    # explored or dropped there (all below the next one to try)
    sleep = [0] * (total + 1)
    d = 0
    while True:
        if d == total:
            budget.tick()
            if not (check_ssi and dangerous()) and (failing is None or fails()):
                yield eng.schedule(order)
        else:
            i = nxt[d]
            while i < n and idx[i] == lens[i]:
                i += 1
            if i < n:
                nxt[d] = i + 1
                below = ways[d] * (lens[i] - idx[i]) // (total - d)  # the interleavings below placing i next
                if sleep[d] & bits[i]:
                    budget.tick(below)
                    continue
                g = ops_of[i][idx[i]]
                if not place(g, d):
                    budget.tick(below)
                    sleep[d] |= bits[i]
                    continue
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
                nxt[d], sleep[d], ways[d] = 0, z, below
                continue
        if d == 0:
            return
        d -= 1
        idx[on[d]] -= 1
        undo(order[d])


def serial_signature_pool(eng: LevelEngine, budget: Budget) -> set:
    """The view signatures of every serial order of the transactions of the
    engine's walk, in the encoding of :func:`_enumerate_level`'s leaves:
    per read of the walk the operation whose version it sees, then per
    object written the final version's writer.  Each serial order checks
    the clock of ``budget`` and counts no candidate."""
    kind, ops_of, obj_of, WRITE, READ = eng.kind, eng.ops_of, eng.obj_of, eng.WRITE, eng.READ
    read_gids, written = [g for g, _, _ in eng.active_reads], eng.written
    pool = set()
    for perm in itertools.permutations(eng.active):
        budget.tick(0)
        last = [0] * len(eng.chains)
        seen: dict[int, int] = {}
        for i in perm:
            for g in ops_of[i]:
                if kind[g] == WRITE:
                    last[obj_of[g]] = g
                elif kind[g] == READ:
                    seen[g] = last[obj_of[g]]
        pool.add((tuple([seen[g] for g in read_gids]), tuple([last[o] for o in written])))
    return pool


def _conflict_pairs(eng: LevelEngine) -> list[tuple[int, int, int]]:
    """Per pair of transactions with conflicting operations (one object, at
    least one of the two a write; commits have none): the two, and how many
    such operation pairs they have, 2 standing for two or more.  Every
    dependency between two transactions, in any schedule, comes from one
    such pair, and each pair gives it exactly one direction."""
    n, rmask, wmask = eng.n, eng.rmask, eng.wmask
    reads = [[0] * len(eng.names) for _ in range(n)]
    writes = [[0] * len(eng.names) for _ in range(n)]
    for _, i, o in eng.reads:
        reads[i][o] += 1
    for i, ws in enumerate(eng.writes_of):
        for o, _ in ws:
            writes[i][o] += 1
    out = []
    for i, j in itertools.combinations(range(n), 2):
        shared = wmask[i] & (rmask[j] | wmask[j]) | wmask[j] & rmask[i]  # the objects they conflict on
        if shared & (shared - 1):
            out.append((i, j, 2))
        elif shared:
            o = shared.bit_length() - 1
            wi, wj = writes[i][o], writes[j][o]
            out.append((i, j, min(2, wi * (wj + reads[j][o]) + reads[i][o] * wj)))
    return out


def _has_conflict_cycle(pairs: list[tuple[int, int, int]], mask: int) -> bool:
    """Whether the conflict multigraph of the transactions in ``mask`` (see
    :func:`_conflict_pairs`) has a cycle: two conflicting operation pairs
    between two transactions, or a ring through more.  Without one, no
    schedule over them has a dependency cycle (the static dependency graph
    of Fekete et al.), so every such schedule is conflict-serializable."""
    root: dict[int, int] = {}
    for i, j, count in pairs:
        if not (mask >> i & 1 and mask >> j & 1):
            continue
        if count > 1:
            return True
        while i in root:
            i = root[i]
        while j in root:
            j = root[j]
        if i == j:
            return True
        root[i] = j
    return False


def _own_write_readers(eng: LevelEngine) -> int:
    """The transactions, as a bitmask, that read an object they wrote
    earlier.  Under RC, SI and SSI such a read sees a committed version,
    never the transaction's own write, which every serial order shows it:
    a schedule of such a transaction is conflict- but not
    view-serializable."""
    out = 0
    for g, i, o in eng.reads:
        if any(wo == o and wg < g for wo, wg in eng.writes_of[i]):
            out |= eng.bits[i]
    return out


def _own_write_counterexample(w: Workload, eng: LevelEngine) -> tuple[tuple[str, ...], Schedule] | None:
    """The first counterexample to view robustness of a level-allocated
    workload, compiled as ``eng``, when one of its transactions reads an
    object it wrote earlier: the first such transaction, by id, alone and
    run serially.  The sweep of :func:`is_view_robust` finds none before it
    (an empty subset, or a single transaction without such a read, always
    passes), and the split search never finds it: a split schedule has two
    transactions or more."""
    readers = _own_write_readers(eng)
    if not readers:
        return None
    i = (readers & -readers).bit_length() - 1
    order = eng.ops_of[i]
    eng.walk(order, [i])
    return (w.txn_ids[i],), eng.schedule(order)


def _enumerate_allowed(w: Workload, budget: Budget, failing: str | None = None) -> Iterator[Schedule]:
    """Allowed schedules of a predicate-allocated workload over its full
    transaction set, in canonical order; with ``failing`` (``"conflict"``
    or ``"view"``) only those that are not serializable in that sense.

    Every interleaving is completed in every way, each completion counted
    as a candidate: every version order (see :func:`_version_orders`)
    crossed with every version function, the versions its reads may see
    (see :func:`_read_options`).  The predicate, a view search, reads only a
    completion's view signature: the version each read sees and each
    object's final version, never the operation order.  So each signature
    is searched once per call, on a :class:`Schedule` built for it, and a
    later completion with the same signature is charged, in one tick, the
    candidates that search charged.  In view mode every admitted completion
    is view-serializable, and it is charged that count once more, for the
    check that the search would repeat.  The conflict check reads the
    version order and version function alone, as dependency bitmasks.  A
    completion that comes out is built as a :class:`Schedule`.

    An interleaving's completions, and so what they charge and which come
    out, depend only on the versions each read may see in it.  A later
    interleaving with the same read options as one that let nothing out is
    charged that one's candidates in one tick: nothing comes out between
    the candidates, so a limit trips there exactly when it would trip
    among them."""
    txns = w.txns
    number = {t.id: k for k, t in enumerate(txns)}
    sources = _read_sources(txns)
    read_ids = [r.id for r, _ in sources]
    vorders = _version_orders(txns)
    searched: dict[tuple, tuple[bool, int]] = {}  # view signature -> (admitted, candidates charged)
    swept: dict[tuple, int] = {}  # read options -> candidates charged by an interleaving with them
    for order in _iter_interleavings(txns, budget):
        options = _read_options(sources, order)
        if options in swept:
            budget.tick(swept[options])
            continue
        start, out = budget.count, False
        for vorder, seen in ((vorder, seen) for vorder in vorders for seen in itertools.product(*options)):
            budget.tick()
            signature = (seen, tuple([chain[-1] for chain in vorder.values()]))
            s = None
            if signature in searched:
                admitted, charged = searched[signature]
                if charged:
                    budget.tick(charged)
            else:
                s = make_schedule(txns, order, vorder, dict(zip(read_ids, seen)))
                before = budget.count
                admitted = w.alloc.holds(s, budget)
                searched[signature] = admitted, charged = admitted, budget.count - before
            if not admitted:
                continue
            if failing == "view":
                budget.tick(charged)
                continue
            if failing == "conflict":
                writers = {o: [number[q.txn] for q in chain] for o, chain in vorder.items()}
                reads = [
                    (number[rid.txn], o, 0 if v.is_init else vorder[o].index(v) + 1)
                    for ((rid, _, o), _), v in zip(sources, seen)
                ]
                if not has_cycle(dependency_masks(len(txns), writers, reads)):
                    continue
            out = True
            yield s or make_schedule(txns, order, vorder, dict(zip(read_ids, seen)))
        if not out:
            swept[options] = budget.count - start


def _sweep(
    w: Workload, limits: SearchLimits, failing: str | None, subsets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], Schedule]]:
    """Per subset of ``subsets`` (tuples of transaction numbers), under one
    budget, the allowed schedules over it in canonical order as (subset,
    schedule); with ``failing`` (``"conflict"`` or ``"view"``) only those
    not serializable in that sense.  A level workload is compiled once
    (see :func:`_enumerate_level`), and with ``failing`` a subset whose
    conflict multigraph is a forest (:func:`_has_conflict_cycle`), in the
    view sense also without a transaction reading its own earlier write,
    has no failing schedule: it is charged its interleavings at once, as
    the walk would charge them.  A predicate workload is restricted to
    each subset (see :func:`_enumerate_allowed`)."""
    if len(w.txns) > limits.max_txns:
        raise LimitExceeded(f"{len(w.txns)} transactions exceed the limit of {limits.max_txns}")
    if w.total_ops > limits.max_ops:
        raise LimitExceeded(f"{w.total_ops} operations exceed the limit of {limits.max_ops}")
    budget = Budget(limits)
    if isinstance(w.alloc, LevelAllocation):
        eng = LevelEngine(w.txns, w.alloc)
        pairs = _conflict_pairs(eng)
        own = _own_write_readers(eng) if failing == "view" else 0
        for subset in subsets:
            mask = sum(eng.bits[i] for i in subset)
            if failing and not (mask & own or _has_conflict_cycle(pairs, mask)):
                budget.tick(_multinomial(len(eng.ops_of[i]) for i in subset))
                continue
            for s in _enumerate_level(eng, list(subset), budget, failing, own):
                yield subset, s
    else:
        for subset in subsets:
            for s in _enumerate_allowed(w.restrict(w.txn_ids[i] for i in subset), budget, failing):
                yield subset, s


def enumerate_allowed_schedules(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> Iterator[Schedule]:
    """Yield, in canonical order, every schedule over the workload's full
    transaction set that is allowed under its allocation.

    Under a level allocation each interleaving has at most one completion,
    built while the interleavings are walked (see :func:`_enumerate_level`);
    ``max_orders`` counts every interleaving, those of a dropped prefix
    included.  Under a predicate allocation all valid schedules (every
    interleaving crossed with every version order and version function)
    are generated and filtered, under the same limits.
    """
    for _, s in _sweep(w, limits, None, [tuple(range(len(w.txns)))]):
        yield s


# ---------------------------------------------------------------------------
# Robustness deciders (enumeration oracle)
# ---------------------------------------------------------------------------


def _first_failure(w: Workload, limits: SearchLimits, mode: RobustnessMode) -> RobustnessVerdict:
    """The decision behind the four deciders: the first schedule of
    :func:`_sweep` that is not serializable in the mode's sense, over each
    subset, smallest first (the exact modes sweep just the full set), is
    the counterexample; without one the workload is robust."""
    n = len(w.txns)
    subsets = [tuple(range(n))] if mode.value.startswith("exact-") else (
        c for k in range(n + 1) for c in itertools.combinations(range(n), k))
    hit = next(_sweep(w, limits, mode.value.removeprefix("exact-"), subsets), None)
    if hit is None:
        return RobustnessVerdict(True, mode, None)
    return RobustnessVerdict(False, mode, (tuple(w.txn_ids[i] for i in hit[0]), hit[1]))


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
# Split-schedule recognizer
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


def is_generalized_split_schedule(s: Schedule) -> tuple[bool, SplitDefect | None]:
    """Recognize the split counterexample shape.

    The operation order must read as: a prefix of one transaction up to a
    pivot operation, then every other transaction whole and back to back,
    then the rest of the split transaction.  On top of the shape: the
    consecutive transactions (wrapping around) must carry a cycle of
    dependencies, no dependency may skip ahead in that cycle, and every
    write must install in commit order.  Returns the first failing clause.
    """
    ops = [opid for opid in s.order if not opid.is_init]
    if len(s.txns) < 2 or not ops:
        return False, SplitDefect.FORM
    t1, run = ops[0].txn, 1  # the split transaction and its first run's length
    while run < len(ops) and ops[run].txn == t1:
        run += 1
    rest = s.txn_by_id[t1].op_ids[run:]
    if rest and tuple(ops[-len(rest) :]) != rest:
        return False, SplitDefect.FORM
    seq_mid = _whole_txn_groups(s, ops[run : len(ops) - len(rest)], exclude={t1})
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
    if any(bad for _, bad, _, _, _ in clause_pass(s)):
        return False, SplitDefect.COMMIT_ORDER
    return True, None


# ---------------------------------------------------------------------------
# Split-schedule search
# ---------------------------------------------------------------------------


def _shortest_paths(
    start: int, neighbours: list[list[int]], free: set[int], last: set[int], max_len: int
) -> Iterator[tuple[int, ...]]:
    """For every ``last`` transaction reachable from ``start`` through ``free``
    ones, the first shortest path found by a breadth-first search expanding
    neighbours in ascending order; paths of more than ``max_len``
    transactions are not sought."""
    parent = {start: start}
    frontier = [start]
    length = 1
    while frontier and length < max_len:
        length += 1
        nxt: list[int] = []
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


def _split_pairs(eng: LevelEngine, t1: int, tjs: Iterable[int]) -> Iterator[tuple[int, int, int, int, int]]:
    """Per cut of T1 (1 to its length - 1), the pair orders ``T1[:cut] . Tj .
    T1[cut:]`` of the ``tjs`` by the rule of :func:`_decide_split`, as masks of
    the Tj: completes, T1 -> Tj, Tj -> T1, and (both SSI) T1 ->rw Tj, Tj ->rw T1."""
    kind, obj_of, rmask, wmask, bits, ssi = eng.kind, eng.obj_of, eng.rmask, eng.wmask, eng.bits, eng.ssi
    ops, rc1, r1, w1 = eng.ops_of[t1], eng.rc[t1], rmask[t1], wmask[t1]
    rs = [1 << obj_of[g] if kind[g] == eng.READ else 0 for g in ops]
    ws = [1 << obj_of[g] if kind[g] == eng.WRITE else 0 for g in ops]
    # per k, (ra, wa) of ops[:k + 1] and (rb, wb) of ops[k:]
    before = zip(itertools.accumulate(rs, or_), itertools.accumulate(ws, or_))
    after = list(zip(itertools.accumulate(rs[::-1], or_), itertools.accumulate(ws[::-1], or_)))[::-1]
    for (ra, wa), (rb, wb) in zip(before, after[1:]):
        blocked, seen, back = (wa, ra, w1 | rb) if rc1 else (wa | wb, ra | rb, w1)
        done = forward = backward = out = into = 0
        for tj in tjs:
            wj, rj, b = wmask[tj], rmask[tj], bits[tj]
            if not blocked & wj:
                done |= b
                forward |= b if seen & wj else 0
                backward |= b if back & wj or rj & w1 else 0
                if ssi[t1] and ssi[tj]:
                    out, into = out | (b if r1 & wj else 0), into | (b if rj & w1 else 0)
        yield done, forward, backward, out, into


def _decide_split(w: Workload, limits: SearchLimits, eng: LevelEngine) -> tuple[tuple[str, ...], Schedule] | None:
    """Polynomial split-schedule search for a level allocation, compiled as ``eng``.

    In an order ``T1[:cut] . T2 ... Tm . T1[cut:]`` the middle runs
    serially, so every conflicting pair of middle transactions carries a
    single forward dependency, and T1 meets each middle Tj as in the pair
    order ``T1[:cut] . Tj . T1[cut:]``.  There Tj runs whole inside T1's
    span and nothing commits between T1's first operation and Tj's commit:
    every read sees INIT but an RC T1's from the cut on, which sees Tj's
    writes, and Tj's versions precede T1's.  So, on the objects T1 reads
    (ra) and writes (wa) before the cut and from it on (rb, wb), w1 = wa |
    wb, and those Tj reads (rj) and writes (wj), :func:`_split_pairs` finds
    in O(1): the pair completes iff ``not wa & wj`` (else a dirty write) and
    T1 is RC or ``not wb & wj`` (else a concurrent write); T1 -> Tj iff
    ``(ra | (0 if RC else rb)) & wj`` (rw); Tj -> T1 iff ``w1 & wj`` (ww),
    ``rj & w1`` (rw) or T1 is RC and ``rb & wj`` (wr); both SSI, T1 ->rw Tj
    iff ``(ra | rb) & wj`` and Tj ->rw T1 iff ``rj & w1``; and no dangerous
    structure fits, as one needs three SSI transactions.  Per (T1, cut)
    each other transaction is therefore: free (no conflict with T1), first
    (only T1 -> Tj), last (only Tj -> T1), a two-transaction candidate (both
    ways) or excluded (no completion).  A generalized split schedule is
    then T1 with a first T2, a chordless path through free transactions and
    a last Tm; a breadth-first shortest path is chordless.  Its
    dependencies are exactly the ring T1 -> T2 -> ... -> Tm -> T1: between
    T1 and the others there are only T1 -> T2 and Tm -> T1, on a chordless
    path only consecutive transactions conflict, and the serial middle
    orders each such pair forward.  Its write conflicts involve T1 and
    complete in its pairs, and its serial middle leaves one possible SSI
    structure, Tm -> T1 -> T2, which ``consider`` refuses from the pairs'
    rw edges.  The winner alone is walked, and re-checked
    (:func:`is_generalized_split_schedule`).

    The result is the candidate smallest in (size, sorted subset,
    permutation, cut), the order an exhaustive search tries them in.  Every
    two- and three-transaction candidate is tried, so the result is that
    search's first whenever it has at most three transactions; above that
    there is one path per (T1, cut, T2, Tm), so the size is still minimal
    but a tie may resolve differently.
    """
    budget = Budget(limits)
    n, bits, ops_of = eng.n, eng.bits, eng.ops_of
    pairs = _conflict_pairs(eng)
    if not _has_conflict_cycle(pairs, (1 << n) - 1):
        budget.tick(0)  # no candidate can close a ring; the clock is read once, as by the search
        return None
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in pairs:  # in ascending order per transaction
        neighbours[i].append(j)
        neighbours[j].append(i)
    best: tuple | None = None

    def consider(perm: tuple[int, ...], cut: int) -> None:
        nonlocal best
        key = (len(perm), tuple(sorted(perm)), perm, cut)
        if (best is None or key < best) and not (len(perm) > 2 and into & bits[perm[-1]] and out & bits[perm[1]]):
            best = key

    for t1 in range(n):
        others = set(range(n)) - {t1} - set(neighbours[t1])
        for cut, (_, forward, backward, out, into) in enumerate(_split_pairs(eng, t1, neighbours[t1]), 1):
            budget.tick(0)
            last = {tj for tj in neighbours[t1] if backward & ~forward & bits[tj]}
            for tj in neighbours[t1]:
                if forward & backward & bits[tj]:
                    consider((t1, tj), cut)
            for t2 in neighbours[t1]:
                if forward & ~backward & bits[t2]:  # a first T2
                    max_len = n - 1 if best is None else best[0] - 1
                    for path in _shortest_paths(t2, neighbours, others, last, max_len):
                        consider((t1,) + path, cut)
    if best is None:
        return None
    _, subset, perm, cut = best
    head = ops_of[perm[0]]
    order = head[:cut] + [g for j in perm[1:] for g in ops_of[j]] + head[cut:]
    if not eng.walk(order, list(subset)) or not is_generalized_split_schedule(s := eng.schedule(order))[0]:
        raise RuntimeError("the split decider accepted a candidate that is not an allowed generalized split schedule")
    return tuple(w.txn_ids[i] for i in subset), s


def find_split_counterexample(
    w: Workload, limits: SearchLimits = DEFAULT_LIMITS, mode: RobustnessMode = RobustnessMode.CONFLICT
) -> tuple[tuple[str, ...], Schedule] | None:
    """A generalized split schedule allowed under the restricted allocation,
    as (subset, schedule), or None when no subset admits one.  In ``mode``
    VIEW a transaction reading its own earlier write comes first, alone
    (see :func:`_own_write_counterexample`), as in :func:`is_view_robust`.

    Level allocations go to the polynomial decider (see
    :func:`_decide_split` for its witness order); it runs no exhaustive
    search, so only ``limits.budget_seconds`` applies.  The
    view-serializable-only predicate admits no split schedule, so the
    answer is None without a search: every dependency of a generalized
    split schedule joins ring neighbours (:attr:`SplitDefect.EXTRA_DEPENDENCY`)
    and its writes install in commit order, so no write is dead, and each
    ring edge orders its two transactions in every view-equivalent serial
    order, which the ring makes impossible.  The exact modes, which quantify
    over the full transaction set alone, are refused with ValueError.
    """
    if mode not in (RobustnessMode.CONFLICT, RobustnessMode.VIEW):
        raise ValueError(f"the split method decides the subset modes only, not {mode.value}")
    if not isinstance(w.alloc, LevelAllocation):
        return None
    eng = LevelEngine(w.txns, w.alloc)
    own = _own_write_counterexample(w, eng) if mode is RobustnessMode.VIEW else None
    return own or _decide_split(w, limits, eng)


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
    vorder = {obj: [opid for opid in chain if not opid.is_init and opid.txn in keep] for obj, chain in s.vorder.items()}
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
                best = INIT
                for opid in itertools.takewhile(target.__ne__, s.vorder[op.obj]):
                    if opid.is_init or opid.txn in keep:
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
