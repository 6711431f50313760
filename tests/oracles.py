"""Independent re-implementations used to cross-check the library.

These deliberately avoid the library's decision procedures: they work from
first principles (simulation of serial runs, literal clause evaluation) so
that agreement is meaningful.  The rest are the slow paths that fast ones
replaced, kept as their references.  The completion oracle builds the one
allowed completion of an order from dictionaries keyed by operation id,
where the library walks a compiled engine.  The dependency oracles decide
each same-object pair of operations on the version positions of its object,
where the library lists every dependency in one pass over the schedule's int
index; the serialization graph, the conflict oracle, which finds the
shortest cycle of the full graph, and ``depends_on`` and conflict
equivalence, which only the tests use, are built on them.  The enumeration
oracle completes one interleaving at a time; with a memo of first
failures it lists each subset below the full set once per transaction
set and levels.  The predicate sweep oracle
runs the view search on every completion, where the library searches each
view signature once.  The recognizers of single-version serial schedules
and of the looser split shape with a serial tail serve the tests alone, as
do the helpers that left the library for want of another caller:
``split``, the conflict rule ``conflicting`` that the dependency oracles
start from, ``allowed_under_rc``, ``allowed_under_si`` and
``respects_commit_order``, which read the library's clause pass,
``render_polygraph``, and the per-schedule position tables ``_vpos``,
``_commit_pos`` and ``_first_pos``.  The split pair oracle completes a
two-transaction split order and reads its edges off the graph oracles; the
split decider oracle classifies on it and checks candidates on completed
schedules; the split search oracle
tries every subset, permutation and pivot, completing each order with the
completion oracle, or in every way under a predicate.  The
serial-signature pool looks a schedule's reads-from and final versions up
among those of every serial order.  The view search oracle
tracks installed versions per serial prefix.  The closure oracle is Kahn's
pass, which the engine ran before it closed every edge set by one
operation, and the rebuild oracle the view search that rebuilt the closure
on it for every completion check.  The clause oracles evaluate
the RC/SI clauses and the SSI rw-antidependencies on dictionaries keyed by
operation id, where the library reads the schedule's int index; the
dangerous-structure oracle chains those rw-antidependencies over every
triple of its scope, and it alone also takes the reading in which a chain
closes on its own start.  The reduction-check oracle evaluates each clause
per operation where the library reads the per-transaction reports, on the
library's reduction or a given one.  The
validation oracle runs every per-offender loop, where the library clears
every rule on the walk that builds the schedule's int index; the index
oracle is the old builder, which indexes a valid schedule and checks
nothing.  The reduction oracle groups operations through a
``defaultdict``, takes the order from cached ids and completes it through
``complete_under_allocation``, where the library builds the version orders
and the version function directly.
The acyclicity oracle builds every resolution's edge set.  The resolver
oracle matches every token against the grammar, where the library looks
canonical spellings up in one table.  The reader oracle parses a schedule
document as the reader did before it was trimmed: a regex per operation
token, ``validate_transaction`` on every transaction, the isolation level
through the enum, every reference through the resolver oracle and the
schedule through the normalizer's old body.
"""

from __future__ import annotations

import itertools
import re
import time
from collections import defaultdict
from functools import lru_cache
from math import factorial
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from mvsched import (
    INIT,
    Action,
    AdmissibilityReport,
    AdmissibilityViolation,
    Clause,
    ConflictKind,
    DangerousStructure,
    DependencyEdge,
    IsolationLevel,
    LevelAllocation,
    LimitExceeded,
    PredicateAllocation,
    Operation,
    OperationId,
    ParseError,
    Polygraph,
    RobustnessMode,
    RobustnessVerdict,
    Schedule,
    ScheduleError,
    ScheduleViolation,
    SearchLimits,
    SerializationGraph,
    Transaction,
    TransactionSetMismatch,
    UnknownOperation,
    ViolationKind,
    Workload,
    allowed_at_levels,
    are_concurrent,
    complete_under_allocation,
    find_split_counterexample,
    is_acyclic_polygraph,
    is_conflict_robust,
    is_conflict_serializable,
    is_generalized_split_schedule,
    is_view_serializable,
    make_schedule,
    reduce_to_schedule,
    serialization_graph,
    validate_schedule,
    validate_transaction,
)
from mvsched.core import DEFAULT_LIMITS, Budget, ScheduleIndex, txn_id
from mvsched.isolation import clause_pass
from mvsched.polygraph import CompatibilityWitness, ReductionCheck
from mvsched.robustness import _whole_txn_groups
from mvsched.serializability import (
    ViewWitness,
    _branch,
    _factorial_base,
    _placement_constraints,
    _settle,
    _shortest_cycle,
    _writer_choices,
    has_cycle,
    set_bits,
)


def _per_schedule(build):
    """``build(s)`` computed once per schedule and kept in its ``__dict__``,
    as the library keeps its own derived tables."""
    name = "_oracle_" + build.__name__

    def get(s: Schedule):
        d = s.__dict__
        return d[name] if name in d else d.setdefault(name, build(s))

    return get


@_per_schedule
def _vpos(s: Schedule) -> dict[str, dict[OperationId, int]]:
    """Per object, each version's rank in its version order."""
    return {obj: {opid: i for i, opid in enumerate(chain)} for obj, chain in s.vorder.items()}


@_per_schedule
def _commit_pos(s: Schedule) -> dict[str, int]:
    """Position of each transaction's last operation in the order."""
    return {t.id: s.pos[t.ops[-1].id] for t in s.txns if t.ops}


@_per_schedule
def _first_pos(s: Schedule) -> dict[str, int]:
    return {t.id: s.pos[t.ops[0].id] for t in s.txns if t.ops}


def view_serializable_oracle(s: Schedule):
    """Try every serial order, simulating reads-from and final writes directly.

    Returns the first witnessing permutation (by sorted transaction id) or
    None.  A read observes the latest preceding write in the simulated run,
    including earlier writes of its own transaction.
    """
    txns = sorted(s.txns, key=lambda t: t.id)
    target_vf = dict(s.vf)
    target_last = {obj: chain[-1] for obj, chain in s.vorder.items() if len(chain) > 1}
    for perm in itertools.permutations(txns):
        vf, last = {}, {}
        for t in perm:
            for op in t.ops:
                if op.is_write:
                    last[op.obj] = op.id
                elif op.is_read:
                    vf[op.id] = last.get(op.obj, INIT)
        if vf == target_vf and last == target_last:
            return tuple(t.id for t in perm)
    return None


def view_signature(s: Schedule):
    """Hashable digest of what view-equivalence compares: vf plus final versions."""
    vf_items = tuple(sorted(s.vf.items()))
    last_items = tuple(sorted((obj, chain[-1]) for obj, chain in s.vorder.items() if len(chain) > 1))
    return (vf_items, last_items)


def _serial_signature(txns: Sequence[Transaction]):
    """View signature of the serial schedule for this transaction order."""
    vf: dict[OperationId, OperationId] = {}
    last: dict[str, OperationId] = {}
    for t in txns:
        for op in t.ops:
            if op.is_write:
                last[op.obj] = op.id
            elif op.is_read:
                vf[op.id] = last.get(op.obj, INIT)
    return (tuple(sorted(vf.items())), tuple(sorted(last.items())))


@lru_cache(maxsize=16384)
def serial_signature_pool(txns: tuple[Transaction, ...]) -> frozenset:
    """View signatures of all serial orders of ``txns``: the definitional
    view check of the enumeration oracle, where the library decides the
    predicate path with its view search and the level walk on the leaves'
    own int encoding."""
    return frozenset(_serial_signature(perm) for perm in itertools.permutations(txns))


def single_version_oracle(s: Schedule) -> bool:
    """Clause-by-clause evaluation of the single-version property.

    Clause A: for each pair of same-object writes, installation order and
    operation order agree.  Clause B: for each read, no same-object write
    lies strictly between the observed version and the read in the
    operation order.
    """
    pos = {opid: i for i, opid in enumerate(s.order)}
    writes_by_obj: dict[str, list] = {}
    reads = []
    for t in s.txns:
        for op in t.ops:
            if op.is_write:
                writes_by_obj.setdefault(op.obj, []).append(op)
            elif op.is_read:
                reads.append(op)
    for obj, writes in writes_by_obj.items():
        vpos = {opid: i for i, opid in enumerate(s.vorder[obj])}
        for a, b in itertools.combinations(writes, 2):
            if (vpos[a.id] < vpos[b.id]) != (pos[a.id] < pos[b.id]):
                return False
    for read in reads:
        lo, hi = pos[s.vf[read.id]], pos[read.id]
        for w in writes_by_obj.get(read.obj, ()):
            if lo < pos[w.id] < hi:
                return False
    return True


def is_single_version_serial(s: Schedule) -> bool:
    """True for single-version schedules whose transactions do not interleave."""
    if not single_version_oracle(s):
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


def split(t: Transaction, b: OperationId) -> tuple[tuple[Operation, ...], tuple[Operation, ...]]:
    """Split a transaction at an operation: (ops up to and including b, ops after b)."""
    if b not in t.op_ids:
        raise UnknownOperation(f"{b!r} does not occur in transaction {t.id}")
    cut = next(i for i, op in enumerate(t.ops) if op.id == b) + 1
    return t.ops[:cut], t.ops[cut:]


def conflicting(b: Operation, a: Operation) -> ConflictKind | None:
    """Classify two operations as ww/wr/rw-conflicting, or not at all.

    Commits never conflict, and neither does anything involving a single
    transaction or two different objects.
    """
    if b.is_commit or a.is_commit:
        return None
    if b.id.txn == a.id.txn or b.obj != a.obj:
        return None
    if b.is_write and a.is_write:
        return ConflictKind.WW
    if b.is_write and a.is_read:
        return ConflictKind.WR
    if b.is_read and a.is_write:
        return ConflictKind.RW
    return None


def _dep_kind_oracle(s: Schedule, b: Operation, a: Operation) -> ConflictKind | None:
    """The dependency of ``a`` on ``b``, from the version positions of the
    pair's object."""
    kind = conflicting(b, a)
    if kind is None:
        return None
    vpos = _vpos(s)[a.obj]
    if kind is ConflictKind.WW:
        return kind if vpos[b.id] < vpos[a.id] else None
    if kind is ConflictKind.WR:
        observed = s.vf[a.id]
        if b.id == observed or vpos[b.id] < vpos[observed]:
            return kind
        return None
    # rw: the version observed by b installs before the version written by a
    return kind if vpos[s.vf[b.id]] < vpos[a.id] else None


def _ops_by_obj(s: Schedule) -> list[list[Operation]]:
    by_obj: dict[str, list[Operation]] = {}
    for t in s.txns:
        for op in t.ops:
            if op.obj is not None:
                by_obj.setdefault(op.obj, []).append(op)
    return list(by_obj.values())


def depends_on_oracle(s: Schedule, b: OperationId, a: OperationId) -> DependencyEdge | None:
    """The typed dependency of ``a`` on ``b`` in ``s``, or None when there is none."""
    if b.is_init or a.is_init:
        return None
    kind = _dep_kind_oracle(s, s.operation(b), s.operation(a))
    return None if kind is None else DependencyEdge(b, a, kind)


def serialization_graph_oracle(s: Schedule) -> SerializationGraph:
    """The full serialization graph, from every same-object pair of
    operations of two transactions."""
    edges: dict[tuple[str, str], list[DependencyEdge]] = {}
    for ops in _ops_by_obj(s):
        for b in ops:
            for a in ops:
                if b.id.txn == a.id.txn:
                    continue
                kind = _dep_kind_oracle(s, b, a)
                if kind is not None:
                    edges.setdefault((b.id.txn, a.id.txn), []).append(DependencyEdge(b.id, a.id, kind))
    return SerializationGraph(
        nodes=s.txn_ids,
        edges={pair: tuple(sorted(deps, key=lambda d: (d.src, d.dst, d.kind.value))) for pair, deps in edges.items()},
    )


def conflict_equivalent_oracle(s: Schedule, s2: Schedule) -> bool:
    """Same transactions and the same dependency on every conflicting pair."""
    if dict(s.txn_by_id) != dict(s2.txn_by_id):
        raise TransactionSetMismatch("schedules are not over the same set of transactions")
    for ops in _ops_by_obj(s):
        for b in ops:
            for a in ops:
                if b.id.txn == a.id.txn or conflicting(b, a) is None:
                    continue
                if (_dep_kind_oracle(s, b, a) is None) != (_dep_kind_oracle(s2, b, a) is None):
                    return False
    return True


def conflict_serializable_oracle(s: Schedule) -> tuple[bool, tuple[str, ...] | None]:
    """Conflict-serializability from the full serialization graph: its
    shortest cycle, or None."""
    graph = serialization_graph_oracle(s)
    cycle = _shortest_cycle(graph.nodes, graph.edge_pairs)
    return (cycle is None, cycle)


def complete_under_allocation_oracle(
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
        if dangerous_structures_oracle(s, ssi_scope, allow_degenerate_pivot=allow_degenerate_pivot):
            return None
    return s


def interleavings_oracle(txns: Sequence[Transaction], budget: Budget) -> Iterator[tuple[OperationId, ...]]:
    """All operation orders respecting each transaction's internal order, by
    a depth-first walk that at every step takes the next operation from the
    transaction with the smallest number whose turn is possible, each order
    ticking ``budget`` once: the reference for the library's walk, which
    steps through the same orders as next permutations of a word.  The walk
    keeps its own stack, so a long transaction does not run into the
    recursion limit."""
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


def _valid_completions_oracle(txns: Sequence[Transaction], order: tuple[OperationId, ...]) -> Iterator[Schedule]:
    """Every valid schedule with this operation order, in the library's
    order: each object's version orders (objects sorted, writes permuted in
    transaction order, keeping a transaction's own writes in order), then
    per read, in transaction order, INIT and every earlier write of its
    object."""
    pos = {opid: i for i, opid in enumerate(order)}
    writes = [op.id for t in txns for op in t.ops if op.is_write]
    reads = [op for t in txns for op in t.ops if op.is_read]
    obj = {op.id: op.obj for t in txns for op in t.ops}
    objs = sorted({obj[w] for w in writes})
    chains = [
        [p for p in itertools.permutations(w for w in writes if obj[w] == o)
         if all(a.txn != b.txn or a.index < b.index for a, b in itertools.combinations(p, 2))]
        for o in objs
    ]
    options = [[INIT] + [w for w in writes if obj[w] == r.obj and pos[w] < pos[r.id]] for r in reads]
    for vorder in itertools.product(*chains):
        for vf in itertools.product(*options):
            yield make_schedule(txns, order, dict(zip(objs, vorder)), {r.id: v for r, v in zip(reads, vf)})


def allowed_schedules_oracle(w: Workload, budget: Budget):
    """Every allowed schedule over the workload's full transaction set: the
    reference for the library's enumeration.  Under a level allocation, one
    :func:`complete_under_allocation_oracle` call per interleaving, where
    the library completes the schedule while it walks the interleavings and
    drops rejected prefixes whole; under the view-serializable-only
    predicate, every valid schedule whose view signature is in
    :func:`serial_signature_pool`, where the library runs its view search."""
    for order in interleavings_oracle(w.txns, budget):
        if isinstance(w.alloc, LevelAllocation):
            s = complete_under_allocation_oracle(w.txns, order, w.alloc)
            if s is not None:
                yield s
        else:
            yield from (s for s in _valid_completions_oracle(w.txns, order) if not _fails(s, True))


def enumerate_allowed_oracle(w: Workload, budget: Budget, failing: str | None = None) -> Iterator[Schedule]:
    """The predicate sweep with one search per completion: allowed schedules
    of a predicate-allocated workload over its full transaction set, in
    canonical order, every completion of every interleaving counted as a
    candidate and put through the predicate's view search; with ``failing``
    (``"conflict"`` or ``"view"``) only those that are not serializable in
    that sense, checked by :func:`is_conflict_serializable` or by a second
    view search.  The library searches each view signature once per call
    and charges it at every completion."""
    for order in interleavings_oracle(w.txns, budget):
        for s in _valid_completions_oracle(w.txns, order):
            budget.tick()
            if not w.alloc.holds(s, budget):
                continue
            if failing == "conflict" and is_conflict_serializable(s)[0]:
                continue
            if failing == "view" and is_view_serializable(s, budget=budget).verdict:
                continue
            yield s


def predicate_verdicts_oracle(w: Workload, limits: SearchLimits = DEFAULT_LIMITS):
    """Per robustness mode, the verdict of its decider on a predicate-allocated
    workload and the candidates the decider charges until it, from
    :func:`enumerate_allowed_oracle`.  Each subset (smallest first, then
    lexicographic) is swept once per sense under a budget of its own; a
    subset mode charges the sweeps of the subsets before its counterexample's
    and that one's up to it, an exact mode the full set's alone."""
    ids = w.txn_ids
    out = {}
    for failing, mode, exact in (("conflict", RobustnessMode.CONFLICT, RobustnessMode.EXACT_CONFLICT),
                                 ("view", RobustnessMode.VIEW, RobustnessMode.EXACT_VIEW)):
        charged = 0
        for subset in (sub for k in range(len(ids) + 1) for sub in itertools.combinations(ids, k)):
            budget = Budget(limits)
            bad = next(enumerate_allowed_oracle(w.restrict(subset), budget, failing), None)
            charged += budget.count
            ce = None if bad is None else (subset, bad)
            if ce is not None and mode not in out:
                out[mode] = RobustnessVerdict(False, mode, ce), charged
        out.setdefault(mode, (RobustnessVerdict(True, mode, None), charged))
        out[exact] = RobustnessVerdict(ce is None, exact, ce), budget.count
    return out


def _fails(s: Schedule, view: bool) -> bool:
    if view:
        return view_signature(s) not in serial_signature_pool(s.txns)
    return not conflict_serializable_oracle(s)[0]


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


def is_multiversion_split_schedule(s: Schedule) -> tuple[bool, int | None]:
    """Recognize the looser split shape with a serial tail, which no decider uses.

    The order must read as: prefix of the split transaction, some whole
    transactions, the rest of the split transaction, then more whole
    transactions back to back; the split transaction and the middle block
    (m transactions in total, m >= 2) must carry a cycle of dependencies.
    Returns the split index m of the first labeling that works.
    """
    ops = [opid for opid in s.order if not opid.is_init]
    if len(s.txns) < 2 or not ops:
        return False, None
    t1, run = ops[0].txn, 1
    while run < len(ops) and ops[run].txn == t1:
        run += 1
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


def split_pair_oracle(w: Workload, t1: str, cut: int, tj: str) -> tuple[bool, bool, bool, bool, bool]:
    """The pair order ``T1[:cut] . Tj . T1[cut:]`` of a level workload,
    completed by :func:`complete_under_allocation_oracle`: whether it
    completes, whether it has T1 -> Tj and Tj -> T1 in
    :func:`serialization_graph_oracle`, and, when both are SSI, T1 ->rw Tj
    and Tj ->rw T1 in :func:`rw_edges_oracle`."""
    by_id = {t.id: t for t in w.txns}
    a, b = by_id[t1], by_id[tj]
    s = complete_under_allocation_oracle((a, b), (INIT, *a.op_ids[:cut], *b.op_ids, *a.op_ids[cut:]), w.alloc)
    if s is None:
        return False, False, False, False, False
    pairs = serialization_graph_oracle(s).edge_pairs
    ssi = w.alloc.level_of(t1) is w.alloc.level_of(tj) is IsolationLevel.SSI
    rw = rw_edges_oracle(s, frozenset((t1, tj))) if ssi else {}
    return True, (t1, tj) in pairs, (tj, t1) in pairs, (t1, tj) in rw, (tj, t1) in rw


def split_decider_oracle(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> tuple[tuple[str, ...], Schedule] | None:
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
    permutation, cut), the order :func:`split_schedules_oracle` yields in.
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
        s = complete_under_allocation_oracle(tuple(by_id[tid] for tid in subset), order, w.alloc)
        if s is not None and is_generalized_split_schedule(s)[0]:
            best, best_schedule = key, s

    for t1 in w.txns:
        others = set(by_id) - {t1.id} - set(neighbours[t1.id])
        for cut in range(1, len(t1.ops)):
            if time.monotonic() >= deadline:
                raise LimitExceeded("search exceeded its wall-clock budget")
            first: list[str] = []
            last: set[str] = set()
            for tid in neighbours[t1.id]:
                _, forward, backward, _, _ = split_pair_oracle(w, t1.id, cut, tid)
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


def split_completions_oracle(w: Workload, budget: Budget) -> Iterator[tuple[tuple[str, ...], Schedule]]:
    """Every completion of a split-form order that has the generalized split
    shape, as (subset, schedule), allowed or not.  Orders are tried over
    subsets ascending by size then lexicographic order, over orderings of
    each subset, and over pivot operations of the split transaction.  Under
    a level allocation an order's one completion is
    :func:`complete_under_allocation_oracle`'s, and so allowed, and each
    order counts as a candidate; under a predicate every valid completion
    is taken, and each counts."""
    by_id = {t.id: t for t in w.txns}
    for size in range(2, len(w.txns) + 1):
        for subset in itertools.combinations(sorted(by_id), size):
            txns = tuple(by_id[tid] for tid in subset)
            for perm in itertools.permutations(subset):
                t1 = by_id[perm[0]]
                middle = [op for tid in perm[1:] for op in by_id[tid].op_ids]
                for cut in range(1, len(t1.ops) + 1):
                    order = (INIT, *t1.op_ids[:cut], *middle, *t1.op_ids[cut:])
                    if isinstance(w.alloc, LevelAllocation):
                        completions = [complete_under_allocation_oracle(txns, order, w.alloc)]
                    else:
                        completions = _valid_completions_oracle(txns, order)
                    for s in completions:
                        budget.tick()
                        if s is not None and is_generalized_split_schedule(s)[0]:
                            yield subset, s


def split_schedules_oracle(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> Iterator[tuple[tuple[str, ...], Schedule]]:
    """Every generalized split schedule allowed under the restricted
    allocation, in the order of :func:`split_completions_oracle`: the
    exhaustive subset, permutation and pivot search that the library's
    polynomial decider replaced.  A level allocation's completions come from
    :func:`complete_under_allocation_oracle`, not the library's engine; a
    predicate's pass its own check."""
    budget = Budget(limits)
    for subset, s in split_completions_oracle(w, budget):
        if isinstance(w.alloc, LevelAllocation) or w.alloc.holds(s, budget):
            yield subset, s


def first_failures_oracle(w: Workload, memo: dict, allowed: list[Schedule] | None = None) -> tuple:
    """The first allowed schedule of ``w`` (``allowed``, or else from
    :func:`allowed_schedules_oracle` under the default limits) that is not
    conflict-serializable, and the first that is not view-serializable, or
    None; kept in ``memo`` per transaction set and allocation, which recur
    across the allocations and subsets of a corpus."""
    level = isinstance(w.alloc, LevelAllocation)
    key = (w.txns, tuple(sorted(w.alloc.levels.items())) if level else w.alloc)
    if key not in memo:
        if allowed is None:
            allowed = list(allowed_schedules_oracle(w, Budget(DEFAULT_LIMITS)))
        memo[key] = tuple(next((s for s in allowed if _fails(s, view)), None) for view in (False, True))
    return memo[key]


def enumeration_oracle(w: Workload, limits: SearchLimits = DEFAULT_LIMITS, memo: dict | None = None):
    """What the enumeration must give for a level allocation or the
    view-serializable-only predicate, from the per-order oracle: the
    allowed schedules over the full set, and per robustness mode the first
    allowed schedule failing its serializability notion as (subset,
    schedule), or None.  Subset modes scan every subset, smallest first,
    then lexicographic; the exact modes the full set.  With ``memo`` the
    subsets below the full set read their failures from
    :func:`first_failures_oracle`, under the default limits."""
    ids = sorted(w.txn_ids)
    budget = Budget(limits)
    found = {}
    allowed: list[Schedule] = []
    for k in range(len(ids) + 1):
        for subset in itertools.combinations(ids, k):
            full = k == len(ids)
            if memo is None or full:
                allowed = list(allowed_schedules_oracle(w.restrict(subset), budget))
            for view, mode, exact in (
                (False, RobustnessMode.CONFLICT, RobustnessMode.EXACT_CONFLICT),
                (True, RobustnessMode.VIEW, RobustnessMode.EXACT_VIEW),
            ):
                if mode in found and not full:
                    continue
                if memo is None:
                    bad = next((s for s in allowed if _fails(s, view)), None)
                else:
                    bad = first_failures_oracle(w.restrict(subset), memo, allowed if full else None)[view]
                if bad is not None:
                    found.setdefault(mode, (subset, bad))
                    if full:
                        found[exact] = (subset, bad)
    return allowed, {mode: found.get(mode) for mode in RobustnessMode}


def view_search_oracle(s: Schedule, *, max_txns: int = 8, max_ops: int = 24) -> ViewWitness:
    """Search all serial orders for one view-equivalent to ``s``.

    Serial orders are explored prefix by prefix in lexicographic transaction
    order.  A prefix dies as soon as a read in the transaction being placed
    would observe the wrong version (that only depends on the prefix), when
    an object's final version is already wrong with no writer left to fix
    it, or when the same placed-set/installed-version state has already
    failed; each discarded prefix accounts for every serial order extending
    it.  The first completed order is therefore the canonically first
    witness.
    """
    n = len(s.txns)
    if n > max_txns:
        raise LimitExceeded(f"{n} transactions exceed the view-serializability bound of {max_txns}")
    total_ops = sum(len(t.ops) for t in s.txns)
    if total_ops > max_ops:
        raise LimitExceeded(f"{total_ops} operations exceed the view-serializability bound of {max_ops}")

    txns = s.txns  # already sorted by id
    target_vf = dict(s.vf)
    target_last = {obj: chain[-1] for obj, chain in s.vorder.items() if len(chain) > 1}
    write_objs = [frozenset(op.obj for op in t.ops if op.is_write) for t in txns]
    writers_left: dict[str, int] = {}
    for objs in write_objs:
        for obj in objs:
            writers_left[obj] = writers_left.get(obj, 0) + 1

    fact = [factorial(k) for k in range(n + 1)]
    failed: set = set()
    path: list[int] = []
    exhausted = 0

    def place(t: Transaction, last: dict[str, OperationId]):
        local: dict[str, OperationId] = {}
        for op in t.ops:
            if op.is_write:
                local[op.obj] = op.id
            elif op.is_read:
                seen = local[op.obj] if op.obj in local else last.get(op.obj, INIT)
                if seen != target_vf[op.id]:
                    return None
        if local:
            merged = dict(last)
            merged.update(local)
            return merged
        return last

    def explore(mask: int, last: dict[str, OperationId]) -> bool:
        nonlocal exhausted
        depth = len(path)
        if depth == n:
            exhausted += 1
            return last == target_last
        remaining_after = fact[n - depth - 1]
        for i in range(n):
            if mask >> i & 1:
                continue
            new_last = place(txns[i], last)
            if new_last is None:
                exhausted += remaining_after
                continue
            key = (mask | (1 << i), tuple(sorted(new_last.items())))
            if key in failed:
                exhausted += remaining_after
                continue
            for obj in write_objs[i]:
                writers_left[obj] -= 1
            dead = any(
                writers_left[obj] == 0 and new_last.get(obj) != target_last.get(obj) for obj in write_objs[i]
            )
            if dead:
                for obj in write_objs[i]:
                    writers_left[obj] += 1
                failed.add(key)
                exhausted += remaining_after
                continue
            path.append(i)
            if explore(mask | (1 << i), new_last):
                return True
            path.pop()
            for obj in write_objs[i]:
                writers_left[obj] += 1
            failed.add(key)
        return False

    found = explore(0, {})
    witness = tuple(txns[i].id for i in path) if found else None
    return ViewWitness(verdict=found, witness=witness, exhausted=exhausted)


def closure_oracle(pred: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """The old ``_closure``: Kahn's pass with in-degree counts, O(n + e)
    bitset operations, gives the closure ``(reach, back)`` of the fixed
    edges ``pred``, or None on a cycle."""
    n, order = len(pred), []
    succ: list[list[int]] = [[] for _ in pred]
    for v, m in enumerate(pred):
        if not m:
            order.append(v)
        for u in set_bits(m):
            succ[u].append(v)
    indeg, back = list(map(int.bit_count, pred)), [0] * n
    for u in order:  # grows as nodes lose their last predecessor
        b = back[u] | 1 << u
        for v in succ[u]:
            back[v] |= b
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) < n:
        return None
    reach = [0] * n
    for u in reversed(order):
        r = 1 << u
        for v in succ[u]:
            r |= reach[v]
        reach[u] = r
    return reach, back


def view_search_rebuild_oracle(s: Schedule, budget: Budget) -> ViewWitness:
    """The old :func:`is_view_serializable`: the same greedy placement, but
    each completion check rebuilds the closure with :func:`closure_oracle`
    from the root's, with the placed transactions as a chain and an edge
    from the candidate to every transaction left, and settles the root's
    open choices on it again."""
    n = len(s.txns)
    constraints = _placement_constraints(s)
    if constraints is None:
        return ViewWitness(verdict=False, witness=None, exhausted=factorial(n))
    pred, shared = constraints
    budget.tick()  # the empty prefix
    root = closure_oracle(pred)
    left_open = root and _settle(*root, _writer_choices(shared, *root))[0]
    if left_open is None:
        return ViewWitness(verdict=False, witness=None, exhausted=factorial(n))
    need, path, left, refused = root[1], [], (1 << n) - 1, [0] * n

    def completes(prefix: list[int], rest: int) -> bool:
        chained = need.copy()
        for a, b in zip(prefix, prefix[1:]):
            chained[b] |= 1 << a
        for r in set_bits(rest):
            chained[r] |= 1 << prefix[-1]
        closed = closure_oracle(chained)
        return closed is not None and _branch(*closed, _settle(*closed, left_open)[0], budget) is not None

    while left:
        for i in set_bits(left):
            if not need[i] & left and (not left_open or completes([*path, i], left ^ 1 << i)):
                break
            refused[n - len(path) - 1] += 1
        else:
            return ViewWitness(verdict=False, witness=None, exhausted=_factorial_base(refused))
        path.append(i)
        left ^= 1 << i
        if left:
            budget.tick()
    return ViewWitness(verdict=True, witness=tuple(s.txns[i].id for i in path), exhausted=_factorial_base(refused) + 1)


def respects_commit_order_oracle(s: Schedule, w: OperationId) -> bool:
    """Versions install in commit order: for every other transaction's write
    on the same object, vorder and commit order point the same way."""
    op = s.operation(w)
    if not op.is_write:
        raise UnknownOperation(f"{w!r} is not a write operation")
    my_commit = _commit_pos(s)[w.txn]
    vpos = _vpos(s)[op.obj]
    for other in s.writes_by_obj[op.obj]:
        if other.id.txn == w.txn:
            continue
        if (vpos[w] < vpos[other.id]) != (my_commit < _commit_pos(s)[other.id.txn]):
            return False
    return True


def read_last_committed_oracle(s: Schedule, r: OperationId, rel: OperationId) -> bool:
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
    if not observed.is_init and _commit_pos(s)[observed.txn] >= rel_pos:
        return False
    vpos = _vpos(s).get(read_op.obj, {INIT: 0})  # an object only read may go without a version order
    observed_rank = vpos[observed]
    for w in s.writes_by_obj.get(read_op.obj, ()):
        if _commit_pos(s)[w.id.txn] < rel_pos and vpos[w.id] > observed_rank:
            return False
    return True


def overwrite_witness_oracle(s: Schedule, tid: str, concurrent: bool) -> tuple[OperationId, OperationId] | None:
    """A pair (other write, own write) with the own write landing after the
    other and before the other transaction commits (a dirty write), or, with
    ``concurrent``, with the other committing after this transaction's start
    (a concurrent write); None when there is none."""
    pos, start = s.pos, _first_pos(s).get(tid)  # None only for a transaction without operations
    for own in s.transaction(tid).ops:
        if not own.is_write:
            continue
        own_pos = pos[own.id]
        bound = start if concurrent else own_pos
        for other in s.writes_by_obj.get(own.obj, ()):
            if other.id.txn != tid and pos[other.id] < own_pos and bound < _commit_pos(s)[other.id.txn]:
                return (other.id, own.id)
    return None


def rw_edges_oracle(s: Schedule, scope: frozenset[str]) -> dict[tuple[str, str], DependencyEdge]:
    """First witnessing rw-antidependency for each ordered transaction pair in scope."""
    edges: dict[tuple[str, str], DependencyEdge] = {}
    for obj, writes in s.writes_by_obj.items():
        vpos = _vpos(s)[obj]
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


def dangerous_structures_oracle(
    s: Schedule, scope: Iterable[str], *, allow_degenerate_pivot: bool = False
) -> list[DangerousStructure]:
    """The chains of :func:`find_dangerous_structures`, over every triple of
    the scope and with the hops from :func:`rw_edges_oracle`.  With
    ``allow_degenerate_pivot`` also the chains whose ends coincide (t1 ==
    t3): the reading that drops the degenerate "t3 commits before t1",
    which no decider of the library takes."""
    scope_set = frozenset(scope)
    for tid in scope_set:
        s.transaction(tid)
    rw = rw_edges_oracle(s, scope_set)
    commit = _commit_pos(s)
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
                if s.transaction(t1).read_only and commit[t3] >= _first_pos(s)[t1]:
                    continue
                found.append(DangerousStructure(t1, t2, t3, (rw[(t1, t2)], rw[(t2, t3)])))
    return found


def check_condition_1(w: Workload, limits: SearchLimits = DEFAULT_LIMITS) -> bool:
    """Either the workload is conflict-robust, or a split-form counterexample
    witnesses that it is not: the library's split decider finds one under a
    level allocation, the exhaustive :func:`split_schedules_oracle` under a
    predicate."""
    if is_conflict_robust(w, limits).robust:
        return True
    if isinstance(w.alloc, LevelAllocation):
        return find_split_counterexample(w, limits) is not None
    return next(split_schedules_oracle(w, limits), None) is not None


def _commit_order_violations(s: Schedule, tid: str) -> list[AdmissibilityViolation]:
    """The transaction's writes that :func:`respects_commit_order_oracle` refuses, as violations."""
    return [
        AdmissibilityViolation(tid, Clause.COMMIT_ORDER, (op.id,))
        for op in s.transaction(tid).ops
        if op.is_write and not respects_commit_order_oracle(s, op.id)
    ]


def allowed_at_level_oracle(
    s: Schedule, t: Transaction | str, si: bool, unordered: list[AdmissibilityViolation] | None = None
) -> AdmissibilityReport:
    """The RC clauses, or with ``si`` the SI ones: they differ in the read's
    reference operation and in dirty against concurrent writes.  The
    commit-order clause is the same at both levels, so ``unordered``, its
    violations when already evaluated, is taken as it is."""
    tid = txn_id(t)
    ops = s.transaction(tid).ops
    violations = list(_commit_order_violations(s, tid) if unordered is None else unordered)
    for op in ops:
        if op.is_read and not read_last_committed_oracle(s, op.id, ops[0].id if si else op.id):
            violations.append(AdmissibilityViolation(tid, Clause.READ_LAST_COMMITTED, (op.id,)))
    overwrite = overwrite_witness_oracle(s, tid, si)
    if overwrite is not None:
        violations.append(AdmissibilityViolation(tid, Clause.CONCURRENT_WRITE if si else Clause.DIRTY_WRITE, overwrite))
    return AdmissibilityReport(tuple(violations))


def level_reports_oracle(s: Schedule) -> list[list[AdmissibilityReport]]:
    """Per transaction, its RC, SI and SSI reports by
    :func:`allowed_at_level_oracle`: what :func:`allowed_at_levels` must give
    on ``[(RC, SI, SSI)] * len(s.txns)``.  The commit order of each write is
    evaluated once, for both levels."""
    out = []
    for t in s.txns:
        unordered = _commit_order_violations(s, t.id)
        si = allowed_at_level_oracle(s, t, True, unordered)
        out.append([allowed_at_level_oracle(s, t, False, unordered), si, si])
    return out


def _allowed_at(s: Schedule, t: Transaction | str, level: IsolationLevel) -> AdmissibilityReport:
    """The library's report on the transaction at one level."""
    i = s.index.number[s.transaction(txn_id(t)).id]
    return allowed_at_levels(s, [(level,)] * len(s.txns))[i][0]


def allowed_under_rc(s: Schedule, t: Transaction | str) -> AdmissibilityReport:
    """Commit-ordered writes, reads fresh at the moment of the read, no dirty writes."""
    return _allowed_at(s, t, IsolationLevel.RC)


def allowed_under_si(s: Schedule, t: Transaction | str) -> AdmissibilityReport:
    """Commit-ordered writes, reads from the transaction-start snapshot, no concurrent writes."""
    return _allowed_at(s, t, IsolationLevel.SI)


def respects_commit_order(s: Schedule, w: OperationId) -> bool:
    """Versions install in commit order: the library's clause pass on the
    write's transaction does not list the write."""
    if not s.operation(w).is_write:
        raise UnknownOperation(f"{w!r} is not a write operation")
    (_, bad, _, _, _), = clause_pass(s, (w.txn,))
    return s.pos[w] not in bad


def reduction_checks_oracle(
    p: Polygraph, limits: SearchLimits = DEFAULT_LIMITS, reduction: tuple | None = None
) -> tuple[ReductionCheck, ...]:
    """The checks of :func:`verify_reduction`, each clause evaluated on its
    own for every operation and transaction, on ``reduction`` (the pair
    :func:`reduce_to_schedule` returns) or, when None, on ``p``'s own."""
    txns, s = reduce_to_schedule(p) if reduction is None else reduction
    checks: list[ReductionCheck] = []

    violations = validate_schedule(s)
    checks.append(ReductionCheck("schedule-valid", not violations, "; ".join(map(str, violations))))

    writes = [op for t in s.txns for op in t.ops if op.is_write]
    bad_commit = [op.id for op in writes if not respects_commit_order_oracle(s, op.id)]
    checks.append(ReductionCheck("writes-respect-commit-order", not bad_commit, repr(bad_commit)))

    cw = [t.id for t in s.txns if overwrite_witness_oracle(s, t.id, True) is not None]
    checks.append(ReductionCheck("no-concurrent-writes", not cw, repr(cw)))

    stale_self = [
        op.id for t in s.txns for op in t.ops if op.is_read and not read_last_committed_oracle(s, op.id, op.id)
    ]
    checks.append(ReductionCheck("reads-fresh-at-read", not stale_self, repr(stale_self)))
    stale_first = [
        op.id
        for t in s.txns
        for op in t.ops
        if op.is_read and not read_last_committed_oracle(s, op.id, t.ops[0].id)
    ]
    checks.append(ReductionCheck("reads-fresh-at-start", not stale_first, repr(stale_first)))

    not_rc = [t.id for t in s.txns if not allowed_at_level_oracle(s, t, False).allowed]
    checks.append(ReductionCheck("rc-admissible", not_rc == [], repr(not_rc)))
    not_si = [t.id for t in s.txns if not allowed_at_level_oracle(s, t, True).allowed]
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
    return tuple(checks)


def validate_schedule_oracle(s: Schedule) -> list[ScheduleViolation]:
    """The old :func:`validate_schedule`: every rule by its per-offender loop."""
    out: list[ScheduleViolation] = []
    for t in s.txns:
        out.extend(validate_transaction(t))
    ids: set[str] = set()
    for t in s.txns:
        if t.id in ids:
            out.append(ScheduleViolation(ViolationKind.DUPLICATE_TRANSACTION, t.op_ids))
        ids.add(t.id)

    all_ops = s.op_by_id.keys()

    # total order over all operations plus INIT
    seen: set[OperationId] = set()
    for opid in s.order:
        if opid in seen:
            out.append(ScheduleViolation(ViolationKind.DUPLICATE_POSITION, (opid,)))
        seen.add(opid)
        if opid not in all_ops and not opid.is_init:
            out.append(ScheduleViolation(ViolationKind.UNKNOWN_OPERATION, (opid,)))
    missing = (all_ops | {INIT}) - seen
    for opid in sorted(missing):
        out.append(ScheduleViolation(ViolationKind.ORDER_NOT_TOTAL, (opid,)))
    if s.order and (INIT not in seen or s.order[0] != INIT):
        out.append(ScheduleViolation(ViolationKind.INIT_NOT_FIRST, (INIT,)))
    elif not s.order:
        out.append(ScheduleViolation(ViolationKind.INIT_NOT_FIRST, (INIT,)))

    pos = s.pos

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
            if opid not in writes and not opid.is_init:
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
            vpos = _vpos(s).get(obj)
            if vpos is None:
                continue
            for a, b in zip(ws, ws[1:]):
                if a in vpos and b in vpos and vpos[a] >= vpos[b]:
                    out.append(ScheduleViolation(ViolationKind.INTRA_TXN_VORDER, (a, b)))

    # transaction-internal order is preserved by the operation order
    for t in s.txns:
        for a, b in zip(t.ops, t.ops[1:]):
            if a.id in pos and b.id in pos and pos[a.id] >= pos[b.id]:
                out.append(ScheduleViolation(ViolationKind.TXN_ORDER_NOT_PRESERVED, (a.id, b.id)))

    # version function: total on reads, targets are earlier same-object writes
    op_by_id = s.op_by_id
    reads = {op.id for op in s.reads}
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


def schedule_index_oracle(s: Schedule) -> SimpleNamespace:
    """The old :class:`mvsched.core.ScheduleIndex` body, which only indexes a
    valid schedule: one pass over its operations and one over its version
    orders, on the cached positions."""
    pos, vf, size = s.pos, s.vf, len(s.order)
    txn, kind, obj, rank, seen = [-1] * size, [-1] * size, [None] * size, [0] * size, [0] * size
    number, at, writes = {}, [], {}
    for i, t in enumerate(s.txns):
        number[t.id] = i
        at.append(here := [pos[op.id] for op in t.ops])
        for p, op in zip(here, t.ops):
            txn[p] = i
            o = obj[p] = op.obj
            if o is None:
                kind[p] = ScheduleIndex.COMMIT
                continue
            if o not in writes:
                writes[o] = []
            if op.is_write:
                kind[p] = ScheduleIndex.WRITE
                writes[o].append(p)
            else:
                kind[p], seen[p] = ScheduleIndex.READ, pos[vf[op.id]]
    for chain in s.vorder.values():
        for r, w in enumerate(chain):
            rank[pos[w]] = r
    first, commit = [a[0] if a else -1 for a in at] + [-1], [a[-1] if a else -1 for a in at] + [-1]
    return SimpleNamespace(
        txn=txn, kind=kind, obj=obj, rank=rank, vf=seen, number=number, at=at, writes=writes, first=first, commit=commit
    )


def is_acyclic_polygraph_oracle(p: Polygraph, limits: SearchLimits = DEFAULT_LIMITS) -> tuple[bool, CompatibilityWitness | None]:
    """The old :func:`is_acyclic_polygraph`: every resolution's full edge set."""
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


def _arc_object(arc: tuple[str, str]) -> str:
    return f"arc:{arc[0]}->{arc[1]}"


def _choice_object(choice: tuple[str, str, str]) -> str:
    return f"choice:{choice[0]},{choice[1]},{choice[2]}"


def _node_txn_id(node: str) -> str:
    return f"T:{node}"


def _choice_txn_ids(choice: tuple[str, str, str]) -> tuple[str, str]:
    tag = ",".join(choice)
    return f"T0:{tag}", f"Tinf:{tag}"


class ReductionInadmissible(ScheduleError):
    """The reduction oracle built an operation order with no completion
    admissible under RC, which its construction rules out."""


def render_polygraph(p: Polygraph) -> str:
    lines = [f"node {n}" for n in sorted(p.nodes)]
    lines += [f"arc {a} {b}" for a, b in sorted(p.arcs)]
    lines += [f"choice {u} {v} {w}" for u, v, w in sorted(p.choices)]
    return "\n".join(lines) + "\n"


def reduce_to_schedule_oracle(p: Polygraph) -> tuple[tuple[Transaction, ...], Schedule]:
    """The old :func:`reduce_to_schedule`: five groups per node in a
    ``defaultdict``, object names built per operation, order from cached ids."""
    arcs = sorted(p.arcs)
    choices = sorted(p.choices)
    nodes = sorted(p.nodes)

    # per node, its operations in the five groups above, each in arc or choice order
    groups: dict[str, tuple[list, ...]] = defaultdict(lambda: ([], [], [], [], []))
    for a in arcs:
        groups[a[0]][0].append((Action.READ, _arc_object(a)))
        groups[a[1]][2].append((Action.WRITE, _arc_object(a)))
    for c in choices:
        groups[c[0]][1].append((Action.READ, _choice_object(c)))
        groups[c[1]][3].append((Action.WRITE, _choice_object(c)))
        groups[c[2]][4].append((Action.READ, _choice_object(c)))
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
        obj = _choice_object(c)
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


_POSITIONAL = re.compile(r"^(\S+)#(\d+)$")
_SHORT_RW = re.compile(r"^([RW])(\d+)\((\S+)\)$")
_SHORT_COMMIT = re.compile(r"^C(\d+)$")
_NUMBERED_TXN = re.compile(r"^T(\d+)$")


class OpResolverOracle:
    """The old operation-reference resolver: every token through the grammar."""

    def __init__(self, txns: dict[str, Transaction]):
        self.txns = txns
        self.numbers: set[str] = set()
        # (number, action, object) -> the numbered transaction's matching operations
        self.short: dict[tuple[str, Action, str | None], list[OperationId]] = {}
        for tid, t in txns.items():
            m = _NUMBERED_TXN.match(tid)
            if m:
                self.numbers.add(m.group(1))
                for op in t.ops:
                    self.short.setdefault((m.group(1), op.action, op.obj), []).append(op.id)

    def resolve(self, token: str, lineno: int) -> OperationId:
        if token == "init":
            return INIT
        m = _POSITIONAL.match(token)
        if m:
            tid, index = m.group(1), int(m.group(2))
            t = self.txns.get(tid)
            if t is None:
                raise ParseError(f"unknown transaction {tid!r} in {token!r}", lineno)
            if not 1 <= index <= len(t.ops):
                raise ParseError(f"operation index out of range in {token!r}", lineno)
            return t.ops[index - 1].id
        m = _SHORT_COMMIT.match(token)
        if m:
            if m.group(1) not in self.numbers:
                raise ParseError(f"unknown transaction T{m.group(1)} in {token!r}", lineno)
            commits = self.short.get((m.group(1), Action.COMMIT, None), ())
            if len(commits) != 1:
                raise ParseError(f"{token!r} is ambiguous: transaction has {len(commits)} commits", lineno)
            return commits[0]
        m = _SHORT_RW.match(token)
        if m:
            action = Action.READ if m.group(1) == "R" else Action.WRITE
            if m.group(2) not in self.numbers:
                raise ParseError(f"unknown transaction T{m.group(2)} in {token!r}", lineno)
            hits = self.short.get((m.group(2), action, m.group(3)), ())
            if not hits:
                raise ParseError(f"no operation matches {token!r}", lineno)
            if len(hits) > 1:
                raise ParseError(
                    f"{token!r} is ambiguous: use a positional reference like {hits[0]!r}", lineno
                )
            return hits[0]
        raise ParseError(f"unrecognized operation reference {token!r}", lineno)


_OP_TOKEN = re.compile(r"^([RW])\(([^()\s<]+)\)$|^(C)$")
_COMMENT = re.compile(r"(?<!\S)#")  # a '#' at line start or after whitespace
_HEAD_END = re.compile(r":(?=\s|\Z)")  # a colon before whitespace or the end


def make_transaction_oracle(tid: str, actions: str) -> Transaction:
    """The old ``make_transaction``: one regex for every token, ``C`` included."""
    ops: list[Operation] = []
    for k, token in enumerate(actions.split(), start=1):
        m = _OP_TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad operation token {token!r} in transaction {tid}")
        action, obj, commit = m.groups()
        if commit:
            ops.append(Operation(OperationId(tid, k), Action.COMMIT))
        else:
            ops.append(Operation(OperationId(tid, k), Action.READ if action == "R" else Action.WRITE, obj))
    return Transaction(tid, tuple(ops))


def make_schedule_oracle(txns, order, vorder, vf) -> Schedule:
    """The old ``make_schedule``: the same normalization, one step at a time."""
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
            continue
        chains[obj] = chain_t
    for obj in mentioned:
        chains.setdefault(obj, (INIT,))
    return Schedule(txns=txns, order=order_t, vorder=chains, vf=dict(vf))


def _logical_lines_oracle(text: str) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _COMMENT.search(raw) if "#" in raw else None
        stripped = (raw if m is None else raw[: m.start()]).strip()
        if stripped:
            lines.append((lineno, stripped))
    return lines


def _split_keyword_head_oracle(line: str, keyword: str, lineno: int) -> tuple[str, str]:
    body = line[len(keyword) :].strip()
    m = _HEAD_END.search(body)
    if m is None:
        raise ParseError(f"expected '{keyword} <name>: ...'", lineno)
    return body[: m.start()].strip(), body[m.end() :].strip()


def _parse_txn_line_oracle(line: str, lineno: int) -> Transaction:
    tid, rest = _split_keyword_head_oracle(line, "txn", lineno)
    if not tid:
        raise ParseError("transaction declaration without an id", lineno)
    if "<" in tid:
        raise ParseError(f"transaction id {tid!r} contains '<', which version chains split on", lineno)
    try:
        t = make_transaction_oracle(tid, rest)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    bad = validate_transaction(t)
    if bad:
        raise ParseError(f"invalid transaction {tid!r}: " + "; ".join(map(str, bad)), lineno)
    return t


def _parse_declarations_oracle(text: str):
    txns: dict[str, Transaction] = {}
    entries: dict[str, IsolationLevel] = {}
    predicate: list[str] = []
    rest: list[tuple[int, str]] = []
    for lineno, line in _logical_lines_oracle(text):
        word = line.split(None, 1)[0]
        if word == "txn":
            t = _parse_txn_line_oracle(line, lineno)
            if t.id in txns:
                raise ParseError(f"duplicate transaction id {t.id!r}", lineno)
            txns[t.id] = t
        elif word == "alloc":
            for token in line.split()[1:]:
                if "=" not in token:
                    raise ParseError(f"bad allocation token {token!r}; expected <txn>=<level>", lineno)
                key, value = token.rsplit("=", 1)
                if key == "predicate":
                    predicate.append(value)
                    continue
                try:
                    level = IsolationLevel(value)
                except ValueError:
                    raise ParseError(f"unknown isolation level {value!r}", lineno) from None
                if key in entries:
                    raise ParseError(f"duplicate allocation for transaction {key!r}", lineno)
                entries[key] = level
        else:
            rest.append((lineno, line))
    alloc = None
    if predicate:
        if len(predicate) > 1 or entries:
            raise ParseError("a predicate allocation cannot be combined with level entries")
        try:
            alloc = PredicateAllocation(predicate[0])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    elif entries:
        alloc = LevelAllocation(entries)
    return txns, alloc, rest


class _TableResolverOracle(OpResolverOracle):
    """The old reader's resolver: every canonical spelling in one table built
    up front, the grammar for the rest."""

    def __init__(self, txns: dict[str, Transaction]):
        super().__init__(txns)
        ids = self.ids = {"init": INIT}
        for tid, t in txns.items():
            m = _NUMBERED_TXN.match(tid)
            for k, op in enumerate(t.ops, start=1):
                ids[f"{tid}#{k}"] = op.id
                if m:
                    short = f"C{m[1]}" if op.obj is None else f"{op.action.value}{m[1]}({op.obj})"
                    ids[short] = None if short in ids else op.id  # None: ambiguous

    def resolve(self, token: str, lineno: int) -> OperationId:
        opid = self.ids.get(token)
        return opid if opid is not None else super().resolve(token, lineno)


def parse_schedule_document_oracle(text: str, workload: Workload | None = None, *, validate: bool = True):
    """The old ``parse_schedule_document``: the schedule and its allocation."""
    embedded, alloc, rest = _parse_declarations_oracle(text)
    if workload is not None:
        alloc = workload.alloc
        declared = {t.id: t for t in workload.txns}
        if embedded and embedded != declared:
            raise ParseError("embedded transaction declarations disagree with the workload document")
        txns = declared
    else:
        txns = embedded
    if not txns:
        raise ParseError("schedule document has no transactions (embed txn lines or pass a workload)")
    resolver = _TableResolverOracle(txns)
    order: list[OperationId] | None = None
    vf: dict[OperationId, OperationId] = {}
    vorder: dict[str, tuple[OperationId, ...]] = {}
    for lineno, line in rest:
        word = line.split(None, 1)[0]
        if word == "order:":
            if order is not None:
                raise ParseError("duplicate order line", lineno)
            order = [resolver.resolve(token, lineno) for token in line[len("order:") :].split()]
        elif word == "reads:":
            for entry in line[len("reads:") :].split():
                if "<-" not in entry:
                    raise ParseError(f"bad read entry {entry!r}; expected <read><-<write|init>", lineno)
                left, right = entry.split("<-", 1)
                rid = resolver.resolve(left, lineno)
                target = resolver.resolve(right, lineno)
                if rid in vf:
                    raise ParseError(f"duplicate read mapping for {left!r}", lineno)
                vf[rid] = target
        elif word == "vorder":
            obj, chain_text = _split_keyword_head_oracle(line, "vorder", lineno)
            if obj in vorder:
                raise ParseError(f"duplicate vorder line for object {obj!r}", lineno)
            chain: list[OperationId] = []
            for token in chain_text.split("<"):
                token = token.strip()
                if not token:
                    raise ParseError(f"empty element in vorder chain for {obj!r}", lineno)
                chain.append(resolver.resolve(token, lineno))
            vorder[obj] = tuple(chain)
        else:
            raise ParseError(f"unexpected line in schedule document: {line!r}", lineno)
    if order is None:
        raise ParseError("schedule document has no order line")
    s = make_schedule_oracle(txns.values(), order, vorder, vf)
    if validate:
        bad = validate_schedule(s)
        if bad:
            raise ParseError("invalid schedule: " + "; ".join(str(v) for v in bad[:8]))
    return s, alloc
