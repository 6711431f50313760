"""Conflicts, dependencies, serialization graphs, and serializability tests.

Conflict-serializability is decided through acyclicity of the serialization
graph.  View-serializability is decided by a search over serial orders of
the transactions (Papadimitriou's polygraph view): each read fixes the
transaction whose version it sees as a required predecessor, each other
writer of the object must not come between them, and each object's final
writer must follow its other writers.  These placement constraints are
computed before the search, so whether a serial prefix can be completed
depends only on the set of transactions placed, and a bitmask of that set
is the memo of failed prefixes.  The search walks prefixes in canonical
(lexicographic) order and discards only prefixes with no completion, so the
witness returned is the canonically first one; ``exhausted`` counts the
serial orders accounted for, which is n! on a negative answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Mapping, Sequence

from .core import DEFAULT_LIMITS, Budget, OperationId, Schedule
from .errors import ObjectNeverWritten, TransactionSetMismatch


class ConflictKind(enum.Enum):
    """The action pair of two conflicting operations (first/second)."""

    WW = "ww"
    WR = "wr"
    RW = "rw"


@dataclass(frozen=True)
class DependencyEdge:
    """A typed dependency: ``dst`` depends on ``src`` in some schedule.

    ``src`` and ``dst`` belong to different transactions and act on the same
    object; the kind is WW for a version installed after ``src``'s, WR for a
    read observing ``src``'s version or a later one, and RW for a read whose
    observed version is installed before ``dst``'s write (an antidependency).
    """

    src: OperationId
    dst: OperationId
    kind: ConflictKind


@dataclass(frozen=True)
class SerializationGraph:
    """Transactions as nodes; an edge per pair with at least one dependency.

    Every edge keeps all of its witnessing dependencies, which downstream
    cycle-shape reasoning needs.
    """

    nodes: tuple[str, ...]
    edges: Mapping[tuple[str, str], tuple[DependencyEdge, ...]]

    @property
    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)


def serialization_graph(s: Schedule) -> SerializationGraph:
    """Build the full serialization graph of a valid schedule.

    Every dependency is read off the schedule's int index in one pass: ww
    between two writers of an object in version order; for a read and
    another transaction's write on its object, wr when the write installs no
    later than the version read, else rw."""
    ix, order, ids = s.index, s.order, s.txn_ids
    txn, rank, vf, obj, writes = ix.txn, ix.rank, ix.vf, ix.obj, ix.writes
    deps = []
    for ws in writes.values():
        deps += [(p, q, ConflictKind.WW) for p in ws for q in ws if txn[p] != txn[q] and rank[p] < rank[q]]
    for r, k in enumerate(ix.kind):
        if k == ix.READ:
            seen = rank[vf[r]]
            for w in writes[obj[r]]:
                if txn[w] != txn[r]:
                    deps.append((w, r, ConflictKind.WR) if rank[w] <= seen else (r, w, ConflictKind.RW))
    edges: dict[tuple[str, str], list[DependencyEdge]] = {}
    for p, q, kind in deps:
        edges.setdefault((ids[txn[p]], ids[txn[q]]), []).append(DependencyEdge(order[p], order[q], kind))
    return SerializationGraph(
        nodes=ids,
        edges={pair: tuple(sorted(deps, key=lambda d: (d.src, d.dst))) for pair, deps in edges.items()},
    )


def _shortest_cycle(nodes: Sequence[str], edge_pairs: frozenset[tuple[str, str]]) -> tuple[str, ...] | None:
    """Shortest directed cycle, canonicalized to start at its smallest node.

    Ties between equally short cycles break lexicographically, so witnesses
    are reproducible.
    """
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in sorted(edge_pairs):
        succ[a].append(b)
    best: tuple[int, tuple[str, ...]] | None = None
    for start in sorted(nodes):
        # BFS back to start; parents recorded on first visit give the
        # earliest shortest path thanks to sorted expansion order.
        parent: dict[str, str] = {}
        frontier = [start]
        found = None
        while frontier and found is None:
            nxt: list[str] = []
            for u in frontier:
                for v in succ[u]:
                    if v == start:
                        found = u
                        break
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(parent[path[-1]])
        cycle = tuple(reversed(path))
        pivot = cycle.index(min(cycle))
        cycle = cycle[pivot:] + cycle[:pivot]
        cand = (len(cycle), cycle)
        if best is None or cand < best:
            best = cand
    return best[1] if best else None


def has_cycle(succ: Sequence[int]) -> bool:
    """Whether the graph given by per-node successor bitmasks has a cycle:
    nodes without successors left are peeled off until none is."""
    left = (1 << len(succ)) - 1
    while left:
        sinks = 0
        for t, out in enumerate(succ):
            if left >> t & 1 and not out & left:
                sinks |= 1 << t
        if not sinks:
            return True
        left &= ~sinks
    return False


def dependency_masks(n: int, writers: Mapping, reads: Iterable[tuple[int, object, int]]) -> list[int]:
    """The edges of the serialization graph of ``n`` transactions, without
    their witnesses: per transaction, the bitmask of those that depend on it.

    ``writers`` maps each object to the writer of each of its versions, in
    version order without INIT; ``reads`` lists (reader, object, position of
    the version read in its version order, INIT being 0)."""
    succ = [0] * n
    for ow in writers.values():
        later = 0
        for u in reversed(ow):  # ww: every earlier version's writer -> later writers
            succ[u] |= later & ~(1 << u)
            later |= 1 << u
    for t, obj, seen in reads:
        for p, u in enumerate(writers.get(obj, ()), 1):
            if u != t:
                if p <= seen:  # wr: the version read or an earlier one
                    succ[u] |= 1 << t
                else:  # rw: a version installed after the one read
                    succ[t] |= 1 << u
    return succ


def is_conflict_serializable(s: Schedule) -> tuple[bool, tuple[str, ...] | None]:
    """Acyclicity of the serialization graph, with a witnessing cycle when not.

    Decided on per-transaction dependency bitmasks read off the schedule's
    int index, whose edges are the graph's; the shortest cycle is sought
    only in a cyclic one."""
    ix, ids = s.index, s.txn_ids
    txn, rank = ix.txn, ix.rank
    writers = {o: [txn[q] for q in sorted(ws, key=rank.__getitem__)] for o, ws in ix.writes.items()}
    reads = [(txn[p], ix.obj[p], rank[ix.vf[p]]) for p, k in enumerate(ix.kind) if k == ix.READ]
    succ = dependency_masks(len(ids), writers, reads)
    if not has_cycle(succ):
        return (True, None)
    pairs = frozenset((a, ids[v]) for u, a in enumerate(ids) for v in range(len(ids)) if succ[u] >> v & 1)
    return (False, _shortest_cycle(ids, pairs))


def last_version(s: Schedule, obj: str) -> OperationId:
    """The write installing the final version of ``obj``."""
    chain = s.vorder.get(obj)
    if chain is None or len(chain) <= 1:
        raise ObjectNeverWritten(f"object {obj!r} is never written in this schedule")
    return chain[-1]


def view_equivalent(s: Schedule, s2: Schedule) -> bool:
    """Same transactions, same observed version per read, same final versions."""
    if dict(s.txn_by_id) != dict(s2.txn_by_id):
        raise TransactionSetMismatch("schedules are not over the same set of transactions")
    if dict(s.vf) != dict(s2.vf):
        return False
    for obj, chain in s.vorder.items():
        if len(chain) > 1 and last_version(s2, obj) != chain[-1]:
            return False
    return True


# ---------------------------------------------------------------------------
# View-serializability decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewWitness:
    """Outcome of the view-serializability test.

    ``exhausted`` counts serial orders ruled out (each pruned prefix accounts
    for all of its completions), plus the witness itself when one is found:
    the witness's rank in lexicographic order plus one, and n! on a
    negative verdict.
    """

    verdict: bool
    witness: tuple[str, ...] | None
    exhausted: int


def _placement_constraints(s: Schedule):
    """What a serial order must satisfy to be view-equivalent to ``s``, as
    bitmasks on transaction index, or None when no serial order can be.

    ``pred[k]`` holds the transactions that must precede transaction ``k``:
    the writer of each version it reads, the transactions that read INIT of
    an object it writes, and, for the final writer of an object, every other
    writer of it.  ``forbid[k]`` holds, per object ``k`` writes, its
    ``(w, r)`` pairs: transactions in ``r`` read the version by ``w``, so
    ``k`` may not be placed while ``w`` is placed and some transaction in
    ``r`` other than ``k`` is not.  A pair is stored once per object and
    shared by its writers, so ``forbid`` grows with the reads of ``s``, not
    with its writers times its reads.
    """
    ix = s.index
    txn, kind, obj, vf = ix.txn, ix.kind, ix.obj, ix.vf
    last_write = {(txn[q], o): q for o, ws in ix.writes.items() for q in ws}
    pred = [0] * len(s.txns)
    init_readers = dict.fromkeys(ix.writes, 0)
    readers: dict[str, dict[int, int]] = {o: {} for o in ix.writes}
    for r, at in enumerate(ix.at):
        own: dict[str, int] = {}
        for p in at:
            o, seen = obj[p], vf[p]
            if kind[p] == ix.WRITE:
                own[o] = p
            if kind[p] != ix.READ:
                continue
            if o in own:
                if seen != own[o]:
                    return None  # a serial run reads its own latest write
                continue
            if not seen:  # INIT
                init_readers[o] |= 1 << r
                continue
            w = txn[seen]
            if last_write[w, o] != seen:
                return None  # only a transaction's last write is ever seen from outside
            pred[r] |= 1 << w
            readers[o][w] = readers[o].get(w, 0) | 1 << r
    written: list[list[tuple]] = [[] for _ in s.txns]
    for o, ws in ix.writes.items():
        if not ws:
            continue
        final = max(ws, key=ix.rank.__getitem__)
        if last_write[txn[final], o] != final:
            return None  # the final version of a serial run is its writer's last
        writers = dict.fromkeys(txn[q] for q in ws)
        pairs = tuple((1 << w, rs) for w, rs in sorted(readers[o].items()))
        for k in writers:
            pred[k] |= init_readers[o] & ~(1 << k)
            if k != txn[final]:
                pred[txn[final]] |= 1 << k
            if pairs:
                written[k].append(pairs)
    return pred, [tuple(by_obj) for by_obj in written]


def _factorial_base(digits: Sequence[int]) -> int:
    """``sum(c * k! for k, c in enumerate(digits))``, by Horner's rule."""
    total = 0
    for k in range(len(digits) - 1, 0, -1):
        total = (total + digits[k]) * k
    return total + (digits[0] if digits else 0)


def is_view_serializable(s: Schedule, *, budget: Budget | None = None) -> ViewWitness:
    """Search all serial orders for one view-equivalent to ``s``.

    One pass over the transactions turns view-equivalence into placement
    constraints (see :func:`_placement_constraints`): required predecessors
    from reads and final versions, and the overwrite rule, under which a
    writer may not come between the writer of a version and its readers.
    A schedule no serial order can match (a read that sees a write other
    than its writer's last, or skips its own transaction's earlier write; a
    final version that is not its writer's last write) fails before the
    search.  Serial orders are then explored prefix by prefix in
    lexicographic transaction order; a transaction is placed only when its
    constraints hold, so whether a prefix can be completed depends on the
    set of placed transactions alone, and a bitmask of that set is the memo
    of prefixes that failed.  Each discarded prefix accounts for every
    serial order extending it, and only prefixes with no completion are
    discarded, so the first completed order is the canonically first
    witness and ``exhausted`` is its rank plus one (n! on a negative
    verdict).  The search's work, not the schedule's size, is bounded:
    each prefix extended is one candidate charged to ``budget``
    (``Budget(DEFAULT_LIMITS)`` when None).  The memo gains at most one
    entry per candidate, and only the candidate count bounds it: an entry
    of a 26-transaction schedule took 66 to 88 bytes (tracemalloc, 64-bit
    CPython 3.11, sets of 10^4 to 10^6 such masks), about 0.9 GB at the
    default 10^7 candidates.
    """
    if budget is None:
        budget = Budget(DEFAULT_LIMITS)
    n = len(s.txns)
    constraints = _placement_constraints(s)
    if constraints is None:
        return ViewWitness(verdict=False, witness=None, exhausted=factorial(n))
    pred, forbid = constraints

    failed: set[int] = set()
    path: list[int] = []
    # iterative, so the transaction count is not bounded by the recursion limit
    resume = [0]  # per depth, the next transaction index to try there
    # per k, the discarded prefixes that left k transactions to place: each
    # stands for k! serial orders, summed only when the search ends
    pruned = [0] * n
    mask = 0
    while True:
        depth = len(path)
        if depth == n:
            witness = tuple(s.txns[i].id for i in path)
            return ViewWitness(verdict=True, witness=witness, exhausted=_factorial_base(pruned) + 1)
        i = resume[-1]
        if i == 0:
            budget.tick()
        while i < n:
            if not mask >> i & 1:
                bit = 1 << i
                if (
                    pred[i] & ~mask
                    or mask | bit in failed
                    or any(mask & w and rs & ~(mask | bit) for pairs in forbid[i] for w, rs in pairs)
                ):
                    pruned[n - depth - 1] += 1
                else:
                    break
            i += 1
        if i < n:
            resume[-1] = i + 1
            resume.append(0)
            path.append(i)
            mask |= 1 << i
            continue
        resume.pop()
        if not path:
            return ViewWitness(verdict=False, witness=None, exhausted=_factorial_base(pruned))
        failed.add(mask)
        mask &= ~(1 << path.pop())
