"""Conflicts, dependencies, serialization graphs, and serializability tests.

Conflict-serializability is decided through acyclicity of the serialization
graph.  View-serializability is decided by a search over serial orders of
the transactions (Papadimitriou's polygraph view): each read fixes the
transaction whose version it sees as a required predecessor, each other
writer of the object must come before that version's writer or after its
readers, and each object's final writer must follow its other writers and
their readers.  One engine (:func:`resolve_choices`) closes the required
predecessors into reachability bitsets, one edge set at a time
(:func:`_add`), and propagates such writer choices; it also decides
polygraph acyclicity.  A contradiction at its root refutes before any
search.  Otherwise the search places one transaction per depth, in
canonical (lexicographic) order: the first whose closed predecessors are
placed and after which the engine can still complete the order, on the
closure carried from the depth before.  It never backtracks, so the witness
returned is the canonically first one; ``exhausted`` counts the serial
orders accounted for, which is n! on a negative answer.  The completion
check branches, so the worst case stays exponential.
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
# Choice propagation over reachability
# ---------------------------------------------------------------------------
# Nodes are 0..n-1 and ``pred[v]`` is the bitmask of the fixed edges into
# ``v``.  The known edges are kept closed: ``reach[u]`` holds ``u`` and the
# nodes it reaches, ``back[u]`` the other nodes that reach ``u``.  A choice
# ``(k, w, rs)`` is the edges ``r -> k``, ``r`` in the bitmask ``rs``
# (option 0), or the edge ``k -> w`` (option 1); whether an option holds,
# or is dead (an edge of it closes a cycle), is an O(1) test on the closure.


def set_bits(m: int):  # the set bits of m, lowest first
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _closure(pred: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """The closure ``(reach, back)`` of the fixed edges, or None on a cycle:
    each node's predecessors are closed in by :func:`_add`, unless the node
    already reaches one of them."""
    reach, back = [1 << v for v in range(len(pred))], [0] * len(pred)
    for v, m in enumerate(pred):
        if m:
            if reach[v] & m:
                return None
            _add(reach, back, m, v)
    return reach, back


def _add(reach: list[int], back: list[int], rs: int, k: int) -> None:
    """Close the edges ``r -> k``, ``r`` in ``rs``, none of them dead, into the closure."""
    into, out = rs, reach[k]
    for r in set_bits(rs):
        into |= back[r]
    for y in set_bits(out):
        back[y] |= into
    for x in set_bits(into):
        reach[x] |= out


def _settle(reach: list[int], back: list[int], choices: Iterable[tuple[int, int, int]]):
    """Propagate ``choices`` to a fixpoint: a choice whose option 0 holds is
    taken, one with a dead option is forced to the other (added to the
    closure), one with both dead fails.  Returns the open choices (None on a
    failure) and the options tested: one for a choice taken by its option 0,
    two for any other, on each pass."""
    tested = 0
    while True:
        still, forced = [], False
        for c in choices:
            k, w, rs = c
            if back[k] & rs == rs:
                tested += 1
                continue
            tested, kbit = tested + 2, 1 << k
            if reach[k] & rs:
                if reach[w] & kbit:
                    return None, tested
                if not back[w] & kbit:
                    _add(reach, back, kbit, w)
                    forced = True
            elif reach[w] & kbit:
                _add(reach, back, rs, k)
                forced = True
            else:
                still.append(c)
        if not forced:
            return still, tested
        choices = still


def _branch(reach: list[int], back: list[int], choices: list | None, budget: Budget) -> list[int] | None:
    """The ``back`` closure of the first resolution of ``choices``, the
    choices :func:`_settle` left open on the closure (None after a failure),
    that leaves the graph acyclic, or None: branches on the first open
    choice, option 0 first, and propagates below each branch.  Each option
    tested there is one candidate of ``budget``."""
    # per search node: its closure, the choices left, and the option its branch adds
    stack = [(reach, back, choices, None)]
    while stack:
        reach, back, choices, option = stack.pop()
        if option:
            _add(reach, back, *option)
            choices, tested = _settle(reach, back, choices)
            budget.tick(tested)
        if choices == []:
            return back
        if choices:
            (k, w, rs), rest = choices[0], choices[1:]
            stack += [(reach.copy(), back.copy(), rest, (1 << k, w)), (reach, back, rest, (rs, k))]
    return None


def resolve_choices(pred: Sequence[int], choices: Sequence[tuple[int, int, int]], budget: Budget) -> list[int] | None:
    """The ``back`` closure of the first resolution of ``choices`` (in their
    order, option 0 first) that leaves the graph acyclic, or None.

    The root step closes the fixed edges and propagates every choice; then
    :func:`_branch` searches.  Propagation drops only options with no
    acyclic completion, so the first resolution found is the first in
    canonical order; the worst case stays exponential.  The root step is one
    candidate of ``budget`` and each option tested one more."""
    budget.tick()
    root = _closure(pred)
    if root is None:
        return None
    still, tested = _settle(*root, choices)
    budget.tick(tested)
    return _branch(*root, still, budget)


# ---------------------------------------------------------------------------
# View-serializability decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewWitness:
    """Outcome of the view-serializability test.

    ``exhausted`` counts serial orders ruled out (each refused prefix accounts
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
    writer of it and every transaction that reads one of their versions.
    ``shared`` holds, per object read from another transaction, the bitmask
    of its other writers and its ``(w, r)`` pairs: the transactions in the
    bitmask ``r`` read the version by ``w``, so no other writer ``k`` of the
    object may come after ``w`` and before a transaction of ``r`` other than
    ``k``.  A pair is stored once per object and shared by its writers, so
    ``shared`` grows with the reads of ``s``, not with its writers times its
    reads.
    """
    ix = s.index
    txn, kind, obj, vf, READ, WRITE = ix.txn, ix.kind, ix.obj, ix.vf, ix.READ, ix.WRITE
    pred = [0] * len(s.txns)
    init_readers = dict.fromkeys(ix.writes, 0)
    readers: dict[str, dict[int, int]] = {o: {} for o in ix.writes}
    overwritten, seen_outside = set(), []  # writes their transaction writes again; versions others read
    for r, at in enumerate(ix.at):
        own: dict[str, int] = {}
        for p in at:
            o, act = obj[p], kind[p]
            if act == WRITE:
                if o in own:
                    overwritten.add(own[o])
                own[o] = p
            elif act != READ:
                continue
            elif o in own:
                if vf[p] != own[o]:
                    return None  # a serial run reads its own latest write
            elif not vf[p]:  # INIT
                init_readers[o] |= 1 << r
            else:
                w = txn[vf[p]]
                pred[r] |= 1 << w
                readers[o][w] = readers[o].get(w, 0) | 1 << r
                seen_outside.append(vf[p])
    if not overwritten.isdisjoint(seen_outside):
        return None  # only a transaction's last write is ever seen from outside
    shared = []
    for o, ws in ix.writes.items():
        if not ws:
            continue
        final = max(ws, key=ix.rank.__getitem__)
        if final in overwritten:
            return None  # the final version of a serial run is its writer's last
        last, others, init = txn[final], 0, init_readers[o]
        for q in ws:
            pred[txn[q]] |= init & ~(1 << txn[q])
            others |= 1 << txn[q]
        others &= ~(1 << last)
        pred[last] |= others
        for w, rs in readers[o].items():
            if w != last:
                pred[last] |= rs & ~(1 << last)
        if others and readers[o]:
            shared.append((others, tuple(readers[o].items())))
    return pred, shared


def _writer_choices(shared, reach: list[int], back: list[int]):
    """The choices of ``shared`` that the closure leaves open: writer ``k``
    goes after the other readers of ``w``'s version (option 0) or before
    ``w`` (option 1).  Read as the closure grows, so the writers it settles
    by then, after every reader or before ``w``, are skipped in bulk."""
    for ks, pairs in shared:
        for w, rs in pairs:
            after = -1
            for r in set_bits(rs):
                after &= reach[r]
            for k in set_bits(ks & ~(after | back[w] | 1 << w)):
                yield k, w, rs & ~(1 << k)


def _factorial_base(digits: Sequence[int]) -> int:
    """``sum(c * k! for k, c in enumerate(digits))``, by Horner's rule."""
    total = 0
    for k in range(len(digits) - 1, 0, -1):
        total = (total + digits[k]) * k
    return total + (digits[0] if digits else 0)


def _completes(reach: list[int], back: list[int], i: int, rest: int, choices: list, budget: Budget) -> tuple | None:
    """The closure ``(reach, back)`` with ``i`` placed before the bitmask
    ``rest``, settled, and the ``choices`` it leaves open, or None when no
    serial order runs the placed transactions, ``i``, then ``rest`` and
    resolves them.  Every placed transaction precedes ``i`` and ``rest``
    and nothing of ``rest`` reaches ``i``, so two writes to a copy close
    the new edges; the choices are settled on it uncharged, and any left
    open go to :func:`_branch` on a copy."""
    reach, back = reach.copy(), back.copy()
    reach[i] |= rest
    for r in set_bits(rest):
        back[r] |= 1 << i
    still = _settle(reach, back, choices)[0]
    if still is None or still and _branch(reach.copy(), back.copy(), still, budget) is None:
        return None
    return reach, back, still


def is_view_serializable(s: Schedule, *, budget: Budget | None = None) -> ViewWitness:
    """Search all serial orders for one view-equivalent to ``s``.

    :func:`_placement_constraints` turns view-equivalence into required
    predecessors and writer choices, or fails a schedule no serial order can
    match (a read that sees a write other than its writer's last, or skips its
    own transaction's earlier write; a final version that is not its writer's
    last write).  After the empty prefix's candidate, the root step closes the
    predecessors and propagates the choices (see :func:`resolve_choices`); a
    contradiction there refutes with ``exhausted`` n!.  Otherwise each depth
    places the first transaction, in index order, whose closed predecessors are
    placed and, while choices are open, after which :func:`_completes` finds
    the rest can follow; the closure it settles is carried to the next depth.
    Only prefixes that can be completed are kept, so the search never
    backtracks, the order it completes is the canonically first witness, and
    each transaction refused at depth d accounts for the (n - d - 1)! orders
    extending it: ``exhausted`` is the witness's rank plus one, and n! when
    every first transaction is refused.  Each prefix extended is one candidate
    charged to ``budget`` (``Budget(DEFAULT_LIMITS)`` when None), and so is
    each option a completion check tests while it branches; the worst case
    stays exponential.
    """
    if budget is None:
        budget = Budget(DEFAULT_LIMITS)
    n = len(s.txns)
    constraints = _placement_constraints(s)
    if constraints is None:
        return ViewWitness(verdict=False, witness=None, exhausted=factorial(n))
    pred, shared = constraints
    budget.tick()  # the empty prefix
    root = _closure(pred)
    still = root and _settle(*root, _writer_choices(shared, *root))[0]
    if still is None:
        return ViewWitness(verdict=False, witness=None, exhausted=factorial(n))
    (reach, back), path, left = root, [], (1 << n) - 1
    # per k, the transactions refused with k left to place after them: each
    # stands for k! serial orders, summed only when the search ends
    refused = [0] * n
    while left:
        for i in set_bits(left):
            if not back[i] & left and (not still or (closed := _completes(reach, back, i, left ^ 1 << i, still, budget))):
                break
            refused[n - len(path) - 1] += 1
        else:  # only at depth 0: a kept prefix can be completed
            return ViewWitness(verdict=False, witness=None, exhausted=_factorial_base(refused))
        if still:  # with no choice open, nothing more is forced and the closure stays as it is
            reach, back, still = closed
        path.append(i)
        left ^= 1 << i
        if left:
            budget.tick()
    return ViewWitness(verdict=True, witness=tuple(s.txns[i].id for i in path), exhausted=_factorial_base(refused) + 1)
