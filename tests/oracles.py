"""Independent re-implementations used to cross-check the library.

These deliberately avoid the library's decision procedures: they work from
first principles (simulation of serial runs, literal clause evaluation) so
that agreement is meaningful.  Two are exceptions.  The enumeration oracle
is the slow path the enumeration replaced, built from the library's own
completion and serializability checks, one interleaving at a time.  The view
search oracle is the view-serializability search the placement-constraint
search replaced: it tracks installed versions per serial prefix.
"""

from __future__ import annotations

import itertools
from math import factorial

from mvsched import (
    INIT,
    LimitExceeded,
    OperationId,
    RobustnessMode,
    Schedule,
    SearchLimits,
    Transaction,
    Workload,
    complete_under_allocation,
)
from mvsched.core import DEFAULT_LIMITS, Budget
from mvsched.robustness import _iter_interleavings
from mvsched.serializability import ViewWitness, is_conflict_serializable, serial_signature_pool, view_signature


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


def allowed_schedules_oracle(w: Workload, budget: Budget):
    """Every allowed schedule over the workload's full transaction set, with
    one :func:`complete_under_allocation` call per interleaving: the
    reference for the library's enumeration, which completes the schedule
    while it walks the interleavings and drops rejected prefixes whole."""
    for order in _iter_interleavings(w.txns, budget):
        s = complete_under_allocation(w.txns, order, w.alloc)
        if s is not None:
            yield s


def _fails(s: Schedule, view: bool) -> bool:
    if view:
        return view_signature(s) not in serial_signature_pool(s.txns)
    return not is_conflict_serializable(s)[0]


def enumeration_oracle(w: Workload, limits: SearchLimits = DEFAULT_LIMITS):
    """What the enumeration must give for a level allocation, from the
    per-order oracle: the allowed schedules over the full set, and per
    robustness mode the first allowed schedule failing its serializability
    notion as (subset, schedule), or None.  Subset modes scan every subset,
    smallest first, then lexicographic; the exact modes the full set."""
    ids = sorted(w.txn_ids)
    budget = Budget(limits)
    found = {}
    allowed: list[Schedule] = []
    for k in range(len(ids) + 1):
        for subset in itertools.combinations(ids, k):
            allowed = list(allowed_schedules_oracle(w.restrict(subset), budget))
            full = k == len(ids)
            for view, mode, exact in (
                (False, RobustnessMode.CONFLICT, RobustnessMode.EXACT_CONFLICT),
                (True, RobustnessMode.VIEW, RobustnessMode.EXACT_VIEW),
            ):
                if mode in found and not full:
                    continue
                bad = next((s for s in allowed if _fails(s, view)), None)
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
