"""Independent re-implementations used to cross-check the library.

These deliberately avoid the library's decision procedures: they work from
first principles (simulation of serial runs, literal clause evaluation) so
that agreement is meaningful.  The enumeration oracle is the exception: it
is the slow path the enumeration replaced, built from the library's own
completion and serializability checks, one interleaving at a time.
"""

from __future__ import annotations

import itertools

from mvsched import INIT, RobustnessMode, Schedule, SearchLimits, Workload, complete_under_allocation
from mvsched.core import DEFAULT_LIMITS, Budget
from mvsched.robustness import _iter_interleavings
from mvsched.serializability import is_conflict_serializable, serial_signature_pool, view_signature


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
