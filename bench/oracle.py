"""Brute-force reference answers, written from the definitions.

Like :mod:`gen`, this module does not import ``mvsched``.  Schedules are the
generator's ``(txns, order, vorder, vf)`` tuples: ``order`` and the chains in
``vorder`` leave out INIT, and ``vf`` maps each read id to a write id or to
``gen.INIT``.
"""

from __future__ import annotations

import itertools

from gen import INIT, PolygraphInput, op_ids


def _ops(txns) -> dict:
    out = {}
    for tid, body in txns:
        for k, (a, o) in enumerate(body, start=1):
            out[(tid, k)] = (a, o)
    return out


def _serial_view(txns_in_order):
    """vf and final writes of the serial schedule running the transactions
    one after another in the given order."""
    last: dict[str, tuple] = {}
    vf = {}
    for tid, body in txns_in_order:
        for k, (a, o) in enumerate(body, start=1):
            if a == "W":
                last[o] = (tid, k)
            else:
                vf[(tid, k)] = last.get(o, INIT)
    return vf, last


def view_serializable(txns, vorder, vf) -> bool:
    """Some serial order of the transactions reads every version the schedule
    reads and leaves every object with the schedule's final version."""
    final = {o: chain[-1] for o, chain in vorder.items() if chain}
    for perm in itertools.permutations(txns):
        s_vf, s_last = _serial_view(perm)
        if s_vf == vf and s_last == final:
            return True
    return False


def conflict_serializable(txns, vorder, vf) -> bool:
    """The serialization graph is acyclic.  Ti -> Tj for operations on one
    object: ww when Ti's version installs first, wr when Tj reads Ti's
    version or a later one, rw when Ti reads a version installed before
    Tj's."""
    rank = {INIT: 0}
    for chain in vorder.values():
        for i, w in enumerate(chain, start=1):
            rank[w] = i
    ops = _ops(txns)
    edges = set()
    for b, (ab, ob) in ops.items():
        for a, (aa, oa) in ops.items():
            if b[0] == a[0] or ob != oa:
                continue
            if ab == "W" and aa == "W":
                dep = rank[b] < rank[a]
            elif ab == "W" and aa == "R":
                dep = rank[b] <= rank[vf[a]]
            elif ab == "R" and aa == "W":
                dep = rank[vf[b]] < rank[a]
            else:
                dep = False
            if dep:
                edges.add((b[0], a[0]))
    return _acyclic([tid for tid, _ in txns], edges)


def _acyclic(nodes, edges) -> bool:
    succ = {n: [b for a, b in edges if a == n] for n in nodes}
    state = dict.fromkeys(nodes, 0)  # 0 new, 1 on stack, 2 done

    def visit(n) -> bool:
        state[n] = 1
        for m in succ[n]:
            if state[m] == 1 or (state[m] == 0 and not visit(m)):
                return False
        state[n] = 2
        return True

    return all(state[n] == 2 or visit(n) for n in nodes)


def polygraph_acyclic(p: PolygraphInput) -> bool:
    """Some choice of one optional edge per choice makes the graph a DAG."""
    for picks in itertools.product((0, 1), repeat=len(p.choices)):
        extra = {(u, v) if bit == 0 else (v, w) for bit, (u, v, w) in zip(picks, p.choices)}
        if _acyclic(p.nodes, set(p.arcs) | extra):
            return True
    return False


def _interleavings(seqs):
    if all(not s for s in seqs):
        yield ()
        return
    for i, s in enumerate(seqs):
        if s:
            rest = seqs[:i] + [s[1:]] + seqs[i + 1 :]
            for tail in _interleavings(rest):
                yield (s[0],) + tail


def valid_schedules(txns):
    """Version data ``(vorder, vf)`` of every valid schedule over the
    transactions: each interleaving, each per-object version order keeping
    a transaction's writes in its own order, and each read observing INIT
    or an earlier write on its object."""
    ops = _ops(txns)
    writes: dict[str, list] = {}
    for opid, (a, o) in ops.items():
        if a == "W":
            writes.setdefault(o, []).append(opid)
    objs = sorted(writes)
    chain_opts = [
        [p for p in itertools.permutations(sorted(writes[o])) if _keeps_txn_order(p)] for o in objs
    ]
    for order in _interleavings([op_ids(t) for t in txns]):
        pos = {opid: i for i, opid in enumerate(order)}
        reads = [r for r in order if r in ops and ops[r][0] == "R"]
        read_opts = [[INIT] + [w for w in writes.get(ops[r][1], ()) if pos[w] < pos[r]] for r in reads]
        for chains in itertools.product(*chain_opts):
            vorder = dict(zip(objs, chains))
            for seen in itertools.product(*read_opts):
                yield vorder, dict(zip(reads, seen))


def _keeps_txn_order(chain) -> bool:
    last: dict[str, int] = {}
    for tid, k in chain:
        if last.get(tid, 0) > k:
            return False
        last[tid] = k
    return True


def conflict_robust_view_only(txns) -> bool:
    """Conflict robustness under the allocation that admits exactly the
    view-serializable schedules: every view-serializable schedule over every
    subset of the transactions is conflict-serializable."""
    for size in range(2, len(txns) + 1):
        for subset in itertools.combinations(txns, size):
            for vorder, vf in valid_schedules(list(subset)):
                if view_serializable(subset, vorder, vf) and not conflict_serializable(subset, vorder, vf):
                    return False
    return True
