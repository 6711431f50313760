"""Deterministic schedule/workload/polygraph corpora for the property sweeps.

Transaction shapes never write an object and read it back later in the same
transaction.  Under the literal read-freshness rules such a read cannot
observe the transaction's own uncommitted write, while the single-version
serial schedule forces exactly that, so the serializability-equivalence
properties under test do not extend to those shapes (see the modeling notes
in the README).  Everything else within the stated bounds is fair game.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from hypothesis import strategies as st

from mvsched import (
    INIT,
    LevelAllocation,
    Operation,
    OperationId,
    Schedule,
    Transaction,
    Workload,
    complete_under_allocation,
    make_schedule,
    make_transaction,
    validate_schedule,
)

from fixtures import S2_TXNS, RC, SD_T1, SD_T2, SD_T3, SI, SSI, W_LU, W_WS

OBJECTS = ("x", "y")
LEVELS = (RC, SI, SSI)


def _reads_own_write(ops: Sequence[tuple[str, str]]) -> bool:
    written: set[str] = set()
    for action, obj in ops:
        if action == "R" and obj in written:
            return True
        if action == "W":
            written.add(obj)
    return False


def txn_shapes(max_body: int = 2, objects: Sequence[str] = OBJECTS) -> list[tuple[tuple[str, str], ...]]:
    """All read/write bodies up to the length bound, write-then-read excluded."""
    shapes: list[tuple[tuple[str, str], ...]] = []
    alphabet = [(a, o) for a in "RW" for o in objects]
    for n in range(max_body + 1):
        for body in itertools.product(alphabet, repeat=n):
            if not _reads_own_write(body):
                shapes.append(body)
    return shapes


def shape_txn(tid: str, body: Sequence[tuple[str, str]]) -> Transaction:
    spec = " ".join(f"{a}({o})" for a, o in body) + (" C" if not body else " C")
    return make_transaction(tid, spec.strip())


def _canonical_multiset(bodies: Sequence[tuple[tuple[str, str], ...]]) -> tuple:
    """Canonical form of a workload shape under object renaming and txn order."""
    best = None
    perms = itertools.permutations(OBJECTS)
    for perm in perms:
        rename = dict(zip(OBJECTS, perm))
        renamed = tuple(sorted(tuple((a, rename[o]) for a, o in body) for body in bodies))
        if best is None or renamed < best:
            best = renamed
    return best


def two_txn_shape_workloads() -> list[tuple[Transaction, ...]]:
    """Every unordered pair of shapes (<= 2 body ops), deduplicated by object renaming."""
    shapes = txn_shapes()
    seen: set[tuple] = set()
    out: list[tuple[Transaction, ...]] = []
    for a, b in itertools.combinations_with_replacement(shapes, 2):
        key = _canonical_multiset((a, b))
        if key in seen:
            continue
        seen.add(key)
        out.append((shape_txn("T1", a), shape_txn("T2", b)))
    return out


def three_small_txn_workloads() -> list[tuple[Transaction, ...]]:
    """Every unordered triple of single-operation shapes, deduplicated."""
    shapes = [s for s in txn_shapes(max_body=1) if s]
    seen: set[tuple] = set()
    out: list[tuple[Transaction, ...]] = []
    for combo in itertools.combinations_with_replacement(shapes, 3):
        key = _canonical_multiset(combo)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(shape_txn(f"T{i+1}", body) for i, body in enumerate(combo)))
    return out


def sampled_three_txn_workloads(count: int, seed: int = 0xC0FFEE) -> list[tuple[Transaction, ...]]:
    """Seeded sample of three-transaction workloads with two-op bodies."""
    rng = random.Random(seed)
    shapes = [s for s in txn_shapes() if len(s) == 2]
    seen: set[tuple] = set()
    out: list[tuple[Transaction, ...]] = []
    while len(out) < count:
        combo = tuple(sorted(rng.choice(shapes) for _ in range(3)))
        key = _canonical_multiset(combo)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(shape_txn(f"T{i+1}", body) for i, body in enumerate(combo)))
    return out


def implication_corpus_workloads() -> list[tuple[Transaction, ...]]:
    """The workload family behind the serializability-implication sweep:
    within <= 3 transactions, <= 2 objects, <= 2 non-commit operations per
    transaction; exhaustive for two transactions and for three one-op
    transactions, fixture shapes and a seeded sample for the rest."""
    family = two_txn_shape_workloads()
    family += three_small_txn_workloads()
    family.append(S2_TXNS)
    family.append(W_LU)
    family.append(W_WS)
    family.append((SD_T1, SD_T2, SD_T3))
    family += sampled_three_txn_workloads(12)
    return family


def enumerate_valid_schedules(txns: Sequence[Transaction]) -> Iterator[Schedule]:
    """All valid schedules over the transactions: every interleaving crossed
    with every version order and every version function.

    Independent of the library's enumeration machinery; used as the corpus
    generator and as an oracle surface.
    """
    txns = tuple(sorted(txns, key=lambda t: t.id))
    seqs = [t.ops for t in txns]
    writes: dict[str, list[OperationId]] = {}
    for t in txns:
        for op in t.ops:
            if op.is_write:
                writes.setdefault(op.obj, []).append(op.id)
    vorder_opts: dict[str, list[tuple[OperationId, ...]]] = {}
    for obj, wids in writes.items():
        opts = []
        for perm in itertools.permutations(wids):
            rank = {w: i for i, w in enumerate(perm)}
            if all(rank[a] < rank[b] for a, b in zip(wids, wids[1:]) if a.txn == b.txn):
                opts.append(perm)
        vorder_opts[obj] = opts
    objs = sorted(vorder_opts)

    def interleavings(prefix: list[Operation], idx: list[int]) -> Iterator[tuple[Operation, ...]]:
        if len(prefix) == sum(len(s) for s in seqs):
            yield tuple(prefix)
            return
        for i, seq in enumerate(seqs):
            if idx[i] < len(seq):
                prefix.append(seq[idx[i]])
                idx[i] += 1
                yield from interleavings(prefix, idx)
                idx[i] -= 1
                prefix.pop()

    for ops in interleavings([], [0] * len(seqs)):
        order = (INIT,) + tuple(op.id for op in ops)
        pos = {opid: i for i, opid in enumerate(order)}
        reads = [op for op in ops if op.is_read]
        read_opts = [
            [INIT] + [w for w in writes.get(op.obj, ()) if pos[w] < pos[op.id]] for op in reads
        ]
        for chains in itertools.product(*(vorder_opts[o] for o in objs)):
            vorder = dict(zip(objs, chains))
            for choice in itertools.product(*read_opts):
                vf = {op.id: tgt for op, tgt in zip(reads, choice)}
                yield make_schedule(txns, order, vorder, vf)


def curated_txn_sets() -> list[tuple[Transaction, ...]]:
    """The transaction sets behind the curated workload family."""
    sets: list[tuple[Transaction, ...]] = [
        W_LU,
        W_WS,
        S2_TXNS,
        (SD_T1, SD_T2, SD_T3),
    ]
    sets += three_small_txn_workloads()
    sets += sampled_three_txn_workloads(25, seed=0xBADDCAFE)
    return sets


def curated_workloads() -> list[Workload]:
    """At least fifty level-allocated workloads anchored by the named fixtures."""
    out: list[Workload] = []
    for level in LEVELS:
        out.append(Workload(W_LU, LevelAllocation.uniform(level, ("T1", "T2"))))
        out.append(Workload(W_WS, LevelAllocation.uniform(level, ("T1", "T2"))))
        out.append(Workload(S2_TXNS, LevelAllocation.uniform(level, ("T1", "T2", "T3"))))
        out.append(Workload((SD_T1, SD_T2, SD_T3), LevelAllocation.uniform(level, ("T1", "T2", "T3"))))
    out.append(Workload(W_LU, LevelAllocation({"T1": RC, "T2": SI})))
    out.append(Workload(W_WS, LevelAllocation({"T1": SI, "T2": SSI})))
    out.append(Workload(S2_TXNS, LevelAllocation({"T1": RC, "T2": SI, "T3": SSI})))
    for txns in three_small_txn_workloads():
        out.append(Workload(txns, LevelAllocation.uniform(RC, (t.id for t in txns))))
    for i, txns in enumerate(sampled_three_txn_workloads(25, seed=0xBADDCAFE)):
        level = LEVELS[i % 3]
        out.append(Workload(txns, LevelAllocation.uniform(level, (t.id for t in txns))))
    assert len(out) >= 50
    return out


def random_txn(tid: str, rng: random.Random, max_body: int = 2) -> Transaction:
    while True:
        body = [(rng.choice("RW"), rng.choice(OBJECTS)) for _ in range(rng.randint(1, max_body))]
        if not _reads_own_write(body):
            return shape_txn(tid, body)


def random_workloads(count: int, seed: int = 20260810) -> list[Workload]:
    """Seeded workloads within the sweep limits (<= 3 txns, <= 2 objects,
    <= 3 operations per transaction including the commit)."""
    rng = random.Random(seed)
    out: list[Workload] = []
    for _ in range(count):
        n = rng.randint(1, 3)
        txns = tuple(random_txn(f"T{i+1}", rng) for i in range(n))
        alloc = LevelAllocation({t.id: rng.choice(LEVELS) for t in txns})
        out.append(Workload(txns, alloc))
    return out


def criterion_5_workloads() -> Iterator[Workload]:
    """The criterion-5 corpus: every level allocation of each curated
    transaction set, then ``random_workloads(500)``."""
    for txns in curated_txn_sets():
        ids = [t.id for t in txns]
        for levels in itertools.product(LEVELS, repeat=len(ids)):
            yield Workload(txns, LevelAllocation(dict(zip(ids, levels))))
    yield from random_workloads(500)


def ssi_heavy_workloads(count: int, seed: int = 1212) -> list[Workload]:
    """Seeded workloads of 4-6 transactions of 1-3 reads and writes over five
    objects (none reading its own write), each transaction SSI with odds
    one half: sparse enough for rings of three and four transactions, and
    SSI enough for dangerous structures to reject candidates."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, txns = rng.randint(4, 6), []
        while len(txns) < n:
            body = [(rng.choice("RW"), rng.choice("vwxyz")) for _ in range(rng.randint(1, 3))]
            if not any(a == "R" and ("W", o) in body[:k] for k, (a, o) in enumerate(body)):
                txns.append(shape_txn(f"T{len(txns) + 1}", body))
        out.append(Workload(tuple(txns), LevelAllocation({t.id: rng.choice((SSI, SSI, SI, RC)) for t in txns})))
    return out


def read_only_t1_chains(count: int, seed: int = 2627) -> list[tuple[Workload, Schedule]]:
    """Seeded SSI workloads of 4-7 transactions, each with the schedule that
    SI completes from one interleaving of them, around a planted chain: t2
    reads a and b, its two t3s write them and commit while it runs, and the
    read-only t1, which reads t2's object c, starts between their commits;
    t2 then writes c and commits last.  Only the t3 that commits first
    closes a structure with t1, and names are drawn at random, so it is
    listed second about as often as first.  The other transactions, of 1-3
    reads and writes over a, b, c and d, interleave anywhere."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 7)
        bodies = [[("R", "c")], [("R", "a"), ("R", "b"), ("W", "c")], [("W", "a")], [("W", "b")]]
        while len(bodies) < n:
            body = [(rng.choice("RW"), rng.choice("abcd")) for _ in range(rng.randint(1, 3))]
            if not _reads_own_write(body):
                bodies.append(body)
        txns = [shape_txn(f"T{k}", body) for k, body in zip(rng.sample(range(1, n + 1), n), bodies)]
        (r1, c1), (r2a, r2b, w2, c2), first, second = (t.op_ids for t in txns[:4])
        seqs = [[r2a, r2b, *first, r1, *second, c1, w2, c2], *(list(t.op_ids) for t in txns[4:])]
        slots = [k for k, ops in enumerate(seqs) for _ in ops]
        rng.shuffle(slots)
        txns.sort(key=lambda t: t.id)
        s = complete_under_allocation(txns, [seqs[k].pop(0) for k in slots], LevelAllocation.uniform(SI, [t.id for t in txns]))
        if s is not None:
            out.append((Workload(tuple(txns), LevelAllocation.uniform(SSI, [t.id for t in txns])), s))
    return out


def random_polygraphs(count: int, seed: int = 421771, max_nodes: int = 5, max_choices: int = 3):
    """Seeded valid polygraphs for the reduction harness."""
    from mvsched import Polygraph

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_nodes)
        nodes = [f"n{k}" for k in range(n)]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        arcs = frozenset(p for p in pairs if rng.random() < rng.uniform(0.15, 0.5))
        candidates = [c for c in itertools.permutations(nodes, 3) if (c[2], c[0]) in arcs]
        rng.shuffle(candidates)
        choices = frozenset(candidates[: rng.randint(0, min(max_choices, len(candidates)))])
        out.append(Polygraph.of(nodes, arcs, choices))
    return out


def dense_polygraphs(count: int, seed: int = 5301, nodes: int = 6, choices: int = 4, acyclic=None):
    """Seeded polygraphs of one shape: ``nodes`` nodes, ``nodes * (nodes - 1) // 3``
    random arcs and ``choices`` choices anchored on them.  With ``acyclic``
    (a polygraph predicate) they alternate between polygraphs it accepts
    and polygraphs it rejects, starting with an accepted one."""
    from mvsched import Polygraph

    rng = random.Random(seed)
    names = [f"n{k}" for k in range(nodes)]
    out = []
    while len(out) < count:
        arcs = frozenset(rng.sample(list(itertools.permutations(names, 2)), nodes * (nodes - 1) // 3))
        candidates = sorted(c for c in itertools.permutations(names, 3) if (c[2], c[0]) in arcs)
        if len(candidates) < choices:
            continue
        p = Polygraph.of(names, arcs, rng.sample(candidates, choices))
        if acyclic is None or acyclic(p) == (len(out) % 2 == 0):
            out.append(p)
    return out


def planted_polygraphs(count: int, nodes: int, choices: int, seed: int):
    """Seeded acyclic polygraphs of ``nodes`` nodes and ``choices`` choices.
    Each draws a hidden order of its nodes and keeps the order's forward
    arcs at density 0.1; a drawn choice ``(u, v, w)``, with its arc ``w ->
    u``, is kept only when the order runs ``w`` before ``u`` and satisfies
    one of its options, ``u`` before ``v`` or ``v`` before ``w``.  So the
    hidden order resolves every choice, and no cycle is planted."""
    from mvsched import Polygraph

    rng = random.Random(seed)
    names = [f"n{k}" for k in range(nodes)]
    out = []
    for _ in range(count):
        order = rng.sample(names, nodes)
        at = {x: k for k, x in enumerate(order)}
        arcs = {(a, b) for a, b in itertools.combinations(order, 2) if rng.random() < 0.1}
        kept: set[tuple[str, str, str]] = set()
        while len(kept) < choices:
            u, v, w = rng.sample(names, 3)
            if at[w] < at[u] and (at[u] < at[v] or at[v] < at[w]):
                kept.add((u, v, w))
                arcs.add((w, u))
        out.append(Polygraph.of(names, arcs, kept))
    return out


def four_txn_workloads(count: int, seed: int = 4044, read_write_first: bool = False) -> list[Workload]:
    """Seeded four-transaction workloads of one body operation each (8
    operations, 2,520 orders) over ``OBJECTS``.  Every third one runs at
    least three transactions under SSI, where the enumeration's SSI
    dependences come into play.  One operation per transaction makes each
    transaction act at a single point, so these are all robust; with
    ``read_write_first`` T1 reads one object and then writes one (9
    operations, 7,560 orders) and runs under RC in every other workload,
    which lets lost updates, write skews and dangerous structures arise."""
    rng = random.Random(seed)
    out: list[Workload] = []
    for k in range(count):
        txns = tuple(random_txn(f"T{i + 1}", rng, max_body=1) for i in range(4))
        if read_write_first:
            txns = (shape_txn("T1", (("R", rng.choice(OBJECTS)), ("W", rng.choice(OBJECTS)))),) + txns[1:]
        levels = [rng.choice(LEVELS) for _ in txns]
        if k % 3 == 0:
            for i in rng.sample(range(4), 3):
                levels[i] = SSI
        if read_write_first and k % 2:
            levels[0] = RC
        out.append(Workload(txns, LevelAllocation({t.id: lvl for t, lvl in zip(txns, levels)})))
    return out


_SCHEDULE_OPS = st.sampled_from(["R(x)", "R(y)", "W(x)", "W(y)"])


@st.composite
def valid_schedules(draw, max_n=4):
    """Any interleaving of up to ``max_n`` transactions over x and y, with any
    version order and version function the validity rules allow (reads after
    the transaction's own writes included)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    txns = [
        make_transaction(f"T{i}", " ".join(draw(st.lists(_SCHEDULE_OPS, max_size=3)) + ["C"]))
        for i in range(1, n + 1)
    ]
    left = [list(t.ops) for t in txns]
    ops = []
    while any(left):
        ops.append(left[draw(st.sampled_from([i for i, rest in enumerate(left) if rest]))].pop(0))
    vorder, vf = {}, {}
    for obj in ("x", "y"):
        writes = [op.id for op in ops if op.is_write and op.obj == obj]
        slots = draw(st.permutations(writes))
        # each transaction's writes keep their own order within the drawn slots
        per_txn = {tid: iter([w for w in writes if w.txn == tid]) for tid in {w.txn for w in writes}}
        vorder[obj] = [next(per_txn[w.txn]) for w in slots]
    for k, op in enumerate(ops):
        if op.is_read:
            earlier = [w.id for w in ops[:k] if w.is_write and w.obj == op.obj]
            vf[op.id] = draw(st.sampled_from([INIT] + earlier))
    s = make_schedule(txns, [op.id for op in ops], vorder, vf)
    assert validate_schedule(s) == []
    return s


def _pick(draw, items):
    return draw(st.sampled_from(list(items)))


def _mutate_order(draw, txns, order, vorder, vf):
    kind = draw(st.sampled_from(["duplicate", "unknown", "missing", "init", "inversion"]))
    if kind == "duplicate" and order:
        order.insert(draw(st.integers(0, len(order))), _pick(draw, order))
    elif kind == "unknown":
        order.insert(draw(st.integers(0, len(order))), _pick(draw, [OperationId("T9", 1), OperationId("T1", 9)]))
    elif kind == "missing" and order:
        order.pop(draw(st.integers(0, len(order) - 1)))
    elif kind == "init" and INIT in order:
        order.remove(INIT)
        if draw(st.booleans()):
            order.insert(draw(st.integers(0, len(order))), INIT)
    elif kind == "inversion":
        ids = [op.id for op in _pick(draw, txns).ops if op.id in order]
        if len(ids) > 1:
            a, b = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            i, j = order.index(a), order.index(b)
            order[i], order[j] = order[j], order[i]


def _mutate_vorder(draw, txns, order, vorder, vf):
    if not vorder:
        return
    obj = _pick(draw, sorted(vorder))
    chain = vorder[obj]
    kind = draw(st.sampled_from(["duplicate", "unknown", "missing", "init", "inversion", "drop", "extra"]))
    if kind == "duplicate" and chain:
        chain.insert(draw(st.integers(0, len(chain))), _pick(draw, chain))
    elif kind == "unknown":
        others = [op.id for t in txns for op in t.ops if not (op.is_write and op.obj == obj)]
        chain.insert(draw(st.integers(0, len(chain))), _pick(draw, others + [OperationId("T9", 1)]))
    elif kind == "missing" and len(chain) > 1:
        chain.pop(draw(st.integers(1, len(chain) - 1)))
    elif kind == "init" and INIT in chain:
        chain.remove(INIT)
        if draw(st.booleans()):
            chain.insert(draw(st.integers(0, len(chain))), INIT)
    elif kind == "inversion" and len(chain) > 2:
        i, j = draw(st.lists(st.integers(1, len(chain) - 1), min_size=2, max_size=2, unique=True))
        chain[i], chain[j] = chain[j], chain[i]
    elif kind == "drop":
        del vorder[obj]
    elif kind == "extra":
        vorder["z"] = [INIT] + draw(st.lists(st.sampled_from(chain + [INIT]), max_size=2))


def _mutate_vf(draw, txns, order, vorder, vf):
    ops = [op for t in txns for op in t.ops]
    reads = [op for op in ops if op.is_read]
    kind = draw(st.sampled_from(["unmapped", "non-write", "other-object", "later", "unknown", "extra"]))
    if kind == "extra" or not reads:
        vf[_pick(draw, [op.id for op in ops if not op.is_read] + [OperationId("T9", 1)])] = INIT
        return
    r = _pick(draw, reads)
    if kind == "unmapped":
        vf.pop(r.id, None)
    elif kind == "non-write":
        vf[r.id] = _pick(draw, [op.id for op in ops if not op.is_write])
    elif kind == "other-object":
        vf[r.id] = _pick(draw, [op.id for op in ops if op.is_write and op.obj != r.obj] or [INIT])
    elif kind == "later":
        at = {opid: i for i, opid in enumerate(order)}
        later = [op for op in ops if at.get(op.id, -1) > at.get(r.id, len(order))]
        same = [op.id for op in later if op.is_write and op.obj == r.obj]  # a future version: nothing else is wrong
        vf[r.id] = _pick(draw, same or [op.id for op in later] or [r.id])
    else:
        vf[r.id] = _pick(draw, [OperationId("T9", 1), OperationId(r.id.txn, 9)])


def _mutate_txns(draw, txns, order, vorder, vf):
    i = draw(st.integers(0, len(txns) - 1))
    t = txns[i]
    kind = draw(st.sampled_from(["duplicate", "reversed", "renamed", "commit-first", "emptied"]))
    if kind == "duplicate":
        txns.append(t)  # a second transaction with the same id
    elif kind == "reversed" and len(t.ops) > 1:
        txns[i] = Transaction(t.id, t.ops[::-1])  # commit first, ids out of place
    elif kind == "renamed":
        txns[i] = Transaction(t.id + "x", t.ops)  # every id names another transaction
    elif kind == "commit-first" and len(t.ops) > 1:
        rotated = t.ops[-1:] + t.ops[:-1]  # same ids, the commit moved to the front
        txns[i] = Transaction(t.id, tuple(Operation(a.id, b.action, b.obj) for a, b in zip(t.ops, rotated)))
    elif kind == "emptied":
        txns[i] = Transaction(t.id, ())


@st.composite
def mutated_schedules(draw):
    """A valid schedule after one to three structural edits: ids duplicated,
    unknown or missing in the order or a version order, INIT moved or
    dropped, reads unmapped or mapped to non-writes, other objects, later or
    unknown operations, intra-transaction inversions of either order, and
    defective or duplicated transactions.  Built without normalization, so
    every edit stays visible to :func:`validate_schedule`."""
    s = draw(valid_schedules())
    txns, order = list(s.txns), list(s.order)
    vorder = {obj: list(chain) for obj, chain in s.vorder.items()}
    vf = dict(s.vf)
    edits = (_mutate_order, _mutate_vorder, _mutate_vf, _mutate_txns)
    for edit in draw(st.lists(st.sampled_from(edits), min_size=1, max_size=3)):
        edit(draw, txns, order, vorder, vf)
    return Schedule(tuple(txns), tuple(order), {obj: tuple(c) for obj, c in vorder.items()}, vf)


# node names, some with characters next to the ones the reduction refuses
_NODE_NAMES = ("a", "b", "c", "d", "e", "n1", "x-y", ">z", "w<", "q#2", "é")
# the ones it can encode: version chains split on '<'
_REDUCIBLE_NAMES = tuple(x for x in _NODE_NAMES if "<" not in x)


@st.composite
def polygraphs(draw, max_nodes: int = 5, max_choices: int = 4, reducible: bool = False):
    """Valid polygraphs of up to ``max_nodes`` nodes: any arcs between
    distinct nodes, and choices anchored on arcs; with ``reducible``, only
    node names :func:`mvsched.reduce_to_schedule` can encode."""
    from mvsched import Polygraph

    names = _REDUCIBLE_NAMES if reducible else _NODE_NAMES
    nodes = draw(st.lists(st.sampled_from(names), min_size=1, max_size=max_nodes, unique=True))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    anchored = sorted(c for c in itertools.permutations(nodes, 3) if (c[2], c[0]) in arcs)
    choices = draw(st.lists(st.sampled_from(anchored), max_size=max_choices, unique=True)) if anchored else []
    return Polygraph.of(nodes, arcs, choices)
