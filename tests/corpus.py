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

from mvsched import (
    INIT,
    LevelAllocation,
    Operation,
    OperationId,
    Schedule,
    Transaction,
    Workload,
    make_schedule,
    make_transaction,
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
