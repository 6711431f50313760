"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over tuples and strings: it does not import
``mvsched``, so the inputs cannot inherit a defect of the program under test.
Transactions never read an object after writing it, like the test corpora.

A transaction is ``(tid, body)`` where ``body`` is a tuple of ``(action,
object)`` pairs with action ``"R"`` or ``"W"``; the commit is implicit and
comes last.  An operation id is ``(tid, index)`` with 1-based ``index``, the
commit having index ``len(body) + 1``.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass

LEVELS = ("RC", "SI", "SSI")
PREDICATE = "view-serializable-only"
INIT = ("", 0)


def reads_own_write(body) -> bool:
    written = set()
    for action, obj in body:
        if action == "R" and obj in written:
            return True
        if action == "W":
            written.add(obj)
    return False


def random_body(rng: random.Random, objects, lo: int, hi: int):
    while True:
        body = tuple((rng.choice("RW"), rng.choice(objects)) for _ in range(rng.randint(lo, hi)))
        if not reads_own_write(body):
            return body


def op_ids(txn):
    tid, body = txn
    return [(tid, k) for k in range(1, len(body) + 2)]


def ref(opid) -> str:
    return "init" if opid == INIT else f"{opid[0]}#{opid[1]}"


def txn_line(txn) -> str:
    tid, body = txn
    return f"txn {tid}: " + " ".join([f"{a}({o})" for a, o in body] + ["C"])


def alloc_line(alloc) -> str:
    if alloc == PREDICATE:
        return f"alloc predicate={PREDICATE}"
    return "alloc " + " ".join(f"{tid}={lvl}" for tid, lvl in sorted(alloc.items()))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadInput:
    txns: tuple
    alloc: object  # {tid: level} or PREDICATE
    kind: str  # "random", "predicate" or "family"

    def text(self) -> str:
        return "\n".join([txn_line(t) for t in self.txns] + [alloc_line(self.alloc)]) + "\n"


def random_level_workload(rng: random.Random, sizes, objects) -> WorkloadInput:
    """One transaction per entry of ``sizes``, each with that many body operations."""
    txns = tuple((f"T{i + 1}", random_body(rng, objects, k, k)) for i, k in enumerate(sizes))
    return WorkloadInput(txns, {tid: rng.choice(LEVELS) for tid, _ in txns}, "random")


def si_family(n: int) -> WorkloadInput:
    """``Ti: R(a) W(bi) C`` under SI: robust by construction, since nobody
    writes ``a`` and nobody else touches ``bi``, so no two transactions
    conflict.  The split search still tries every candidate."""
    txns = tuple((f"T{i}", (("R", "a"), ("W", f"b{i}"))) for i in range(1, n + 1))
    return WorkloadInput(txns, {tid: "SI" for tid, _ in txns}, "family")


#: Body lengths per transaction.  Slots cycle through the list, so every
#: seed gets the same mix of shapes and only their contents vary; ``None``
#: marks a two-transaction view-serializable-only workload.  The shapes come
#: in the proportions of drawing 2 or 3 transactions with 1 or 2 body
#: operations each, except that the slot of three two-operation bodies goes
#: to one more ``(1, 2, 2)``: only about one such workload in five is robust,
#: and a robust one costs about three times as much as any other shape, so
#: the handful a seed draws would decide the tail.
ENUM_PROFILES = (
    ((1, 1),) * 2 + ((1, 2),) * 4 + ((2, 2),) * 2
    + ((1, 1, 1),) + ((1, 1, 2),) * 3 + ((1, 2, 2),) * 4
    + (None,)
)


def balanced(rng: random.Random, options, count: int) -> list:
    """``count`` picks from ``options``: whole shuffled passes over them, then
    part of one more, so every option is picked equally often give or take one."""
    options, picks = list(options), []
    while len(picks) < count:
        one_pass = list(options)
        rng.shuffle(one_pass)
        picks += one_pass
    return picks[:count]


def conflict_class(txns) -> tuple[int, int]:
    """Pairs of operations of different transactions on one object: those
    with a write, and those with two writes."""
    ops = [(tid, a, o) for tid, body in txns for a, o in body]
    conflicts = writes = 0
    for (t1, a1, o1), (t2, a2, o2) in itertools.combinations(ops, 2):
        if t1 != t2 and o1 == o2 and "W" in (a1, a2):
            conflicts += 1
            writes += a1 == a2 == "W"
    return conflicts, writes


@functools.lru_cache(maxsize=None)
def class_counts(sizes, objects) -> Counter:
    """How many choices of bodies with these sizes fall in each conflict
    class.  :func:`random_body` draws each body uniformly from the bodies
    that do not read an object after writing it, so these are the class
    frequencies of independently drawn workloads."""
    bodies = [
        [b for b in itertools.product(itertools.product("RW", objects), repeat=k) if not reads_own_write(b)]
        for k in sizes
    ]
    return Counter(
        conflict_class(tuple((f"T{i + 1}", b) for i, b in enumerate(combo))) for combo in itertools.product(*bodies)
    )


def quotas(counts: Counter, count: int, rng: random.Random) -> list:
    """``count`` classes in proportion to ``counts`` (largest remainder
    first), in random order."""
    total = sum(counts.values())
    exact = {c: count * k / total for c, k in counts.items()}
    whole = {c: int(x) for c, x in exact.items()}
    for c in sorted(exact, key=lambda c: (whole[c] - exact[c], c))[: count - sum(whole.values())]:
        whole[c] += 1
    picks = [c for c in sorted(whole) for _ in range(whole[c])]
    rng.shuffle(picks)
    return picks


def robust_enum_inputs(rng: random.Random, count: int) -> list[WorkloadInput]:
    """Workloads over two objects with mixed levels, shaped by ``ENUM_PROFILES``.

    Per shape, the conflict classes (:func:`conflict_class`) and the level
    allocations are drawn in fixed proportions rather than independently,
    and the bodies are drawn until they match their class.  A three-
    transaction workload without two writes on one object takes two to three
    times as long as one with them, and conflicts decide how many are
    robust, which exhausts the search; drawn independently, their number
    per seed moved the tail by a fifth."""
    shapes = [ENUM_PROFILES[i % len(ENUM_PROFILES)] for i in range(count)]
    draws = {}
    for sizes in dict.fromkeys(s for s in shapes if s is not None):
        m = shapes.count(sizes)
        classes = quotas(class_counts(sizes, ("x", "y")), m, rng)
        allocs = balanced(rng, itertools.product(LEVELS, repeat=len(sizes)), m)
        draws[sizes] = iter(zip(classes, allocs))
    out = []
    for sizes in shapes:
        if sizes is None:
            txns = tuple((f"T{k + 1}", random_body(rng, ("x", "y"), 1, 2)) for k in range(2))
            out.append(WorkloadInput(txns, PREDICATE, "predicate"))
            continue
        wanted, levels = next(draws[sizes])
        while True:
            txns = tuple((f"T{k + 1}", random_body(rng, ("x", "y"), size, size)) for k, size in enumerate(sizes))
            if conflict_class(txns) == wanted:
                break
        out.append(WorkloadInput(txns, {tid: lvl for (tid, _), lvl in zip(txns, levels)}, "random"))
    return out


#: Transactions per random robust-split workload, cycled.  Three-transaction
#: workloads are the bulk, so the median decision sits among the cheap,
#: evenly priced ones rather than on the steep rise in cost with size.
SPLIT_SIZES = (3, 4, 3, 5, 3)


def robust_split_inputs(rng: random.Random, count: int, family=(4, 5, 6)) -> list[WorkloadInput]:
    """Random workloads of ``SPLIT_SIZES`` transactions with one or two body
    operations (alternating) over three objects and mixed levels, plus the
    robust SI family at the given sizes.  Random six-transaction workloads
    are left out: a robust one exhausts the split search for about 0.5 s and
    a non-robust one stops early, so their number per seed would swing the
    total far more than the rest of the set does."""
    out = []
    for i in range(count):
        n = SPLIT_SIZES[i % len(SPLIT_SIZES)]
        out.append(random_level_workload(rng, [1 + (i + k) % 2 for k in range(n)], ("x", "y", "z")))
    out += [si_family(n) for n in family]
    return out


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleInput:
    txns: tuple
    alloc: dict
    order: tuple  # operation ids, INIT excluded
    vorder: dict  # object -> tuple of write ids, INIT excluded
    vf: dict  # read id -> write id or INIT
    engine: bool  # version data as an RC/SI engine installs it

    def text(self) -> str:
        lines = [txn_line(t) for t in self.txns] + [alloc_line(self.alloc)]
        lines.append("order: " + " ".join(ref(o) for o in self.order))
        if self.vf:
            lines.append("reads: " + " ".join(f"{ref(r)}<-{ref(w)}" for r, w in sorted(self.vf.items())))
        for obj in sorted(self.vorder):
            lines.append(f"vorder {obj}: " + "<".join(["init"] + [ref(w) for w in self.vorder[obj]]))
        return "\n".join(lines) + "\n"


def random_interleaving(rng: random.Random, txns) -> tuple:
    """Uniformly random merge of the transactions' operation sequences."""
    queues = [op_ids(t) for t in txns]
    idx = [0] * len(queues)
    order = []
    remaining = sum(len(q) for q in queues)
    while remaining:
        pick = rng.randrange(remaining)
        for i, q in enumerate(queues):
            left = len(q) - idx[i]
            if pick < left:
                order.append(q[idx[i]])
                idx[i] += 1
                break
            pick -= left
        remaining -= 1
    return tuple(order)


def engine_version_data(txns, levels, order):
    """Versions install in commit order; each read observes the last version
    committed before the read (RC) or before its transaction's first
    operation (SI, SSI)."""
    pos = {o: i for i, o in enumerate(order)}
    commit = {tid: pos[(tid, len(body) + 1)] for tid, body in txns}
    writes: dict[str, list] = {}
    for tid, body in txns:
        for k, (a, o) in enumerate(body, start=1):
            if a == "W":
                writes.setdefault(o, []).append((tid, k))
    vorder = {o: tuple(sorted(ws, key=lambda w: (commit[w[0]], w[1]))) for o, ws in writes.items()}
    vf = {}
    for tid, body in txns:
        for k, (a, o) in enumerate(body, start=1):
            if a != "R":
                continue
            rel = pos[(tid, k)] if levels[tid] == "RC" else pos[(tid, 1)]
            seen = INIT
            for w in vorder.get(o, ()):
                if commit[w[0]] < rel:
                    seen = w
            vf[(tid, k)] = seen
    return vorder, vf


def arbitrary_version_data(rng: random.Random, txns, order):
    """Any valid version data: per object a random installation order that
    keeps one transaction's writes in its own order, and each read observes
    INIT or a write on its object placed before it."""
    pos = {o: i for i, o in enumerate(order)}
    writes: dict[str, list] = {}
    for tid, body in txns:
        for k, (a, o) in enumerate(body, start=1):
            if a == "W":
                writes.setdefault(o, []).append((tid, k))
    vorder = {}
    for o, ws in writes.items():
        slots = [w[0] for w in ws]
        rng.shuffle(slots)
        per_txn = {tid: iter([w for w in ws if w[0] == tid]) for tid in set(slots)}
        vorder[o] = tuple(next(per_txn[tid]) for tid in slots)
    vf = {}
    for tid, body in txns:
        for k, (a, o) in enumerate(body, start=1):
            if a == "R":
                options = [INIT] + [w for w in writes.get(o, ()) if pos[w] < pos[(tid, k)]]
                vf[(tid, k)] = rng.choice(options)
    return vorder, vf


def random_schedule(rng: random.Random, n: int, engine: bool) -> ScheduleInput:
    """``n`` transactions with 1-3 body operations over three objects."""
    txns = tuple((f"T{i + 1}", random_body(rng, ("x", "y", "z"), 1, 3)) for i in range(n))
    levels = {tid: rng.choice(LEVELS) for tid, _ in txns}
    order = random_interleaving(rng, txns)
    if engine:
        vorder, vf = engine_version_data(txns, levels, order)
    else:
        vorder, vf = arbitrary_version_data(rng, txns, order)
    return ScheduleInput(txns, levels, order, vorder, vf, engine)


def schedule_inputs(rng: random.Random, count: int) -> list[ScheduleInput]:
    """3-6 transactions, alternating engine and arbitrary version data."""
    return [random_schedule(rng, 3 + (i // 2) % 4, engine=i % 2 == 0) for i in range(count)]


# ---------------------------------------------------------------------------
# Polygraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolygraphInput:
    nodes: tuple
    arcs: tuple
    choices: tuple

    def text(self) -> str:
        lines = [f"node {n}" for n in self.nodes]
        lines += [f"arc {a} {b}" for a, b in self.arcs]
        lines += [f"choice {u} {v} {w}" for u, v, w in self.choices]
        return "\n".join(lines) + "\n"


def random_polygraph(rng: random.Random, n: int, choices: int) -> PolygraphInput | None:
    """``n`` nodes, ``n * (n - 1) // 3`` random arcs, and ``choices`` random
    choices anchored on the arcs; None when the arcs anchor too few."""
    nodes = tuple(f"n{k}" for k in range(n))
    arcs = tuple(sorted(rng.sample(list(itertools.permutations(nodes, 2)), n * (n - 1) // 3)))
    arc_set = set(arcs)
    candidates = [c for c in itertools.permutations(nodes, 3) if (c[2], c[0]) in arc_set]
    if len(candidates) < choices:
        return None
    return PolygraphInput(nodes, arcs, tuple(sorted(rng.sample(candidates, choices))))


#: (nodes, choices, acyclic) per slot.  Cost grows steeply with the number of
#: choices and is far higher for cyclic polygraphs, whose reduced schedules
#: exhaust the view search, so every seed gets the same count of each kind.
#: The view search on an acyclic polygraph stops at the first witness it
#: meets, so with four choices its cost swings tenfold between polygraphs of
#: one shape; acyclic slots stop at three choices.  Three nodes admit no
#: acyclic polygraph with three or more choices.
POLYGRAPH_SLOTS = tuple(
    (n, c, acyclic)
    for n in range(3, 7)
    for acyclic in (False, True)
    for c in range(3 if n == 3 else 4 if acyclic else 5)
)


#: Polygraphs per slot in the measured set, three unless named here.  The
#: metrics read order statistics of this set, which only hold still when
#: they fall in the middle of many polygraphs of one shape whose costs vary
#: little.  Cyclic polygraphs exhaust the view search, so theirs vary least
#: (a quarter around the median with four choices, a tenth with one or two);
#: acyclic ones stop at the first witness and vary most.  So the thirty
#: cyclic ones with four nodes and four choices hold the tail percentile,
#: the thirty cyclic ones with ``(6, 1)`` and ``(4, 2)`` hold the median,
#: and the largest shapes, whose cost grows steeply, stay at small counts.
POLYGRAPH_COUNTS = {
    (6, 4, False): 1, (5, 4, False): 2, (4, 4, False): 30, (6, 3, False): 6, (5, 3, False): 8,
    (5, 1, False): 5, (6, 1, False): 15, (4, 2, False): 15,
    (4, 2, True): 5, (4, 3, True): 5, (5, 2, True): 5, (5, 3, True): 5, (6, 2, True): 5, (6, 3, True): 5,
}


def polygraph_slots() -> list[tuple]:
    """Slots in passes over ``POLYGRAPH_SLOTS``: pass ``j`` holds every slot
    with more than ``j`` polygraphs, so each prefix mixes the shapes."""
    counts = [POLYGRAPH_COUNTS.get(slot, 3) for slot in POLYGRAPH_SLOTS]
    return [slot for j in range(max(counts)) for slot, k in zip(POLYGRAPH_SLOTS, counts) if j < k]


def polygraph_inputs(rng: random.Random, count: int, acyclic) -> list[PolygraphInput]:
    """Polygraphs drawn until each matches its slot, for the first ``count``
    of :func:`polygraph_slots`; ``acyclic`` decides a polygraph's acyclicity."""
    out = []
    for n, c, want in polygraph_slots()[:count]:
        while True:
            p = random_polygraph(rng, n, c)
            if p is not None and acyclic(p) == want:
                out.append(p)
                break
    return out
