"""Check that two source trees print the same CLI reports.

Usage, from the repository root::

    python3 tools/compare_outputs.py BASE_SRC [--seed S] [--limit N]

``BASE_SRC`` is the other tree's ``src`` directory.  The script writes
the inputs of the four benchmark workloads for ``--seed`` with the
benchmark's own ``prepare``, into a temporary directory, and runs every
command the workloads issue on them, measured and warm-up inputs alike,
once with ``--json`` and once as text.  It also runs each of them in two
shapes the benchmark never issues, again with ``--json`` and as text: the
path right after the command words, then the limit flags in reverse
order, then the command's own options; and without the limit flags.  On
the schedule-check inputs it runs ``check-schedule`` too, and each
robust-enum command also runs with ``--method both`` and with ``--method
split`` in place of ``--method enumerate``, which reach the split decider,
the check that both methods agree and the refusal of a predicate
allocation, and with ``--mode exact-conflict`` or ``--mode exact-view`` in
place of its mode, which sweeps the full transaction set
alone; and, as issued, at each ``--max-orders`` of ``TRIP_ORDERS``, where
some stop at the limit and some decide first.  Each robust-enum input also
runs through ``enumerate --count-only``, under the limits as issued and at
each ``TRIP_ORDERS``, and through ``enumerate`` under the limits as issued,
which lists every allowed schedule, so that a change in the order or the
content of the listing shows.  Last come the hand-written
schedule documents of ``DOCUMENTS``, which reach the reader's branches the
generated inputs never do (compact and ambiguous references, comments,
CRLF and CR line endings, a separate workload document, non-ASCII names,
one document per error message, one per shape of operation token the
transaction grammar refuses, one per schedule defect that validation
reports, and SSI schedules with no, one and several dangerous structures):
each runs through ``check-schedule``, ``serializable --mode conflict``,
``serializable --mode view`` and ``allowed``.  Every polygraph-verify
input also runs through ``polygraph acyclic``, which prints the witness's
resolved edges, and so do the polygraph documents of ``POLYGRAPHS``, which
also run through ``polygraph verify``: hand-written ones, and two planted
acyclic ones of 60 and 100 nodes, whose reductions place 220 and 360
transactions, so that a view witness that changes at scale shows.  Both
kinds of polygraph also run through ``polygraph reduce``, whose written
schedule document is compared with its report, and then that document
through ``serializable --mode view``, which prints the view witness and
the orders it accounts for.  The ring workloads of ``RINGS`` (SSI, SI, SI
write-skew and mixed RC/SI/SSI rings of 4, 8 and 40 transactions) run
through ``robust --method split`` in conflict and view mode, so that a
split witness of 40 transactions that changes shows, and those of 4 also
through ``--method both``.  Each command runs through ``mvsched.cli.run`` of this
tree and of ``BASE_SRC``, each side in its own interpreter and working
directory, where ``polygraph reduce`` writes, as in the benchmark.  The
reports' ``elapsed_ms`` / ``elapsed-ms`` lines are dropped.  Every command whose exit code or report differs is listed, and the
script exits 1 if there is one.  ``--limit N`` keeps the first N inputs of
each workload's measured and warm-up sets.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(ROOT, "bench")
ELAPSED = re.compile(r'^(\s*"elapsed_ms": .*|elapsed-ms: .*)$\n?', re.MULTILINE)
LIMIT_FLAGS = ["--max-txns", "--max-ops", "--max-orders", "--budget-seconds"]
#: ``--max-orders`` values at which some robust-enum commands stop at the
#: limit and others decide first, so where each stops is compared too.
TRIP_ORDERS = ("20", "200")

#: A valid schedule document, in compact references, that the error documents edit.
BASE = (
    "txn T1: R(x) W(x) C\ntxn T2: W(x) R(y) C\nalloc T1=SI T2=SI\n"
    "order: R1(x) W2(x) R2(y) C2 W1(x) C1\nreads: R1(x)<-init R2(y)<-init\nvorder x: init<W2(x)<W1(x)\n"
)
BARE = BASE.split("order:")[0]  # the declarations alone
REFS = "txn T1: R(x) R(x) W(x) C\ntxn T2: W(x) C\ntxn A: R(x) C\n"
#: name -> (schedule document, workload document or None); bytes are written as
#: they are, text as UTF-8, and a None schedule is a file that does not exist.
DOCUMENTS = {
    "compact": (BASE, None),
    "positional": (BASE.replace("R1(x)", "T1#1").replace("W2(x)", "T2#1").replace("C1", "T1#3"), None),
    "ambiguous-compact": ("txn T9: R(t) R(t) C\norder: R9(t) T9#2 C9\nreads: R9(t)<-init T9#2<-init\n", None),
    "ambiguous-positional": ("txn T9: R(t) R(t) C\nalloc T9=RC\norder: T9#1 T9#2 C9\nreads: T9#1<-init T9#2<-init\n", None),
    "comments": (
        "#T1#1 a comment\n" + BASE.replace("\n", "  # T1#2 <- and : inside\n").replace("C1 ", "C1\t#")
        + "\t# indented\norder# not a comment\n", None),
    "comments-valid": ("# header\n" + BASE.replace("\n", " # T1#1 tail\n").replace("order:", "\n#\norder:"), None),
    "crlf": (BASE.replace("\n", "\r\n"), None),
    "cr": (BASE.replace("\n", "\r"), None),
    "init-written": (BASE.replace("order: ", "order: init ").replace("vorder x: init<", "vorder x: ") + "vorder y: init\n", None),
    "workload": (BASE.split("alloc T1=SI T2=SI\n")[1], BARE),
    "workload-embedded": (BASE, BARE.replace("SI T2=SI", "RC T2=SSI")),
    "workload-disagrees": (BASE, "txn T1: R(x) C\ntxn T2: W(x) R(y) C\nalloc T1=SI T2=SI\n"),
    "non-ascii": ("txn Tä: R(é) W(é) C\ntxn Ω: W(é) C\nalloc Tä=SI Ω=RC\norder: Tä#1 Ω#1 Ω#2 Tä#2 Tä#3\n"
                  "reads: Tä#1<-init\nvorder é: init<Ω#1<Tä#2\n", None),
    "no-alloc": (BASE.replace("alloc T1=SI T2=SI\n", ""), None),
    "txn-without-colon": (BASE.replace("txn T2:", "txn T2"), None),
    "txn-without-id": (BASE.replace("txn T2:", "txn :"), None),
    "txn-id-with-chain-separator": (BASE.replace("T2", "T<2"), None),
    "bad-operation-token": (BASE.replace("R(y)", "R(y"), None),
    # one per shape of token the transaction grammar refuses, and tabs between tokens
    "empty-object-token": (BASE.replace("R(y) C", "R() C"), None),
    "object-with-chain-separator": (BASE.replace("R(y) C", "W(a<b) C"), None),
    "tokens-without-a-space": (BASE.replace("W(x) R(y) C", "W(x)R(y) C"), None),
    "commit-with-an-object": (BASE.replace("R(y) C", "R(y) C(x)"), None),
    "unknown-action": (BASE.replace("R(y) C", "X(y) R(y) C"), None),
    "tab-inside-a-token": (BASE.replace("R(y) C", "R(y\t) C"), None),
    "tabs-between-tokens": (BASE.replace("txn T1: R(x) W(x) C", "txn T1:\tR(x)\t W(x)\tC"), None),
    "invalid-transaction": (BASE.replace("R(y) C", "R(y)"), None),
    "bad-allocation-token": (BASE.replace("T2=SI", "T2"), None),
    "unknown-level": (BASE.replace("T2=SI", "T2=XX"), None),
    "duplicate-allocation": (BASE.replace("T2=SI", "T1=RC"), None),
    "duplicate-transaction": (BASE.replace("txn T2", "txn T1"), None),
    "predicate-with-levels": (BASE.replace("alloc ", "alloc predicate=view-serializable-only "), None),
    "unknown-predicate": (BASE.replace("alloc T1=SI T2=SI", "alloc predicate=nope"), None),
    "no-transactions": ("alloc T1=SI\norder: init\n", None),
    "duplicate-order": (BASE + "order: init\n", None),
    "bad-read-entry": (BASE.replace("R2(y)<-init", "R2(y)"), None),
    "duplicate-read": (BASE.replace("R2(y)<-init", "R1(x)<-W2(x)"), None),
    "vorder-without-colon": (BASE.replace("vorder x:", "vorder x"), None),
    "duplicate-vorder": (BASE + "vorder x: init\n", None),
    "empty-chain-element": (BASE.replace("init<W2(x)", "init<<W2(x)"), None),
    "unexpected-line": (BASE + "orders: init\n", None),
    "no-order": (BARE, None),
    "invalid-schedule": (BASE.replace("R2(y)<-init", "R2(y)<-W1(x)"), None),
    # one document per schedule-level defect the validation fallback words
    "order-duplicate": (BASE.replace("C2 W1(x)", "C2 R2(y) W1(x)"), None),
    "order-incomplete": (BASE.replace(" C1\n", "\n"), None),
    "chain-incomplete": (BASE.replace("init<W2(x)<W1(x)", "init<W2(x)"), None),
    "read-unmapped": (BASE.replace(" R2(y)<-init", ""), None),
    "read-of-a-read": (BASE.replace("R2(y)<-init", "R2(y)<-R1(x)"), None),
    "read-of-a-commit": (BASE.replace("R2(y)<-init", "R2(y)<-C2"), None),
    "init-not-first": (BASE.replace("order: R1(x) W2(x)", "order: R1(x) init W2(x)"), None),
    "chain-against-transaction-order": (
        "txn T1: W(x) W(x) C\norder: T1#1 T1#2 C1\nvorder x: init<T1#2<T1#1\n", None),
    "order-against-transaction-order": (BASE.replace("order: R1(x) W2(x) R2(y) C2 W1(x)", "order: W1(x) W2(x) R2(y) C2 R1(x)"), None),
    "read-of-another-object": (BASE.replace("R2(y)<-init", "R2(y)<-W2(x)"), None),
    "read-in-a-chain": (BASE + "vorder y: init<R2(y)\n", None),
    "unknown-positional": (REFS + "order: T3#1\n", None),
    "index-out-of-range": (REFS + "order: T1#9\n", None),
    "unknown-commit": (REFS + "order: C7\n", None),
    "unknown-compact": (REFS + "order: R7(x)\n", None),
    "no-match": (REFS + "order: W2(y)\n", None),
    "ambiguous-read": (REFS + "order: R1(x)\n", None),
    "unrecognized": (REFS + "order: Q1\n", None),
    "workload-unexpected-line": (BASE, BARE + "order: init\n"),
    "workload-without-transactions": (BASE, "alloc T1=SI\n"),
    "workload-without-allocation": (BASE, "txn T1: C\n"),
    "workload-allocation-misses": (BASE, BARE.replace(" T2=SI", "")),
    "workload-allocation-extra": (BASE, BARE.replace("T2=SI", "T2=SI T3=RC")),
    "missing-file": (None, None),
    "undecodable": (b"# " + b"x" * 9000 + b"\n\xff\n" + BASE.encode(), None),
    # SSI schedules with no, one and several dangerous structures
    "ssi-no-structure": (
        "txn T1: R(x) W(w) C\ntxn T2: R(y) W(x) C\ntxn T3: W(y) C\nalloc T1=SSI T2=SSI T3=SSI\n"
        "order: R1(x) R2(y) W2(x) C2 W1(w) C1 W3(y) C3\nreads: R1(x)<-init R2(y)<-init\n"
        "vorder w: init<W1(w)\nvorder x: init<W2(x)\nvorder y: init<W3(y)\n", None),
    "ssi-one-structure": (
        "txn T1: R(x) W(y) C\ntxn T2: R(y) W(z) C\ntxn T3: R(z) W(x) C\nalloc T1=SSI T2=SSI T3=SSI\n"
        "order: R1(x) R2(y) R3(z) W1(y) C1 W2(z) C2 W3(x) C3\nreads: R1(x)<-init R2(y)<-init R3(z)<-init\n"
        "vorder x: init<W3(x)\nvorder y: init<W1(y)\nvorder z: init<W2(z)\n", None),
    # the read-only T1 starts between the commits of T4 and T3: only T4 closes a structure
    "ssi-read-only-t1": (
        "txn T1: R(z) C\ntxn T2: R(x) R(y) W(z) C\ntxn T3: W(x) C\ntxn T4: W(y) C\nalloc T1=SSI T2=SSI T3=SSI T4=SSI\n"
        "order: R2(x) R2(y) W4(y) C4 R1(z) W3(x) C3 C1 W2(z) C2\nreads: R1(z)<-init R2(x)<-init R2(y)<-init\n"
        "vorder x: init<W3(x)\nvorder y: init<W4(y)\nvorder z: init<W2(z)\n", None),
    "ssi-several-structures": (
        "txn T1: R(z) W(w) C\ntxn T2: R(x) R(y) W(z) C\ntxn T3: W(x) C\ntxn T4: W(y) C\ntxn T5: R(z) C\n"
        "alloc T1=SSI T2=SSI T3=SSI T4=SSI T5=SSI\n"
        "order: R1(z) R2(x) R2(y) W4(y) C4 R5(z) W3(x) C3 C5 W1(w) C1 W2(z) C2\n"
        "reads: R1(z)<-init R2(x)<-init R2(y)<-init R5(z)<-init\n"
        "vorder w: init<W1(w)\nvorder x: init<W3(x)\nvorder y: init<W4(y)\nvorder z: init<W2(z)\n", None),
    "ssi-six-transactions": (
        "txn T1: R(a) W(b) C\ntxn T2: R(b) R(c) W(a) C\ntxn T3: W(c) C\ntxn T4: R(d) W(e) C\ntxn T5: R(e) W(f) C\n"
        "txn T6: R(f) W(d) C\nalloc T1=SSI T2=SSI T3=SSI T4=SSI T5=SSI T6=SSI\n"
        "order: R1(a) R2(b) R2(c) R4(d) R5(e) R6(f) W3(c) C3 W6(d) C6 W5(f) C5 W1(b) C1 W2(a) C2 W4(e) C4\n"
        "reads: R1(a)<-init R2(b)<-init R2(c)<-init R4(d)<-init R5(e)<-init R6(f)<-init\n"
        "vorder a: init<W2(a)\nvorder b: init<W1(b)\nvorder c: init<W3(c)\nvorder d: init<W6(d)\nvorder e: init<W4(e)\n"
        "vorder f: init<W5(f)\n", None),
}

#: A polygraph whose 30 arcs are acyclic and whose 8 choices close a cycle
#: whichever way they are resolved (``tests/test_cli.py``'s dense polygraph).
DENSE = ("".join(f"node n{k}\n" for k in range(10))
         + "".join(f"arc n{a} n{b}\n" for a, b in "06 09 10 13 14 15 19 26 29 30 36 39 46 49 50 52 54 56 59 70 73 74 76 "
                                                  "80 81 82 83 85 86 89".split())
         + "".join(f"choice n{u} n{v} n{w}\n" for u, v, w in "018 045 063 618 901 935 980 981".split()))


def planted(nodes: int, choices: int, seed: int) -> str:
    """The document of ``planted_polygraphs(1, nodes, choices, seed)`` in
    ``tests/corpus.py``: the forward arcs of a hidden order at density 0.1,
    and choices, each with its arc, that the order resolves."""
    rng = random.Random(seed)
    names = [f"n{k}" for k in range(nodes)]
    order = rng.sample(names, nodes)
    at = {x: k for k, x in enumerate(order)}
    arcs = {(a, b) for a, b in itertools.combinations(order, 2) if rng.random() < 0.1}
    kept: set[tuple[str, str, str]] = set()
    while len(kept) < choices:
        u, v, w = rng.sample(names, 3)
        if at[w] < at[u] and (at[u] < at[v] or at[v] < at[w]):
            kept.add((u, v, w))
            arcs.add((w, u))
    lines = [f"node {x}" for x in sorted(names)] + [f"arc {a} {b}" for a, b in sorted(arcs)]
    return "\n".join(lines + [f"choice {u} {v} {w}" for u, v, w in sorted(kept)]) + "\n"


#: name -> polygraph document, each run through ``polygraph acyclic`` and ``polygraph verify``
POLYGRAPHS = {
    "arc-cycle": "node a b c\narc a b\narc b c\narc c a\n",
    "dense": DENSE,
    # option 0 of the choice is dead at the root
    "second": "node u v w\narc w u\narc v u\nchoice u v w\n",
    # an open choice first, then the second one, which takes option 1
    "later": "node a b c u v w\narc c a\narc w u\narc v u\nchoice a b c\nchoice u v w\n",
    # reductions on which a view search that does not ask the engine for a completion backtracks
    "backtracks": "node n0 n1 n2 n3\narc n0 n2\narc n1 n3\nchoice n2 n3 n0\nchoice n3 n0 n1\n",
    "backtracks-twice": "node n0 n1 n2 n3 n4\narc n2 n0\narc n3 n2\narc n4 n1\nchoice n1 n2 n4\nchoice n2 n4 n3\n",
    "planted-60-80": planted(60, 80, 60),
    "planted-100-130": planted(100, 130, 100),
}


def ring(body: str, levels: str, n: int) -> str:
    """The workload document of ``n`` transactions in a ring: ``Ti`` runs
    ``body`` with ``{i}`` for i and ``{j}`` for its successor i mod n + 1,
    and takes the ``levels`` in turn."""
    lv = levels.split()
    txns = "".join(f"txn T{i}: " + body.format(i=i, j=i % n + 1) + "\n" for i in range(1, n + 1))
    return txns + "alloc " + " ".join(f"T{i}={lv[(i - 1) % len(lv)]}" for i in range(1, n + 1)) + "\n"


#: name -> (body, levels) of the ring workloads of ``RINGS``
RING_FAMILIES = {
    "ssi-ring": ("R(x{i}) W(x{j}) C", "SSI"),  # robust
    "si-ring": ("R(x{i}) W(x{j}) C", "SI"),  # not robust, the whole ring its witness
    "si-write-skew-ring": ("R(x{i}) R(x{j}) W(x{i}) C", "SI"),
    "mixed-ring": ("R(x{i}) W(x{j}) C", "RC SI SSI"),
}
#: name -> ring workload document, each run through ``robust --method split``
#: in both modes, and through ``--method both`` at 4 transactions, where the
#: enumeration is cheap; at 40 the witnesses are long
RINGS = {f"{name}-{n}": ring(*family, n) for name, family in RING_FAMILIES.items() for n in (4, 8, 40)}


def shapes(argv: list[str]) -> list[list[str]]:
    """A benchmark command, ``[*words, *options, "--json", *limits, path]``,
    as issued, reordered and without its limit flags."""
    words = [a for a in argv[:2] if not a.startswith("-")]
    json_at = argv.index("--json")
    options, limits, path = argv[len(words):json_at], argv[json_at + 1:-1], argv[-1]
    assert limits[::2] == LIMIT_FLAGS, argv
    pairs = [limits[i:i + 2] for i in range(0, len(limits), 2)]
    reordered = [*words, path, *(a for pair in reversed(pairs) for a in pair), *options, "--json"]
    return [argv, reordered, [*words, *options, "--json", path]]


def reduce_commands(paths) -> list[list[str]]:
    """``polygraph reduce`` on each polygraph, into a file of the working
    directory named after the polygraph's directory and name, then
    ``serializable --mode view`` on that file."""
    out = []
    for path in paths:
        doc = "-".join(path.split(os.sep)[-2:]) + ".sched"
        out += [["polygraph", "reduce", "-o", doc, "--json", path], ["serializable", "--mode", "view", "--json", doc]]
    return out


def document_commands(workdir: str) -> list[list[str]]:
    """Write ``DOCUMENTS``, ``POLYGRAPHS`` and ``RINGS`` into ``workdir``;
    the four schedule commands on each schedule, the polygraph commands and
    :func:`reduce_commands` on each polygraph, and the robust commands on
    each ring."""
    os.makedirs(workdir)
    out = []
    for name, (schedule, workload) in DOCUMENTS.items():
        paths = []
        for text, suffix in ((schedule, "sched"), (workload, "wl")):
            paths.append(os.path.join(workdir, f"{name}.{suffix}"))
            if text is not None:
                with open(paths[-1], "wb") as fh:
                    fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        extra = ["--workload", paths[1]] if workload is not None else []
        for words in (["check-schedule"], ["serializable", "--mode", "conflict"], ["serializable", "--mode", "view"], ["allowed"]):
            out.append([*words, "--json", paths[0], *extra])
    for name, text in POLYGRAPHS.items():
        path = os.path.join(workdir, f"{name}.poly")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out += [["polygraph", "acyclic", "--json", path], ["polygraph", "verify", "--json", path]]
    for name, text in RINGS.items():
        path = os.path.join(workdir, f"{name}.wl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        methods = ("split", "both") if name.endswith("-4") else ("split",)
        out += [["robust", "--mode", mode, "--method", m, "--json", path] for m in methods for mode in ("conflict", "view")]
    return out + reduce_commands(os.path.join(workdir, f"{name}.poly") for name in POLYGRAPHS)


def commands(seed: int, limit: int | None, workdir: str) -> list[tuple[str, list[str]]]:
    """(workload, argv) for every command of the four workloads in every
    shape, ``check-schedule`` on the schedule-check inputs, ``polygraph
    acyclic`` and :func:`reduce_commands` on the polygraph-verify ones, and ``--method both``,
    ``--method split``, the exact modes, ``TRIP_ORDERS``, ``enumerate --count-only`` and ``enumerate`` on
    the robust-enum ones, then the commands on ``DOCUMENTS``, ``POLYGRAPHS`` and ``RINGS`` (under
    the name ``documents``), JSON and text."""
    sys.path.insert(0, BENCH)
    from run import WORKLOADS, prepare

    out = []
    for name, w in sorted(WORKLOADS.items()):
        _, _, _, argvs, warmup = prepare(w, seed, os.path.join(workdir, name))
        n = None if limit is None else limit * len(w.commands)
        runs = [shaped for argv in argvs[:n] + warmup[:n] for shaped in shapes(argv)]
        if name == "schedule-check":
            inputs = sorted({argv[-1] for argv in argvs[:n] + warmup[:n]})
            runs += [["check-schedule", "--json", path] for path in inputs]
        if name == "polygraph-verify":
            runs += [[*argv[:1], "acyclic", *argv[2:]] for argv in argvs[:n] + warmup[:n]]
            runs += reduce_commands(argv[-1] for argv in argvs[:n] + warmup[:n])
        if name == "robust-enum":
            exact = [[f"exact-{a}" if a in ("conflict", "view") else a for a in argv] for argv in runs]
            methods = [[m if a == "enumerate" else a for a in argv] for m in ("both", "split") for argv in runs]
            runs += methods + exact
            for orders in TRIP_ORDERS:
                for argv in argvs[:n] + warmup[:n]:
                    at = argv.index("--max-orders") + 1
                    runs.append([*argv[:at], orders, *argv[at + 1:]])
            for path, argv in {argv[-1]: argv for argv in argvs[:n] + warmup[:n]}.items():
                limits = argv[argv.index("--json") + 1:-1]
                at = limits.index("--max-orders") + 1
                for orders in (limits[at], *TRIP_ORDERS):
                    runs.append(["enumerate", "--count-only", "--json", *limits[:at], orders, *limits[at + 1:], path])
                runs.append(["enumerate", "--json", *limits, path])
        out += [(name, argv) for argv in runs]
    out += [("documents", argv) for argv in document_commands(os.path.join(workdir, "documents"))]
    return [run for name, argv in out for run in ((name, argv), (name, [a for a in argv if a != "--json"]))]


def child(src: str, argvs_path: str, results_path: str) -> None:
    """Run every argv through ``src``'s ``mvsched.cli.run`` in the directory
    of ``results_path``; write exit codes and reports, each report of
    ``polygraph reduce`` followed by the document it wrote."""
    sys.path[:0] = [src, BENCH]
    os.chdir(os.path.dirname(results_path))
    import decide
    from mvsched import cli

    with open(argvs_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        _, code, report = decide.run_one(cli, argv)
        written = argv[argv.index("-o") + 1] if "-o" in argv else None
        if written and os.path.exists(written):
            with open(written, encoding="utf-8", newline="") as fh:
                report += fh.read()
        results.append([str(code), ELAPSED.sub("", report)])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_side(src: str, argvs_path: str, results_path: str) -> list:
    os.makedirs(os.path.dirname(results_path))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child", src, argvs_path, results_path], check=True)
    with open(results_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    base = os.path.abspath(args.base_src)
    if not os.path.isfile(os.path.join(base, "mvsched", "__init__.py")):
        parser.error(f"no mvsched package in {args.base_src!r}")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as workdir:
        runs = commands(args.seed, args.limit, workdir)
        argvs_path = os.path.join(workdir, "argvs.json")
        with open(argvs_path, "w", encoding="utf-8") as fh:
            json.dump([argv for _, argv in runs], fh)
        ours = run_side(os.path.join(ROOT, "src"), argvs_path, os.path.join(workdir, "ours", "results.json"))
        theirs = run_side(base, argvs_path, os.path.join(workdir, "base", "results.json"))
    differ = [(run, a, b) for run, a, b in zip(runs, ours, theirs) if a != b]
    for (name, argv), (code, report), (base_code, base_report) in differ:
        print(f"DIFFERS {name}: {' '.join(argv)}")
        print(f"  exit {code} here, {base_code} in {base}")
        here, there = report.splitlines(), base_report.splitlines()
        first = next((i for i, (x, y) in enumerate(zip(here, there)) if x != y), min(len(here), len(there)))
        print(f"  first differing line {first + 1}: {here[first:first + 1]} here, {there[first:first + 1]} there")
    workloads = sorted({name for name, _ in runs})
    print(f"{len(runs)} runs ({', '.join(workloads)}; seed {args.seed}, JSON and text): "
          f"{len(differ)} differ from {base}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
