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
robust-enum command also runs with ``--method both`` in place of
``--method enumerate``, which reaches the split decider and the check that
both methods agree, and with ``--mode exact-conflict`` or ``--mode
exact-view`` in place of its mode, which sweeps the full transaction set
alone.  Each command runs through ``mvsched.cli.run`` of this tree and of
``BASE_SRC``, each side in its own interpreter, as in the benchmark.  The
reports' ``elapsed_ms`` / ``elapsed-ms`` lines are dropped.  Every command whose exit code or report differs is listed, and the
script exits 1 if there is one.  ``--limit N`` keeps the first N inputs of
each workload's measured and warm-up sets.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(ROOT, "bench")
ELAPSED = re.compile(r'^(\s*"elapsed_ms": .*|elapsed-ms: .*)$\n?', re.MULTILINE)
LIMIT_FLAGS = ["--max-txns", "--max-ops", "--max-orders", "--budget-seconds"]


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


def commands(seed: int, limit: int | None, workdir: str) -> list[tuple[str, list[str]]]:
    """(workload, argv) for every command of the four workloads in every
    shape, ``check-schedule`` on the schedule-check inputs and ``--method
    both`` and the exact modes on the robust-enum ones, JSON and text."""
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
        if name == "robust-enum":
            exact = [[f"exact-{a}" if a in ("conflict", "view") else a for a in argv] for argv in runs]
            runs += [["both" if a == "enumerate" else a for a in argv] for argv in runs] + exact
        for argv in runs:
            out.append((name, argv))
            out.append((name, [a for a in argv if a != "--json"]))
    return out


def child(src: str, argvs_path: str, results_path: str) -> None:
    """Run every argv through ``src``'s ``mvsched.cli.run``; write exit codes and reports."""
    sys.path[:0] = [src, BENCH]
    import decide
    from mvsched import cli

    with open(argvs_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    results = []
    for argv in argvs:
        _, code, report = decide.run_one(cli, argv)
        results.append([str(code), ELAPSED.sub("", report)])
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_side(src: str, argvs_path: str, results_path: str) -> list:
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
        ours = run_side(os.path.join(ROOT, "src"), argvs_path, os.path.join(workdir, "ours.json"))
        theirs = run_side(base, argvs_path, os.path.join(workdir, "base.json"))
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
