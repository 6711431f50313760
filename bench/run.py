"""The mvsched benchmark: time to a verdict, with every verdict checked.

Usage, from the repository root::

    python3 bench/run.py --workload robust-enum --seed 1 --seconds 20 --trace 0

One client drives ``mvsched.cli.run`` in a fresh interpreter, one command at
a time (a closed loop): each command is one decision on an input file that
this script generates from ``--seed``.  The fixed input set of the workload
runs in rounds until ``--seconds`` are used (at least three rounds), and a
decision's time is its median over the rounds.  Every decision starts with
an empty serial-signature cache, as in a fresh CLI process.

A call's time is the CPU time the process spends in it, not wall time (see
``decide.run_one``), and timings are reported at a reference CPU speed.  The
CPU speed of a shared host drifts by a third and more over minutes, which no
length of run averages out.  So between calls, after every 100 ms of them,
the benchmark times a fixed piece of pure-Python work from its own code
(``decide.reference_work``), and scales each call's time by ``REFERENCE_S``
over the median of that work's times nearest the call.  The
unscaled figures are printed on the report lines.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each command runs untraced and
traced, back to back, and the line carries the per-layer metrics instead.  After the measured loop every
verdict is checked (see ``check.py``); the script exits 1 when a check fails,
and 2 when there is no ``src/mvsched`` to measure.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import check
import gen
import oracle
from tracing import SELF_TIME_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
#: Median seconds of ``decide.reference_work`` on the 2-core machine the
#: bounds were set on; timings are reported at the CPU speed this implies.
REFERENCE_S = 4.0e-3
#: Timings of the reference work, nearest a call, that give the CPU speed at
#: that call.
SPEED_WINDOW = 15
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    measured: Callable  # rng -> inputs of the fixed set
    warmup: Callable  # rng -> inputs for the warm-up
    commands: tuple  # (kind, argv before the limit flags)
    limits: tuple  # max txns, max ops, max orders, budget seconds
    check: Callable


ROBUST = ("robust", "--mode")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "robust-enum",
            lambda rng: gen.robust_enum_inputs(rng, 300),
            lambda rng: gen.robust_enum_inputs(rng, 17),
            (
                ("conflict", ROBUST + ("conflict", "--method", "enumerate")),
                ("view", ROBUST + ("view", "--method", "enumerate")),
            ),
            (3, 9, 1_000_000, 60.0),
            check.check_robust_enum,
        ),
        Workload(
            "robust-split",
            lambda rng: gen.robust_split_inputs(rng, 285),
            lambda rng: gen.robust_split_inputs(rng, 5, family=()),
            (("split", ROBUST + ("conflict", "--method", "split")),),
            (6, 18, 1_000_000, 60.0),
            check.check_robust_split,
        ),
        Workload(
            "schedule-check",
            lambda rng: gen.schedule_inputs(rng, 560),
            lambda rng: gen.schedule_inputs(rng, 8),
            (
                ("conflict", ("serializable", "--mode", "conflict")),
                ("view", ("serializable", "--mode", "view")),
                ("allowed", ("allowed",)),
            ),
            (6, 24, 1_000_000, 60.0),
            check.check_schedules,
        ),
        Workload(
            "polygraph-verify",
            lambda rng: gen.polygraph_inputs(rng, len(gen.polygraph_slots()), oracle.polygraph_acyclic),
            lambda rng: gen.polygraph_inputs(rng, 12, oracle.polygraph_acyclic),
            (("verify", ("polygraph", "verify")),),
            (14, 128, 1_000_000, 60.0),
            check.check_polygraphs,
        ),
    )
}

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


def write_inputs(w: Workload, inputs, directory: str):
    """Write one file per input and list the decisions on them: (paths, rows
    of (input index, command kind), argv per decision)."""
    os.makedirs(directory)
    max_txns, max_ops, max_orders, budget = w.limits
    flags = ["--json", "--max-txns", str(max_txns), "--max-ops", str(max_ops)]
    flags += ["--max-orders", str(max_orders), "--budget-seconds", str(budget)]
    paths, rows, argvs = [], [], []
    for i, item in enumerate(inputs):
        path = os.path.join(directory, f"{i:04d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(item.text())
        paths.append(path)
        for kind, argv in w.commands:
            rows.append((i, kind))
            argvs.append([*argv, *flags, path])
    return paths, rows, argvs


def prepare(w: Workload, seed: int, workdir: str):
    """Fresh work directory with the measured and the warm-up input files.
    Returns the measured inputs, their paths, rows and commands, and the
    warm-up commands."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs = w.measured(random.Random(f"{w.name}/{seed}"))
    paths, rows, argvs = write_inputs(w, inputs, os.path.join(workdir, "inputs"))
    warmup = w.warmup(random.Random(f"{w.name}/{seed}/warmup"))
    _, _, warmup_argvs = write_inputs(w, warmup, os.path.join(workdir, "warmup"))
    return inputs, paths, rows, argvs, warmup_argvs


def run_child(workdir: str, manifest: dict) -> dict:
    """Run decide.py on the manifest; its results, with the CPU seconds from
    starting the interpreter to the end of its warm-up."""
    manifest_path = os.path.join(workdir, "manifest.json")
    results_path = os.path.join(workdir, "results.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "decide.py"), manifest_path, results_path],
        cwd=ROOT,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)
    results["child_setup_s"] = results["ready_cpu"]
    return results


#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail(values: list[float], n: int) -> tuple[float, float]:
    """The highest of ``TAIL_PERCENTILES`` with at least ten of ``n``
    samples beyond it, and its value in the sorted ``values``."""
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, values[min(len(values) - 1, int(len(values) * pct / 100.0))]


def at_reference_speed(times, reference) -> list[list[float]]:
    """``times[i][r]``, the time of decision ``i`` in round ``r``, scaled to
    the reference CPU speed: multiplied by ``REFERENCE_S`` over the median
    of the ``SPEED_WINDOW`` timings of the reference work nearest the call.
    ``reference`` holds ``(calls made before it, seconds)`` pairs, and the
    calls go round by round."""
    positions = [calls for calls, _ in reference]
    seconds = [s for _, s in reference]
    span = min(SPEED_WINDOW, len(seconds))
    out = [list(per_decision) for per_decision in times]
    for r in range(len(times[0])):
        for i in range(len(times)):
            after = bisect.bisect_right(positions, r * len(times) + i)
            lo = min(max(0, after - span // 2), len(seconds) - span)
            out[i][r] *= REFERENCE_S / statistics.median(seconds[lo : lo + span])
    return out


def decision_times(times) -> list[float]:
    """Each decision's median time over the rounds, sorted.  A pause that
    hits one call (a collection, the host) does not move the median."""
    return sorted(statistics.median(per_decision) for per_decision in times)


def end_to_end(results: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """Timings of the decisions at the reference speed."""
    scaled = decision_times(at_reference_speed(results["times"], results["reference"]))
    raw = decision_times(results["times"])
    n = len(scaled)
    pct, tail_s = tail(scaled, n)
    metrics = {
        "decisions_per_s": n / sum(scaled),
        "decision_p50_ms": 1000.0 * statistics.median(scaled),
        "decision_tail_ms": 1000.0 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": results["maxrss_kib"] / 1024.0,
    }
    speed = REFERENCE_S / statistics.median(s for _, s in results["reference"])
    notes = [
        f"a decision's time is its median over {results['rounds']} rounds; "
        f"decision_tail_ms is p{pct:g} of {n} decisions",
        f"host speed {speed:.3f} x reference; unscaled: {n / sum(raw):.4f} decisions/s, "
        f"p50 {1000.0 * statistics.median(raw):.4f} ms, tail {1000.0 * tail(raw, n)[1]:.4f} ms",
        f"setup_s is the median of {len(setup)} set-ups: " + ", ".join(f"{s:.3f}" for s in setup),
    ]
    return metrics, notes


def per_layer(results: dict) -> tuple[dict, list[str]]:
    layers = results["layers"]
    metrics = dict(layers[-1])  # counts repeat exactly between traced rounds
    n = len(results["times"])
    for r, layer in enumerate(layers):
        in_round = [s for calls, s in results["reference"] if r * n < calls <= (r + 1) * n]
        speed = REFERENCE_S / statistics.median(in_round or [s for _, s in results["reference"]])
        for name in SELF_TIME_METRICS:
            layer[name] *= speed
    for name in SELF_TIME_METRICS:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    untraced = sum(map(sum, results["times"]))
    traced = sum(map(sum, results["traced_times"]))
    metrics["trace.overhead_ratio"] = untraced / traced
    total = sum(metrics[name] for name in SELF_TIME_METRICS)
    shares = sorted(((metrics[name] / total, name) for name in SELF_TIME_METRICS), reverse=True)
    notes = [
        f"layer times are self times per round at the reference speed, median of {len(layers)} traced round(s)",
        "largest self-time shares: " + ", ".join(f"{name} {share:.1%}" for share, name in shares[:4]),
        f"trace.overhead_ratio = untraced {untraced:.3f} s / traced {traced:.3f} s, "
        "each command run untraced and traced back to back",
    ]
    if results["missing_boundaries"]:
        notes.append("boundaries not found, so not traced: " + ", ".join(results["missing_boundaries"]))
    return metrics, notes


def check_results(w: Workload, cli, inputs, paths, rows, results: dict, scratch: str) -> check.Checker:
    """Every check of the run: the workload's verdict checks, and the same
    outcome in every round."""
    from mvsched import SearchLimits

    ck = check.Checker(cli, paths, rows, scratch)
    os.makedirs(scratch, exist_ok=True)
    for d, seen in enumerate(results["digests"]):
        if len(set(seen)) > 1:
            ck.fail(d, "outcome differs between runs")
    w.check(ck, inputs, results["codes"], results["reports"], SearchLimits(*w.limits))
    return ck


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mvsched", "__init__.py")):
        print(f"no mvsched sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, w.name)

    started_run = time.perf_counter()
    setup = []
    for rep in range(SETUP_REPEATS):
        started = time.process_time()
        inputs, paths, rows, commands, warmup = prepare(w, args.seed, workdir)
        generated = time.process_time() - started
        last = rep == SETUP_REPEATS - 1
        manifest = {
            "src": SRC,
            "warmup": warmup,
            "commands": commands,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "setup_only": not last,
            "spans": os.path.join(workdir, "spans.jsonl"),
        }
        results = run_child(workdir, manifest)
        speed = REFERENCE_S / statistics.median(results["setup_reference"])
        setup.append((generated + results["child_setup_s"]) * speed)

    sys.path.insert(0, SRC)
    from mvsched import cli

    checking = time.perf_counter()
    ck = check_results(w, cli, inputs, paths, rows, results, os.path.join(workdir, "recheck"))
    checked = time.perf_counter()

    runs = results["rounds"] * (2 if args.trace else 1)
    attempted = len(commands) * runs
    failed = len(ck.failures) * runs
    if args.trace:
        metrics, notes = per_layer(results)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, notes = end_to_end(results, setup)
        units = END_TO_END_UNITS
    print(f"workload {w.name}, seed {args.seed}: {len(commands)} decisions on {len(inputs)} inputs per round, "
          f"{results['rounds']} round(s), one closed-loop client")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  {'failed_share':36s} {failed / attempted:14.6f} ratio ({failed} of {attempted} decisions)")
    notes.append(f"set-up and measuring took {checking - started_run:.1f} s, checking {checked - checking:.1f} s")
    for note in notes:
        print(f"  {note}")
    for d in sorted(ck.failures):
        for message in ck.failures[d]:
            print(f"  FAILED {message}")
    result = {
        "correct": not ck.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not ck.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
