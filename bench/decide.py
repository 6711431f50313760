"""Runs the decisions of one benchmark run in a fresh interpreter.

Usage: ``python3 decide.py MANIFEST RESULTS``.  The manifest (JSON, written
by ``run.py``) names the ``src`` directory to import ``mvsched`` from, the
warm-up commands, the measured commands, the measuring time and whether to
trace.  The results file gets, per measured command, its exit code and
report from the first round, a digest of every run's outcome, its time in
every round, untraced and (with tracing) traced; the times of the reference
work, taken between calls, each with the number of calls made before it;
the per-layer metrics of each traced round; and the process's peak resident
set size.

Each command is one closed-loop call of ``mvsched.cli.run``: one thread, and
the next call starts only when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import resource
import sys
import time

import gen
import oracle
import tracing

_ELAPSED = re.compile(r'\n\s*"elapsed_ms": [^\n]*')


def outcome_digest(code, out: str) -> str:
    """Digest of an exit code and a report, ignoring the report's own timing."""
    return hashlib.sha1(f"{code}\n{_ELAPSED.sub('', out)}".encode()).hexdigest()


#: The input of the reference work: three transactions over two objects.
REFERENCE_TXNS = gen.random_level_workload(random.Random(1), (1, 1, 2), ("x", "y")).txns
#: CPU seconds of decisions between two timings of the reference work.
REFERENCE_EVERY_S = 0.1


def reference_work() -> float:
    """CPU seconds taken by a fixed piece of pure-Python work from the
    benchmark's own oracles: listing every valid schedule over
    ``REFERENCE_TXNS``, which builds and hashes tuples and dicts much as
    the deciders do.  It never touches mvsched, so it follows the host's
    speed for that kind of work and nothing else.  Over three minutes of one
    process on a shared 2-core host, the median times of three fixed
    decisions over windows of a few seconds varied by 15 to 16% (standard
    deviation over mean); divided by this work's times they varied by 4 to
    7%, and divided by the times of a shorter mix of generating and checking
    one schedule, by 10 to 12%."""
    start = time.process_time()
    for _ in oracle.valid_schedules(REFERENCE_TXNS):
        pass
    return time.process_time() - start


def clear_pool() -> None:
    """Empty the serial-signature cache, as a fresh CLI process has it."""
    clear = getattr(serializability_pool(), "cache_clear", None)
    if clear is not None:
        clear()


def serializability_pool():
    from mvsched import serializability

    return getattr(serializability, "serial_signature_pool", None)


def run_one(cli, argv):
    """One decision, starting from an empty serial-signature cache: CPU
    seconds taken, exit code (or the uncaught exception) and the printed
    report.

    The time is the process's CPU time, not wall time.  On a shared host the
    process now and then waits for a CPU, and such waits lengthen a long
    call far more than a short one or the reference work: with more busy
    processes than cores on a 2-core host, wall time put the longest
    decisions at 1.4 to 2.5 times their CPU time while the reference work
    barely moved."""
    clear_pool()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.process_time()
        try:
            code = cli.run(argv)
        except (Exception, SystemExit) as exc:  # counted as a failed decision
            code = f"exception {type(exc).__name__}: {exc}"
        elapsed = time.process_time() - start
    return elapsed, code, buf.getvalue()


def run_traced(cli, argv, tracer):
    """:func:`run_one` with the tracer's wrappers installed, adding the
    cache's hits and misses to the tracer."""
    tracer.install()
    try:
        result = run_one(cli, argv)
    finally:
        tracer.restore()
    info = getattr(serializability_pool(), "cache_info", None)
    if info is not None:
        tracer.pool_hits += info().hits
        tracer.pool_misses += info().misses
    return result


def keep_going(rounds: int, elapsed: float, seconds: float, want: int) -> bool:
    """At least ``want`` rounds unless they take far longer than ``seconds``;
    more while another round fits into ``seconds``."""
    if rounds == 0:
        return True
    if rounds < want and elapsed < 2.5 * seconds:
        return True
    return elapsed + elapsed / rounds <= seconds


def measure(cli, commands, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    """The measured loop: rounds over every command until ``seconds`` are
    used.  With ``trace`` each command runs both untraced and traced, back
    to back, so both see the same state of the host.  The reference work is
    timed after every ``REFERENCE_EVERY_S`` of calls."""
    times: list[list[float]] = [[] for _ in commands]
    reference: list[tuple[int, float]] = []  # (calls made before it, seconds)
    calls, since_reference = 0, 0.0
    traced_times: list[list[float]] = [[] for _ in commands]
    digests: list[list[str]] = [[] for _ in commands]
    first = []
    layers = []
    tracer = None
    started = time.perf_counter()
    rounds = 0
    while keep_going(rounds, time.perf_counter() - started, seconds, 1 if trace else 3):
        tracer = tracing.Tracer() if trace else None
        for i, argv in enumerate(commands):
            if tracer is None:
                runs = [run_one(cli, argv)]
            else:
                # alternate which run goes first: the second finds the caches warm
                tracer.decision = i
                runs = [None, None]
                for which in (i % 2, 1 - i % 2):
                    runs[which] = run_traced(cli, argv, tracer) if which else run_one(cli, argv)
                traced_times[i].append(runs[1][0])
            times[i].append(runs[0][0])
            calls += 1
            since_reference += sum(elapsed for elapsed, _, _ in runs)
            if since_reference >= REFERENCE_EVERY_S:
                reference.append((calls, reference_work()))
                since_reference = 0.0
            digests[i].extend(outcome_digest(code, out) for _, code, out in runs)
            if rounds == 0:
                first.append(runs[0][1:])
        if tracer is not None:
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["serializability.pool_hits"] = tracer.pool_hits
            metrics["serializability.pool_misses"] = tracer.pool_misses
            layers.append(metrics)
        rounds += 1
    if not reference:  # fewer than REFERENCE_EVERY_S of calls in all
        reference.append((calls, reference_work()))
    if tracer is not None and spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "rounds": rounds,
        "codes": [code for code, _ in first],
        "reports": [out for _, out in first],
        "digests": digests,
        "times": times,
        "reference": reference,
        "traced_times": traced_times,
        "layers": layers,
        "missing_boundaries": tracer.missing if tracer is not None else [],
    }


def main(manifest_path: str, results_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from mvsched import cli

    for argv in manifest["warmup"]:
        run_one(cli, argv)
    # CPU seconds of this process so far: interpreter start, import, warm-up
    results = {"ready_cpu": time.process_time(), "setup_reference": [reference_work() for _ in range(9)]}
    if not manifest["setup_only"]:
        results.update(
            measure(cli, manifest["commands"], manifest["seconds"], manifest["trace"], manifest["spans"])
        )
        results["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
