"""The benchmark's own tests: seeded inputs, the verdict checks, and the
self-time arithmetic.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import decide
import gen
import run
import tracing
from mvsched import ViewWitness, cli

#: Decisions run per workload in these tests; the first ones of each fixed
#: set are cheap.
SAMPLE = 24


def _files(directory: str) -> dict[str, bytes]:
    out = {}
    for sub in ("inputs", "warmup"):
        for name in sorted(os.listdir(os.path.join(directory, sub))):
            with open(os.path.join(directory, sub, name), "rb") as fh:
                out[f"{sub}/{name}"] = fh.read()
    return out


def _decide(argvs):
    return [decide.run_one(cli, argv)[1:] for argv in argvs]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_fixes_inputs_and_verdicts(name, tmp_path):
    w = run.WORKLOADS[name]
    first = run.prepare(w, 7, str(tmp_path / "a"))
    again = run.prepare(w, 7, str(tmp_path / "b"))
    other = run.prepare(w, 8, str(tmp_path / "c"))
    assert _files(str(tmp_path / "a")) == _files(str(tmp_path / "b"))
    assert _files(str(tmp_path / "a")) != _files(str(tmp_path / "c"))

    def tally(prepared):
        _, _, rows, argvs, _ = prepared
        return Counter((rows[i][1], code) for i, (code, _) in enumerate(_decide(argvs[:SAMPLE])))

    assert tally(first) == tally(again)
    assert tally(first) != Counter() and tally(other) != Counter()


def _flip_robust(verdict):
    return dataclasses.replace(verdict, robust=not verdict.robust, counterexample=None)


def _flip_view(witness):
    return ViewWitness(not witness.verdict, None, witness.exhausted)


def _flip_acyclic(report):
    return dataclasses.replace(report, polygraph_acyclic=not report.polygraph_acyclic)


#: Workload -> (decider as mvsched.cli binds it, flip, which results to flip).
STUBS = {
    "robust-enum": ("is_conflict_robust", _flip_robust, lambda r: True),
    "robust-split": ("find_split_counterexample", lambda r: None, lambda r: r is not None and len(r[0]) == 2),
    "schedule-check": ("is_view_serializable", _flip_view, lambda r: True),
    "polygraph-verify": ("verify_reduction", _flip_acyclic, lambda r: True),
}


@pytest.mark.parametrize("name", sorted(STUBS))
def test_checker_fails_a_flipped_verdict(name, tmp_path, monkeypatch):
    w = run.WORKLOADS[name]
    inputs, paths, rows, argvs, _ = run.prepare(w, 11, str(tmp_path / "work"))
    argvs, rows = argvs[:SAMPLE], rows[:SAMPLE]
    honest = _decide(argvs)

    attr, flip, applies = STUBS[name]
    decider = getattr(cli, attr)
    flipped = []

    def stub(*args, **kwargs):
        result = decider(*args, **kwargs)
        if not flipped and applies(result):
            flipped.append(result)
            return flip(result)
        return result

    monkeypatch.setattr(cli, attr, stub)
    stubbed = _decide(argvs)
    monkeypatch.setattr(cli, attr, decider)
    changed = [d for d, (a, b) in enumerate(zip(honest, stubbed)) if decide.outcome_digest(*a) != decide.outcome_digest(*b)]
    assert len(changed) == 1

    def failures(outcomes):
        results = {
            "codes": [code for code, _ in outcomes],
            "reports": [out for _, out in outcomes],
            "digests": [[decide.outcome_digest(*o)] for o in outcomes],
        }
        return run.check_results(w, cli, inputs, paths, rows, results, str(tmp_path / "recheck")).failures

    assert failures(honest) == {}
    assert changed[0] in failures(stubbed)


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["cli.run", 0.0, 10.0, -1, 0, None],
        ["robustness.enumerate", 1.0, 9.0, 0, 0, None],
        ["isolation.complete", 2.0, 3.0, 1, 0, True],
        ["isolation.complete", 4.0, 6.0, 1, 0, None],
        ["isolation.dangerous", 4.5, 5.0, 3, 0, None],
        ["robustness.split", 9.2, 9.8, 0, 0, None],
        ["isolation.complete", 9.3, 9.5, 5, 0, True],
    ]
    assert tracing.self_times(spans) == pytest.approx([1.4, 5.0, 1.0, 1.5, 0.5, 0.4, 0.2])
    m = tracing.layer_metrics(spans)
    assert m["cli.run_self_s"] == pytest.approx(1.4)
    assert m["robustness.enumerate_self_s"] == pytest.approx(5.0)
    assert m["isolation.complete_s"] == pytest.approx(2.7)
    assert m["isolation.dangerous_s"] == pytest.approx(0.5)
    assert m["isolation.complete_calls"] == 3
    assert m["isolation.complete_accept_ratio"] == pytest.approx(2 / 3)
    assert (m["robustness.interleavings"], m["robustness.split_candidates"]) == (2, 1)


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["cli.run", 0.0, 4.0, -1, 0, None],
        ["textio.parse", 1.0, 3.0, 0, 0, None],
        ["textio.parse", 2.0, 5.0, 0, 0, None],
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_balanced_picks_every_option_equally_often():
    picks = gen.balanced(random.Random(1), "abc", 10)
    assert sorted(Counter(picks).values()) == [3, 3, 4]
    assert sorted(gen.balanced(random.Random(1), "abc", 6)) == list("aabbcc")


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1000)]
    assert run.tail(values, 1000) == (99.0, 990.0)
    assert run.tail(values[:150], 150) == (90.0, 135.0)
    assert run.tail(values[:12], 12) == (50.0, 6.0)


def test_reference_speed_scales_each_call(monkeypatch):
    times = [[0.1, 0.3], [0.2, 0.4]]
    same = [(1, run.REFERENCE_S), (3, run.REFERENCE_S)]
    assert run.at_reference_speed(times, same) == [pytest.approx(t) for t in times]
    slower = [(calls, 2 * run.REFERENCE_S) for calls in (1, 2, 3, 4)]
    assert run.at_reference_speed(times, slower) == [pytest.approx([0.05, 0.15]), pytest.approx([0.1, 0.2])]
    # the second round's calls take the speed from the timing after the first round
    monkeypatch.setattr(run, "SPEED_WINDOW", 1)
    drift = [(2, run.REFERENCE_S), (4, 2 * run.REFERENCE_S)]
    assert run.at_reference_speed(times, drift) == [pytest.approx([0.1, 0.15]), pytest.approx([0.2, 0.2])]
    assert run.decision_times(times) == pytest.approx([0.2, 0.3])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "robust-enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
