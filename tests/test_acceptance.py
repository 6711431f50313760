"""Acceptance gate: every criterion as one test, printed as a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  All tolerances are exact: these are decision
procedures and structural equalities, not numeric approximations.
"""

from __future__ import annotations

import functools
import itertools
import time

from corpus import (
    curated_txn_sets,
    curated_workloads,
    random_polygraphs,
    random_workloads,
    implication_corpus_workloads,
)
from fixtures import *
from oracles import check_condition_1, split_schedules_oracle

from mvsched import (
    LevelAllocation,
    Polygraph,
    Workload,
    allowed_under_allocation,
    are_concurrent,
    exhibits_concurrent_write,
    exhibits_dirty_write,
    extend_with_serial_tail,
    find_dangerous_structures,
    find_split_counterexample,
    is_conflict_robust,
    is_conflict_serializable,
    is_exact_conflict_robust,
    is_exact_view_robust,
    is_generalized_split_schedule,
    is_view_robust,
    is_view_serializable,
    minimize_counterexample,
    read_last_committed,
    render_workload,
    restrict_to_cycle,
    serial_schedule,
    serialization_graph,
    validate_polygraph,
    verify_reduction,
    view_equivalent,
)


def criterion(n: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n:2d} [{title}]: FAIL")
                raise
            print(f"criterion {n:2d} [{title}]: PASS ({time.monotonic() - started:.1f}s)")

        return wrapper

    return deco


@criterion(1, "named fixture schedules")
def test_criterion_1_fixture_schedules():
    assert serialization_graph(S1).edge_pairs == {
        ("T1", "T2"),
        ("T1", "T4"),
        ("T2", "T3"),
        ("T2", "T4"),
        ("T4", "T2"),
        ("T3", "T4"),
    }
    assert serialization_graph(S2).edge_pairs == {
        ("T1", "T2"),
        ("T2", "T1"),
        ("T1", "T3"),
        ("T2", "T3"),
    }
    assert is_conflict_serializable(S1)[0] is False
    assert is_conflict_serializable(S2)[0] is False
    witness = is_view_serializable(S2)
    assert witness.verdict and witness.witness == ("T1", "T2", "T3")
    assert is_view_serializable(S3).verdict is False
    assert view_equivalent(S4, serial_schedule((S2_T2, S2_T3, S2_T1)))


@criterion(2, "worked example on S1")
def test_criterion_2_s1_example():
    concurrent_pairs = {
        frozenset(p)
        for p in itertools.combinations(("T1", "T2", "T3", "T4"), 2)
        if are_concurrent(S1, *p)
    }
    assert concurrent_pairs == {
        frozenset(p) for p in (("T1", "T2"), ("T1", "T4"), ("T2", "T3"), ("T2", "T4"), ("T3", "T4"))
    }

    r4v, r2v = opid("T4", 3), opid("T2", 2)
    assert read_last_committed(S1, r4v, r4v) is True
    assert read_last_committed(S1, r4v, opid("T4", 1)) is False
    assert read_last_committed(S1, r2v, r2v) is False
    assert read_last_committed(S1, r2v, opid("T2", 1)) is True

    for tid in ("T1", "T2", "T3", "T4"):
        assert exhibits_dirty_write(S1, tid) is False
        assert exhibits_concurrent_write(S1, tid) is (tid == "T4")

    found = find_dangerous_structures(S1, ("T1", "T2", "T3"))
    assert [(d.t1, d.t2, d.t3) for d in found] == [("T1", "T2", "T3")]

    for l1, l2, l3 in itertools.product((RC, SI, SSI), repeat=3):
        alloc = LevelAllocation({"T1": l1, "T2": l2, "T3": l3, "T4": RC})
        expected = (l2 is not RC) and not (l1 is SSI and l2 is SSI and l3 is SSI)
        assert allowed_under_allocation(S1, alloc).allowed == expected, (l1, l2, l3)
    for l1, l2, l3 in itertools.product((RC, SI, SSI), repeat=3):
        for l4 in (SI, SSI):
            alloc = LevelAllocation({"T1": l1, "T2": l2, "T3": l3, "T4": l4})
            assert allowed_under_allocation(S1, alloc).allowed is False, (l1, l2, l3, l4)


@criterion(3, "conflict-serializable implies view-serializable")
def test_criterion_3_implication(corpus_scan):
    assert corpus_scan["schedules"] > 100_000
    assert corpus_scan["conflict_serializable"] > 10_000
    assert corpus_scan["implication_failures"] == 0


@criterion(4, "split schedules are never serializable")
def test_criterion_4_split_schedules():
    family = curated_workloads()
    assert len(family) >= 50
    names = {tuple(sorted(t.id for t in w.txns)) for w in family}
    assert ("T1", "T2") in names and ("T1", "T2", "T3") in names
    emitted = 0
    for w in family:
        for subset, s in split_schedules_oracle(w):
            ok, _ = is_generalized_split_schedule(s)
            assert ok
            assert allowed_under_allocation(s, w.alloc.restrict(subset)).allowed
            cs, _ = is_conflict_serializable(s)
            assert cs is False
            assert is_view_serializable(s).verdict is False
            emitted += 1
    assert emitted >= 20


@criterion(5, "conflict- and view-robustness coincide")
def test_criterion_5_equivalence_sweep():
    combos = 0
    for txns in curated_txn_sets():
        ids = [t.id for t in txns]
        for levels in itertools.product((RC, SI, SSI), repeat=len(ids)):
            w = Workload(txns, LevelAllocation(dict(zip(ids, levels))))
            conflict = is_conflict_robust(w).robust
            view = is_view_robust(w).robust
            split_absent = find_split_counterexample(w) is None
            assert conflict == view == split_absent, (w, conflict, view, split_absent)
            combos += 1
    for w in random_workloads(500):
        conflict = is_conflict_robust(w).robust
        view = is_view_robust(w).robust
        split_absent = find_split_counterexample(w) is None
        assert conflict == view == split_absent, (w, conflict, view, split_absent)
        combos += 1
    assert combos >= 500 + 50


@criterion(6, "exact-view-robust versus view-robust gap")
def test_criterion_6_exact_gap():
    w = s2_workload(RC)
    assert is_exact_view_robust(w).robust is True
    view = is_view_robust(w)
    assert view.robust is False
    assert view.counterexample[0] == ("T1", "T2")
    exact_conflict = is_exact_conflict_robust(w)
    conflict = is_conflict_robust(w)
    assert exact_conflict.robust is False
    assert conflict.robust is False


@criterion(7, "view-serializable-only predicate allocation")
def test_criterion_7_predicate_allocation():
    w = s2_predicate_workload()
    assert is_view_robust(w).robust is True
    assert is_conflict_robust(w).robust is False
    assert check_condition_1(w) is False


@criterion(8, "constructive transforms")
def test_criterion_8_transforms():
    assert extend_with_serial_tail(S3, S2_TXNS) == S2
    assert restrict_to_cycle(S2, ("T1", "T2")) == S3
    minimized = minimize_counterexample(S2, all_level(RC, *S2_TXNS))
    ok, _ = is_generalized_split_schedule(minimized)
    assert ok
    assert set(minimized.txn_ids) == {"T1", "T2"}
    assert minimized == S3


def _all_small_polygraphs():
    names = ("a", "b", "c")
    for n in range(len(names) + 1):
        nodes = names[:n]
        pairs = [(x, y) for x in nodes for y in nodes if x != y]
        for bits in range(1 << len(pairs)):
            arcs = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            choice_options = [()]
            choice_options += [(c,) for c in itertools.permutations(nodes, 3) if (c[2], c[0]) in arcs]
            for choices in choice_options:
                yield Polygraph.of(nodes, arcs, choices)


@criterion(9, "polygraph reduction harness")
def test_criterion_9_reduction():
    started = time.monotonic()
    exhaustive = 0
    for p in _all_small_polygraphs():
        assert validate_polygraph(p) == []
        report = verify_reduction(p)
        assert report.ok, (p, [c for c in report.checks if not c.passed])
        exhaustive += 1
    assert exhaustive >= 200
    randoms = random_polygraphs(100)
    assert len(randoms) == 100
    for p in randoms:
        assert validate_polygraph(p) == []
        report = verify_reduction(p)
        assert report.ok, (p, [c for c in report.checks if not c.passed])
    assert time.monotonic() - started < 300.0


@criterion(10, "oracle cross-checks")
def test_criterion_10_oracles(corpus_scan, tmp_path):
    assert corpus_scan["oracle_mismatches"] == 0

    import contextlib
    import io

    from mvsched.cli import run

    disagreements = 0
    runs = 0
    for i, txns in enumerate(implication_corpus_workloads()):
        allocations = [LevelAllocation.uniform(RC, (t.id for t in txns))]
        if len(txns) <= 2:
            allocations.append(LevelAllocation.uniform(SI, (t.id for t in txns)))
        for j, alloc in enumerate(allocations):
            path = tmp_path / f"w{i}-{j}.wl"
            path.write_text(render_workload(Workload(txns, alloc)), encoding="utf-8")
            for mode in ("conflict", "view"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run(["robust", "--mode", mode, "--method", "both", str(path)])
                runs += 1
                if code == 2:
                    disagreements += 1
    assert runs >= 400
    assert disagreements == 0
