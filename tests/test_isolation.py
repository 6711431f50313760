"""RC/SI admissibility, dangerous structures, allocations, and completion."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    criterion_5_workloads,
    dense_polygraphs,
    enumerate_valid_schedules,
    implication_corpus_workloads,
    mutated_schedules,
    random_polygraphs,
    random_workloads,
    read_only_t1_chains,
    ssi_heavy_workloads,
    valid_schedules,
)
from fixtures import *
from oracles import (
    allowed_at_level_oracle,
    allowed_under_rc,
    allowed_under_si,
    complete_under_allocation_oracle,
    dangerous_structures_oracle,
    interleavings_oracle,
    level_reports_oracle,
    overwrite_witness_oracle,
    read_last_committed_oracle,
    respects_commit_order,
    respects_commit_order_oracle,
    rw_edges_oracle,
)

from mvsched import (
    INIT,
    AllocationIncomplete,
    Clause,
    ConflictKind,
    LevelAllocation,
    PredicateAllocation,
    ScheduleError,
    UnknownOperation,
    Workload,
    allowed_at_levels,
    allowed_under_allocation,
    complete_under_allocation,
    exhibits_concurrent_write,
    exhibits_dirty_write,
    find_dangerous_structures,
    make_schedule,
    make_transaction,
    read_last_committed,
    reduce_to_schedule,
    serial_schedule,
    serialization_graph,
    validate_schedule,
)
from mvsched.core import Budget, SearchLimits
from mvsched.isolation import LevelEngine, _overwrite_witness


# --- commit order -----------------------------------------------------------


def test_every_write_of_s2_respects_commit_order():
    for t in S2.txns:
        for op in t.ops:
            if op.is_write:
                assert respects_commit_order(S2, op.id)


def test_every_write_of_s1_respects_commit_order():
    for t in S1.txns:
        for op in t.ops:
            if op.is_write:
                assert respects_commit_order(S1, op.id)


def test_inverted_vorder_breaks_commit_order():
    a = make_transaction("T1", "W(t) C")
    b = make_transaction("T2", "W(t) C")
    # T2 commits first but installs last
    s = make_schedule(
        (a, b),
        (INIT, opid("T1", 1), opid("T2", 1), opid("T2", 2), opid("T1", 2)),
        {"t": (opid("T1", 1), opid("T2", 1))},
        {},
    )
    assert validate_schedule(s) == []
    assert not respects_commit_order(s, opid("T1", 1))
    assert not respects_commit_order(s, opid("T2", 1))


def test_respects_commit_order_rejects_reads():
    with pytest.raises(UnknownOperation):
        respects_commit_order(S1, opid("T1", 1))


# --- read-last-committed -------------------------------------------------------


def test_r4v_fresh_at_read_but_not_at_start():
    assert read_last_committed(S1, opid("T4", 3), opid("T4", 3))
    assert not read_last_committed(S1, opid("T4", 3), opid("T4", 1))


def test_r2v_fresh_at_start_but_not_at_read():
    assert not read_last_committed(S1, opid("T2", 2), opid("T2", 2))
    assert read_last_committed(S1, opid("T2", 2), opid("T2", 1))


def test_other_s1_reads_fresh_everywhere():
    for rid in (opid("T1", 1), opid("T4", 1)):
        assert read_last_committed(S1, rid, rid)
        first = S1.transaction(rid.txn).ops[0].id
        assert read_last_committed(S1, rid, first)


def test_serial_reads_are_fresh():
    s = serial_schedule(S2_TXNS)
    for t in s.txns:
        for op in t.ops:
            if op.is_read:
                assert read_last_committed(s, op.id, op.id)


def test_read_last_committed_reference_must_share_transaction():
    with pytest.raises(ValueError):
        read_last_committed(S1, opid("T4", 3), opid("T2", 1))


# --- dirty and concurrent writes --------------------------------------------------


def test_s1_dirty_and_concurrent_write_table():
    for tid in ("T1", "T2", "T3", "T4"):
        assert not exhibits_dirty_write(S1, tid)
    assert exhibits_concurrent_write(S1, "T4")
    for tid in ("T1", "T2", "T3"):
        assert not exhibits_concurrent_write(S1, tid)


def test_dirty_write_example():
    a = make_transaction("T1", "W(t) C")
    b = make_transaction("T2", "W(t) C")
    s = make_schedule(
        (a, b),
        (INIT, opid("T1", 1), opid("T2", 1), opid("T1", 2), opid("T2", 2)),
        {"t": (opid("T1", 1), opid("T2", 1))},
        {},
    )
    assert exhibits_dirty_write(s, "T2")
    assert exhibits_concurrent_write(s, "T2")
    assert not exhibits_dirty_write(s, "T1")


def test_serial_schedules_have_no_dirty_or_concurrent_writes():
    for perm in itertools.permutations(S2_TXNS):
        s = serial_schedule(perm)
        for t in s.txns:
            assert not exhibits_dirty_write(s, t)
            assert not exhibits_concurrent_write(s, t)


def test_dirty_write_implies_concurrent_write_on_random_schedules():
    for w in random_workloads(60, seed=5):
        budget = Budget(SearchLimits())
        for order in interleavings_oracle(w.txns, budget):
            s = complete_under_allocation(w.txns, order, LevelAllocation.uniform(RC, (t.id for t in w.txns)))
            if s is None:
                continue
            for t in s.txns:
                if exhibits_dirty_write(s, t):
                    assert exhibits_concurrent_write(s, t)


# --- per-transaction admissibility ---------------------------------------------------


def test_s1_admissibility_per_transaction():
    assert allowed_under_rc(S1, "T4").allowed
    r = allowed_under_rc(S1, "T2")
    assert not r.allowed and r.clauses() == {Clause.READ_LAST_COMMITTED}
    assert allowed_under_si(S1, "T2").allowed
    # T4 on SI breaks both the freshness-at-start clause (its second read)
    # and the concurrent-write clause; the report carries all violations
    r = allowed_under_si(S1, "T4")
    assert not r.allowed
    assert r.clauses() == {Clause.CONCURRENT_WRITE, Clause.READ_LAST_COMMITTED}
    for tid in ("T1", "T3"):
        assert allowed_under_rc(S1, tid).allowed
        assert allowed_under_si(S1, tid).allowed


def test_serial_transactions_allowed_everywhere():
    s = serial_schedule(S2_TXNS)
    for t in s.txns:
        assert allowed_under_rc(s, t).allowed
        assert allowed_under_si(s, t).allowed


# --- dangerous structures ---------------------------------------------------------------


def test_s1_dangerous_structure():
    found = find_dangerous_structures(S1, ("T1", "T2", "T3"))
    assert [(d.t1, d.t2, d.t3) for d in found] == [("T1", "T2", "T3")]
    assert found[0].witnesses[0].src == opid("T1", 1)
    assert found[0].witnesses[1].src == opid("T2", 2)


def test_sd_dangerous_structure():
    found = find_dangerous_structures(SD, ("T1", "T2", "T3"))
    assert [(d.t1, d.t2, d.t3) for d in found] == [("T1", "T2", "T3")]


def test_serial_schedule_has_no_dangerous_structures():
    s = serial_schedule(S2_TXNS)
    assert find_dangerous_structures(s, ("T1", "T2", "T3")) == []


def test_scope_restricts_structures():
    assert find_dangerous_structures(S1, ("T1", "T2")) == []
    assert find_dangerous_structures(S1, ("T2", "T3")) == []


def test_a_read_only_t1_needs_the_earliest_committing_t3():
    """T2 rw-precedes T3 and T4, which both commit while T2 runs, T4 first;
    the read-only T1 rw-precedes T2 and starts between the two commits, so
    only T4, the earliest, closes a structure."""
    txns = (
        make_transaction("T1", "R(z) C"),
        make_transaction("T2", "R(x) R(y) W(z) C"),
        make_transaction("T3", "W(x) C"),
        make_transaction("T4", "W(y) C"),
    )
    steps = (("T2", 1), ("T2", 2), ("T4", 1), ("T4", 2), ("T1", 1), ("T3", 1), ("T3", 2), ("T1", 2), ("T2", 3), ("T2", 4))
    order = [opid(t, k) for t, k in steps]
    s = complete_under_allocation(txns, order, all_level(SI, *txns))
    ids = ("T1", "T2", "T3", "T4")
    found = find_dangerous_structures(s, ids)
    assert [(d.t1, d.t2, d.t3) for d in found] == [("T1", "T2", "T4")]
    assert found == dangerous_structures_oracle(s, ids)
    assert complete_under_allocation(txns, order, all_level(SSI, *txns)) is None
    # without T4 in scope only T3 is left, and it commits after T1 starts
    assert find_dangerous_structures(s, ("T1", "T2", "T3")) == []
    assert complete_under_allocation(txns, order, LevelAllocation({"T1": SSI, "T2": SSI, "T3": SSI, "T4": SI})) == s


def _two_txn_pivot_schedule():
    """Write-skew shape where the two-hop chain loops back to its start."""
    a = make_transaction("T1", "R(x) W(y) C")
    b = make_transaction("T2", "R(y) W(x) C")
    return make_schedule(
        (a, b),
        (INIT, opid("T1", 1), opid("T2", 1), opid("T1", 2), opid("T1", 3), opid("T2", 2), opid("T2", 3)),
        {"x": (opid("T2", 2),), "y": (opid("T1", 2),)},
        {opid("T1", 1): INIT, opid("T2", 1): INIT},
    )


def test_degenerate_pivot_reading_is_configurable():
    """The library reads the structure literally; the oracle also takes the
    reading in which the chain closes on its own start."""
    s = _two_txn_pivot_schedule()
    assert validate_schedule(s) == []
    # literal reading: the closing commit comparison is strict, so no structure
    assert find_dangerous_structures(s, ("T1", "T2")) == []
    assert dangerous_structures_oracle(s, ("T1", "T2")) == []
    found = dangerous_structures_oracle(s, ("T1", "T2"), allow_degenerate_pivot=True)
    assert [(d.t1, d.t2, d.t3) for d in found] == [("T1", "T2", "T1")]


# --- allocation admissibility ---------------------------------------------------------------


def test_s1_allocation_verdicts():
    ssi3 = LevelAllocation({"T1": SSI, "T2": SSI, "T3": SSI, "T4": RC})
    r = allowed_under_allocation(S1, ssi3)
    assert not r.allowed and Clause.DANGEROUS_STRUCTURE in r.clauses()
    mixed = LevelAllocation({"T1": RC, "T2": SI, "T3": SSI, "T4": RC})
    assert allowed_under_allocation(S1, mixed).allowed
    si4 = LevelAllocation({"T1": RC, "T2": SI, "T3": SI, "T4": SI})
    r = allowed_under_allocation(S1, si4)
    assert not r.allowed
    assert any(v.txn == "T4" and v.clause is Clause.CONCURRENT_WRITE for v in r.violations)


def test_full_allocation_table_for_s1():
    for l1, l2, l3 in itertools.product((RC, SI, SSI), repeat=3):
        alloc = LevelAllocation({"T1": l1, "T2": l2, "T3": l3, "T4": RC})
        expected = (l2 is not RC) and not (l1 is SSI and l2 is SSI and l3 is SSI)
        assert allowed_under_allocation(S1, alloc).allowed == expected, (l1, l2, l3)
    for l4 in (SI, SSI):
        alloc = LevelAllocation({"T1": RC, "T2": SI, "T3": SI, "T4": l4})
        assert not allowed_under_allocation(S1, alloc).allowed


def test_allocation_must_cover_all_transactions():
    with pytest.raises(AllocationIncomplete):
        allowed_under_allocation(S1, LevelAllocation({"T1": RC}))
    with pytest.raises(AllocationIncomplete):
        Workload((S1_T1, S1_T2), LevelAllocation({"T1": RC}))


def test_predicate_allocation():
    pred = PredicateAllocation("view-serializable-only")
    assert allowed_under_allocation(S2, pred).allowed
    r = allowed_under_allocation(S3, pred)
    assert not r.allowed and r.clauses() == {Clause.PREDICATE}
    with pytest.raises(ValueError):
        PredicateAllocation("no-such-predicate")


def test_allocation_restriction():
    alloc = LevelAllocation({"T1": RC, "T2": SI, "T3": SSI})
    sub = alloc.restrict(("T1", "T3"))
    assert sub.levels == {"T1": RC, "T3": SSI}
    pred = PredicateAllocation("view-serializable-only")
    assert pred.restrict(("T1",)) is pred


# --- completion -------------------------------------------------------------------------------


def test_sd_order_completes_to_sd_when_structures_out_of_scope():
    # all-SI forces the same version data and has an empty SSI scope
    c = complete_under_allocation((SD_T1, SD_T2, SD_T3), SD.order, all_level(SI, SD_T1, SD_T2, SD_T3))
    assert c == SD
    # with all three on SSI the same order is inadmissible
    assert complete_under_allocation((SD_T1, SD_T2, SD_T3), SD.order, all_level(SSI, SD_T1, SD_T2, SD_T3)) is None


def test_s1_order_under_all_rc_differs_only_in_one_read():
    txns = (S1_T1, S1_T2, S1_T3, S1_T4)
    c = complete_under_allocation(txns, S1.order, all_level(RC, *txns))
    assert c is not None
    assert c.order == S1.order
    assert dict(c.vorder) == dict(S1.vorder)
    diffs = {rid for rid in c.vf if c.vf[rid] != S1.vf[rid]}
    assert diffs == {opid("T2", 2)}
    assert c.vf[opid("T2", 2)] == opid("T3", 1)
    assert allowed_under_allocation(c, all_level(RC, *txns)).allowed


def test_serial_order_always_completes():
    for level in (RC, SI, SSI):
        for perm in itertools.permutations(S2_TXNS):
            c = complete_under_allocation(S2_TXNS, serial_schedule(perm).order, all_level(level, *S2_TXNS))
            assert c == serial_schedule(perm)


def test_completion_is_allowed_and_preserves_order():
    for w in random_workloads(40, seed=77):
        budget = Budget(SearchLimits())
        for order in interleavings_oracle(w.txns, budget):
            s = complete_under_allocation(w.txns, order, w.alloc)
            if s is not None:
                assert s.order == order
                assert validate_schedule(s) == []
                assert allowed_under_allocation(s, w.alloc).allowed


def test_rc_and_si_differ_only_in_the_write_clauses_for_fresh_readers():
    # clause decomposition: when a transaction's reads are fresh relative to
    # both reference points, the RC and SI verdicts can only diverge through
    # the dirty-write versus concurrent-write clauses
    from corpus import enumerate_valid_schedules, two_txn_shape_workloads

    for txns in two_txn_shape_workloads()[:30]:
        for s in enumerate_valid_schedules(txns):
            for t in s.txns:
                fresh = all(
                    read_last_committed(s, op.id, op.id) and read_last_committed(s, op.id, t.ops[0].id)
                    for op in t.ops
                    if op.is_read
                )
                if not fresh:
                    continue
                rc = allowed_under_rc(s, t).clauses() - {Clause.DIRTY_WRITE}
                si = allowed_under_si(s, t).clauses() - {Clause.CONCURRENT_WRITE}
                assert rc == si and Clause.READ_LAST_COMMITTED not in rc, (s, t.id)


def test_any_allowed_schedule_equals_completion_of_its_own_order():
    # uniqueness: version data is forced by the operation order
    for s, alloc in (
        (S2, all_level(RC, *S2_TXNS)),
        (S3, all_level(RC, S2_T1, S2_T2)),
        (SD, all_level(SI, SD_T1, SD_T2, SD_T3)),
        (lost_update_schedule(), all_level(RC, *W_LU)),
    ):
        assert allowed_under_allocation(s, alloc).allowed
        assert complete_under_allocation(s.txns, s.order, alloc) == s


# --- the engine's completion against the dictionary-based oracle ----------------------


def assert_completion_matches_the_oracle(txns, order, alloc):
    """The engine's completion is the oracle's; under the degenerate-pivot
    reading, which only the oracle takes, it is the same or refused."""
    got = complete_under_allocation(txns, order, alloc)
    assert got == complete_under_allocation_oracle(txns, order, alloc), order
    assert complete_under_allocation_oracle(txns, order, alloc, allow_degenerate_pivot=True) in (got, None), order


def test_completion_matches_the_oracle_on_the_criterion_5_corpus():
    """Every 37th interleaving of each workload, the first one included (the
    enumeration tests walk all of them through the same step function)."""
    checked = 0
    for w in criterion_5_workloads():
        for k, order in enumerate(interleavings_oracle(w.txns, Budget(SearchLimits()))):
            if k % 37 == 0:
                assert_completion_matches_the_oracle(w.txns, order, w.alloc)
                checked += 1
    assert checked > 30_000


def assert_dangerous_matches_the_oracle(eng, order, active) -> bool | None:
    """After a walk of ``order`` over ``active`` that places every operation,
    :meth:`LevelEngine.dangerous` answers as the oracle does on the completed
    schedule and its SSI transactions; that answer, or None when the walk
    refuses an operation."""
    eng.start(active)
    if not all(eng.place(g, d) for d, g in enumerate(order)):
        return None
    got = eng.dangerous()
    scope = [eng.txns[i].id for i in active if eng.ssi[i]]
    assert got == bool(dangerous_structures_oracle(eng.schedule(order), scope)), (eng.txns, order, scope)
    return got


def test_the_walk_finds_a_dangerous_structure_exactly_when_the_oracle_does():
    """Every interleaving of each criterion-5 workload with three SSI
    transactions or more (with fewer, both answer no without a search), on
    each SSI-heavy workload 50 random interleavings of random subsets of
    three of its SSI transactions or more, and the planted chains whose
    read-only t1 needs t2's earliest-committing t3."""
    answers = []
    for w in criterion_5_workloads():
        eng = LevelEngine(w.txns, w.alloc)
        if sum(eng.ssi) >= 3:
            for order in interleavings_oracle(w.txns, Budget(SearchLimits())):
                answers.append(assert_dangerous_matches_the_oracle(eng, eng.order_of(order), list(range(eng.n))))
    assert answers.count(True) > 200 and answers.count(False) > 10_000
    rng, answers = random.Random(26), []
    for w in ssi_heavy_workloads(600):
        eng = LevelEngine(w.txns, w.alloc)
        ssi = [i for i in range(eng.n) if eng.ssi[i]]
        for _ in range(50 if len(ssi) >= 3 else 0):
            active = sorted(rng.sample(ssi, rng.randint(3, len(ssi))))
            left = {i: list(eng.ops_of[i]) for i in active}
            slots = [i for i in active for _ in left[i]]
            rng.shuffle(slots)
            answers.append(assert_dangerous_matches_the_oracle(eng, [left[i].pop(0) for i in slots], active))
    assert answers.count(True) > 50 and answers.count(False) > 5_000
    for w, s in read_only_t1_chains(300):
        eng = LevelEngine(w.txns, w.alloc)
        assert assert_dangerous_matches_the_oracle(eng, eng.order_of(s.order), list(range(eng.n)))


_BODY_OPS = st.sampled_from([f"{a}({o})" for a in "RW" for o in "xyz"])


@st.composite
def interleaved_workloads(draw, max_n=4):
    """Up to ``max_n`` transactions under any levels, and one interleaving of
    their operations."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    txns = [make_transaction(f"T{i}", " ".join(draw(st.lists(_BODY_OPS, max_size=3)) + ["C"])) for i in range(1, n + 1)]
    levels = draw(st.lists(st.sampled_from([RC, SI, SSI]), min_size=n, max_size=n))
    left = [list(t.op_ids) for t in txns]
    slots = draw(st.permutations([i for i, ops in enumerate(left) for _ in ops]))
    order = [left[i].pop(0) for i in slots]
    return txns, order, LevelAllocation({t.id: lvl for t, lvl in zip(txns, levels)})


@given(interleaved_workloads())
@settings(max_examples=400, deadline=None)
def test_completion_matches_the_oracle_on_generated_orders(case):
    assert_completion_matches_the_oracle(*case)


def test_completion_rejects_an_order_that_is_not_an_interleaving():
    order = [o for t in W_LU for o in t.op_ids]
    for bad in (order[1:], order[::-1], order + order[:1], [opid("T3", 1)] + order):
        with pytest.raises(ValueError):
            complete_under_allocation(W_LU, bad, all_level(RC, *W_LU))


# --- the clauses on the schedule's int index against the dictionary-keyed oracles -----


def rw_witnesses(s, scope):
    """Per transaction pair in scope, its least rw-antidependency in the
    serialization graph: the hops :func:`find_dangerous_structures` chains."""
    return {
        pair: next(d for d in deps if d.kind is ConflictKind.RW)
        for pair, deps in serialization_graph(s).edges.items()
        if set(pair) <= scope and any(d.kind is ConflictKind.RW for d in deps)
    }


def assert_clauses_match_the_oracles(s) -> bool:
    """Every clause, both per-transaction reports (one level at a time, and
    the three levels of every transaction from one clause pass), the
    rw-antidependencies and the dangerous structures under either reading of the pivot (over all
    transactions and over all but the first) agree with the oracles,
    violations, witnesses and their order included; whether some
    transaction fails its RC or SI report."""
    failed = False
    for t in s.txns:
        for op in t.ops:
            if op.is_write:
                assert respects_commit_order(s, op.id) == respects_commit_order_oracle(s, op.id), (s, op)
            elif op.is_read:
                for rel in t.op_ids:
                    assert read_last_committed(s, op.id, rel) == read_last_committed_oracle(s, op.id, rel), (s, op, rel)
        for si, allowed in ((False, allowed_under_rc), (True, allowed_under_si)):
            assert _overwrite_witness(s, t.id, si) == overwrite_witness_oracle(s, t.id, si), (s, t.id, si)
            report = allowed(s, t)
            assert report == allowed_at_level_oracle(s, t, si), (s, t.id, si)
            failed |= not report.allowed
    assert allowed_at_levels(s, [(RC, SI, SSI)] * len(s.txns)) == level_reports_oracle(s), s
    for scope in (frozenset(s.txn_ids), frozenset(s.txn_ids[1:])):
        assert rw_witnesses(s, scope) == rw_edges_oracle(s, scope), (s, scope)
        got = find_dangerous_structures(s, scope)
        assert got == dangerous_structures_oracle(s, scope), (s, scope)
        degenerate = dangerous_structures_oracle(s, scope, allow_degenerate_pivot=True)
        assert [d for d in degenerate if d.t1 != d.t3] == got, (s, scope)
    return failed


def test_clauses_match_the_oracles_on_polygraph_reductions():
    for p in random_polygraphs(300) + dense_polygraphs(40):
        assert not assert_clauses_match_the_oracles(reduce_to_schedule(p)[1]), p


def test_clauses_match_the_oracles_on_planted_read_only_t1_chains():
    """Each holds a dangerous structure whose read-only t1 starts between
    the commits of two t3s."""
    for _, s in read_only_t1_chains(300):
        assert_clauses_match_the_oracles(s)
        assert find_dangerous_structures(s, s.txn_ids), s


def test_clauses_match_the_oracles_on_a_sample_of_the_criterion_3_corpus():
    """Every 13th schedule of a seeded third of the workloads; most of them
    fail some clause."""
    rng = random.Random(8)
    checked = failing = 0
    for txns in rng.sample(implication_corpus_workloads(), 42):
        for s in itertools.islice(enumerate_valid_schedules(txns), 0, None, 13):
            failing += assert_clauses_match_the_oracles(s)
            checked += 1
    assert checked > 4000 and failing > checked // 2


def test_level_reports_match_the_oracle_on_the_criterion_3_corpus(corpus_scan):
    assert corpus_scan["schedules"] > 100_000
    assert corpus_scan["level_report_mismatches"] == 0


@given(mutated_schedules())
@settings(max_examples=500, deadline=None)
def test_level_reports_match_the_oracle_on_mutated_schedules(s):
    """The edited schedules of the validation differential: the clause pass
    refuses one that validation lists a defect of, and gives every other
    the oracle's reports."""
    levels = [(RC, SI, SSI)] * len(s.txns)
    if validate_schedule(s) and s.txns:
        with pytest.raises(ScheduleError):
            allowed_at_levels(s, levels)
    else:
        assert allowed_at_levels(s, levels) == level_reports_oracle(s), s


@given(valid_schedules())
@settings(max_examples=300, deadline=None)
def test_clauses_match_the_oracles_on_generated_schedules(s):
    """Any version order, commit-order-incompatible ones included."""
    assert_clauses_match_the_oracles(s)
