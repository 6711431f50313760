"""Split schedules, robustness deciders, the enumeration oracle, transforms."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    criterion_5_workloads,
    curated_txn_sets,
    curated_workloads,
    four_txn_workloads,
    random_txn,
    random_workloads,
    ssi_heavy_workloads,
)
from fixtures import *
from oracles import (
    allowed_schedules_oracle,
    check_condition_1,
    conflict_serializable_oracle,
    enumerate_allowed_oracle,
    enumeration_oracle,
    first_failures_oracle,
    interleavings_oracle,
    is_multiversion_split_schedule,
    predicate_verdicts_oracle,
    split_completions_oracle,
    split_decider_oracle,
    split_pair_oracle,
    split_schedules_oracle,
    view_signature,
)
from oracles import serial_signature_pool as oracle_signature_pool

from mvsched import (
    INIT,
    LevelAllocation,
    LimitExceeded,
    NotACycle,
    RobustnessMode,
    SearchLimits,
    SplitDefect,
    TransactionSetMismatch,
    Workload,
    allowed_under_allocation,
    enumerate_allowed_schedules,
    extend_with_serial_tail,
    find_split_counterexample,
    is_conflict_robust,
    is_conflict_serializable,
    is_exact_conflict_robust,
    is_exact_view_robust,
    is_generalized_split_schedule,
    is_view_robust,
    is_view_serializable,
    make_schedule,
    make_transaction,
    minimize_counterexample,
    render_schedule,
    restrict_to_cycle,
    serial_schedule,
    serialization_graph,
    validate_schedule,
)
from mvsched.core import Budget
from mvsched.isolation import LevelEngine
from mvsched.robustness import _conflict_pairs, _has_conflict_cycle, _iter_interleavings, _own_write_readers, _split_pairs


# --- recognizers ------------------------------------------------------------


def test_lost_update_is_a_generalized_split_schedule():
    ok, defect = is_generalized_split_schedule(lost_update_schedule())
    assert ok and defect is None


def test_s1_is_not_split_form():
    ok, defect = is_generalized_split_schedule(S1)
    assert not ok and defect is SplitDefect.FORM


def test_s2_is_not_a_generalized_split_schedule():
    # clause-by-clause: the split transaction's tail is not at the end, so
    # the shape itself already fails
    ok, defect = is_generalized_split_schedule(S2)
    assert not ok and defect is SplitDefect.FORM


def test_s3_is_a_generalized_split_schedule():
    assert is_generalized_split_schedule(S3) == (True, None)


def test_split_chain_clause():
    # serial concatenation matches the shape with an empty tail but has no
    # dependency cycle
    s = serial_schedule((S2_T1, S2_T2))
    ok, defect = is_generalized_split_schedule(s)
    assert not ok and defect is SplitDefect.NO_CHAIN


def test_split_commit_order_clause():
    # like the lost-update schedule, but versions install against commit order
    s = lost_update_schedule()
    twisted = type(s)(
        txns=s.txns,
        order=s.order,
        vorder={"t": (INIT, opid("T1", 2), opid("T2", 2))},
        vf=dict(s.vf),
    )
    ok, defect = is_generalized_split_schedule(twisted)
    assert not ok and defect in (SplitDefect.COMMIT_ORDER, SplitDefect.EXTRA_DEPENDENCY, SplitDefect.NO_CHAIN)


def test_multiversion_split_recognition():
    assert is_multiversion_split_schedule(S2) == (True, 2)
    assert is_multiversion_split_schedule(lost_update_schedule()) == (True, 2)
    assert is_multiversion_split_schedule(serial_schedule(S2_TXNS)) == (False, None)
    assert is_multiversion_split_schedule(S3) == (True, 2)
    assert is_multiversion_split_schedule(S1) == (False, None)


# --- enumeration oracle ---------------------------------------------------------


def test_enumeration_counts_for_reader_writer_pair():
    t1 = make_transaction("T1", "R(t) C")
    t2 = make_transaction("T2", "W(t) C")
    for level in (RC, SI):
        w = workload(level, t1, t2)
        schedules = list(enumerate_allowed_schedules(w))
        assert len(schedules) == 6
        for s in schedules:
            assert allowed_under_allocation(s, w.alloc).allowed


def test_enumeration_of_empty_workload():
    w = Workload((), LevelAllocation({}))
    schedules = list(enumerate_allowed_schedules(w))
    assert len(schedules) == 1
    assert schedules[0].txns == ()


def test_enumeration_respects_limits():
    w = s2_workload(RC)
    with pytest.raises(LimitExceeded):
        list(enumerate_allowed_schedules(w, SearchLimits(max_ops=4)))
    with pytest.raises(LimitExceeded):
        list(enumerate_allowed_schedules(w, SearchLimits(max_txns=2)))
    with pytest.raises(LimitExceeded):
        list(enumerate_allowed_schedules(w, SearchLimits(max_orders=10)))


# --- exact robustness --------------------------------------------------------------


def test_s2_workload_rc_exact_verdicts():
    w = s2_workload(RC)
    assert is_exact_view_robust(w).robust
    verdict = is_exact_conflict_robust(w)
    assert not verdict.robust
    subset, ce = verdict.counterexample
    assert subset == ("T1", "T2", "T3")
    assert ce == S2  # conflict-equivalent to the split interleaving, here equal
    from oracles import conflict_equivalent_oracle

    assert conflict_equivalent_oracle(ce, S2)


def test_singleton_workload_robust_everywhere():
    w = workload(RC, make_transaction("T1", "R(t) W(t) C"))
    assert is_exact_conflict_robust(w).robust
    assert is_exact_view_robust(w).robust
    assert is_conflict_robust(w).robust
    assert is_view_robust(w).robust


# --- subset robustness ----------------------------------------------------------------


def test_s2_workload_rc_subset_verdicts():
    w = s2_workload(RC)
    verdict = is_view_robust(w)
    assert not verdict.robust
    subset, ce = verdict.counterexample
    assert subset == ("T1", "T2")
    assert ce == S3
    assert not is_conflict_robust(w).robust


def test_lost_update_under_si_is_robust():
    assert is_conflict_robust(workload(SI, *W_LU)).robust
    assert is_view_robust(workload(SI, *W_LU)).robust


def test_write_skew_under_si_is_not_robust():
    verdict = is_conflict_robust(workload(SI, *W_WS))
    assert not verdict.robust
    subset, ce = verdict.counterexample
    assert subset == ("T1", "T2")
    ok, cycle = is_conflict_serializable(ce)
    assert not ok and set(cycle) == {"T1", "T2"}


def test_robustness_limits():
    w = s2_workload(RC)
    with pytest.raises(LimitExceeded):
        is_conflict_robust(w, SearchLimits(max_txns=2))
    with pytest.raises(LimitExceeded):
        is_view_robust(w, SearchLimits(max_orders=3))
    with pytest.raises(LimitExceeded):
        is_conflict_robust(w, SearchLimits(budget_seconds=0.0))


# --- split search ---------------------------------------------------------------------


def test_split_search_on_lost_update():
    hit = find_split_counterexample(workload(RC, *W_LU))
    assert hit is not None
    subset, s = hit
    assert subset == ("T1", "T2")
    assert s == lost_update_schedule()
    ok, _ = is_generalized_split_schedule(s)
    assert ok
    assert allowed_under_allocation(s, all_level(RC, *W_LU)).allowed


def test_split_search_absent_under_si_lost_update():
    assert find_split_counterexample(workload(SI, *W_LU)) is None


def test_split_search_on_fig2():
    hit = find_split_counterexample(s2_workload(RC))
    assert hit is not None
    subset, s = hit
    assert subset == ("T1", "T2")
    assert s == S3


def test_split_search_agrees_with_enumeration_oracle():
    for w in curated_workloads()[:25] + random_workloads(60, seed=3):
        present = find_split_counterexample(w) is not None
        assert present == (not is_conflict_robust(w).robust), w


def test_emitted_split_schedules_are_never_serializable():
    for w in curated_workloads()[:20]:
        for subset, s in split_schedules_oracle(w):
            ok, _ = is_conflict_serializable(s)
            assert not ok
            assert not is_view_serializable(s).verdict
            assert allowed_under_allocation(s, w.alloc.restrict(subset)).allowed


# --- polynomial split decider against the exhaustive oracle ---------------------------

ORACLE_LIMITS = SearchLimits(max_txns=6, max_ops=24)


def exhaustive_split(w):
    return next(split_schedules_oracle(w, ORACLE_LIMITS), None)


def test_split_decider_matches_the_exhaustive_search_on_the_criterion_5_corpus():
    for txns in curated_txn_sets():
        ids = [t.id for t in txns]
        for levels in itertools.product((RC, SI, SSI), repeat=len(ids)):
            w = Workload(txns, LevelAllocation(dict(zip(ids, levels))))
            assert find_split_counterexample(w) == exhaustive_split(w), w
    for w in random_workloads(500):
        assert find_split_counterexample(w) == exhaustive_split(w), w


_BODY_OPS = st.sampled_from([f"{a}({o})" for a in "RW" for o in "xyzu"])


@st.composite
def level_workloads(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    txns = []
    for i in range(1, n + 1):
        body = draw(st.lists(_BODY_OPS, min_size=1, max_size=3))
        txns.append(make_transaction(f"T{i}", " ".join(body + ["C"])))
    levels = draw(st.lists(st.sampled_from([RC, SI, SSI]), min_size=n, max_size=n))
    return Workload(tuple(txns), LevelAllocation({t.id: lvl for t, lvl in zip(txns, levels)}))


@given(level_workloads())
@settings(max_examples=80, deadline=None)
def test_split_decider_matches_the_exhaustive_search_on_generated_workloads(w):
    expected = exhaustive_split(w)
    got = find_split_counterexample(w)
    assert (got is None) == (expected is None)
    if expected is not None and len(expected[0]) <= 3:
        assert got == expected
    if got is not None:
        subset, s = got
        assert len(subset) == len(expected[0])
        assert is_generalized_split_schedule(s)[0]
        assert allowed_under_allocation(s, w.alloc.restrict(subset)).allowed


def test_split_decider_matches_the_schedule_based_decider_it_replaced():
    for w in [*criterion_5_workloads(), *curated_workloads()]:
        assert find_split_counterexample(w) == split_decider_oracle(w), w


@given(level_workloads())
@settings(max_examples=60, deadline=None)
def test_split_decider_matches_the_schedule_based_decider_on_generated_workloads(w):
    assert find_split_counterexample(w) == split_decider_oracle(w)


def test_split_decider_matches_the_schedule_based_decider_on_ssi_heavy_workloads():
    """The oracle re-checks every candidate with
    :func:`is_generalized_split_schedule`; the decider only its winner."""
    sizes = []
    for w in ssi_heavy_workloads(600):
        got = find_split_counterexample(w)
        assert got == split_decider_oracle(w), w
        sizes += [len(got[0])] if got else []
    assert sizes.count(2) > 100 and sizes.count(3) > 30 and sizes.count(4) > 0


def assert_the_split_entry_decides_the_mode(w) -> bool:
    """In the view sense the split entry answers None exactly when the
    enumeration finds the workload view-robust, and when a transaction
    reads an object it wrote earlier, it gives the enumeration's
    counterexample; in the conflict sense it is still the decider the
    schedule-based oracle checks.  Returns whether the view answer is a
    transaction alone."""
    verdict = is_view_robust(w)
    got = find_split_counterexample(w, mode=RobustnessMode.VIEW)
    assert (got is None) == verdict.robust, w
    if any(_reads_its_own_write(t) for t in w.txns):
        assert got == verdict.counterexample, w
    assert find_split_counterexample(w, mode=RobustnessMode.CONFLICT) == split_decider_oracle(w), w
    return got is not None and len(got[0]) == 1


def test_the_split_entry_decides_the_view_sense_on_reads_of_own_writes():
    assert all(assert_the_split_entry_decides_the_mode(w) for w in own_write_workloads())


def test_the_split_entry_refuses_the_exact_modes():
    for mode in (RobustnessMode.EXACT_CONFLICT, RobustnessMode.EXACT_VIEW):
        for w in (s2_workload(RC), s2_predicate_workload()):
            with pytest.raises(ValueError, match="subset modes only"):
                find_split_counterexample(w, mode=mode)


def test_the_split_entry_decides_the_view_sense_on_the_criterion_5_corpus():
    """The corpus has no transaction reading its own write, so there the
    view answer is the conflict one."""
    for w in criterion_5_workloads():
        assert not assert_the_split_entry_decides_the_mode(w)
        assert find_split_counterexample(w, mode=RobustnessMode.VIEW) == find_split_counterexample(w)


@given(level_workloads(max_n=3))
@settings(max_examples=60, deadline=None)
def test_the_split_entry_decides_the_view_sense_on_generated_workloads(w):
    assert_the_split_entry_decides_the_mode(w)


def split_pairs(w):
    """Per (T1, cut, Tj != T1), by id, the rule's (completes, forward,
    backward, out, into) from :func:`_split_pairs` on the compiled workload."""
    eng = LevelEngine(w.txns, w.alloc)
    ids, out = w.txn_ids, {}
    for t1 in range(eng.n):
        tjs = [j for j in range(eng.n) if j != t1]
        cuts = list(_split_pairs(eng, t1, tjs))
        assert len(cuts) == len(eng.ops_of[t1]) - 1
        for cut, masks in enumerate(cuts, 1):
            for tj in tjs:
                out[ids[t1], cut, ids[tj]] = tuple(bool(m >> tj & 1) for m in masks)
    return out


def assert_split_pairs_match_the_oracle(w):
    for (t1, cut, tj), got in split_pairs(w).items():
        assert got == split_pair_oracle(w, t1, cut, tj), (w, t1, cut, tj)


def test_the_pair_rule_matches_the_pair_oracle_on_the_criterion_5_corpus():
    for w in criterion_5_workloads():
        assert_split_pairs_match_the_oracle(w)


def test_the_pair_rule_matches_the_pair_oracle_on_ssi_heavy_workloads():
    for w in ssi_heavy_workloads(600):
        assert_split_pairs_match_the_oracle(w)


@given(level_workloads())
@settings(max_examples=150, deadline=None)
def test_the_pair_rule_matches_the_pair_oracle_on_generated_workloads(w):
    assert_split_pairs_match_the_oracle(w)


def test_the_pair_rule_on_hand_built_pairs():
    """A commit-only transaction (no cut, and no object to shift by); an RC
    T1 that reads after the cut what Tj writes sees Tj's version (Tj ->wr
    T1) where an SI one sees INIT (T1 ->rw Tj); a T1 that writes and reads
    one object on both sides of the cut."""
    def pairs(levels, **bodies):
        w = Workload(tuple(make_transaction(t, b) for t, b in bodies.items()), LevelAllocation(dict(zip(bodies, levels))))
        assert_split_pairs_match_the_oracle(w)
        return split_pairs(w)

    assert pairs((RC, SI), T1="C", T2="W(x) C") == {("T2", 1, "T1"): (True, False, False, False, False)}
    assert find_split_counterexample(Workload((make_transaction("T1", "C"),), LevelAllocation({"T1": SSI}))) is None
    for level, edges in ((RC, (False, True)), (SI, (True, False)), (SSI, (True, False))):
        assert pairs((level, level), T1="W(y) R(x) C", T2="W(x) C")["T1", 1, "T2"] == (True, *edges, level is SSI and edges[0], False)
    both = pairs((RC, RC), T1="W(x) R(y) W(x) R(y) C", T2="W(y) C")
    assert [both["T1", cut, "T2"] for cut in (1, 2, 3, 4)] == [(True, False, True, False, False), (True, True, True, False, False), (True, True, True, False, False), (True, True, False, False, False)]
    assert [pairs((SI, SI), T1="W(x) R(y) W(x) C", T2=tj)["T1", 2, "T2"][:3] for tj in ("W(x) C", "R(x) C", "W(y) C")] == [(False, False, False), (True, False, True), (True, True, False)]


def test_the_split_decider_rejects_a_candidate_holding_an_ssi_dangerous_structure():
    # T2[:1] . T1 . T3 . T2[1:] carries the ring T2 -> T1 -> T3 -> T2 and is
    # allowed under SI; under SSI it holds the dangerous structure T3 -> T2 -> T1
    txns = (
        make_transaction("T1", "W(y) W(z) C"),
        make_transaction("T2", "R(y) W(x) C"),
        make_transaction("T3", "W(z) R(x) C"),
    )
    ssi = Workload(txns, LevelAllocation.uniform(SSI, ("T1", "T2", "T3")))
    assert find_split_counterexample(ssi) is None
    assert is_conflict_robust(ssi).robust
    si = Workload(txns, LevelAllocation.uniform(SI, ("T1", "T2", "T3")))
    hit = find_split_counterexample(si)
    assert hit is not None and hit[0] == ("T1", "T2", "T3")
    assert hit == next(split_schedules_oracle(si))
    assert render_schedule(hit[1]).splitlines()[3] == "order: R2(y) W1(y) W1(z) C1 W3(z) R3(x) C3 W2(x) C2"


def test_split_decider_ignores_count_limits_but_keeps_the_budget():
    ring = tuple(make_transaction(f"T{i}", f"R(x{i}) W(x{i % 8 + 1}) C") for i in range(1, 9))
    w = Workload(ring, LevelAllocation.uniform(SI, (t.id for t in ring)))
    subset, s = find_split_counterexample(w, SearchLimits(max_txns=1, max_ops=1, max_orders=1))
    assert len(subset) == 8
    assert not is_conflict_serializable(s)[0]
    assert allowed_under_allocation(s, w.alloc).allowed
    with pytest.raises(LimitExceeded):
        find_split_counterexample(w, SearchLimits(budget_seconds=0.0))


def test_search_limits_reject_values_below_their_range():
    for bad in (dict(max_txns=0), dict(max_ops=0), dict(max_orders=-1), dict(budget_seconds=-0.5)):
        with pytest.raises(ValueError):
            SearchLimits(**bad)
    with pytest.raises(ValueError):
        SearchLimits(budget_seconds=float("nan"))
    assert SearchLimits(budget_seconds=0.0).budget_seconds == 0.0


# --- the enumeration against the per-order oracle -----------------------------------

def _until_limit(schedules):
    """The schedules yielded before the search stopped, and whether a limit stopped it."""
    out = []
    try:
        for s in schedules:
            out.append(s)
    except LimitExceeded:
        return out, True
    return out, False


LIMIT_CASES = [
    workload(RC, *W_LU),
    workload(SI, *W_WS),
    s2_workload(RC),
    s2_workload(SI),
    workload(SSI, SD_T1, SD_T2, SD_T3),
]


def test_max_orders_counts_every_interleaving_of_a_pruned_prefix():
    for w in LIMIT_CASES:
        total = math.factorial(w.total_ops)
        for t in w.txns:
            total //= math.factorial(len(t.ops))
        allowed = list(enumerate_allowed_schedules(w, SearchLimits(max_orders=total)))
        with pytest.raises(LimitExceeded):
            list(enumerate_allowed_schedules(w, SearchLimits(max_orders=total - 1)))
        if w.txns == W_LU:
            assert len(allowed) < total  # some prefixes are dropped whole
            # the limit stops the walk after the same schedules as one
            # completion per interleaving would
            for m in range(1, total + 1):
                got = _until_limit(enumerate_allowed_schedules(w, SearchLimits(max_orders=m)))
                assert got == _until_limit(allowed_schedules_oracle(w, Budget(SearchLimits(max_orders=m)))), m


DECIDERS = {
    RobustnessMode.CONFLICT: is_conflict_robust,
    RobustnessMode.VIEW: is_view_robust,
    RobustnessMode.EXACT_CONFLICT: is_exact_conflict_robust,
    RobustnessMode.EXACT_VIEW: is_exact_view_robust,
}


def _rendered(w, ce):
    if ce is None:
        return None
    subset, s = ce
    return subset, render_schedule(s, w.alloc.restrict(subset))


def assert_enumeration_matches_the_oracle(w, memo=None):
    allowed, expected = enumeration_oracle(w, memo=memo)
    assert list(enumerate_allowed_schedules(w)) == allowed, w
    for mode, decide in DECIDERS.items():
        verdict = decide(w)
        assert verdict.robust == (expected[mode] is None), (w, mode)
        assert _rendered(w, verdict.counterexample) == _rendered(w, expected[mode]), (w, mode)


@pytest.fixture(scope="module")
def criterion_5_failures():
    """The memo of :func:`first_failures_oracle` that both criterion-5 tests
    read: their (transaction subset, levels) pairs recur across the corpus's
    allocations, and whichever test runs first fills it.  It keeps two
    schedules per pair, never a listing."""
    return {}


def test_enumeration_matches_the_per_order_oracle_on_the_criterion_5_corpus(criterion_5_failures):
    for w in criterion_5_workloads():
        assert_enumeration_matches_the_oracle(w, criterion_5_failures)


def test_enumeration_matches_the_per_order_oracle_on_four_transactions():
    workloads = four_txn_workloads(30) + four_txn_workloads(8, seed=4045, read_write_first=True)
    assert sum(list(w.alloc.levels.values()).count(SSI) >= 3 for w in workloads) >= 3
    for w in workloads:
        assert_enumeration_matches_the_oracle(w)
    assert sum(not is_conflict_robust(w).robust for w in workloads) >= 3


def view_predicate_workloads():
    """40 seeded workloads of two or three transactions and at most eight
    operations under the view-serializable-only predicate."""
    rng = random.Random(2)
    workloads = []
    while len(workloads) < 40:
        txns = tuple(random_txn(f"T{i + 1}", rng) for i in range(rng.randint(2, 3)))
        if sum(len(t.ops) for t in txns) <= 8:
            workloads.append(Workload(txns, PredicateAllocation("view-serializable-only")))
    return workloads


def test_enumeration_matches_the_definitional_pool_under_the_view_predicate():
    """Under the view-serializable-only predicate the library admits each
    schedule with its view search; the oracle looks the schedule's view
    signature up among those of every serial order."""
    workloads = view_predicate_workloads()
    assert sum(len(w.txns) == 3 for w in workloads) >= 15
    for w in workloads:
        assert_enumeration_matches_the_oracle(w)
    assert sum(not is_conflict_robust(w).robust for w in workloads) >= 3


def assert_predicate_sweep_matches_the_oracle(w):
    """The sweep that searches each view signature once lists, decides and
    charges as the one that searches every completion: the same listing,
    and per decider the same verdict and counterexample under a limit of
    exactly the oracle's charge, and a trip one candidate below it."""
    assert list(enumerate_allowed_schedules(w)) == list(enumerate_allowed_oracle(w, Budget(SearchLimits())))
    for mode, (expected, charge) in predicate_verdicts_oracle(w).items():
        decide = DECIDERS[mode]
        assert decide(w, SearchLimits(max_orders=charge)) == expected, (w, mode)
        if charge > 1:
            with pytest.raises(LimitExceeded):
                decide(w, SearchLimits(max_orders=charge - 1))


def test_the_predicate_sweep_matches_the_search_of_every_completion():
    workloads = [s2_predicate_workload(), *view_predicate_workloads()]
    for w in workloads:
        assert_predicate_sweep_matches_the_oracle(w)
    assert sum(not is_conflict_robust(w).robust for w in workloads) >= 4


@st.composite
def predicate_workloads(draw):
    """Two or three transactions over x and y, reads of their own writes
    included (no serial order matches those, so their search charges
    nothing), with at most four body operations in all."""
    n = draw(st.integers(min_value=2, max_value=3))
    bodies = [draw(st.lists(st.sampled_from(["R(x)", "W(x)", "R(y)", "W(y)"]), min_size=1, max_size=2)) for _ in range(n)]
    assume(sum(map(len, bodies)) <= 4)
    txns = tuple(make_transaction(f"T{i}", " ".join(body + ["C"])) for i, body in enumerate(bodies, 1))
    return Workload(txns, PredicateAllocation("view-serializable-only"))


@given(predicate_workloads())
@settings(max_examples=25, deadline=None)
def test_the_predicate_sweep_matches_the_search_of_every_completion_on_generated_workloads(w):
    assert_predicate_sweep_matches_the_oracle(w)


def assert_no_split_schedule_passes_the_predicate(w) -> int:
    """The exhaustive split search finds nothing under the
    view-serializable-only predicate, and the library answers None there
    without searching; the split-shaped completions the predicate rejected
    are counted, and each fails the definitional signature pool too."""
    assert list(split_schedules_oracle(w, ORACLE_LIMITS)) == [], w
    assert find_split_counterexample(w) is None
    shaped = [s for _, s in split_completions_oracle(w, Budget(ORACLE_LIMITS))]
    assert all(view_signature(s) not in oracle_signature_pool(s.txns) for s in shaped), w
    return len(shaped)


def test_no_split_schedule_passes_the_view_predicate():
    assert assert_no_split_schedule_passes_the_predicate(s2_predicate_workload()) > 0
    assert sum(map(assert_no_split_schedule_passes_the_predicate, view_predicate_workloads())) > 0


@given(predicate_workloads())
@settings(max_examples=40, deadline=None)
def test_no_split_schedule_passes_the_view_predicate_on_generated_workloads(w):
    assert_no_split_schedule_passes_the_predicate(w)


def _oracle_charge(w, mode):
    """Interleavings the per-order oracle walks, smallest subset first, until
    it has the verdict of ``mode``: those of every subset the decider sweeps
    when robust, otherwise up to and including the counterexample's."""
    ids = sorted(w.txn_ids)
    if mode.value.startswith("exact-"):
        subsets = [tuple(ids)]
    else:
        subsets = [sub for k in range(len(ids) + 1) for sub in itertools.combinations(ids, k)]
    view = mode in (RobustnessMode.VIEW, RobustnessMode.EXACT_VIEW)
    budget = Budget(SearchLimits())
    for subset in subsets:
        for s in allowed_schedules_oracle(w.restrict(subset), budget):
            if not (is_view_serializable(s).verdict if view else is_conflict_serializable(s)[0]):
                return budget.count, False
    orders = 0
    for subset in subsets:
        part = w.restrict(subset)
        orders += math.factorial(part.total_ops) // math.prod(math.factorial(len(t.ops)) for t in part.txns)
    assert budget.count == orders
    return orders, True


def test_every_decider_is_charged_for_every_interleaving_up_to_its_verdict():
    """Subsets the static conflict test clears are charged in one tick: the
    criterion-5 sample holds them to the walk's count at both ends."""
    sample = [*LIMIT_CASES, *itertools.islice(criterion_5_workloads(), 0, None, 20)]
    assert len(sample) >= 45
    for w in sample:
        for mode, decide in DECIDERS.items():
            charge, robust = _oracle_charge(w, mode)
            assert decide(w, SearchLimits(max_orders=charge)).robust == robust, (w, mode)
            if charge > 1:  # no limit lies below one order
                with pytest.raises(LimitExceeded):
                    decide(w, SearchLimits(max_orders=charge - 1))


@given(level_workloads(max_n=3))
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_the_per_order_oracle_on_generated_workloads(w):
    assert_enumeration_matches_the_oracle(w)


# --- the static conflict test ------------------------------------------------------------


def _conflicting_operation_pairs(t, u):
    return sum(a.obj == b.obj and (a.is_write or b.is_write) for a in t.ops if a.obj for b in u.ops if b.obj)


def _reads_its_own_write(t):
    return any(op.is_read and any(w.is_write and w.obj == op.obj for w in t.ops[:k]) for k, op in enumerate(t.ops))


def _cleared_subsets(w, view):
    """The subsets the static test clears, from its tables, after checking
    the tables against the transactions."""
    eng = LevelEngine(w.txns, w.alloc)
    pairs = _conflict_pairs(eng)
    expected = [(i, j, min(2, count)) for i, j in itertools.combinations(range(len(w.txns)), 2)
                if (count := _conflicting_operation_pairs(w.txns[i], w.txns[j]))]
    assert pairs == expected
    guarded = _own_write_readers(eng)
    assert guarded == sum(1 << i for i, t in enumerate(w.txns) if _reads_its_own_write(t))
    for size in range(len(w.txns) + 1):
        for subset in itertools.combinations(range(len(w.txns)), size):
            mask = sum(1 << i for i in subset)
            if not (view and mask & guarded or _has_conflict_cycle(pairs, mask)):
                yield tuple(w.txns[i].id for i in subset)


def assert_cleared_subsets_never_fail(w, memo=None):
    """No allowed schedule of a cleared subset fails, by the per-order oracle
    (through ``memo`` when given, see :func:`first_failures_oracle`); and in
    the view sense, a transaction reading its own earlier write fails alone,
    so the guard is needed.  Returns how many cleared subsets have two
    transactions or more."""
    cleared, memo = 0, {} if memo is None else memo
    for view in (False, True):
        for subset in _cleared_subsets(w, view):
            cleared += len(subset) >= 2
            failure = first_failures_oracle(w.restrict(subset), memo)[view]
            assert failure is None, (w, subset, failure)
    for t in w.txns:
        if _reads_its_own_write(t):
            s = next(allowed_schedules_oracle(w.restrict([t.id]), Budget(SearchLimits())))
            assert conflict_serializable_oracle(s)[0] and view_signature(s) not in oracle_signature_pool(s.txns)
    return cleared


def test_no_subset_the_static_test_clears_fails_on_the_criterion_5_corpus(criterion_5_failures):
    cleared = sum(assert_cleared_subsets_never_fail(w, criterion_5_failures) for w in criterion_5_workloads())
    assert cleared >= 500


@given(level_workloads(max_n=3))
@settings(max_examples=60, deadline=None)
def test_no_subset_the_static_test_clears_fails_on_generated_workloads(w):
    assert_cleared_subsets_never_fail(w)


def own_write_workloads():
    """Every level allocation of four transaction sets in which a
    transaction reads an object it wrote earlier."""
    bodies = [("W(x) R(x)",), ("R(y)", "W(x) R(x)"), ("W(x) R(y)", "W(y) W(x) R(x)"), ("R(x) W(y)", "W(z) R(z) R(y)")]
    for body in bodies:
        txns = tuple(make_transaction(f"T{i}", f"{b} C") for i, b in enumerate(body, 1))
        for levels in itertools.product((RC, SI, SSI), repeat=len(txns)):
            yield Workload(txns, LevelAllocation({t.id: lvl for t, lvl in zip(txns, levels)}))


def test_enumeration_matches_the_oracle_on_reads_of_own_writes():
    """A transaction reading its own earlier write fails the view sense
    alone, though its conflict multigraph is a forest: the static test
    must not clear it there."""
    for w in own_write_workloads():
        assert_enumeration_matches_the_oracle(w)
        assert not is_view_robust(w).robust and not is_exact_view_robust(w).robust


def test_the_static_test_sees_parallel_conflicts_and_rings():
    """Two conflicting operation pairs between two transactions, or a ring
    of single ones through three, can close a dependency cycle; a path
    cannot.  A read after the transaction's own write is no conflict."""
    t1, t2, t3 = make_transaction("T1", "R(x) W(y) C"), make_transaction("T2", "W(x) C"), make_transaction("T3", "W(y) R(z) C")
    ring = make_transaction("T4", "W(z) W(x) C")
    cases = [
        ((t1, t2), False),
        ((t1, make_transaction("T2", "W(x) R(y) C")), True),
        ((t1, t2, t3), False),
        ((t1, t3, ring), True),
        ((make_transaction("T1", "W(x) R(x) C"),), False),
    ]
    for txns, cyclic in cases:
        eng = LevelEngine(txns, LevelAllocation.uniform(RC, (t.id for t in txns)))
        assert _has_conflict_cycle(_conflict_pairs(eng), (1 << len(txns)) - 1) == cyclic, txns


# --- transforms -----------------------------------------------------------------------


def test_extend_with_serial_tail_rebuilds_s2():
    assert extend_with_serial_tail(S3, S2_TXNS) == S2


def test_extend_with_full_set_is_identity():
    assert extend_with_serial_tail(S3, (S2_T1, S2_T2)) == S3


def test_extend_with_fresh_reader():
    t3 = make_transaction("T3", "R(q) C")
    s = extend_with_serial_tail(lost_update_schedule(), W_LU + (t3,))
    assert s.vf[opid("T3", 1)] == INIT
    assert [o for o in s.order][-2:] == [opid("T3", 1), opid("T3", 2)]
    # original order, version order and reads unchanged
    base = lost_update_schedule()
    assert s.order[: len(base.order)] == base.order
    assert s.vf[opid("T1", 1)] == INIT and s.vf[opid("T2", 1)] == INIT


def test_extend_requires_superset():
    with pytest.raises(TransactionSetMismatch):
        extend_with_serial_tail(S3, (S2_T1,))


def test_extend_preserves_admissibility_and_non_serializability():
    pool = [w for w in random_workloads(300, seed=9) if len(w.txns) >= 2]
    fresh = make_transaction("TZ", "R(p) W(p) C")
    checked = 0
    for w in pool:
        verdict = is_conflict_robust(w)
        if verdict.robust:
            continue
        subset, ce = verdict.counterexample
        full = w.txns + (fresh,)
        alloc = LevelAllocation({**w.alloc.levels, "TZ": RC})
        extended = extend_with_serial_tail(ce, full)
        assert allowed_under_allocation(extended, alloc).allowed
        ok, _ = is_conflict_serializable(extended)
        assert not ok
        checked += 1
        if checked >= 12:
            break
    assert checked >= 5


def test_restrict_to_cycle_rebuilds_s3():
    assert restrict_to_cycle(S2, ("T1", "T2")) == S3


def test_restrict_to_cycle_remaps_dangling_read():
    s = restrict_to_cycle(S1, ("T2", "T4"))
    assert s.vf[opid("T4", 3)] == INIT  # its writer was dropped
    assert s.txn_ids == ("T2", "T4")
    assert s.vorder["v"] == (INIT,)


def test_restrict_to_cycle_remaps_a_dangling_read_to_an_earlier_retained_write():
    t1 = make_transaction("T1", "W(x) W(y) C")
    t2 = make_transaction("T2", "W(x) C")
    t3 = make_transaction("T3", "R(x) R(y) C")
    steps = (("T1", 1), ("T2", 1), ("T2", 2), ("T3", 1), ("T3", 2), ("T1", 2), ("T1", 3), ("T3", 3))
    order = (INIT, *(opid(tid, k) for tid, k in steps))
    vorder = {"x": (opid("T1", 1), opid("T2", 1)), "y": (opid("T1", 2),)}
    s = make_schedule((t1, t2, t3), order, vorder, {opid("T3", 1): opid("T2", 1), opid("T3", 2): INIT})
    assert validate_schedule(s) == []
    r = restrict_to_cycle(s, ("T1", "T3"))
    assert r.vf[opid("T3", 1)] == opid("T1", 1)  # its writer T2 was dropped; T1#1 installs before it
    assert r.vf[opid("T3", 2)] == INIT
    assert r.vorder["x"] == (INIT, opid("T1", 1))


def test_restrict_to_cycle_full_set_is_identity():
    assert restrict_to_cycle(S3, ("T1", "T2")) == S3


def test_restrict_to_cycle_rejects_non_cycles():
    with pytest.raises(NotACycle):
        restrict_to_cycle(S2, ("T1", "T3"))  # only a one-way edge
    with pytest.raises(NotACycle):
        restrict_to_cycle(S2, ("T1",))


def test_restrict_preserves_dependencies_between_retained_transactions():
    cases = [(S2, ("T1", "T2")), (S1, ("T2", "T4"))]
    for w in random_workloads(300, seed=21):
        if len(w.txns) < 3:
            continue
        verdict = is_exact_conflict_robust(w)
        if verdict.robust:
            continue
        _, ce = verdict.counterexample
        ok, cycle = is_conflict_serializable(ce)
        if not ok and len(cycle) < len(ce.txns):
            cases.append((ce, cycle))
        if len(cases) >= 10:
            break
    assert len(cases) >= 3
    for s, keep in cases:
        reduced = restrict_to_cycle(s, keep)
        before = serialization_graph(s).edge_pairs
        after = serialization_graph(reduced).edge_pairs
        kept = {(a, b) for (a, b) in before if a in set(keep) and b in set(keep)}
        assert kept <= after


def test_minimize_counterexample_on_s2():
    out = minimize_counterexample(S2, all_level(RC, *S2_TXNS))
    assert out == S3
    assert is_generalized_split_schedule(out)[0]
    assert set(out.txn_ids) == {"T1", "T2"}


def test_minimize_already_split_is_identity():
    s = lost_update_schedule()
    assert minimize_counterexample(s, all_level(RC, *W_LU)) == s


def test_minimize_strips_serial_tail():
    t3 = make_transaction("T3", "R(q) C")
    extended = extend_with_serial_tail(lost_update_schedule(), W_LU + (t3,))
    alloc = LevelAllocation({"T1": RC, "T2": RC, "T3": RC})
    assert is_multiversion_split_schedule(extended)[0]
    out = minimize_counterexample(extended, alloc)
    assert out == lost_update_schedule()


def test_minimize_rejects_serializable_input():
    with pytest.raises(ValueError):
        minimize_counterexample(serial_schedule(S2_TXNS), all_level(RC, *S2_TXNS))


# --- condition-1 and headline equivalences ------------------------------------------------


def test_condition_1_holds_for_level_allocations():
    assert check_condition_1(s2_workload(RC))
    assert check_condition_1(workload(RC, *W_LU))
    assert check_condition_1(workload(SI, *W_LU))  # robust, so vacuous
    assert check_condition_1(workload(RC, make_transaction("T1", "R(t) W(t) C")))


def test_condition_1_fails_for_the_view_serializable_predicate():
    assert not check_condition_1(s2_predicate_workload())


def test_predicate_workload_gap():
    w = s2_predicate_workload()
    assert is_view_robust(w).robust
    verdict = is_conflict_robust(w)
    assert not verdict.robust
    _, ce = verdict.counterexample
    assert is_view_serializable(ce).verdict
    ok, _ = is_conflict_serializable(ce)
    assert not ok


def test_conflict_robust_implies_view_robust_on_sample():
    for w in random_workloads(80, seed=31):
        if is_conflict_robust(w).robust:
            assert is_view_robust(w).robust, w


def test_condition_1_forces_verdict_agreement():
    # independent of the headline sweep: wherever the split-form condition
    # holds, the two robustness notions must coincide
    sample = curated_workloads()[:10] + random_workloads(25, seed=61)
    for w in sample:
        if check_condition_1(w):
            assert is_conflict_robust(w).robust == is_view_robust(w).robust, w


def test_all_ssi_soundness_depends_on_the_degenerate_pivot_reading():
    # Under the literal reading of the structure check, a two-transaction
    # chain that loops back to its start is never flagged, so crossed write
    # skew slips through an all-SSI allocation.
    t1 = make_transaction("T1", "R(x) W(y) C")
    t2 = make_transaction("T2", "R(y) W(x) C")
    w = Workload((t1, t2), LevelAllocation.uniform(SSI, ("T1", "T2")))
    leaked = [s for s in enumerate_allowed_schedules(w) if not is_conflict_serializable(s)[0]]
    assert leaked, "literal reading: the crossed write skew must be admissible"
    # the robustness deciders agree with each other about it
    assert not is_conflict_robust(w).robust
    assert not is_view_robust(w).robust
    assert find_split_counterexample(w) is not None


def _interleaving_run(walk, txns, limits):
    """The orders ``walk`` yields under ``limits``, the budget's count at
    each, whether it stopped at a limit, and the budget's final count."""
    budget, orders, counts = Budget(limits), [], []
    try:
        for order in walk(txns, budget):
            orders.append(order)
            counts.append(budget.count)
    except LimitExceeded:
        return orders, counts, True, budget.count
    return orders, counts, False, budget.count


def test_the_interleaving_walk_matches_the_oracle_on_random_transaction_sets():
    """The next permutations of the word of transaction numbers are the
    orders of the depth-first walk, in its order and with its charges, on
    sets of 0-4 transactions, commit-only ones included; at every
    ``max_orders`` up to the total both stop after the same order.  Sets
    have at most seven operations, so every limit can be tried."""
    rng, sizes = random.Random(29), []
    while len(sizes) < 150:
        bodies = [[rng.choice(("R(x)", "W(x)", "R(y)", "W(y)")) for _ in range(rng.randint(0, 2))] for _ in range(rng.randint(0, 4))]
        if sum(len(body) + 1 for body in bodies) > 7:
            continue
        txns = tuple(make_transaction(f"T{i}", " ".join(body + ["C"])) for i, body in enumerate(bodies, 1))
        expected = _interleaving_run(interleavings_oracle, txns, SearchLimits())
        assert _interleaving_run(_iter_interleavings, txns, SearchLimits()) == expected, bodies
        total = len(expected[0])
        assert expected[1] == list(range(1, total + 1)) and expected[3] == total
        for k in range(1, total + 1):
            got = _interleaving_run(_iter_interleavings, txns, SearchLimits(max_orders=k))
            assert got == _interleaving_run(interleavings_oracle, txns, SearchLimits(max_orders=k)), (bodies, k)
            assert got[0] == expected[0][:k] and got[2] == (k < total), (bodies, k)
        sizes.append(len(txns))
    assert all(sizes.count(n) >= 10 for n in range(5))


def test_every_all_ssi_schedule_is_conflict_serializable_with_degenerate_pivot():
    # exhaustive at desk scale: with chains allowed to loop back to their
    # start, schedules admissible under an all-SSI allocation never carry a
    # dependency cycle
    from corpus import three_small_txn_workloads, two_txn_shape_workloads, sampled_three_txn_workloads
    from oracles import complete_under_allocation_oracle
    from mvsched.core import Budget

    families = two_txn_shape_workloads() + three_small_txn_workloads()
    families += sampled_three_txn_workloads(8, seed=0xA11CE)
    for txns in families:
        alloc = LevelAllocation.uniform(SSI, (t.id for t in txns))
        budget = Budget(SearchLimits())
        for order in interleavings_oracle(tuple(sorted(txns, key=lambda t: t.id)), budget):
            s = complete_under_allocation_oracle(txns, order, alloc, allow_degenerate_pivot=True)
            if s is None:
                continue
            ok, cycle = is_conflict_serializable(s)
            assert ok, (txns, s, cycle)


def test_exact_equals_subset_conflict_robustness_on_sample():
    for w in random_workloads(60, seed=41):
        assert is_exact_conflict_robust(w).robust == is_conflict_robust(w).robust, w


def test_verdict_counterexamples_are_genuine():
    for w in random_workloads(60, seed=51):
        verdict = is_view_robust(w)
        if verdict.robust:
            continue
        subset, ce = verdict.counterexample
        assert set(ce.txn_ids) == set(subset)
        assert allowed_under_allocation(ce, w.alloc.restrict(subset)).allowed
        assert not is_view_serializable(ce).verdict
