"""Split schedules, robustness deciders, the enumeration oracle, transforms."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import criterion_5_workloads, curated_txn_sets, curated_workloads, four_txn_workloads, random_workloads
from fixtures import *
from oracles import allowed_schedules_oracle, enumeration_oracle

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
    check_condition_1,
    enumerate_allowed_schedules,
    extend_with_serial_tail,
    find_split_counterexample,
    is_conflict_robust,
    is_conflict_serializable,
    is_exact_conflict_robust,
    is_exact_view_robust,
    is_generalized_split_schedule,
    is_multiversion_split_schedule,
    is_view_robust,
    is_view_serializable,
    iter_split_schedules,
    make_transaction,
    minimize_counterexample,
    render_schedule,
    restrict_to_cycle,
    serial_schedule,
    serialization_graph,
)
from mvsched.core import Budget


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
    from mvsched import conflict_equivalent

    assert conflict_equivalent(ce, S2)


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
        for subset, s in iter_split_schedules(w):
            ok, _ = is_conflict_serializable(s)
            assert not ok
            assert not is_view_serializable(s).verdict
            assert allowed_under_allocation(s, w.alloc.restrict(subset)).allowed


# --- polynomial split decider against the exhaustive oracle ---------------------------

ORACLE_LIMITS = SearchLimits(max_txns=6, max_ops=24)


def exhaustive_split(w):
    return next(iter_split_schedules(w, ORACLE_LIMITS), None)


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


def assert_enumeration_matches_the_oracle(w):
    allowed, expected = enumeration_oracle(w)
    assert list(enumerate_allowed_schedules(w)) == allowed, w
    for mode, decide in DECIDERS.items():
        verdict = decide(w)
        assert verdict.robust == (expected[mode] is None), (w, mode)
        assert _rendered(w, verdict.counterexample) == _rendered(w, expected[mode]), (w, mode)


def test_enumeration_matches_the_per_order_oracle_on_the_criterion_5_corpus():
    for w in criterion_5_workloads():
        assert_enumeration_matches_the_oracle(w)


def test_enumeration_matches_the_per_order_oracle_on_four_transactions():
    workloads = four_txn_workloads(30) + four_txn_workloads(8, seed=4045, read_write_first=True)
    assert sum(list(w.alloc.levels.values()).count(SSI) >= 3 for w in workloads) >= 3
    for w in workloads:
        assert_enumeration_matches_the_oracle(w)
    assert sum(not is_conflict_robust(w).robust for w in workloads) >= 3


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
    for w in LIMIT_CASES:
        for mode, decide in DECIDERS.items():
            charge, robust = _oracle_charge(w, mode)
            assert decide(w, SearchLimits(max_orders=charge)).robust == robust, (w, mode)
            with pytest.raises(LimitExceeded):
                decide(w, SearchLimits(max_orders=charge - 1))


@given(level_workloads(max_n=3))
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_the_per_order_oracle_on_generated_workloads(w):
    assert_enumeration_matches_the_oracle(w)


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


def test_every_all_ssi_schedule_is_conflict_serializable_with_degenerate_pivot():
    # exhaustive at desk scale: with chains allowed to loop back to their
    # start, schedules admissible under an all-SSI allocation never carry a
    # dependency cycle
    from corpus import three_small_txn_workloads, two_txn_shape_workloads, sampled_three_txn_workloads
    from mvsched import complete_under_allocation
    from mvsched.core import Budget
    from mvsched.robustness import _iter_interleavings

    families = two_txn_shape_workloads() + three_small_txn_workloads()
    families += sampled_three_txn_workloads(8, seed=0xA11CE)
    for txns in families:
        alloc = LevelAllocation.uniform(SSI, (t.id for t in txns))
        budget = Budget(SearchLimits())
        for order in _iter_interleavings(tuple(sorted(txns, key=lambda t: t.id)), budget):
            s = complete_under_allocation(txns, order, alloc, allow_degenerate_pivot=True)
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
