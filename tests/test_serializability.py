"""Conflicts, dependencies, serialization graphs, and both serializability tests."""

from __future__ import annotations

import itertools
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    dense_polygraphs,
    enumerate_valid_schedules,
    implication_corpus_workloads,
    planted_polygraphs,
    random_polygraphs,
    three_small_txn_workloads,
    two_txn_shape_workloads,
    valid_schedules,
)
from fixtures import *
from oracles import (
    closure_oracle,
    conflict_equivalent_oracle,
    conflict_serializable_oracle,
    conflicting,
    depends_on_oracle,
    serialization_graph_oracle,
    view_search_oracle,
    view_search_rebuild_oracle,
    view_serializable_oracle,
)

from mvsched import (
    INIT,
    ConflictKind,
    LimitExceeded,
    Polygraph,
    SearchLimits,
    ObjectNeverWritten,
    ScheduleError,
    TransactionSetMismatch,
    UnknownOperation,
    is_acyclic_polygraph,
    is_conflict_serializable,
    is_view_serializable,
    last_version,
    make_schedule,
    make_transaction,
    reduce_to_schedule,
    serial_schedule,
    serialization_graph,
    validate_schedule,
    view_equivalent,
)
from mvsched import serializability
from mvsched.core import Budget


def op(s, tid, k):
    return s.operation(opid(tid, k))


# --- conflicts -----------------------------------------------------------------


def test_conflicting_pairs():
    assert conflicting(op(S1, "T2", 1), op(S1, "T1", 1)) is ConflictKind.WR  # W2(t), R1(t)
    assert conflicting(op(S1, "T1", 1), op(S1, "T4", 1)) is None  # two reads
    assert conflicting(op(S1, "T2", 3), op(S1, "T4", 2)) is None  # commit never conflicts
    assert conflicting(op(S1, "T2", 1), op(S1, "T4", 2)) is ConflictKind.WW
    assert conflicting(op(S1, "T4", 1), op(S1, "T2", 1)) is ConflictKind.RW
    assert conflicting(op(S1, "T2", 1), op(S1, "T2", 1)) is None  # same transaction
    assert conflicting(op(S1, "T3", 1), op(S1, "T4", 1)) is None  # different objects


# --- dependencies ----------------------------------------------------------------


def test_depends_on_s1_examples():
    ww = depends_on_oracle(S1, opid("T2", 1), opid("T4", 2))
    assert ww is not None and ww.kind is ConflictKind.WW
    wr = depends_on_oracle(S1, opid("T3", 1), opid("T4", 3))
    assert wr is not None and wr.kind is ConflictKind.WR
    rw = depends_on_oracle(S1, opid("T4", 1), opid("T2", 1))
    assert rw is not None and rw.kind is ConflictKind.RW
    # reversed ww pair carries no dependency
    assert depends_on_oracle(S1, opid("T4", 2), opid("T2", 1)) is None


def test_depends_on_init_never_conflicts():
    assert depends_on_oracle(S1, INIT, opid("T2", 1)) is None
    assert depends_on_oracle(S1, opid("T2", 1), INIT) is None


def test_depends_on_unknown_operation():
    with pytest.raises(UnknownOperation):
        depends_on_oracle(S1, opid("T9", 1), opid("T2", 1))


def test_wr_clause_with_initial_version_observed():
    # nothing installs before the initial version, so a write never counts as
    # installed before a read that observes it
    assert depends_on_oracle(S1, opid("T2", 1), opid("T4", 1)) is None  # W2(t) vs R4(t), vf=INIT


# --- serialization graphs ---------------------------------------------------------


def test_serialization_graph_s1():
    g = serialization_graph(S1)
    assert g.edge_pairs == {
        ("T1", "T2"),
        ("T1", "T4"),
        ("T2", "T3"),
        ("T2", "T4"),
        ("T4", "T2"),
        ("T3", "T4"),
    }


def test_serialization_graph_s2():
    g = serialization_graph(S2)
    assert g.edge_pairs == {("T1", "T2"), ("T2", "T1"), ("T1", "T3"), ("T2", "T3")}


def test_serialization_graph_disjoint_serial():
    a = make_transaction("T1", "R(x) W(x) C")
    b = make_transaction("T2", "R(y) W(y) C")
    g = serialization_graph(serial_schedule((a, b)))
    assert g.edge_pairs == frozenset()


def test_graph_edges_round_trip_with_depends_on():
    for s in (S1, S2, S3, S4, SD):
        g = serialization_graph(s)
        ops = [o for t in s.txns for o in t.ops]
        expected = set()
        for b, a in itertools.product(ops, repeat=2):
            if depends_on_oracle(s, b.id, a.id) is not None:
                expected.add((b.id.txn, a.id.txn))
        assert g.edge_pairs == expected
        for pair, deps in g.edges.items():
            assert deps, pair


# --- conflict-serializability -------------------------------------------------------


def test_conflict_serializability_verdicts():
    assert is_conflict_serializable(S1) == (False, ("T2", "T4"))
    assert is_conflict_serializable(S2) == (False, ("T1", "T2"))
    assert is_conflict_serializable(serial_schedule(S2_TXNS)) == (True, None)
    assert is_conflict_serializable(serial_schedule((S1_T1, S1_T2, S1_T3, S1_T4)))[0]


def test_conflict_equivalence():
    assert conflict_equivalent_oracle(S2, S2)
    assert not conflict_equivalent_oracle(S2, serial_schedule(S2_TXNS))
    for perm in itertools.permutations((S1_T1, S1_T2, S1_T3, S1_T4)):
        assert not conflict_equivalent_oracle(S1, serial_schedule(perm))


def test_conflict_equivalent_requires_same_transactions():
    with pytest.raises(TransactionSetMismatch):
        conflict_equivalent_oracle(S2, S3)


# --- view equivalence ----------------------------------------------------------------


def test_last_version():
    assert last_version(S1, "t") == opid("T4", 2)
    assert last_version(S2, "v") == opid("T3", 2)
    assert last_version(SD, "t") == opid("T2", 2)
    with pytest.raises(ObjectNeverWritten):
        last_version(S1, "q")


def test_view_equivalence_examples():
    assert view_equivalent(S2, serial_schedule(S2_TXNS))
    assert view_equivalent(S4, serial_schedule((S2_T2, S2_T3, S2_T1)))
    assert view_equivalent(S1, S1)
    assert not view_equivalent(S3, serial_schedule((S2_T1, S2_T2)))
    with pytest.raises(TransactionSetMismatch):
        view_equivalent(S2, S3)


# --- view-serializability ---------------------------------------------------------------


def test_view_serializability_verdicts():
    w = is_view_serializable(S2)
    assert w.verdict and w.witness == ("T1", "T2", "T3")
    w = is_view_serializable(S3)
    assert not w.verdict and w.witness is None and w.exhausted == 2
    w = is_view_serializable(S1)
    assert not w.verdict and w.exhausted == 24


def test_view_serializability_limits():
    # the size of the schedule is no limit: 9 transactions, and 30 operations
    reads = serial_schedule(tuple(make_transaction(f"T{i}", "R(x) C") for i in range(1, 10)))
    big = serial_schedule(tuple(make_transaction(f"T{i}", "R(x) R(y) W(x) W(y) C") for i in range(1, 7)))
    for s in (reads, big):
        assert is_view_serializable(s).verdict
        assert is_view_serializable(s, budget=Budget(SearchLimits(max_txns=1, max_ops=1))).verdict
    # the work is: one prefix extended per candidate, and the budget
    with pytest.raises(LimitExceeded):
        is_view_serializable(big, budget=Budget(SearchLimits(max_orders=1)))
    with pytest.raises(LimitExceeded):
        is_view_serializable(big, budget=Budget(SearchLimits(budget_seconds=0.0)))
    budget = Budget(SearchLimits(max_orders=6))
    assert is_view_serializable(big, budget=budget).verdict
    assert budget.count == 6  # the empty prefix to T1..T5


def test_witness_yields_view_equivalent_serial_schedule():
    for s in (S2, S4, serial_schedule(S2_TXNS)):
        w = is_view_serializable(s)
        assert w.verdict
        witness_txns = tuple(s.txn_by_id[tid] for tid in w.witness)
        assert view_equivalent(s, serial_schedule(witness_txns))


# --- cross-checks and properties -----------------------------------------------------------


def test_conflict_equivalence_implies_view_equivalence_on_enumerated_pairs():
    # over all valid schedules of a few small workloads, any conflict-equivalent
    # pair must also be view-equivalent
    for txns in [W_LU, (make_transaction("T1", "R(x) W(y) C"), make_transaction("T2", "W(x) C"))]:
        pool = list(enumerate_valid_schedules(txns))
        for s, s2 in itertools.combinations(pool, 2):
            if conflict_equivalent_oracle(s, s2):
                assert view_equivalent(s, s2), (s, s2)


def test_dependencies_in_serial_schedules_point_forward():
    for txns in three_small_txn_workloads() + [S2_TXNS, W_LU, W_WS]:
        for perm in itertools.permutations(txns):
            s = serial_schedule(perm)
            position = {t.id: i for i, t in enumerate(perm)}
            for src, dst in serialization_graph(s).edge_pairs:
                assert position[src] < position[dst], (perm, src, dst)


def test_view_serializability_agrees_with_oracle_on_sample():
    sample = two_txn_shape_workloads()[:25]
    for txns in sample:
        for s in enumerate_valid_schedules(txns):
            w = is_view_serializable(s)
            o = view_serializable_oracle(s)
            assert w.verdict == (o is not None)
            if w.verdict:
                assert w.witness == o
            else:
                assert w.exhausted == factorial(len(s.txns))


def test_empty_schedule_is_view_serializable():
    w = is_view_serializable(EMPTY_SCHEDULE)
    assert w.verdict and w.witness == () and w.exhausted == 1


# --- the placement-constraint search against the per-order search ------------------------

REDUCTION_BOUNDS = dict(max_txns=14, max_ops=128)


def assert_same_as_oracle(s, **bounds):
    got, want = is_view_serializable(s), view_search_oracle(s, **bounds)
    assert (got.verdict, got.witness, got.exhausted) == (want.verdict, want.witness, want.exhausted), s
    return got


def test_view_search_matches_the_oracle_on_polygraph_reductions():
    for p in random_polygraphs(300):
        assert_same_as_oracle(reduce_to_schedule(p)[1], **REDUCTION_BOUNDS)


def test_view_search_matches_the_oracle_on_dense_reductions():
    polygraphs = dense_polygraphs(40, acyclic=lambda p: is_acyclic_polygraph(p)[0])
    verdicts = [assert_same_as_oracle(reduce_to_schedule(p)[1], **REDUCTION_BOUNDS).verdict for p in polygraphs]
    assert verdicts.count(True) == verdicts.count(False) == 20


@given(valid_schedules())
@settings(max_examples=300, deadline=None)
def test_view_search_matches_the_oracle_on_generated_schedules(s):
    got = assert_same_as_oracle(s)
    if not got.verdict:
        assert view_serializable_oracle(s) is None


def test_view_search_charges_prefixes_not_pruned_orders():
    budget = Budget(SearchLimits())
    assert is_view_serializable(S2, budget=budget).verdict
    assert budget.count == 3  # the empty prefix, T1, T1 T2
    with pytest.raises(LimitExceeded):
        is_view_serializable(S2, budget=Budget(SearchLimits(max_orders=2)))
    with pytest.raises(LimitExceeded):
        is_view_serializable(S2, budget=Budget(SearchLimits(budget_seconds=0.0)))
    cyclic = dense_polygraphs(2, acyclic=lambda p: is_acyclic_polygraph(p)[0])[1]
    budget = Budget(SearchLimits(max_orders=1000))
    w = is_view_serializable(reduce_to_schedule(cyclic)[1], budget=budget)
    assert not w.verdict and w.exhausted == factorial(14) and budget.count < 1000


def test_view_search_matches_the_oracle_where_the_root_step_leaves_choices_open(monkeypatch):
    """The reductions of ``random_polygraphs(2000)`` whose root step leaves
    writer choices open, so that each placement asks the engine whether the
    rest can follow: the same verdict, witness and count of orders as the
    per-order search.  [213], [1515] and [1999] are among them, where a
    search that places on the predecessors and the choices alone backtracks
    (11, 15 and 10 candidates against 9, 9 and 8 transactions)."""
    completes, asked = serializability._completes, []

    def spy(*args):
        asked.append(args)
        return completes(*args)

    monkeypatch.setattr(serializability, "_completes", spy)
    compared = []
    for k, p in enumerate(random_polygraphs(2000)):
        s = reduce_to_schedule(p)[1]
        asked.clear()
        got = is_view_serializable(s)
        if asked:
            want = view_search_oracle(s, **REDUCTION_BOUNDS)
            assert (got.verdict, got.witness, got.exhausted) == (want.verdict, want.witness, want.exhausted), k
            compared.append(k)
    assert len(compared) > 100 and {213, 1515, 1999} <= set(compared)


@st.composite
def digraphs(draw):
    """Per-node predecessor bitmasks of 1-40 nodes: up to 3n edges that run
    forward in a hidden order, and up to two more anywhere, self-loops
    included, which may close cycles."""
    n = draw(st.integers(min_value=1, max_value=40))
    order, pred, node = draw(st.permutations(range(n))), [0] * n, st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        if a != b:
            pred[order[max(a, b)]] |= 1 << order[min(a, b)]
    for u, v in draw(st.lists(st.tuples(node, node), max_size=2)):
        pred[v] |= 1 << u
    return pred


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_the_closure_matches_kahns_pass(pred):
    assert serializability._closure(pred) == closure_oracle(pred)


def test_view_search_matches_the_rebuild_oracle():
    """The search that carries its closure from depth to depth gives the
    same verdict, witness, count of orders and charge as the one that
    rebuilt the closure for each completion check, on reductions of random,
    dense and planted polygraphs."""
    planted = [p for nodes, choices in ((20, 26), (30, 40), (60, 80)) for p in planted_polygraphs(1, nodes, choices, nodes)]
    verdicts = []
    for p in random_polygraphs(2000) + dense_polygraphs(300) + planted:
        s = reduce_to_schedule(p)[1]
        got, want = Budget(SearchLimits()), Budget(SearchLimits())
        w, v = is_view_serializable(s, budget=got), view_search_rebuild_oracle(s, want)
        assert (w.verdict, w.witness, w.exhausted, got.count) == (v.verdict, v.witness, v.exhausted, want.count), p
        verdicts.append(w.verdict)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 500 and all(verdicts[-3:])


@pytest.mark.parametrize(
    "k, count",
    [
        (1999, 8),  # a prefix per transaction: none refused after it is placed
        (213, 9),
        (42, 8),  # every completion check settles its choices without branching
        (1676, 13),  # the first check branches and tests two options
    ],
)
def test_view_search_charges_each_prefix_and_each_option_a_completion_check_tests(k, count):
    p = random_polygraphs(2000)[k]
    if k == 1999:
        arcs, choices = [("n0", "n2"), ("n1", "n3")], [("n2", "n3", "n0"), ("n3", "n0", "n1")]
        assert p == Polygraph.of(["n0", "n1", "n2", "n3"], arcs, choices)
    s = reduce_to_schedule(p)[1]
    budget = Budget(SearchLimits())
    assert is_view_serializable(s, budget=budget).verdict
    assert budget.count == count
    with pytest.raises(LimitExceeded):
        is_view_serializable(s, budget=Budget(SearchLimits(max_orders=count - 1)))


@pytest.mark.parametrize("decide", [is_conflict_serializable, is_view_serializable])
def test_the_deciders_refuse_an_invalid_schedule(decide):
    """A read mapped to a commit, or an operation left out of the order: the
    index walk is not clean, so no verdict is computed on it."""
    reads = dict(S2.vf)
    to_commit = make_schedule(S2.txns, S2.order, S2.vorder, {**reads, next(iter(reads)): S2.order[-1]})
    short = make_schedule(S2.txns, S2.order[:-1], S2.vorder, reads)
    for s in (to_commit, short):
        assert validate_schedule(s)
        with pytest.raises(ScheduleError, match="the schedule is not valid"):
            decide(s)


# --- conflict-serializability on dependency bitmasks against the full graph ----------


def test_conflict_serializability_matches_the_graph_oracle_on_the_criterion_3_corpus(corpus_scan):
    """Verdict and cycle on every schedule, in the scan the acceptance gate shares."""
    assert corpus_scan["first_conflict_mismatch"] is None
    assert corpus_scan["conflict_mismatches"] == 0
    assert corpus_scan["schedules"] == 321_663


def test_conflict_serializability_matches_the_graph_oracle_on_polygraph_reductions():
    for p in random_polygraphs(300) + dense_polygraphs(40):
        s = reduce_to_schedule(p)[1]
        assert is_conflict_serializable(s) == conflict_serializable_oracle(s), p


def test_view_search_matches_the_oracle_on_a_sample_of_the_criterion_3_corpus():
    """Every 13th schedule of a seeded third of the workloads."""
    rng = random.Random(8)
    for txns in rng.sample(implication_corpus_workloads(), 42):
        for s in itertools.islice(enumerate_valid_schedules(txns), 0, None, 13):
            assert_same_as_oracle(s)


@given(valid_schedules())
@settings(max_examples=300, deadline=None)
def test_conflict_serializability_matches_the_graph_oracle_on_generated_schedules(s):
    assert is_conflict_serializable(s) == conflict_serializable_oracle(s)


# --- the one dependency pass against the per-pair rule it replaced ------------------


def assert_dependencies_match_the_oracles(s, others=()) -> int:
    """The graph (edges, every witness and their order) agrees with the
    oracle; its witnesses are ``depends_on_oracle`` on every pair of
    operations and INIT; its dependency sets are equal exactly when
    conflict equivalence holds, with ``s`` itself and with each of
    ``others``.  The number of dependencies."""
    graph = serialization_graph(s)
    assert graph == serialization_graph_oracle(s), s
    witnesses = {(d.src, d.dst): d for deps in graph.edges.values() for d in deps}
    for b, a in itertools.product(s.order, repeat=2):
        assert witnesses.get((b, a)) == depends_on_oracle(s, b, a), (s, b, a)
    for s2 in (s, *others):
        pairs = {(d.src, d.dst) for deps in serialization_graph(s2).edges.values() for d in deps}
        assert (pairs == witnesses.keys()) == conflict_equivalent_oracle(s, s2), (s, s2)
    return len(witnesses)


def test_dependencies_match_the_oracles_on_a_sample_of_the_criterion_3_corpus():
    """Every 13th schedule of a seeded sixth of the workloads, each against
    the one before it over the same transactions."""
    rng = random.Random(12)
    checked = equivalent = 0
    for txns in rng.sample(implication_corpus_workloads(), 21):
        previous = ()
        for s in itertools.islice(enumerate_valid_schedules(txns), 0, None, 13):
            assert_dependencies_match_the_oracles(s, previous)
            equivalent += bool(previous) and conflict_equivalent_oracle(s, previous[0])
            previous = (s,)
            checked += 1
    assert checked > 2000 and equivalent > 0


def test_dependencies_match_the_oracles_on_polygraph_reductions():
    dependencies = 0
    for p in random_polygraphs(300) + dense_polygraphs(40):
        s = reduce_to_schedule(p)[1]
        dependencies += assert_dependencies_match_the_oracles(s, (serial_schedule(s.txns),))
    assert dependencies > 1000


@given(valid_schedules())
@settings(max_examples=300, deadline=None)
def test_dependencies_match_the_oracles_on_generated_schedules(s):
    assert_dependencies_match_the_oracles(s, [serial_schedule(perm) for perm in itertools.permutations(s.txns)])
