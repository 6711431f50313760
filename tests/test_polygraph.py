"""Polygraph model, acyclicity by propagation and search, and the schedule reduction."""

from __future__ import annotations

import dataclasses
import graphlib
import random
import re
from math import factorial

import pytest
from hypothesis import given, settings

import oracles
from corpus import dense_polygraphs, planted_polygraphs, polygraphs, random_polygraphs
from oracles import (
    allowed_under_rc,
    allowed_under_si,
    is_acyclic_polygraph_oracle,
    reduce_to_schedule_oracle,
    reduction_checks_oracle,
    view_serializable_oracle,
)

from mvsched import (
    INIT,
    LimitExceeded,
    Operation,
    OperationId,
    Polygraph,
    PolygraphDefect,
    ScheduleError,
    SearchLimits,
    Transaction,
    is_acyclic_polygraph,
    is_view_serializable,
    reduce_to_schedule,
    render_schedule,
    serial_schedule,
    validate_polygraph,
    validate_schedule,
    verify_reduction,
    view_equivalent,
)
from mvsched import polygraph, serializability
from mvsched.core import Budget
from mvsched.polygraph import ReductionCheck

CHOICE = Polygraph.of("uvw", [("w", "u")], [("u", "v", "w")])
TWO_CYCLE = Polygraph.of("ab", [("a", "b"), ("b", "a")])
EMPTY = Polygraph.of(())


# --- validation ----------------------------------------------------------------


def test_validate_empty_and_wellformed():
    assert validate_polygraph(EMPTY) == []
    assert validate_polygraph(CHOICE) == []


def test_validate_choice_without_anchor_arc():
    p = Polygraph.of("uvw", choices=[("u", "v", "w")])
    assert [v.kind for v in validate_polygraph(p)] == [PolygraphDefect.MISSING_CHOICE_ARC]


def test_validate_rejects_self_arcs_and_unknown_nodes():
    p = Polygraph.of("a", [("a", "a")])
    assert [v.kind for v in validate_polygraph(p)] == [PolygraphDefect.SELF_ARC]
    p = Polygraph.of("a", [("a", "b")])
    assert PolygraphDefect.UNKNOWN_NODE in {v.kind for v in validate_polygraph(p)}
    p = Polygraph.of("uvw", [("w", "u")], [("u", "u", "w")])
    assert PolygraphDefect.CHOICE_NODES_NOT_DISTINCT in {v.kind for v in validate_polygraph(p)}


# --- acyclicity -------------------------------------------------------------------


def test_acyclicity_basic_cases():
    ok, witness = is_acyclic_polygraph(Polygraph.of("ab", [("a", "b")]))
    assert ok and witness.extra_edges == ()
    ok, witness = is_acyclic_polygraph(TWO_CYCLE)
    assert not ok and witness is None


def test_acyclicity_with_choice_resolves_forward_edge_first():
    ok, witness = is_acyclic_polygraph(CHOICE)
    assert ok
    assert witness.extra_edges == (("u", "v"),)
    assert ("w", "u") in witness.full_graph


def test_acyclicity_requiring_the_closing_edge():
    # resolving forward would close a two-cycle, so the witness must pick (v, w)
    p = Polygraph.of("uvw", [("w", "u"), ("v", "u")], [("u", "v", "w")])
    ok, witness = is_acyclic_polygraph(p)
    assert ok and witness.extra_edges == (("v", "w"),)


#: choice (u, v, w) with option 0 (u, v) dead at the root: the arc (v, u) closes it
SECOND = Polygraph.of("uvw", [("w", "u"), ("v", "u")], [("u", "v", "w")])
#: an open choice, then SECOND's, which propagation forces to option 1
LATER = Polygraph.of("abcuvw", [("c", "a"), ("w", "u"), ("v", "u")], [("a", "b", "c"), ("u", "v", "w")])


def independent_choices(k):
    """``k`` choices on disjoint nodes, each open at the root and below every branch."""
    return Polygraph.of([f"{x}{i}" for i in range(k) for x in "uvw"], [(f"w{i}", f"u{i}") for i in range(k)],
                        [(f"u{i}", f"v{i}", f"w{i}") for i in range(k)])


def test_acyclicity_choice_bound():
    """Propagation settles none of twelve independent choices, so the search
    branches on each and tests the ones left below each branch: the root
    step and 2 * (12 + 11 + ... + 1) options, 157 candidates."""
    p = independent_choices(12)
    with pytest.raises(LimitExceeded):
        is_acyclic_polygraph(p, SearchLimits(max_orders=100))
    (ok, witness), count = acyclicity_and_count(is_acyclic_polygraph, polygraph, p)
    assert ok and set(witness.extra_edges) == {(u, v) for u, v, _ in p.choices} and count == 157
    assert is_acyclic_polygraph(p, SearchLimits(max_orders=157))[0]


def acyclicity_and_count(decide, module, p, limits=SearchLimits()):
    """``decide(p, limits)`` and the count of the ``Budget`` it made, with
    ``module.Budget`` replaced by a subclass that keeps its instances."""
    made = []

    class Counting(Budget):
        def __init__(self, limits):
            super().__init__(limits)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "Budget", Counting)
        result = decide(p, limits)
    assert len(made) == 1
    return result, made[0].count


def options_tested(p):
    """The options that the propagation of ``is_acyclic_polygraph(p)`` reports tested, summed."""
    tested, settle = [], serializability._settle

    def counting(*args):
        out = settle(*args)
        tested.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serializability, "_settle", counting)
        is_acyclic_polygraph(p)
    return sum(tested)


@pytest.mark.parametrize(
    "p, verdict, extra, count",
    [
        (EMPTY, True, (), 1),
        (TWO_CYCLE, False, None, 1),  # cyclic arcs refute at the root
        (CHOICE, True, (("u", "v"),), 3),  # open at the root: 2 options tested, then a branch on option 0
        (SECOND, True, (("v", "w"),), 3),  # option 0 dead, option 1 forced: 2 options tested
        (LATER, True, (("a", "b"), ("v", "w")), 7),  # the forced choice makes a second pass over the open one
    ],
    ids=["empty", "cyclic-arcs", "choice", "second", "later"],
)
def test_acyclicity_charges_the_root_step_and_each_option_tested(p, verdict, extra, count):
    (ok, witness), charged = acyclicity_and_count(is_acyclic_polygraph, polygraph, p)
    assert (ok, witness and witness.extra_edges) == (verdict, extra)
    assert charged == count == 1 + options_tested(p)
    assert (ok, witness) == is_acyclic_polygraph_oracle(p)


def assert_acyclicity_matches_the_oracle(p):
    """Verdict and witness equal the brute force's; the count is the root
    step plus each option tested, and within a polynomial of the brute
    force's: at most ``oracle`` leaves of at most c + 1 nodes each, which
    test at most two options per choice on each of at most c + 1 passes."""
    new, count = acyclicity_and_count(is_acyclic_polygraph, polygraph, p)
    old, oracle = acyclicity_and_count(is_acyclic_polygraph_oracle, oracles, p)
    c = len(p.choices)
    assert new == old, p
    assert count == 1 + options_tested(p) <= 1 + 2 * c * (c + 1) ** 2 * oracle, p


def test_acyclicity_matches_the_oracle():
    """Verdict, witness and candidates counted, on the seeded corpora."""
    for p in random_polygraphs(300) + dense_polygraphs(40):
        assert_acyclicity_matches_the_oracle(p)


@given(polygraphs())
@settings(max_examples=200, deadline=None)
def test_acyclicity_matches_the_oracle_on_generated_polygraphs(p):
    assert_acyclicity_matches_the_oracle(p)


# --- reduction --------------------------------------------------------------------


def assert_reduction_matches_the_oracle(p):
    txns, s = reduce_to_schedule(p)
    old_txns, old_s = reduce_to_schedule_oracle(p)
    assert txns == old_txns and s == old_s, p
    assert render_schedule(s) == render_schedule(old_s)


def test_reduction_matches_the_oracle():
    """Transactions, schedule and rendered document, on the seeded corpora."""
    for p in random_polygraphs(300) + dense_polygraphs(40):
        assert_reduction_matches_the_oracle(p)


@given(polygraphs(reducible=True))
@settings(max_examples=200, deadline=None)
def test_reduction_matches_the_oracle_on_generated_polygraphs(p):
    assert_reduction_matches_the_oracle(p)


@pytest.mark.parametrize(
    "p, node, bad",
    [
        (Polygraph.of(["a", "b->c", "a->b", "c"], [("a", "b->c"), ("a->b", "c")]), "a->b", "->"),
        (
            Polygraph.of(
                ["x,y", "z", "w", "x", "y,z"],
                [("w", "x,y"), ("w", "x")],
                [("x,y", "z", "w"), ("x", "y,z", "w")],
            ),
            "x,y",
            ",",
        ),
        (Polygraph.of(["a(1)", "b"], [("a(1)", "b")]), "a(1)", "("),
        (Polygraph.of(["a", "b)"], [("a", "b)")]), "b)", ")"),
        (Polygraph.of(["a", "w<"], [("a", "w<")]), "w<", "<"),
    ],
    ids=["arrow", "comma", "open-paren", "close-paren", "less-than"],
)
def test_reduction_refuses_node_names_it_cannot_encode(p, node, bad):
    """Such names would make two arcs one object, two choices' writers one
    transaction, or a token or version chain no parser reads back;
    acyclicity still decides."""
    assert validate_polygraph(p) == []
    with pytest.raises(ScheduleError, match=re.escape(f"node {node!r} contains {bad!r}")):
        reduce_to_schedule(p)
    assert is_acyclic_polygraph(p)[0] == is_acyclic_polygraph_oracle(p)[0]



def test_reduction_of_choice_polygraph():
    txns, s = reduce_to_schedule(CHOICE)
    assert len(txns) == 5
    assert validate_schedule(s) == []
    for t in s.txns:
        assert allowed_under_rc(s, t).allowed
        assert allowed_under_si(s, t).allowed


def test_reduction_of_empty_polygraph():
    txns, s = reduce_to_schedule(EMPTY)
    assert txns == ()
    assert s.order == (s.order[0],) and s.order[0].is_init


def test_reduction_of_two_cycle_is_not_view_serializable():
    _, s = reduce_to_schedule(TWO_CYCLE)
    assert not is_view_serializable(s).verdict
    assert view_serializable_oracle(s) is None


def test_reduction_handles_isolated_nodes():
    p = Polygraph.of("abc", [("a", "b")])
    txns, s = reduce_to_schedule(p)
    assert {t.id for t in txns} == {"T:a", "T:b", "T:c"}
    assert validate_schedule(s) == []
    assert is_view_serializable(s).verdict == is_acyclic_polygraph(p)[0]


def test_reduction_size_is_linear():
    for p in (CHOICE, TWO_CYCLE, EMPTY, Polygraph.of("abc", [("a", "b"), ("b", "c")])):
        txns, _ = reduce_to_schedule(p)
        total = sum(len(t.ops) for t in txns)
        assert total == 2 * len(p.arcs) + 7 * len(p.choices) + len(p.nodes)


def test_reduction_builds_values_the_checked_constructors_accept():
    """The reduction makes its ids, operations and transactions with
    ``tuple.__new__``, past ``Operation``'s commit/object check: each is of
    its named-tuple type and rebuilds through the checking constructor."""
    for p in random_polygraphs(2000) + dense_polygraphs(300):
        txns, s = reduce_to_schedule(p)
        assert s.txns is txns
        for t in txns:
            assert type(t) is Transaction
            for op in t.ops:
                assert type(op) is Operation and type(op.id) is OperationId and op == Operation(*op), (p, op)
    for p in random_polygraphs(50):
        assert all(type(c) is ReductionCheck for c in verify_reduction(p).checks)


# --- verification -------------------------------------------------------------------


def test_a_refuted_reduction_charges_the_empty_prefix_only():
    """Every cyclic polygraph of the seeded corpora is refuted at the root of
    the view search on its reduction: one candidate, and all n! orders."""
    cyclic = [p for p in [TWO_CYCLE, *random_polygraphs(300), *dense_polygraphs(40)] if not is_acyclic_polygraph(p)[0]]
    assert len(cyclic) == 150
    for p in cyclic:
        s = reduce_to_schedule(p)[1]
        budget = Budget(SearchLimits(max_orders=1))
        w = is_view_serializable(s, budget=budget)
        assert (w.verdict, w.witness, w.exhausted, budget.count) == (False, None, factorial(len(s.txns)), 1), p


@pytest.mark.parametrize("nodes, choices, seed", [(20, 26, 20), (30, 40, 31), (60, 80, 60), (100, 130, 100), (200, 260, 200)])
def test_planted_acyclic_polygraphs_decide_on_both_sides(nodes, choices, seed):
    """A hidden order resolves every choice: the reduction checks pass with
    both verdicts true, each witness is checked on its own, and the view
    search places the 72, 110, 220, 360 and 720 transactions within 10^4
    candidates.
    A search that backtracks on the choices it cannot settle needs more than
    10^4 on each of the first three, and more than 2 * 10^6 at 30 nodes and
    40 choices."""
    (p,) = planted_polygraphs(1, nodes, choices, seed)
    r = verify_reduction(p)
    assert r.ok and r.polygraph_acyclic and r.schedule_view_serializable
    assert all(c.passed for c in r.checks), r.checks
    s = reduce_to_schedule(p)[1]
    w = is_view_serializable(s, budget=Budget(SearchLimits(max_orders=10_000)))
    assert w.verdict and view_equivalent(s, serial_schedule(tuple(s.txn_by_id[t] for t in w.witness)))
    ok, witness = is_acyclic_polygraph(p)
    assert ok and len(witness.extra_edges) == choices
    graph = {v: set() for v in p.nodes}
    for a, b in p.arcs | set(witness.extra_edges):
        graph[b].add(a)
    assert len(list(graphlib.TopologicalSorter(graph).static_order())) == nodes  # raises CycleError on a cycle


def test_verify_reduction_examples():
    r = verify_reduction(CHOICE)
    assert r.ok and r.polygraph_acyclic and r.schedule_view_serializable
    r = verify_reduction(TWO_CYCLE)
    assert r.ok and not r.polygraph_acyclic and not r.schedule_view_serializable
    r = verify_reduction(EMPTY)
    assert r.ok and r.polygraph_acyclic and r.schedule_view_serializable


def test_verify_reduction_exhaustive_two_nodes():
    names = ("a", "b")
    for n in range(3):
        nodes = names[:n]
        pairs = [(x, y) for x in nodes for y in nodes if x != y]
        for bits in range(1 << len(pairs)):
            arcs = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            p = Polygraph.of(nodes, arcs)
            assert verify_reduction(p).ok, p


def test_verify_reduction_checks_match_the_per_clause_oracle():
    """The four clause checks read off the per-transaction reports give the
    same names, verdicts and details as evaluating each clause on its own."""
    for p in random_polygraphs(300) + dense_polygraphs(40):
        assert verify_reduction(p).checks == reduction_checks_oracle(p), p


def stale_read(s, rng):
    """A read that observes its choice's opening writer pointed at INIT, a
    version older than the one committed before it."""
    reads = sorted(r for r, v in s.vf.items() if not v.is_init)
    return reads and dataclasses.replace(s, vf={**s.vf, rng.choice(reads): INIT})


def swapped_versions(s, rng):
    """Two versions of a choice object's chain swapped."""
    objs = sorted(obj for obj, chain in s.vorder.items() if len(chain) > 2)
    if not objs:
        return None
    obj = rng.choice(objs)
    chain = list(s.vorder[obj])
    i, j = rng.sample(range(1, len(chain)), 2)
    chain[i], chain[j] = chain[j], chain[i]
    return dataclasses.replace(s, vorder={**s.vorder, obj: tuple(chain)})


def early_commit(s, rng):
    """A node's commit moved to just before a later node's read of an
    object the node writes, which keeps the schedule valid."""
    pos = s.pos
    moves = sorted(
        (t.ops[-1].id, r.id)
        for t in s.txns
        if t.id.startswith("T:") and len(t.ops) > 1
        for r in s.reads
        if r.id.txn != t.id and pos[r.id] > pos[t.ops[-2].id] and any(op.is_write and op.obj == r.obj for op in t.ops)
    )
    if not moves:
        return None
    commit, read = rng.choice(moves)
    order = [opid for opid in s.order if opid != commit]
    order.insert(order.index(read), commit)
    return dataclasses.replace(s, order=tuple(order))


def test_verify_reduction_checks_match_the_per_clause_oracle_on_defective_reductions(monkeypatch):
    """One defect at a time injected into each reduction of the seeded
    corpus: verify gives the oracle's check names, verdicts and details, the
    order of the listed ids included.  Every kind of defect fails some
    check on many reductions, and some details list several ids."""
    rng = random.Random(23)
    failing, listing = {stale_read: 0, swapped_versions: 0, early_commit: 0}, 0
    for p in random_polygraphs(300):
        txns, s = reduce_to_schedule(p)
        for defect in failing:
            bad = defect(s, rng)
            if not bad:
                continue
            assert validate_schedule(bad) == [], (p, defect.__name__)
            monkeypatch.setattr(polygraph, "reduce_to_schedule", lambda _, bad=bad: (txns, bad))
            checks = verify_reduction(p).checks
            assert checks == reduction_checks_oracle(p, reduction=(txns, bad)), (p, defect.__name__)
            failing[defect] += not all(c.passed for c in checks)
            listing += any(c.detail.count(",") >= 1 and c.detail.startswith("[") for c in checks)
    assert min(failing.values()) >= 100 and listing >= 100, (failing, listing)
