"""Polygraph model, brute-force acyclicity, and the schedule reduction."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings

import oracles
from corpus import dense_polygraphs, polygraphs, random_polygraphs
from oracles import (
    allowed_under_rc,
    allowed_under_si,
    is_acyclic_polygraph_oracle,
    reduce_to_schedule_oracle,
    reduction_checks_oracle,
    view_serializable_oracle,
)

from mvsched import (
    LimitExceeded,
    Polygraph,
    PolygraphDefect,
    ScheduleError,
    SearchLimits,
    is_acyclic_polygraph,
    is_view_serializable,
    reduce_to_schedule,
    render_schedule,
    validate_polygraph,
    validate_schedule,
    verify_reduction,
)
from mvsched import polygraph
from mvsched.core import Budget

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


def test_acyclicity_choice_bound():
    nodes = "abcd"
    arcs = [(x, y) for x in nodes for y in nodes if x != y]
    choices = [c for c in itertools.permutations(nodes, 3)][:21]
    p = Polygraph.of(nodes, arcs, choices)
    with pytest.raises(LimitExceeded):
        is_acyclic_polygraph(p, SearchLimits(max_orders=100))


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


def assert_acyclicity_matches_the_oracle(p):
    new = acyclicity_and_count(is_acyclic_polygraph, polygraph, p)
    old = acyclicity_and_count(is_acyclic_polygraph_oracle, oracles, p)
    assert new == old, p


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


# --- verification -------------------------------------------------------------------


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
