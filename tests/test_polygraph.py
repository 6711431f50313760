"""Polygraph model, brute-force acyclicity, and the schedule reduction."""

from __future__ import annotations

import itertools

import pytest

from corpus import dense_polygraphs, random_polygraphs
from oracles import reduction_checks_oracle, view_serializable_oracle

from mvsched import (
    LimitExceeded,
    Polygraph,
    PolygraphDefect,
    SearchLimits,
    allowed_under_rc,
    allowed_under_si,
    is_acyclic_polygraph,
    is_view_serializable,
    reduce_to_schedule,
    validate_polygraph,
    validate_schedule,
    verify_reduction,
)

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


# --- reduction --------------------------------------------------------------------


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
    limits = SearchLimits(max_txns=14, max_ops=128)
    for p in random_polygraphs(300) + dense_polygraphs(40):
        assert verify_reduction(p, limits).checks == reduction_checks_oracle(p, limits), p
