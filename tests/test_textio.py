"""Text document formats: parsing, rendering, round trips, error reporting."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    curated_txn_sets,
    enumerate_valid_schedules,
    four_txn_workloads,
    random_polygraphs,
    random_workloads,
    three_small_txn_workloads,
    two_txn_shape_workloads,
    valid_schedules,
)
from fixtures import *
from oracles import OpResolverOracle, make_transaction_oracle, parse_schedule_document_oracle, render_polygraph

from mvsched import (
    INIT,
    Action,
    Operation,
    OperationId,
    Transaction,
    IsolationLevel,
    LevelAllocation,
    ParseError,
    Polygraph,
    Workload,
    make_transaction,
    parse_polygraph,
    parse_schedule,
    parse_schedule_document,
    parse_workload,
    reduce_to_schedule,
    render_schedule,
    render_workload,
    validate_schedule,
)
from mvsched.core import ViolationKind
from mvsched.textio import _OpResolver, _parse_declarations

S1_DOC = """
# the four-transaction tangle on objects t and v
txn T1: R(t) C
txn T2: W(t) R(v) C
txn T3: W(v) C
txn T4: R(t) W(t) R(v) C
order: W2(t) R4(t) W3(v) C3 R1(t) C1 R2(v) C2 W4(t) R4(v) C4
reads: R1(t)<-init R4(t)<-init R2(v)<-init R4(v)<-W3(v)
vorder t: init<W2(t)<W4(t)
vorder v: init<W3(v)
"""


# --- workloads -----------------------------------------------------------------


def test_workload_round_trip():
    w = workload(SI, *W_LU)
    assert parse_workload(render_workload(w)) == w


def test_lost_update_document_literal():
    text = "txn T1: R(t) W(t) C\ntxn T2: R(t) W(t) C\nalloc T1=SI T2=SI"
    assert parse_workload(text) == workload(SI, *W_LU)


def test_predicate_allocation_document():
    w = s2_predicate_workload()
    doc = render_workload(w)
    assert "predicate=view-serializable-only" in doc
    assert parse_workload(doc) == w


def test_workload_canonical_fixpoint():
    w = s2_workload(RC)
    doc = render_workload(w)
    assert render_workload(parse_workload(doc)) == doc


def test_workload_errors():
    with pytest.raises(ParseError, match="missing-commit"):
        parse_workload("txn T1: R(t)\nalloc T1=RC")
    with pytest.raises(ParseError, match="duplicate transaction"):
        parse_workload("txn T1: C\ntxn T1: C\nalloc T1=RC")
    with pytest.raises(ParseError, match="isolation level"):
        parse_workload("txn T1: C\nalloc T1=XX")
    with pytest.raises(ParseError, match="no allocation"):
        parse_workload("txn T1: C")
    with pytest.raises(ParseError, match="misses"):
        parse_workload("txn T1: C\ntxn T2: C\nalloc T1=RC")
    with pytest.raises(ParseError, match="unknown transactions"):
        parse_workload("txn T1: C\nalloc T1=RC T9=RC")
    with pytest.raises(ParseError, match="no transactions"):
        parse_workload("alloc T1=RC")
    with pytest.raises(ParseError, match="bad operation token"):
        parse_workload("txn T1: X(t) C\nalloc T1=RC")


# --- schedules ------------------------------------------------------------------


def test_spec_style_s1_document_parses_to_s1():
    assert parse_schedule(S1_DOC) == S1


def test_schedule_round_trip_and_fixpoint():
    for s in (S1, S2, S3, S4, SD, lost_update_schedule()):
        doc = render_schedule(s)
        assert parse_schedule(doc) == s
        assert render_schedule(parse_schedule(doc)) == doc


def test_schedule_with_external_workload():
    doc = render_schedule(S2)
    w = s2_workload(RC)
    assert parse_schedule(doc, w) == S2
    # order/reads/vorder only, transactions supplied externally
    lines = [l for l in doc.splitlines() if not l.startswith("txn")]
    assert parse_schedule("\n".join(lines), w) == S2


def test_schedule_workload_disagreement():
    doc = render_schedule(S2)
    other = workload(RC, *W_LU)
    with pytest.raises(ParseError, match="disagree"):
        parse_schedule(doc, other)


def test_shorthand_resolution():
    # R4(t) resolves uniquely inside T4
    assert "R4(t)" in render_schedule(S1)
    s = parse_schedule(S1_DOC)
    assert s.vf[opid("T4", 1)] == INIT


def test_ambiguous_shorthand_rejected_and_positional_accepted():
    doc = "txn T9: R(t) R(t) C\norder: R9(t) T9#2 C9\nreads: R9(t)<-init T9#2<-init\n"
    with pytest.raises(ParseError, match="ambiguous"):
        parse_schedule(doc)
    doc = "txn T9: R(t) R(t) C\norder: T9#1 T9#2 C9\nreads: T9#1<-init T9#2<-init\n"
    s = parse_schedule(doc)
    assert validate_schedule(s) == []
    # the canonical renderer falls back to positional references
    assert "T9#1" in render_schedule(s)


def test_unmapped_read_rejected():
    with pytest.raises(ParseError, match="unmapped-read"):
        parse_schedule("txn T1: R(t) C\norder: R1(t) C1\n")


def test_read_mapped_to_non_write_rejected():
    doc = "txn T1: R(t) R(t) C\norder: T1#1 T1#2 C1\nreads: T1#1<-init T1#2<-T1#1\n"
    with pytest.raises(ParseError, match="vf-target-not-write"):
        parse_schedule(doc)


def test_vorder_not_total_rejected():
    doc = (
        "txn T1: W(t) C\ntxn T2: W(t) C\n"
        "order: W1(t) C1 W2(t) C2\n"
        "vorder t: init<W1(t)\n"
    )
    with pytest.raises(ParseError, match="vorder-not-total"):
        parse_schedule(doc)


def test_init_tokens_stay_where_they_are_written():
    s = parse_schedule(MISPLACED_INIT, validate=False)
    assert s.order == (opid("T1", 1), INIT, opid("T1", 2), opid("T2", 1), opid("T2", 2))
    assert s.vorder["x"] == (INIT, INIT, opid("T1", 1))
    kinds = [v.kind for v in validate_schedule(s)]
    assert kinds == [ViolationKind.INIT_NOT_FIRST, ViolationKind.DUPLICATE_POSITION]
    with pytest.raises(ParseError, match="init-not-first.*duplicate-position"):
        parse_schedule(MISPLACED_INIT)
    # a leading init is the one INIT would be put first anyway
    left_out = parse_schedule("txn T1: W(x) C\norder: W1(x) C1\nvorder x: W1(x)\n")
    assert parse_schedule("txn T1: W(x) C\norder: init W1(x) C1\nvorder x: init<W1(x)\n") == left_out


def test_parse_schedule_without_validation():
    doc = "txn T1: R(t) C\norder: R1(t) C1\n"
    s = parse_schedule(doc, validate=False)
    assert validate_schedule(s) != []


def test_unknown_reference_errors():
    with pytest.raises(ParseError, match="unknown transaction"):
        parse_schedule("txn T1: C\norder: C1 C7\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_schedule("txn T1: C\norder: T1#2\n")
    with pytest.raises(ParseError, match="unrecognized"):
        parse_schedule("txn T1: C\norder: ???\n")


def test_operation_reference_error_messages():
    head = "txn T1: R(x) R(x) W(x) C\ntxn T2: W(x) C\ntxn A: R(x) C\n"
    expected = {
        "T3#1": "unknown transaction 'T3' in 'T3#1' (line 4)",
        "T1#9": "operation index out of range in 'T1#9' (line 4)",
        "T1#0": "operation index out of range in 'T1#0' (line 4)",
        "A#3": "operation index out of range in 'A#3' (line 4)",
        "C7": "unknown transaction T7 in 'C7' (line 4)",
        "R7(x)": "unknown transaction T7 in 'R7(x)' (line 4)",
        "W2(y)": "no operation matches 'W2(y)' (line 4)",
        "R1(y)": "no operation matches 'R1(y)' (line 4)",
        "R1(x)": "'R1(x)' is ambiguous: use a positional reference like T1#1 (line 4)",
        "Q1": "unrecognized operation reference 'Q1' (line 4)",
        "R(x)": "unrecognized operation reference 'R(x)' (line 4)",
    }
    for token, message in expected.items():
        with pytest.raises(ParseError) as info:
            parse_schedule(head + f"order: {token}\n", validate=False)
        assert str(info.value) == message
    s = parse_schedule(head + "order: W1(x) C1 W2(x) C2\n", validate=False)
    assert s.order[1:] == (opid("T1", 3), opid("T1", 4), opid("T2", 1), opid("T2", 2))
    # transactions without exactly one commit never parse, but the resolver still says why
    commitless = {"T1": Transaction("T1", (Operation(opid("T1", 1), Action.WRITE, "x"),))}
    with pytest.raises(ParseError, match=r"^'C1' is ambiguous: transaction has 0 commits \(line 3\)$"):
        _OpResolver(commitless).resolve("C1", 3)


def _document_tokens(rest):
    """Every operation token of a schedule document's order, reads and vorder lines."""
    for _, line in rest:
        word, _, body = line.partition(" ")
        if word == "order:":
            yield from body.split()
        elif word == "reads:":
            for entry in body.split():
                yield from entry.split("<-", 1)
        elif word == "vorder":
            yield from (token.strip() for token in body.split(":", 1)[1].split("<"))


def _odd_tokens(txns):
    """Per transaction: positional tokens out of range, with leading zeros or
    unknown, and compact tokens for every action and object the document
    names, present or not."""
    objects = sorted({op.obj for t in txns.values() for op in t.ops if op.obj} | {"nope"})
    yield from ("init", "INIT", "Q1", "R(x)", "C", "C99", "R99(x)", "T99#1", "#1", "T1#", "T1#x")
    for tid, t in txns.items():
        n = len(t.ops)
        yield from (f"{tid}#0", f"{tid}#{n + 1}", f"{tid}#01", f"{tid}#{n}", f"{tid}#00{n}", f"{tid}#1#1")
        number = tid[1:]
        yield from (f"C{number}", f"C0{number}", f"T{number}")
        for action, obj in itertools.product("RW", objects):
            yield from (f"{action}{number}({obj})", f"{action}0{number}({obj})")


def _resolution(resolver, token):
    try:
        return resolver.resolve(token, 3)
    except ParseError as exc:
        return str(exc)


def test_resolver_matches_the_oracle():
    """The id or the error message, for every token of the corpus documents
    and for non-canonical, unknown, out-of-range and ambiguous ones."""
    schedules = [S1, S2, S3, S4, SD, lost_update_schedule()]
    for txns in curated_txn_sets()[::4]:
        schedules += itertools.islice(enumerate_valid_schedules(txns), 0, None, 11)
    schedules += [reduce_to_schedule(p)[1] for p in random_polygraphs(40)]
    docs = [S1_DOC] + [render_schedule(s) for s in schedules]
    docs.append(
        "txn T1: R(x) R(x) W(x) C\ntxn T2: W(x) C\ntxn A: R(x) C\ntxn T01: W(y) W(y) C\n"
        "txn T#1: R(y) C\ntxn T: C\norder: T1#1 R1(x) W2(x) T01#2 T#1#1 W01(y)\n"
    )
    resolved = 0
    for doc in docs:
        txns, _, rest = _parse_declarations(doc)
        new, old = _OpResolver(txns), OpResolverOracle(txns)
        for token in itertools.chain(_document_tokens(rest), _odd_tokens(txns)):
            expected = _resolution(old, token)
            assert _resolution(new, token) == expected, (doc, token)
            resolved += not isinstance(expected, str)
    assert resolved > 10_000


def test_comments_do_not_break_positional_tokens():
    doc = "txn T1: R(t) C  # trailing comment\norder: T1#1 C1 # tail\nreads: T1#1<-init\n"
    s = parse_schedule(doc)
    assert validate_schedule(s) == []


def test_comment_rule_at_line_start_after_a_tab_and_after_a_positional_reference():
    doc = "#T1#1 leading comment\ntxn T1: R(t) C\t# after a tab\norder: T1#1 T1#2#kept? # trailing\nreads: T1#1<-init\n"
    with pytest.raises(ParseError, match="T1#2#kept"):
        parse_schedule(doc)
    s = parse_schedule(doc.replace(" T1#2#kept?", " T1#2"))
    assert s.order == (INIT, opid("T1", 1), opid("T1", 2))
    assert parse_schedule("txn T1: R(t) C\norder: T1#1\tT1#2\t#T1#9\nreads: T1#1<-init\n") == s
    assert parse_polygraph("\t# indented\nnode u#1 v\narc u#1 v # arc\n").arcs == frozenset({("u#1", "v")})


def test_reduction_schedule_survives_round_trip():
    p = Polygraph.of("uvw", [("w", "u")], [("u", "v", "w")])
    txns, s = reduce_to_schedule(p)
    alloc = LevelAllocation.uniform(RC, (t.id for t in txns))
    doc = render_schedule(s, alloc)
    assert parse_schedule(doc) == s
    assert render_schedule(parse_schedule(doc), alloc) == doc


# --- polygraphs --------------------------------------------------------------------


def test_polygraph_round_trip():
    p = Polygraph.of("uvw", [("w", "u")], [("u", "v", "w")])
    doc = render_polygraph(p)
    assert parse_polygraph(doc) == p
    assert render_polygraph(parse_polygraph(doc)) == doc


def test_polygraph_multi_node_lines_and_comments():
    p = parse_polygraph("# header\nnode u v w\narc w u\nchoice u v w\n")
    assert p == Polygraph.of("uvw", [("w", "u")], [("u", "v", "w")])


def test_polygraph_parse_errors():
    with pytest.raises(ParseError, match="two nodes"):
        parse_polygraph("node a b\narc a\n")
    with pytest.raises(ParseError, match="three nodes"):
        parse_polygraph("node a b c\nchoice a b\n")
    with pytest.raises(ParseError, match="invalid polygraph"):
        parse_polygraph("node a b c\narc c a\nchoice a a c\n")
    with pytest.raises(ParseError, match="unexpected line"):
        parse_polygraph("vertex a\n")


# --- the reader against the old reader ------------------------------------------

#: Every malformed document of the tests above, read as a schedule document.
MALFORMED = [
    "txn T1: R(t)\nalloc T1=RC",
    "txn T1: C\ntxn T1: C\nalloc T1=RC",
    "txn T1: C\nalloc T1=XX",
    "txn T1: C",
    "txn T1: C\ntxn T2: C\nalloc T1=RC",
    "txn T1: C\nalloc T1=RC T9=RC",
    "alloc T1=RC",
    "txn T1: X(t) C\nalloc T1=RC",
    "txn T9: R(t) R(t) C\norder: R9(t) T9#2 C9\nreads: R9(t)<-init T9#2<-init\n",
    "txn T1: R(t) C\norder: R1(t) C1\n",
    "txn T1: R(t) R(t) C\norder: T1#1 T1#2 C1\nreads: T1#1<-init T1#2<-T1#1\n",
    "txn T1: W(t) C\ntxn T2: W(t) C\norder: W1(t) C1 W2(t) C2\nvorder t: init<W1(t)\n",
    MISPLACED_INIT,
    "txn T1: C\norder: C1 C7\n",
    "txn T1: C\norder: T1#2\n",
    "txn T1: C\norder: ???\n",
    "#T1#1 leading comment\ntxn T1: R(t) C\t# after a tab\norder: T1#1 T1#2#kept? # trailing\nreads: T1#1<-init\n",
    "node a b\narc a\n",
    "vertex a\n",
    "txn T1: W(x) C\norder: W1(x) C1\nvorder x: init<T9#1<<W1(x)\n",
    "txn T1: W(x) C\norder: W1(x) C1\nvorder x: init<<T9#1\n",
    "txn T1: R(x) C\norder: R1(x) C1\nreads: R1(x)<-T9#1 R1(x)init\n",
] + [
    "txn T1: R(x) R(x) W(x) C\ntxn T2: W(x) C\ntxn A: R(x) C\n" + f"order: {token}\n"
    for token in ("T3#1", "T1#9", "T1#0", "A#3", "C7", "R7(x)", "W2(y)", "R1(y)", "R1(x)", "Q1", "R(x)")
]


def _reading(parse, text, workload=None):
    """What a reader makes of a schedule document: the schedule and its
    allocation, or the error's text and line."""
    try:
        return parse(text, workload)
    except ParseError as exc:
        return str(exc), exc.line


def assert_read_as_the_oracle_reads(text, workload=None):
    expected = _reading(parse_schedule_document_oracle, text, workload)
    assert _reading(parse_schedule_document, text, workload) == expected, text
    return expected


@pytest.mark.parametrize("text", MALFORMED)
def test_the_reader_matches_the_oracle_on_every_malformed_document(text):
    assert isinstance(assert_read_as_the_oracle_reads(text)[0], str)
    assert_read_as_the_oracle_reads(text, s2_workload(RC))


def test_the_reader_matches_the_oracle_on_the_rendered_corpus():
    schedules = [S1, S2, S3, S4, SD, lost_update_schedule()]
    for txns in curated_txn_sets()[::4]:
        schedules += itertools.islice(enumerate_valid_schedules(txns), 0, None, 11)
    schedules += [reduce_to_schedule(p)[1] for p in random_polygraphs(40)]
    for s in schedules:
        assert assert_read_as_the_oracle_reads(render_schedule(s)) == (s, None)
    assert_read_as_the_oracle_reads(S1_DOC)


_GARBLE = ("#", " #", "<", "<<", "<-", ":", " ", "(", ")", "x", "1", "init", "T9#1", "\t")


@st.composite
def respelled_documents(draw):
    """A rendered schedule document respelled: each reference positional or
    compact (a compact one may be ambiguous), ``init`` written or left out,
    comments after lines and on lines of their own, LF, CRLF or CR line
    endings; sometimes with one edit that may break it (a line dropped or
    doubled, a character inserted) and sometimes read against a workload,
    its ``txn`` lines kept or dropped.  Returns (document, workload)."""
    s = draw(valid_schedules())
    levels = draw(st.lists(st.sampled_from(list(IsolationLevel)), min_size=len(s.txns), max_size=len(s.txns)))
    alloc = draw(st.sampled_from([None, LevelAllocation(dict(zip(s.txn_ids, levels)))]))
    resolver = OpResolverOracle(s.txn_by_id)

    def spell(token):
        opid = resolver.resolve(token, 0)
        if opid == INIT:
            return "init"
        op = s.operation(opid)
        number = opid.txn[1:]
        compact = f"C{number}" if op.is_commit else f"{op.action.value}{number}({op.obj})"
        return draw(st.sampled_from([f"{opid.txn}#{opid.index}", compact]))

    lines = []
    for line in render_schedule(s, alloc).splitlines():
        word, _, body = line.partition(" ")
        if word == "order:":
            tokens = [spell(token) for token in body.split()]
            line = "order: " + " ".join(["init"] * draw(st.booleans()) + tokens)
        elif word == "reads:":
            line = "reads: " + " ".join("<-".join(map(spell, entry.split("<-"))) for entry in body.split())
        elif word == "vorder":
            obj, chain = body.split(": ")
            tokens = [spell(token) for token in chain.split("<")]
            line = f"vorder {obj}: " + "<".join(tokens[draw(st.integers(0, 1)):])
        lines.append(line + draw(st.sampled_from(["", " # T1#1 note", "\t#", " #x<-y", "  "])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["# comment", "   ", "#T1#1", "\t# C1"])))
    edit = draw(st.integers(0, 5))
    at = draw(st.integers(0, len(lines) - 1))
    if edit == 1:
        del lines[at]
    elif edit == 2:
        lines.insert(at, lines[at])
    elif edit == 3:
        where = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:where] + draw(st.sampled_from(_GARBLE)) + lines[at][where:]
    workload = None
    if alloc is not None and draw(st.booleans()):
        workload = Workload(s.txns, alloc)
        if draw(st.booleans()):
            lines = [line for line in lines if not line.startswith("txn ")]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n", workload


@settings(max_examples=300, deadline=None)
@given(respelled_documents())
def test_the_reader_matches_the_oracle_on_respelled_documents(document):
    assert_read_as_the_oracle_reads(*document)


def _building(make, actions):
    try:
        return make("T1", actions)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "actions",
    ["R()", "W(a b)", "C(x)", "R(x<y)", "c", "W(x))", "R(x) C", "", "C C", "RW(x) C", "R((x)) C", "W(é) C", "R(#1) C"],
)
def test_make_transaction_matches_the_oracle_on_malformed_tokens(actions):
    assert _building(make_transaction, actions) == _building(make_transaction_oracle, actions)


def assert_builds_as_the_oracle(actions):
    """``make_transaction`` gives the oracle's transaction, whose operations
    the checking ``Operation(...)`` built, or raises the oracle's message;
    its values are of the named-tuple types, not plain tuples."""
    built = _building(make_transaction, actions)
    assert built == _building(make_transaction_oracle, actions), actions
    if not isinstance(built, str):
        assert type(built) is Transaction
        assert all(type(op) is Operation and type(op.id) is OperationId for op in built.ops)


def test_make_transaction_matches_the_oracle_on_the_corpus_transactions():
    """Every transaction of the corpora, written back as its ``txn`` body."""
    txns = {t for ts in curated_txn_sets() for t in ts}
    txns |= {t for ts in two_txn_shape_workloads() + three_small_txn_workloads() for t in ts}
    txns |= {t for w in random_workloads(300) + four_txn_workloads(300) for t in w.txns}
    assert len(txns) > 50
    for t in txns:
        body = " ".join("C" if op.is_commit else f"{op.action.value}({op.obj})" for op in t.ops)
        assert_builds_as_the_oracle(body)
        assert make_transaction(t.id, body) == t


#: read, write and commit tokens, and one of each shape the grammar refuses
_BODY_TOKENS = ["R(x)", "W(y)", "C", "R(é)", "W(x_1)", "R()", "W(a<b)", "R(x)W(y)", "C(x)", "X(y)", "R(x", "c", "RC"]
_GAPS = st.sampled_from([" ", "\t", "  ", " \t ", "\n"])


@st.composite
def token_bodies(draw):
    """Valid and refused tokens between spaces, tabs and line breaks."""
    tokens = draw(st.lists(st.sampled_from(_BODY_TOKENS), max_size=6))
    return draw(st.sampled_from(["", " ", "\t"])) + "".join(t + draw(_GAPS) for t in tokens)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(alphabet="RWCc()<x# \t", max_size=14), token_bodies()))
def test_make_transaction_matches_the_oracle(actions):
    """Drawn text, and bodies of drawn tokens: the first refused token names
    the error, as token by token."""
    assert_builds_as_the_oracle(actions)
