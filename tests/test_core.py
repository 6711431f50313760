"""Schedule and transaction value types, well-formedness, basic predicates."""

from __future__ import annotations

import itertools
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import curated_txn_sets, enumerate_valid_schedules, mutated_schedules, random_polygraphs, valid_schedules
from fixtures import *
from oracles import is_single_version_serial, schedule_index_oracle, single_version_oracle, split, validate_schedule_oracle

from mvsched import (
    INIT,
    Action,
    LimitExceeded,
    Operation,
    OperationId,
    Schedule,
    ScheduleError,
    ScheduleViolation,
    SearchLimits,
    Transaction,
    UnknownOperation,
    ViolationKind,
    are_concurrent,
    is_conflict_serializable,
    make_schedule,
    make_transaction,
    reduce_to_schedule,
    serial_schedule,
    validate_schedule,
    validate_transaction,
)
from mvsched.core import Budget
from mvsched.polygraph import ReductionCheck


def kinds(violations):
    return {v.kind for v in violations}


# --- operations and transactions -------------------------------------------


def test_operation_object_rules():
    with pytest.raises(ValueError):
        Operation(OperationId("T1", 1), Action.COMMIT, "t")
    with pytest.raises(ValueError):
        Operation(OperationId("T1", 1), Action.READ, None)
    with pytest.raises(ValueError):
        Operation(OperationId("T1", 1), Action.WRITE, "")
    with pytest.raises(ValueError):
        Operation(OperationId("T1", 1), Action.READ)  # the object defaults to None
    read = Operation(OperationId("T1", 1), Action.READ, "x")
    with pytest.raises(ValueError):
        read._replace(obj=None)
    with pytest.raises(ValueError):
        Operation._make((OperationId("T1", 1), Action.COMMIT, "x"))
    assert read._replace(obj="y") == Operation(OperationId("T1", 1), Action.READ, "y")


def test_values_are_named_tuples():
    """Operations, transactions and reduction checks compare equal to, hash
    like and unpack as the plain tuples of their fields, refuse assignment,
    and keep their reprs."""
    read, commit = Operation(OperationId("T1", 1), Action.READ, "x"), Operation(OperationId("T1", 2), Action.COMMIT)
    t = Transaction("T1", (read, commit))
    check = ReductionCheck("size-linear", True)
    for value, fields in (
        (read, (("T1", 1), Action.READ, "x")),
        (commit, (("T1", 2), Action.COMMIT, None)),
        (t, ("T1", (read, commit))),
        (check, ("size-linear", True, "")),
    ):
        assert value == fields and hash(value) == hash(fields) and tuple(value) == fields
        a, b, *rest = value
        assert (a, b, *rest) == fields
        assert pickle.loads(pickle.dumps(value)) == value
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    assert (repr(read), repr(commit)) == ("R[T1](x)", "C[T1]")
    assert repr(Operation(OperationId("T2", 1), Action.WRITE, "y")) == "W[T2](y)"
    assert t.op_ids == (("T1", 1), ("T1", 2)) and all(type(i) is OperationId for i in t.op_ids)
    assert (read.is_read, read.is_write, commit.is_commit) == (True, False, True)
    assert t.read_only and not make_transaction("T2", "R(x) W(x) C").read_only


def test_init_identity():
    assert INIT.is_init
    assert not OperationId("T1", 1).is_init
    assert repr(INIT) == "INIT"
    assert repr(OperationId("T1", 2)) == "T1#2"


def test_operation_id_semantics():
    ids = [OperationId("T2", 1), OperationId("T1", 10), INIT, OperationId("T1", 2), OperationId("", 1)]
    assert sorted(ids) == [INIT, OperationId("", 1), OperationId("T1", 2), OperationId("T1", 10), OperationId("T2", 1)]
    assert [repr(i) for i in (INIT, OperationId("T1", 2))] == ["INIT", "T1#2"] and str(INIT) == "INIT"
    table = {OperationId("T1", 2): "a"}
    table[OperationId("T" + "1", 1 + 1)] = "b"
    assert table == {OperationId("T1", 2): "b"}
    again = pickle.loads(pickle.dumps(OperationId("T1", 2)))
    assert again == OperationId("T1", 2) and type(again) is OperationId
    assert [i.is_init for i in ids] == [False, False, True, False, False]
    assert OperationId(txn="", index=0).is_init and not OperationId("", 1).is_init and not OperationId("T0", 0).is_init
    # on purpose: an id is a named tuple, so it equals (and hashes like) the plain tuple (txn, index)
    assert OperationId("T1", 2) == ("T1", 2) and hash(OperationId("T1", 2)) == hash(("T1", 2))
    assert INIT == ("", 0) and ("T1", 2) in {OperationId("T1", 2)}


def test_validate_transaction_accepts_s1_t4():
    assert validate_transaction(S1_T4) == []


def test_validate_transaction_missing_commit():
    t = Transaction("T1", (Operation(OperationId("T1", 1), Action.READ, "t"),))
    assert kinds(validate_transaction(t)) == {ViolationKind.MISSING_COMMIT}
    assert kinds(validate_transaction(Transaction("T1", ()))) == {ViolationKind.MISSING_COMMIT}


def test_validate_transaction_commit_not_last():
    t = Transaction(
        "T1",
        (
            Operation(OperationId("T1", 1), Action.COMMIT),
            Operation(OperationId("T1", 2), Action.READ, "t"),
            Operation(OperationId("T1", 3), Action.COMMIT),
        ),
    )
    assert ViolationKind.COMMIT_NOT_LAST in kinds(validate_transaction(t))


def test_validate_transaction_id_mismatch():
    t = Transaction("T1", (Operation(OperationId("T2", 1), Action.COMMIT),))
    assert kinds(validate_transaction(t)) == {ViolationKind.BAD_OPERATION_ID}


def test_commit_only_transaction_is_fine():
    t = make_transaction("T1", "C")
    assert validate_transaction(t) == []
    assert t.read_only


def test_multiple_reads_and_writes_per_object_permitted():
    t = make_transaction("T1", "R(t) R(t) W(t) W(t) C")
    assert validate_transaction(t) == []


# --- schedule validation -----------------------------------------------------


def test_fixture_schedules_are_valid():
    for s in (S1, S2, S3, S4, SD, lost_update_schedule()):
        assert validate_schedule(s) == []


#: the fields of the index that validation leaves on a valid schedule
INDEX_FIELDS = ("txn", "kind", "obj", "rank", "vf", "number", "at", "writes", "first", "commit")


def assert_validation_matches_the_oracles(s):
    """``validate_schedule`` gives the oracle's list, which is empty exactly
    when ``Schedule.index`` does not raise, and on a valid schedule leaves
    cached the walk that ``Schedule.index`` returns, equal to the old
    builder's index field by field."""
    found = validate_schedule(s)
    assert found == validate_schedule_oracle(s), s
    try:
        indexed = s.index
    except ScheduleError:
        indexed = None
    assert (indexed is None) == bool(found), s
    if not found:
        left, oracle = s.__dict__["_walk"], schedule_index_oracle(s)
        assert indexed is left
        for field in INDEX_FIELDS:
            assert getattr(left, field) == getattr(oracle, field), (s, field)
    return found


def test_validate_schedule_matches_the_oracle_on_fixtures_and_corpus():
    """The full violation list, in order, on valid schedules: the fixtures,
    every 13th valid schedule of the curated transaction sets and the
    reductions of seeded polygraphs; each clears on the index walk and
    leaves the oracle's index."""
    schedules = [S1, S2, S3, S4, SD, lost_update_schedule(), EMPTY_SCHEDULE]
    for txns in curated_txn_sets():
        schedules += itertools.islice(enumerate_valid_schedules(txns), 0, None, 13)
    schedules += [reduce_to_schedule(p)[1] for p in random_polygraphs(100)]
    assert len(schedules) > 1000
    for s in schedules:
        assert assert_validation_matches_the_oracles(s) == [] and s.index.clean, s


@given(valid_schedules())
@settings(max_examples=300, deadline=None)
def test_validation_leaves_the_oracle_index_on_generated_schedules(s):
    assert assert_validation_matches_the_oracles(s) == [] and s.index.clean


def test_validate_schedule_matches_the_oracle_where_counts_alone_would_mislead():
    """Defects that keep the counts of a valid schedule: a transaction listed
    twice with the order padded by unknown ids, an unknown id in INIT's
    place, a read of a future version, a version order that repeats one
    write and drops another, a read of an earlier read of its object
    (walked before the reader, or after it), two writes listed in each
    other's version orders, and INIT last in a version order."""
    t1 = make_transaction("T1", "W(x) W(x) C")
    t2 = make_transaction("T2", "R(x) C")
    t3 = make_transaction("T3", "R(x) W(y) C")
    commit = make_transaction("T1", "C")
    wx, wy = make_transaction("T1", "W(x) C"), make_transaction("T2", "W(y) C")
    padded = Schedule(
        (t1, t1), (INIT, *t1.op_ids, opid("T9", 1), opid("T9", 2), opid("T9", 3)), {"x": (INIT, *t1.op_ids[:2])}, {}
    )
    padded_commit = Schedule((commit, commit), (INIT, opid("T1", 1), opid("T9", 1)), {}, {})
    no_init = Schedule((commit,), (opid("T9", 1), opid("T1", 1)), {}, {})
    future = make_schedule((t1, t2), (*t2.op_ids, *t1.op_ids), {"x": t1.op_ids[:2]}, {opid("T2", 1): opid("T1", 1)})
    repeated = make_schedule((t1,), t1.op_ids, {"x": (opid("T1", 1), opid("T1", 1))}, {})
    read_of_read = make_schedule(
        (t2, t3), (*t3.op_ids, *t2.op_ids), {"y": (opid("T3", 2),)}, {opid("T2", 1): opid("T3", 1), opid("T3", 1): INIT}
    )
    read_of_walked_read = make_schedule(
        (t2, make_transaction("T4", "R(x) C")),
        (*t2.op_ids, opid("T4", 1), opid("T4", 2)),
        {},
        {opid("T2", 1): INIT, opid("T4", 1): opid("T2", 1)},
    )
    swapped = make_schedule((wx, wy), (*wx.op_ids, *wy.op_ids), {"x": (opid("T2", 1),), "y": (opid("T1", 1),)}, {})
    init_last = make_schedule((wx,), wx.op_ids, {"x": (opid("T1", 1), INIT)}, {})
    for s in (padded, padded_commit, no_init, future, repeated, read_of_read, read_of_walked_read, swapped, init_last):
        assert assert_validation_matches_the_oracles(s) != [], s


@given(mutated_schedules())
@settings(max_examples=500, deadline=None)
def test_validate_schedule_matches_the_oracle_on_mutated_schedules(s):
    assert_validation_matches_the_oracles(s)


def test_validate_schedule_matches_the_oracle_on_an_edit_for_every_kind():
    """One edit of a valid schedule per violation kind; each edited schedule
    reports its kind, with the oracle's full list."""
    t1, t2 = make_transaction("T1", "R(x) W(x) W(x) C"), make_transaction("T2", "W(x) R(y) C")
    order = (INIT, opid("T1", 1), opid("T2", 1), opid("T2", 2), opid("T2", 3), *t1.op_ids[1:])
    vorder = {"x": (INIT, opid("T2", 1), opid("T1", 2), opid("T1", 3)), "y": (INIT,)}
    vf = {opid("T1", 1): INIT, opid("T2", 2): INIT}

    def edit(txns=(t1, t2), order=order, vorder=vorder, vf=vf, **chains):
        return Schedule(tuple(txns), tuple(order), {**vorder, **chains}, {**vf})

    def txn2(*ops):
        return Transaction("T2", tuple(ops))

    w, r, c = t2.ops
    K = ViolationKind
    edits = {
        K.MISSING_COMMIT: edit(txns=(t1, txn2(w, r)), order=order[:4] + order[5:]),
        K.COMMIT_NOT_LAST: edit(txns=(t1, txn2(w, Operation(opid("T2", 2), Action.COMMIT), c)), vf={opid("T1", 1): INIT}),
        K.BAD_OPERATION_ID: edit(txns=(t1, txn2(Operation(opid("T9", 1), Action.WRITE, "x"), r, c))),
        K.DUPLICATE_TRANSACTION: edit(txns=(t1, t2, t2)),
        K.UNKNOWN_OPERATION: edit(order=order + (opid("T9", 1),)),
        K.DUPLICATE_POSITION: edit(order=order + (opid("T2", 1),)),
        K.ORDER_NOT_TOTAL: edit(order=order[:-1]),
        K.VORDER_NOT_TOTAL: edit(x=vorder["x"][:-1]),
        K.UNMAPPED_READ: edit(vf={opid("T1", 1): INIT}),
        K.VF_TARGET_NOT_WRITE: edit(vf={**vf, opid("T2", 2): opid("T1", 1)}),
        K.INIT_NOT_FIRST: edit(order=order[1:2] + order[:1] + order[2:]),
        K.INTRA_TXN_VORDER: edit(x=(INIT, opid("T2", 1), opid("T1", 3), opid("T1", 2))),
        K.TXN_ORDER_NOT_PRESERVED: edit(order=order[:5] + (opid("T1", 3), opid("T1", 2)) + order[7:]),
        K.VERSION_READS_FUTURE: edit(vf={**vf, opid("T1", 1): opid("T2", 1)}),
        K.VERSION_OBJECT_MISMATCH: edit(vf={**vf, opid("T2", 2): opid("T2", 1)}),
    }
    assert set(edits) == set(ViolationKind)
    assert assert_validation_matches_the_oracles(edit()) == []
    for kind, s in edits.items():
        assert kind in kinds(assert_validation_matches_the_oracles(s)), kind


def test_validate_schedule_reports_a_repeated_transaction():
    # make_schedule refuses a repeated id, so only a directly built schedule has one;
    # every decider refuses it, and validation now says why
    t = make_transaction("T1", "R(x) W(x) C")
    s = Schedule((t, t), (INIT, *t.op_ids), {"x": (INIT, opid("T1", 2))}, {opid("T1", 1): INIT})
    assert assert_validation_matches_the_oracles(s) == [ScheduleViolation(ViolationKind.DUPLICATE_TRANSACTION, t.op_ids)]
    assert str(validate_schedule(s)[0]) == "duplicate-transaction: T1#1, T1#2, T1#3"
    with pytest.raises(ScheduleError):
        is_conflict_serializable(s)


def test_validate_schedule_version_reads_future():
    # S2 altered so T1's read observes T1's own later write
    bad = make_schedule(S2_TXNS, S2.order, dict(S2.vorder), {opid("T1", 2): opid("T1", 3)})
    assert ViolationKind.VERSION_READS_FUTURE in kinds(validate_schedule(bad))


def test_validate_schedule_commit_incompatible_vorder_is_still_valid():
    # installation order t: W4 before W2 although T2 commits before T4;
    # commit compatibility is an isolation-level concern, not well-formedness
    twisted = make_schedule(
        (S1_T1, S1_T2, S1_T3, S1_T4),
        S1.order,
        {"t": (opid("T4", 2), opid("T2", 1)), "v": (opid("T3", 1),)},
        dict(S1.vf),
    )
    assert validate_schedule(twisted) == []


def test_validate_schedule_structural_defects():
    # duplicate position and unknown operation in the order
    s = make_schedule(
        (S1_T1,),
        (INIT, opid("T1", 1), opid("T1", 1), opid("T1", 2), opid("T9", 1)),
        {},
        {opid("T1", 1): INIT},
    )
    found = kinds(validate_schedule(s))
    assert ViolationKind.DUPLICATE_POSITION in found
    assert ViolationKind.UNKNOWN_OPERATION in found


def test_validate_schedule_order_not_total():
    s = make_schedule((S1_T1,), (INIT, opid("T1", 1)), {}, {opid("T1", 1): INIT})
    assert ViolationKind.ORDER_NOT_TOTAL in kinds(validate_schedule(s))


def test_validate_schedule_init_not_first():
    s = Schedule(
        txns=(S1_T1,),
        order=(opid("T1", 1), INIT, opid("T1", 2)),
        vorder={},
        vf={opid("T1", 1): INIT},
    )
    assert ViolationKind.INIT_NOT_FIRST in kinds(validate_schedule(s))


def test_validate_schedule_unmapped_read():
    s = make_schedule((S1_T1,), (INIT, opid("T1", 1), opid("T1", 2)), {}, {})
    assert kinds(validate_schedule(s)) == {ViolationKind.UNMAPPED_READ}


def test_validate_schedule_vf_object_mismatch_and_non_write():
    t = make_transaction("T1", "W(t) C")
    r = make_transaction("T2", "R(v) R(v) C")
    order = (INIT, opid("T1", 1), opid("T2", 1), opid("T2", 2), opid("T1", 2), opid("T2", 3))
    s = make_schedule((t, r), order, {"t": (opid("T1", 1),)}, {opid("T2", 1): opid("T1", 1), opid("T2", 2): opid("T2", 1)})
    found = kinds(validate_schedule(s))
    assert ViolationKind.VERSION_OBJECT_MISMATCH in found
    assert ViolationKind.VF_TARGET_NOT_WRITE in found


def test_validate_schedule_vorder_not_total():
    t = make_transaction("T1", "W(t) W(t) C")
    s = make_schedule((t,), (INIT, opid("T1", 1), opid("T1", 2), opid("T1", 3)), {"t": (opid("T1", 1),)}, {})
    assert ViolationKind.VORDER_NOT_TOTAL in kinds(validate_schedule(s))


def test_validate_schedule_intra_txn_vorder():
    t = make_transaction("T1", "W(t) W(t) C")
    s = make_schedule(
        (t,),
        (INIT, opid("T1", 1), opid("T1", 2), opid("T1", 3)),
        {"t": (opid("T1", 2), opid("T1", 1))},
        {},
    )
    assert ViolationKind.INTRA_TXN_VORDER in kinds(validate_schedule(s))


def test_validate_schedule_txn_order_not_preserved():
    t = make_transaction("T1", "R(t) W(t) C")
    s = make_schedule(
        (t,),
        (INIT, opid("T1", 2), opid("T1", 1), opid("T1", 3)),
        {"t": (opid("T1", 2),)},
        {opid("T1", 1): INIT},
    )
    assert ViolationKind.TXN_ORDER_NOT_PRESERVED in kinds(validate_schedule(s))


def test_empty_schedule_is_valid_and_serial():
    assert validate_schedule(EMPTY_SCHEDULE) == []
    assert is_single_version_serial(EMPTY_SCHEDULE)


# --- single-version predicates ----------------------------------------------


def test_single_version_verdicts_match_clause_oracle():
    # the clause oracle's verdicts, pinned: only S1 fails (see the next test)
    verdicts = [single_version_oracle(s) for s in (S1, S2, S3, S4, SD, serial_schedule(S2_TXNS), lost_update_schedule())]
    assert verdicts == [False, True, True, True, True, True, True]


def test_s1_is_not_single_version():
    # T4's first read observes the initial version past T2's earlier write
    assert single_version_oracle(S1) is False


def test_s2_single_version_oracle_verdict_frozen():
    # both clauses hold: vorder tracks the operation order and every read
    # still observes the latest write at its position
    assert single_version_oracle(S2) is True


def test_single_version_serial():
    assert is_single_version_serial(serial_schedule(S2_TXNS))
    assert not is_single_version_serial(S2)  # T1 interleaves with T2
    single = serial_schedule((S1_T1,))
    assert is_single_version_serial(single)


# --- concurrency --------------------------------------------------------------


def test_concurrency_matrix_of_s1():
    assert are_concurrent(S1, "T1", "T2")
    assert not are_concurrent(S1, "T1", "T3")
    assert are_concurrent(S1, "T1", "T4")
    assert are_concurrent(S1, "T2", "T3")
    assert are_concurrent(S1, "T2", "T4")
    assert are_concurrent(S1, "T3", "T4")


def test_serial_schedules_have_no_concurrency():
    s = serial_schedule(S2_TXNS)
    for a in ("T1", "T2", "T3"):
        for b in ("T1", "T2", "T3"):
            if a != b:
                assert not are_concurrent(s, a, b)


def test_are_concurrent_errors():
    with pytest.raises(ValueError):
        are_concurrent(S1, "T1", "T1")
    with pytest.raises(UnknownOperation):
        are_concurrent(S1, "T1", "T9")


# --- split ---------------------------------------------------------------------


def test_split_examples():
    prefix, postfix = split(S2_T1, opid("T1", 2))  # at R1(t)
    assert [op.id for op in prefix] == [opid("T1", 1), opid("T1", 2)]
    assert [op.id for op in postfix] == [opid("T1", 3), opid("T1", 4)]
    prefix, postfix = split(S2_T1, opid("T1", 4))
    assert prefix == S2_T1.ops and postfix == ()
    prefix, postfix = split(S2_T1, opid("T1", 1))
    assert len(prefix) == 1 and len(postfix) == 3
    with pytest.raises(UnknownOperation):
        split(S2_T1, opid("T2", 1))


# --- serial schedules -----------------------------------------------------------


def test_serial_schedule_s2_transaction_reads():
    s = serial_schedule((S2_T1, S2_T2, S2_T3))
    assert s.vf[opid("T1", 2)] == INIT
    assert s.vorder["t"][-1] == opid("T3", 1)
    assert s.vorder["v"][-1] == opid("T3", 2)
    s2 = serial_schedule((S2_T2, S2_T3, S2_T1))
    assert s2.vf[opid("T1", 2)] == opid("T3", 1)


def test_serial_schedule_empty():
    assert serial_schedule(()) == EMPTY_SCHEDULE


def test_serial_schedule_rejects_duplicates():
    with pytest.raises(ValueError):
        serial_schedule((S2_T1, S2_T1))


def test_serial_schedule_reads_own_earlier_write():
    t = make_transaction("T1", "W(t) R(t) C")
    s = serial_schedule((t,))
    assert s.vf[opid("T1", 2)] == opid("T1", 1)


# --- properties -----------------------------------------------------------------

_ACTIONS = st.sampled_from(["R(x)", "R(y)", "W(x)", "W(y)"])


@st.composite
def transactions(draw, tid="T1", max_body=4):
    body = draw(st.lists(_ACTIONS, min_size=0, max_size=max_body))
    return make_transaction(tid, " ".join(body + ["C"]))


@st.composite
def txn_sets(draw, max_n=4):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(transactions(tid=f"T{i+1}")) for i in range(n))


@given(txn_sets())
@settings(max_examples=150, deadline=None)
def test_serial_schedule_of_any_permutation_is_valid_and_serial(txns):
    import itertools

    for perm in itertools.permutations(txns):
        s = serial_schedule(perm)
        assert validate_schedule(s) == []
        assert is_single_version_serial(s)


@given(transactions(), st.integers(min_value=1, max_value=5))
@settings(max_examples=150, deadline=None)
def test_split_is_a_partition(t, k):
    b = t.ops[(k - 1) % len(t.ops)].id
    prefix, postfix = split(t, b)
    assert prefix + postfix == t.ops
    assert prefix[-1].id == b


@given(txn_sets(max_n=3))
@settings(max_examples=100, deadline=None)
def test_are_concurrent_is_symmetric(txns):
    if len(txns) < 2:
        return
    s = serial_schedule(txns)
    for a in txns:
        for b in txns:
            if a.id != b.id:
                assert are_concurrent(s, a.id, b.id) == are_concurrent(s, b.id, a.id)


def test_vorder_restricted_to_txn_matches_txn_order():
    # same-object writes of one transaction install in transaction order
    for s in (S1, S2, S3, S4, SD):
        assert validate_schedule(s) == []
        for t in s.txns:
            for obj in {op.obj for op in t.ops if op.is_write}:
                own = [op.id for op in t.ops if op.is_write and op.obj == obj]
                chain = [opid for opid in s.vorder[obj] if opid in set(own)]
                assert chain == own


# --- search budget -----------------------------------------------------------


def test_every_tick_reads_the_clock():
    budget = Budget(SearchLimits(budget_seconds=0.05))
    budget.tick()
    time.sleep(0.06)
    with pytest.raises(LimitExceeded, match="wall-clock"):
        budget.tick()
