"""Shared schedule and workload fixtures used across the test suite.

S1: four transactions with a two-way ww/rw tangle on object t and a stale
    read of v; not conflict-serializable and not view-serializable.
S2: three transactions where one is split around another; view-serializable
    (witness T1 T2 T3) but not conflict-serializable.
S3: S2 with T3 removed; serializable in neither sense.
S4: S2's transactions with T3 prepended instead of appended.
SD: three transactions forming the two-hop rw-antidependency pattern that
    SSI forbids.
W_LU: the lost-update pair (both read then write the same object).
W_WS: the write-skew pair (read both objects, each writes a different one).
EMPTY_SCHEDULE: no transactions, only INIT.
"""

from __future__ import annotations

from mvsched import (
    INIT,
    IsolationLevel,
    LevelAllocation,
    OperationId,
    PredicateAllocation,
    Schedule,
    Transaction,
    Workload,
    make_schedule,
    make_transaction,
)

RC = IsolationLevel.RC
SI = IsolationLevel.SI
SSI = IsolationLevel.SSI

EMPTY_SCHEDULE = make_schedule((), (INIT,), {}, {})


def opid(tid: str, index: int) -> OperationId:
    return OperationId(tid, index)


def all_level(level: IsolationLevel, *txns: Transaction) -> LevelAllocation:
    return LevelAllocation.uniform(level, (t.id for t in txns))


def workload(alloc_or_level, *txns: Transaction) -> Workload:
    if isinstance(alloc_or_level, IsolationLevel):
        alloc = all_level(alloc_or_level, *txns)
    else:
        alloc = alloc_or_level
    return Workload(tuple(txns), alloc)


# --- S1 -------------------------------------------------------------------

S1_T1 = make_transaction("T1", "R(t) C")
S1_T2 = make_transaction("T2", "W(t) R(v) C")
S1_T3 = make_transaction("T3", "W(v) C")
S1_T4 = make_transaction("T4", "R(t) W(t) R(v) C")

S1 = make_schedule(
    (S1_T1, S1_T2, S1_T3, S1_T4),
    (
        opid("T2", 1),  # W2(t)
        opid("T4", 1),  # R4(t)
        opid("T3", 1),  # W3(v)
        opid("T3", 2),  # C3
        opid("T1", 1),  # R1(t)
        opid("T1", 2),  # C1
        opid("T2", 2),  # R2(v)
        opid("T2", 3),  # C2
        opid("T4", 2),  # W4(t)
        opid("T4", 3),  # R4(v)
        opid("T4", 4),  # C4
    ),
    {"t": (opid("T2", 1), opid("T4", 2)), "v": (opid("T3", 1),)},
    {
        opid("T1", 1): INIT,
        opid("T4", 1): INIT,
        opid("T2", 2): INIT,
        opid("T4", 3): opid("T3", 1),
    },
)

# --- S2 / S3 / S4 (one shared transaction set) ------------------------------

S2_T1 = make_transaction("T1", "W(v) R(t) W(t) C")
S2_T2 = make_transaction("T2", "W(t) C")
S2_T3 = make_transaction("T3", "W(t) W(v) C")
S2_TXNS = (S2_T1, S2_T2, S2_T3)

S2 = make_schedule(
    S2_TXNS,
    (
        opid("T1", 1),  # W1(v)
        opid("T1", 2),  # R1(t)
        opid("T2", 1),  # W2(t)
        opid("T2", 2),  # C2
        opid("T1", 3),  # W1(t)
        opid("T1", 4),  # C1
        opid("T3", 1),  # W3(t)
        opid("T3", 2),  # W3(v)
        opid("T3", 3),  # C3
    ),
    {
        "t": (opid("T2", 1), opid("T1", 3), opid("T3", 1)),
        "v": (opid("T1", 1), opid("T3", 2)),
    },
    {opid("T1", 2): INIT},
)

S3 = make_schedule(
    (S2_T1, S2_T2),
    (
        opid("T1", 1),
        opid("T1", 2),
        opid("T2", 1),
        opid("T2", 2),
        opid("T1", 3),
        opid("T1", 4),
    ),
    {"t": (opid("T2", 1), opid("T1", 3)), "v": (opid("T1", 1),)},
    {opid("T1", 2): INIT},
)

S4 = make_schedule(
    S2_TXNS,
    (
        opid("T3", 1),  # W3(t)
        opid("T3", 2),  # W3(v)
        opid("T3", 3),  # C3
        opid("T1", 1),  # W1(v)
        opid("T1", 2),  # R1(t)
        opid("T2", 1),  # W2(t)
        opid("T2", 2),  # C2
        opid("T1", 3),  # W1(t)
        opid("T1", 4),  # C1
    ),
    {
        "t": (opid("T3", 1), opid("T2", 1), opid("T1", 3)),
        "v": (opid("T3", 2), opid("T1", 1)),
    },
    {opid("T1", 2): opid("T3", 1)},
)

# --- SD ---------------------------------------------------------------------

SD_T1 = make_transaction("T1", "R(t) C")
SD_T2 = make_transaction("T2", "R(v) W(t) C")
SD_T3 = make_transaction("T3", "W(v) C")

SD = make_schedule(
    (SD_T1, SD_T2, SD_T3),
    (
        opid("T2", 1),  # R2(v)
        opid("T3", 1),  # W3(v)
        opid("T3", 2),  # C3
        opid("T1", 1),  # R1(t)
        opid("T1", 2),  # C1
        opid("T2", 2),  # W2(t)
        opid("T2", 3),  # C2
    ),
    {"t": (opid("T2", 2),), "v": (opid("T3", 1),)},
    {opid("T1", 1): INIT, opid("T2", 1): INIT},
)

# --- workloads ---------------------------------------------------------------

W_LU_T1 = make_transaction("T1", "R(t) W(t) C")
W_LU_T2 = make_transaction("T2", "R(t) W(t) C")
W_LU = (W_LU_T1, W_LU_T2)

W_WS_T1 = make_transaction("T1", "R(t) R(v) W(t) C")
W_WS_T2 = make_transaction("T2", "R(t) R(v) W(v) C")
W_WS = (W_WS_T1, W_WS_T2)


def lost_update_schedule() -> Schedule:
    """R1(t) R2(t) W2(t) C2 W1(t) C1 with both reads observing INIT."""
    return make_schedule(
        W_LU,
        (
            opid("T1", 1),
            opid("T2", 1),
            opid("T2", 2),
            opid("T2", 3),
            opid("T1", 2),
            opid("T1", 3),
        ),
        {"t": (opid("T2", 2), opid("T1", 2))},
        {opid("T1", 1): INIT, opid("T2", 1): INIT},
    )


def s2_workload(level: IsolationLevel = RC) -> Workload:
    return workload(level, *S2_TXNS)


def s2_predicate_workload() -> Workload:
    return Workload(S2_TXNS, PredicateAllocation("view-serializable-only"))


def s1_workload(levels: dict[str, IsolationLevel]) -> Workload:
    return Workload((S1_T1, S1_T2, S1_T3, S1_T4), LevelAllocation(levels))


#: ``init`` after the first operation of the order, and twice at the head of
#: the version chain
MISPLACED_INIT = (
    "txn T1: W(x) C\ntxn T2: R(x) C\nalloc T1=RC T2=RC\n"
    "order: W1(x) init C1 R2(x) C2\nreads: R2(x)<-W1(x)\nvorder x: init<init<W1(x)\n"
)
