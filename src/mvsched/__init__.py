"""mvsched: analysis toolkit for multiversion transaction schedules.

Models interleaved transaction executions with explicit version orders and
version functions, decides conflict- and view-serializability, checks
admissibility under the RC / SI / SSI isolation levels (mixed allocations
included), decides workload robustness via split-schedule search
cross-checked against exhaustive enumeration, and carries the polygraph
reduction connecting view-serializability to polygraph acyclicity.
"""

from .core import (
    EMPTY_SCHEDULE,
    INIT,
    Action,
    Operation,
    OperationId,
    Schedule,
    ScheduleViolation,
    Transaction,
    ViolationKind,
    are_concurrent,
    is_single_version,
    is_single_version_serial,
    make_schedule,
    make_transaction,
    serial_schedule,
    split,
    validate_schedule,
    validate_transaction,
)
from .errors import (
    AllocationIncomplete,
    LimitExceeded,
    NotACycle,
    ObjectNeverWritten,
    ParseError,
    ReductionInadmissible,
    ScheduleError,
    TransactionSetMismatch,
    UnknownOperation,
)
from .isolation import (
    AdmissibilityReport,
    AdmissibilityViolation,
    Allocation,
    Clause,
    DangerousStructure,
    IsolationLevel,
    LevelAllocation,
    PredicateAllocation,
    VIEW_SERIALIZABLE_ONLY,
    allowed_under_allocation,
    allowed_under_rc,
    allowed_under_si,
    complete_under_allocation,
    exhibits_concurrent_write,
    exhibits_dirty_write,
    find_dangerous_structures,
    read_last_committed,
    respects_commit_order,
)
from .polygraph import (
    CompatibilityWitness,
    Polygraph,
    PolygraphDefect,
    PolygraphViolation,
    ReductionReport,
    REDUCTION_LIMITS,
    is_acyclic_polygraph,
    reduce_to_schedule,
    validate_polygraph,
    verify_reduction,
)
from .robustness import (
    DEFAULT_LIMITS,
    RobustnessMode,
    RobustnessVerdict,
    SearchLimits,
    SearchMethod,
    SplitDefect,
    Workload,
    check_condition_1,
    enumerate_allowed_schedules,
    extend_with_serial_tail,
    find_split_counterexample,
    is_conflict_robust,
    is_exact_conflict_robust,
    is_exact_view_robust,
    is_generalized_split_schedule,
    is_multiversion_split_schedule,
    is_view_robust,
    iter_split_schedules,
    minimize_counterexample,
    restrict_to_cycle,
)
from .serializability import (
    ConflictKind,
    DependencyEdge,
    SerializationGraph,
    ViewWitness,
    conflict_equivalent,
    conflicting,
    depends_on,
    is_conflict_serializable,
    is_view_serializable,
    last_version,
    serialization_graph,
    view_equivalent,
)
from .textio import (
    parse_polygraph,
    parse_schedule,
    parse_workload,
    render_polygraph,
    render_schedule,
    render_workload,
)

__version__ = "0.1.0"
