"""Command-line surface: machine-checkable reports over the text formats.

Exit codes: 0 when the checked property holds (or the command simply
succeeded), 1 when it is violated (the report carries the counterexample),
2 on input errors (bad search limits included), internal disagreement or
any other internal error (its traceback goes to stderr), 3 when a search
hit its limits, 130 on Ctrl-C.
``--json`` switches the report to the stable ``report-v1`` schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Sequence

from . import textio
from .core import validate_schedule
from .errors import LimitExceeded, ParseError, ScheduleError
from .isolation import allowed_under_allocation
from .polygraph import REDUCTION_LIMITS, is_acyclic_polygraph, reduce_to_schedule, verify_reduction
from .robustness import (
    DEFAULT_LIMITS,
    SearchLimits,
    Workload,
    enumerate_allowed_schedules,
    find_split_counterexample,
    is_conflict_robust,
    is_exact_conflict_robust,
    is_exact_view_robust,
    is_view_robust,
)
from .serializability import is_conflict_serializable, is_view_serializable

#: JSON schema (draft-07) that every ``--json`` report validates against.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "mvsched/report-v1",
    "type": "object",
    "required": ["schema", "command", "verdict", "details", "elapsed_ms", "limit_exceeded"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": "report-v1"},
        "command": {"type": "array", "items": {"type": "string"}},
        "verdict": {"type": ["boolean", "null"]},
        "details": {"type": "object"},
        "elapsed_ms": {"type": "number"},
        "limit_exceeded": {"type": "boolean"},
    },
}

_ENV_PREFIX = "MVSCHED_"


@dataclass
class Report:
    command: list[str]
    verdict: bool | None
    details: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    limit_exceeded: bool = False

    def to_json(self) -> dict:
        return {
            "schema": "report-v1",
            "command": self.command,
            "verdict": self.verdict,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
            "limit_exceeded": self.limit_exceeded,
        }

    def to_text(self) -> str:
        lines = ["command: " + " ".join(self.command)]
        verdict = "n/a" if self.verdict is None else str(self.verdict).lower()
        lines.append(f"verdict: {verdict}")
        for key, value in self.details.items():
            if isinstance(value, str) and "\n" in value:
                lines.append(f"{key}:")
                lines.extend("  " + l for l in value.rstrip("\n").splitlines())
            elif isinstance(value, (list, tuple)):
                lines.append(f"{key}: " + " ".join(str(v) for v in value))
            elif isinstance(value, dict):
                lines.append(f"{key}:")
                for k, v in value.items():
                    if isinstance(v, str) and "\n" in v:
                        lines.append(f"  {k}:")
                        lines.extend("    " + l for l in v.rstrip("\n").splitlines())
                    else:
                        lines.append(f"  {k}: {v}")
            else:
                lines.append(f"{key}: {value}")
        if self.limit_exceeded:
            lines.append("limit-exceeded: true")
        lines.append(f"elapsed-ms: {self.elapsed_ms:.1f}")
        return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ParseError(f"bad value for {_ENV_PREFIX + name}: {raw!r}") from None


def _limits_from(args: argparse.Namespace, base: SearchLimits = DEFAULT_LIMITS) -> SearchLimits:
    """Flags win over environment variables, which win over defaults."""
    max_txns = args.max_txns if args.max_txns is not None else _env_default("MAX_TXNS", int, base.max_txns)
    max_ops = args.max_ops if args.max_ops is not None else _env_default("MAX_OPS", int, base.max_ops)
    max_orders = args.max_orders if args.max_orders is not None else _env_default("MAX_ORDERS", int, base.max_orders)
    budget = args.budget_seconds if args.budget_seconds is not None else _env_default(
        "BUDGET_SECONDS", float, base.budget_seconds
    )
    try:
        return SearchLimits(max_txns=max_txns, max_ops=max_ops, max_orders=max_orders, budget_seconds=budget)
    except ValueError as exc:
        raise ParseError(f"bad search limit: {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON (schema report-v1)")
    common.add_argument("--max-txns", type=int, default=None, help="transaction limit for searches")
    common.add_argument("--max-ops", type=int, default=None, help="operation limit for searches")
    common.add_argument("--max-orders", type=int, default=None, help="candidate-order limit for searches")
    common.add_argument("--budget-seconds", type=float, default=None, help="wall-clock limit for searches")

    parser = argparse.ArgumentParser(prog="mvsched", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-schedule", parents=[common], help="validate a schedule document")
    p.add_argument("schedule")
    p.add_argument("--workload", default=None)

    p = sub.add_parser("serializable", parents=[common], help="decide conflict- or view-serializability")
    p.add_argument("--mode", choices=["conflict", "view"], required=True)
    p.add_argument("schedule")
    p.add_argument("--workload", default=None)

    p = sub.add_parser("allowed", parents=[common], help="decide admissibility under the workload's allocation")
    p.add_argument("schedule")
    p.add_argument("--workload", default=None)

    p = sub.add_parser("robust", parents=[common], help="decide workload robustness")
    p.add_argument("--mode", choices=["conflict", "view", "exact-conflict", "exact-view"], required=True)
    p.add_argument("workload")
    p.add_argument("--method", choices=["split", "enumerate", "both"], default="enumerate")

    p = sub.add_parser("enumerate", parents=[common], help="list all allowed schedules of a workload")
    p.add_argument("workload")
    p.add_argument("--count-only", action="store_true")

    poly = sub.add_parser("polygraph", help="polygraph commands")
    polysub = poly.add_subparsers(dest="polycmd", required=True)
    p = polysub.add_parser("acyclic", parents=[common], help="decide polygraph acyclicity")
    p.add_argument("polygraph")
    p = polysub.add_parser("reduce", parents=[common], help="emit the schedule a polygraph reduces to")
    p.add_argument("polygraph")
    p.add_argument("-o", "--output", required=True)
    p = polysub.add_parser("verify", parents=[common], help="cross-check acyclicity against view-serializability")
    p.add_argument("polygraph")

    return parser


def _load_schedule(args: argparse.Namespace, *, validate: bool = True):
    workload = None
    if args.workload is not None:
        workload = textio.parse_workload(_read_input(args.workload))
    schedule = textio.parse_schedule(_read_input(args.schedule), workload, validate=validate)
    return schedule, workload


def _counterexample_details(w: Workload, ce) -> dict:
    subset, schedule = ce
    return {
        "subset": list(subset),
        "schedule": textio.render_schedule(schedule, w.alloc.restrict(subset)),
    }


def _cmd_check_schedule(args: argparse.Namespace) -> Report:
    schedule, _ = _load_schedule(args, validate=False)
    violations = validate_schedule(schedule)
    return Report(
        command=_echo(args),
        verdict=not violations,
        details={"violations": [str(v) for v in violations]},
    )


def _cmd_serializable(args: argparse.Namespace) -> Report:
    schedule, _ = _load_schedule(args)
    if args.mode == "conflict":
        ok, cycle = is_conflict_serializable(schedule)
        details = {"mode": "conflict", "cycle": list(cycle) if cycle else []}
        return Report(command=_echo(args), verdict=ok, details=details)
    limits = _limits_from(args, SearchLimits(max_txns=8, max_ops=24))
    witness = is_view_serializable(schedule, max_txns=limits.max_txns, max_ops=limits.max_ops)
    details = {
        "mode": "view",
        "witness": list(witness.witness) if witness.witness else [],
        "exhausted": witness.exhausted,
    }
    return Report(command=_echo(args), verdict=witness.verdict, details=details)


def _cmd_allowed(args: argparse.Namespace) -> Report:
    workload = None
    if args.workload is not None:
        workload = textio.parse_workload(_read_input(args.workload))
    text = _read_input(args.schedule)
    schedule = textio.parse_schedule(text, workload)
    alloc = workload.alloc if workload is not None else None
    if alloc is None:
        embedded_txns, embedded_alloc, _ = textio._parse_declarations(text)
        alloc = embedded_alloc
    if alloc is None:
        raise ParseError("no allocation: pass --workload or embed an alloc line")
    report = allowed_under_allocation(schedule, alloc)
    return Report(
        command=_echo(args),
        verdict=report.allowed,
        details={"violations": [str(v) for v in report.violations]},
    )


def _run_robust(w: Workload, mode: str, method: str, limits: SearchLimits) -> tuple[Report | None, dict, bool | None]:
    """Returns (error report, details, verdict)."""
    details: dict = {"mode": mode, "method": method}
    if mode in ("exact-conflict", "exact-view"):
        if method != "enumerate":
            raise ParseError(f"--method {method} is only meaningful for subset robustness modes")
        decide = is_exact_conflict_robust if mode == "exact-conflict" else is_exact_view_robust
        verdict = decide(w, limits)
        if verdict.counterexample:
            details["counterexample"] = _counterexample_details(w, verdict.counterexample)
        return None, details, verdict.robust

    results = {}
    if method in ("enumerate", "both"):
        decide = is_conflict_robust if mode == "conflict" else is_view_robust
        results["enumerate"] = decide(w, limits)
    if method in ("split", "both"):
        hit = find_split_counterexample(w, limits)
        results["split"] = hit
    if method == "both":
        enum_robust = results["enumerate"].robust
        split_robust = results["split"] is None
        if enum_robust != split_robust:
            err = Report(
                command=[],
                verdict=None,
                details={
                    "error": "internal disagreement between split search and enumeration",
                    "enumerate": enum_robust,
                    "split": split_robust,
                },
            )
            return err, details, None
        details["methods-agree"] = True

    if "enumerate" in results:
        verdict = results["enumerate"]
        if verdict.counterexample:
            details["counterexample"] = _counterexample_details(w, verdict.counterexample)
        return None, details, verdict.robust
    hit = results["split"]
    if hit is not None:
        details["counterexample"] = _counterexample_details(w, hit)
    return None, details, hit is None


def _cmd_robust(args: argparse.Namespace) -> Report:
    w = textio.parse_workload(_read_input(args.workload))
    limits = _limits_from(args)
    err, details, verdict = _run_robust(w, args.mode, args.method, limits)
    if err is not None:
        err.command = _echo(args)
        return err
    return Report(command=_echo(args), verdict=verdict, details=details)


def _cmd_enumerate(args: argparse.Namespace) -> Report:
    w = textio.parse_workload(_read_input(args.workload))
    limits = _limits_from(args)
    count = 0
    docs: list[str] = []
    for s in enumerate_allowed_schedules(w, limits):
        count += 1
        if not args.count_only:
            docs.append(textio.render_schedule(s, w.alloc))
    details: dict = {"count": count}
    if not args.count_only:
        details["schedules"] = docs
    return Report(command=_echo(args), verdict=True, details=details)


def _cmd_polygraph(args: argparse.Namespace) -> Report:
    p = textio.parse_polygraph(_read_input(args.polygraph))
    if args.polycmd == "acyclic":
        acyclic, witness = is_acyclic_polygraph(p)
        details = {"resolved-edges": [f"{a}->{b}" for a, b in witness.extra_edges] if witness else []}
        return Report(command=_echo(args), verdict=acyclic, details=details)
    if args.polycmd == "reduce":
        txns, schedule = reduce_to_schedule(p)
        from .isolation import IsolationLevel, LevelAllocation

        alloc = LevelAllocation.uniform(IsolationLevel.RC, (t.id for t in txns))
        doc = textio.render_schedule(schedule, alloc)
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as exc:
            raise ScheduleError(f"cannot write {args.output!r}: {exc.strerror}") from None
        details = {
            "output": args.output,
            "transactions": len(txns),
            "operations": sum(len(t.ops) for t in txns),
        }
        return Report(command=_echo(args), verdict=True, details=details)
    limits = _limits_from(args, REDUCTION_LIMITS)
    report = verify_reduction(p, limits)
    details = {
        "polygraph-acyclic": report.polygraph_acyclic,
        "view-serializable": report.schedule_view_serializable,
        "checks": {c.name: ("pass" if c.passed else f"FAIL {c.detail}") for c in report.checks},
    }
    return Report(command=_echo(args), verdict=report.ok, details=details)


def _echo(args: argparse.Namespace) -> list[str]:
    return list(getattr(args, "_argv", []))


def run(argv: Sequence[str]) -> int:
    """Execute one command; print the report; return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    args._argv = list(argv)
    handlers = {
        "check-schedule": _cmd_check_schedule,
        "serializable": _cmd_serializable,
        "allowed": _cmd_allowed,
        "robust": _cmd_robust,
        "enumerate": _cmd_enumerate,
        "polygraph": _cmd_polygraph,
    }
    started = time.monotonic()
    try:
        report = handlers[args.cmd](args)
        code = 2 if report.verdict is None else 0 if report.verdict else 1
    except LimitExceeded as exc:
        report = Report(command=list(argv), verdict=None, details={"error": str(exc)}, limit_exceeded=True)
        code = 3
    except ScheduleError as exc:
        report = Report(command=list(argv), verdict=None, details={"error": str(exc)})
        code = 2
    except KeyboardInterrupt:
        report = Report(command=list(argv), verdict=None, details={"error": "interrupted"})
        code = 130
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"internal error: {type(exc).__name__}: {exc}"
        report = Report(command=list(argv), verdict=None, details={"error": error})
        code = 2
    _emit(report, args, started)
    return code


def _emit(report: Report, args: argparse.Namespace, started: float) -> None:
    report.elapsed_ms = (time.monotonic() - started) * 1000.0
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(report.to_text())


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
