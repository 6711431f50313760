"""Command-line surface: machine-checkable reports over the text formats.

Exit codes: 0 when the checked property holds (or the command simply
succeeded), 1 when it is violated (the report carries the counterexample),
2 on input errors (a command line argparse rejects and bad search limits
included), internal disagreement or any other internal error (its traceback
goes to stderr), 3 when a search hit its limits, 130 on Ctrl-C.  Every exit
but ``--help`` (0, with the help on stdout) prints a report; on a rejected
command line the usage also goes to stderr.
``--json`` switches the report to the stable ``report-v1`` schema.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import textio
from .core import DEFAULT_LIMITS, Budget, SearchLimits, validate_schedule
from .errors import LimitExceeded, ParseError, ScheduleError
from .isolation import IsolationLevel, LevelAllocation, allowed_under_allocation
from .polygraph import is_acyclic_polygraph, reduce_to_schedule, verify_reduction
from .robustness import (
    RobustnessMode,
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
    verdict: bool | None
    details: dict = field(default_factory=dict)
    command: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0
    limit_exceeded: bool = False

    def to_json(self) -> dict:
        return {"schema": "report-v1", **vars(self)}  # the fields, under the schema's tag

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
    """The document at ``path`` (``-``: stdin): its bytes decoded as UTF-8, line endings as written."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "rb", buffering=0) as fh:
            return fh.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path!r}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ParseError(f"bad value for {_ENV_PREFIX + name}: {raw!r}") from None


def _limits_from(args: argparse.Namespace) -> SearchLimits:
    """Flags win over environment variables, which win over ``DEFAULT_LIMITS``."""
    given = vars(args)
    values = {
        name: given[name] if given[name] is not None else _env_default(name.upper(), type(default), default)
        for name, default in vars(DEFAULT_LIMITS).items()
    }
    try:
        return SearchLimits(**values)
    except ValueError as exc:
        raise ParseError(f"bad search limit: {exc}") from None


#: The command-line grammar, declared once: per command's words, its help
#: line and its arguments as (spellings, ``add_argument`` keywords), where a
#: positional has one spelling without a dash; a command that only groups
#: sub-commands has None for arguments.  ``_build_parser`` builds the
#: argparse parser from it and ``_read_argv`` reads well-formed command
#: lines with it directly.
_OPTIONS = (
    (("--json",), {"action": "store_true", "help": "emit the report as JSON (schema report-v1)"}),
    (("--max-txns",), {"type": int, "default": None, "help": "transaction limit for exhaustive enumerations"}),
    (("--max-ops",), {"type": int, "default": None, "help": "operation limit for exhaustive enumerations"}),
    (("--max-orders",), {"type": int, "default": None, "help": "candidate limit for every search"}),
    (("--budget-seconds",), {"type": float, "default": None, "help": "wall-clock limit for every search"}),
)
_SCHEDULE_ARGS = ((("schedule",), {}), (("--workload",), {"default": None}))
_GRAMMAR = {
    ("check-schedule",): ("validate a schedule document", _SCHEDULE_ARGS),
    ("serializable",): (
        "decide conflict- or view-serializability",
        ((("--mode",), {"choices": ["conflict", "view"], "required": True}), *_SCHEDULE_ARGS),
    ),
    ("allowed",): ("decide admissibility under the workload's allocation", _SCHEDULE_ARGS),
    ("robust",): (
        "decide workload robustness",
        (
            (("--mode",), {"choices": ["conflict", "view", "exact-conflict", "exact-view"], "required": True}),
            (("workload",), {}),
            (("--method",), {"choices": ["split", "enumerate", "both"], "default": "enumerate"}),
        ),
    ),
    ("enumerate",): (
        "list all allowed schedules of a workload",
        ((("workload",), {}), (("--count-only",), {"action": "store_true"})),
    ),
    ("polygraph",): ("polygraph commands", None),
    ("polygraph", "acyclic"): ("decide polygraph acyclicity", ((("polygraph",), {}),)),
    ("polygraph", "reduce"): (
        "emit the schedule a polygraph reduces to",
        ((("polygraph",), {}), (("-o", "--output"), {"required": True})),
    ),
    ("polygraph", "verify"): ("cross-check acyclicity against view-serializability", ((("polygraph",), {}),)),
}
#: The namespace attribute naming a command's first and second word.
_COMMAND_DESTS = ("cmd", "polycmd")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Print the usage, as argparse does, but leave the report and the
        exit code to ``run``."""
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built for each command line the reader hands off."""
    parser = _Parser(prog="mvsched", description=__doc__)
    groups = {(): parser.add_subparsers(dest=_COMMAND_DESTS[0], required=True)}
    for words, (help_line, args) in _GRAMMAR.items():
        p = groups[words[:-1]].add_parser(words[-1], help=help_line)
        if args is None:
            groups[words] = p.add_subparsers(dest=_COMMAND_DESTS[len(words)], required=True)
            continue
        for spellings, keywords in _OPTIONS + args:
            p.add_argument(*spellings, **keywords)
    return parser


def _syntax(args: tuple) -> tuple:
    """The reader's form of a command's arguments: (dest, conversion and
    choices per option spelling, positional dests, defaults, required
    dests).  A switch's conversion is None; an option's dest comes from its
    first long spelling, as in argparse."""
    options, positionals, defaults, required = {}, [], {}, []
    for spellings, keywords in _OPTIONS + args:
        if not spellings[0].startswith("-"):
            positionals.append(spellings[0])
            continue
        dest = next(s for s in spellings if s.startswith("--"))[2:].replace("-", "_")
        switch = keywords.get("action") == "store_true"
        defaults[dest] = False if switch else keywords.get("default")
        if keywords.get("required"):
            required.append(dest)
        for s in spellings:
            options[s] = (dest, None if switch else keywords.get("type", str), keywords.get("choices"))
    return options, tuple(positionals), defaults, tuple(required)


_SYNTAX = {words: _syntax(args) for words, (_, args) in _GRAMMAR.items() if args is not None}


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read from
    the grammar table without argparse; None for whatever the reader does
    not accept exactly as argparse would: an unknown command or option
    spelling (an abbreviation, ``--opt=value``, ``--`` and ``-h`` among
    them), a value other than ``-`` that starts with ``-`` (so negative
    numbers go to argparse), a missing value, a bad choice or number, the
    wrong number of positionals or a missing required option.  A repeated
    option keeps its last value."""
    words = tuple(argv[:1])
    if words not in _SYNTAX:
        words = tuple(argv[:2])
        if words not in _SYNTAX:
            return None
    options, positionals, defaults, required = _SYNTAX[words]
    values = dict(zip(_COMMAND_DESTS, words), **defaults)
    given = []
    tokens = iter(argv[len(words):])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            given.append(token)
            continue
        if token not in options:
            return None
        dest, convert, choices = options[token]
        if convert is None:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value[:1] == "-" and value != "-":
            return None
        try:
            value = convert(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    # a required option has no default, so it is None until given
    if len(given) != len(positionals) or any(values[dest] is None for dest in required):
        return None
    values.update(zip(positionals, given))
    args = argparse.Namespace()
    vars(args).update(values)  # what ``Namespace(**values)`` does, without a setattr per name
    return args


def _load_schedule(args: argparse.Namespace, *, validate: bool = True):
    """The schedule argument and its allocation (``--workload`` wins over an
    embedded ``alloc`` line)."""
    workload = None
    if args.workload is not None:
        workload = textio.parse_workload(_read_input(args.workload))
    return textio.parse_schedule_document(_read_input(args.schedule), workload, validate=validate)


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
        verdict=not violations,
        details={"violations": [str(v) for v in violations]},
    )


def _cmd_serializable(args: argparse.Namespace) -> Report:
    schedule, _ = _load_schedule(args)
    if args.mode == "conflict":
        ok, cycle = is_conflict_serializable(schedule)
        details = {"mode": "conflict", "cycle": list(cycle) if cycle else []}
        return Report(verdict=ok, details=details)
    witness = is_view_serializable(schedule, budget=Budget(args.limits))
    details = {
        "mode": "view",
        "witness": list(witness.witness) if witness.witness else [],
        "exhausted": witness.exhausted,
    }
    return Report(verdict=witness.verdict, details=details)


def _cmd_allowed(args: argparse.Namespace) -> Report:
    schedule, alloc = _load_schedule(args)
    if alloc is None:
        raise ParseError("no allocation: pass --workload or embed an alloc line")
    report = allowed_under_allocation(schedule, alloc, args.limits)
    return Report(
        verdict=report.allowed,
        details={"violations": [str(v) for v in report.violations]},
    )


def _cmd_robust(args: argparse.Namespace) -> Report:
    w = textio.parse_workload(_read_input(args.workload))
    mode, method = args.mode, args.method
    if mode.startswith("exact-") and method != "enumerate":
        raise ParseError(f"--method {method} is only meaningful for subset robustness modes")
    if method != "enumerate" and not isinstance(w.alloc, LevelAllocation):
        raise ParseError("the split method decides level allocations only")
    details: dict = {"mode": mode, "method": method}
    robust = ce = None
    if method != "split":
        decide = {"conflict": is_conflict_robust, "view": is_view_robust,
                  "exact-conflict": is_exact_conflict_robust, "exact-view": is_exact_view_robust}[mode]
        verdict = decide(w, args.limits)
        robust, ce = verdict.robust, verdict.counterexample
    if method != "enumerate":
        hit = find_split_counterexample(w, args.limits, RobustnessMode(mode))
        if robust is None:
            robust, ce = hit is None, hit
        elif robust != (hit is None):
            error = "internal disagreement between split search and enumeration"
            return Report(None, {"error": error, "enumerate": robust, "split": hit is None})
        else:
            details["methods-agree"] = True
    if ce:
        details["counterexample"] = _counterexample_details(w, ce)
    return Report(verdict=robust, details=details)


def _cmd_enumerate(args: argparse.Namespace) -> Report:
    w = textio.parse_workload(_read_input(args.workload))
    count = 0
    docs: list[str] = []
    for s in enumerate_allowed_schedules(w, args.limits):
        count += 1
        if not args.count_only:
            docs.append(textio.render_schedule(s, w.alloc))
    details: dict = {"count": count}
    if not args.count_only:
        details["schedules"] = docs
    return Report(verdict=True, details=details)


def _cmd_polygraph(args: argparse.Namespace) -> Report:
    p = textio.parse_polygraph(_read_input(args.polygraph))
    if args.polycmd == "acyclic":
        acyclic, witness = is_acyclic_polygraph(p, args.limits)
        details = {"resolved-edges": [f"{a}->{b}" for a, b in witness.extra_edges] if witness else []}
        return Report(verdict=acyclic, details=details)
    if args.polycmd == "reduce":
        txns, schedule = reduce_to_schedule(p)
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
        return Report(verdict=True, details=details)
    report = verify_reduction(p, args.limits)
    details = {
        "polygraph-acyclic": report.polygraph_acyclic,
        "view-serializable": report.schedule_view_serializable,
        "checks": {c.name: ("pass" if c.passed else f"FAIL {c.detail}") for c in report.checks},
    }
    return Report(verdict=report.ok, details=details)


def run(argv: Sequence[str]) -> int:
    """Execute one command; print the report; return the exit code.

    A rejected ``argv`` is an input error like any other: it prints its
    report and returns 2 (argparse's usage goes to stderr).  ``--help``
    prints the help and returns 0."""
    argv = list(argv)
    handlers = {
        "check-schedule": _cmd_check_schedule,
        "serializable": _cmd_serializable,
        "allowed": _cmd_allowed,
        "robust": _cmd_robust,
        "enumerate": _cmd_enumerate,
        "polygraph": _cmd_polygraph,
    }
    started = time.monotonic()
    args = None
    try:
        args = _read_argv(argv)
        if args is None:
            try:
                args = _build_parser().parse_args(argv)
            except SystemExit as exc:  # only the help exits: ``_Parser.error`` raises
                return exc.code
        # every command resolves (and so checks) the limits, whether or not it searches
        args.limits = _limits_from(args)
        report = handlers[args.cmd](args)
        code = 2 if report.verdict is None else 0 if report.verdict else 1
    except LimitExceeded as exc:
        report = Report(verdict=None, details={"error": str(exc)}, limit_exceeded=True)
        code = 3
    except ScheduleError as exc:
        report = Report(verdict=None, details={"error": str(exc)})
        code = 2
    except KeyboardInterrupt:
        report = Report(verdict=None, details={"error": "interrupted"})
        code = 130
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"internal error: {type(exc).__name__}: {exc}"
        report = Report(verdict=None, details={"error": error})
        code = 2
    report.command = argv
    _emit(report, args.json if args is not None else "--json" in argv, started)
    return code


def _emit(report: Report, as_json: bool, started: float) -> None:
    report.elapsed_ms = (time.monotonic() - started) * 1000.0
    # a view report's ``exhausted`` may be n!, which passes the interpreter's
    # default limit of 4,300 digits for int-to-str from 1,559 transactions on;
    # the limit is lifted for this report alone, and the caller's kept
    caller_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if caller_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        text = _json(report.to_json()) + "\n" if as_json else report.to_text()
    finally:
        if caller_limit is not None:
            sys.set_int_max_str_digits(caller_limit)
    sys.stdout.write(text)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for str-keyed JSON values, without the pure-Python
    encoder ``indent`` selects: ``json``'s C string encoder and reprs; ``indent`` ends the line before."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner, quote = indent + "  ", encode_basestring_ascii  # a string item inline, saving a call
    if isinstance(value, dict):
        items = [f"{inner}{quote(k)}: {quote(v) if type(v) is str else _json(v, inner)}" for k, v in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + (quote(v) if type(v) is str else _json(v, inner)) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return text if math.isfinite(value) else {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[text]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
