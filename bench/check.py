"""Verdict checks, run after the measured loop has ended.

Every verdict is held against an answer the timed command did not produce:
the benchmark's own brute-force oracles (:mod:`oracle`), a different decider
of the library, a property the input has by construction, or a re-check of
the reported counterexample through two other commands.  Each check
records its failures on the :class:`Checker`, per decision and naming the
input file.
"""

from __future__ import annotations

import itertools
import json
import os

import oracle
from decide import run_one


def _verdicts(ck: "Checker", codes, reports) -> list:
    """Parsed report per decision; a decision that did not exit 0 or 1, or
    printed no report, fails and yields None."""
    out = []
    for i, code in enumerate(codes):
        report = None
        if code in (0, 1):
            try:
                report = json.loads(reports[i])
            except ValueError:
                pass
            if report is not None and report.get("verdict") is not (code == 0):
                report = None
        if report is None:
            ck.fail(i, f"{ck.rows[i][1]}: no verdict (exit {code})")
        out.append(report)
    return out


class Checker:
    """Collects failures and re-checks counterexamples through the CLI."""

    def __init__(self, cli, paths, rows, scratch):
        self.cli = cli
        self.paths = paths  # input index -> file
        self.rows = rows  # decision -> (input index, command kind)
        self.scratch = scratch
        self.failures: dict[int, list[str]] = {}
        self._recheck = 0

    def fail(self, decision: int, message: str) -> None:
        path = self.paths[self.rows[decision][0]]
        self.failures.setdefault(decision, []).append(f"{os.path.basename(path)}: {message}")

    def counterexample(self, decision: int, report: dict, workload_text: str) -> None:
        """The reported schedule is allowed and not conflict-serializable, and
        uses only the workload's transactions."""
        doc = report.get("details", {}).get("counterexample", {}).get("schedule")
        if not doc:
            self.fail(decision, "verdict 'not robust' without a counterexample")
            return
        declared = {line for line in workload_text.splitlines() if line.startswith("txn ")}
        used = {line for line in doc.splitlines() if line.startswith("txn ")}
        if not used <= declared:
            self.fail(decision, "counterexample uses transactions outside the workload")
        self._recheck += 1
        path = os.path.join(self.scratch, f"counterexample-{self._recheck}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        _, code, _ = run_one(self.cli, ["serializable", "--mode", "conflict", "--json", path])
        if code != 1:
            self.fail(decision, f"counterexample: 'serializable --mode conflict' exits {code}, not 1")
        _, code, _ = run_one(self.cli, ["allowed", "--json", path])
        if code != 0:
            self.fail(decision, f"counterexample: 'allowed' exits {code}, not 0")


def _by_input(rows, verdicts):
    """Input index -> {command kind: (decision, report or None)}."""
    out: dict[int, dict] = {}
    for d, ((index, kind), report) in enumerate(zip(rows, verdicts)):
        out.setdefault(index, {})[kind] = (d, report)
    return out


def check_robust_enum(ck: Checker, inputs, codes, reports, limits) -> None:
    """Conflict and view verdicts agree and match the split search, except
    under the view-serializable-only allocation, where view robustness and
    an empty split search hold by construction and the conflict verdict is
    checked by brute force.  Counterexamples are re-checked."""
    from mvsched import find_split_counterexample, parse_workload

    verdicts = _verdicts(ck, codes, reports)
    for index, got in _by_input(ck.rows, verdicts).items():
        w = inputs[index]
        text = w.text()
        split_absent = find_split_counterexample(parse_workload(text), limits) is None
        for kind, (d, report) in got.items():
            if report is None:
                continue
            robust = report["verdict"]
            if w.kind == "predicate":
                expected = True if kind == "view" else oracle.conflict_robust_view_only(w.txns)
                if not split_absent:
                    ck.fail(d, "split search finds a counterexample under view-serializable-only")
            else:
                expected = split_absent
                _, other = got.get("view" if kind == "conflict" else "conflict", (None, None))
                if other is not None and other["verdict"] != robust:
                    ck.fail(d, "conflict and view verdicts differ")
            if robust != expected:
                ck.fail(d, f"robust={robust}, expected {expected}")
            if not robust:
                ck.counterexample(d, report, text)


def check_robust_split(ck: Checker, inputs, codes, reports, limits) -> None:
    """The SI family is robust; up to three transactions the verdict matches
    enumeration, and above that a robust verdict needs every pair of
    transactions to be robust by enumeration.  Counterexamples are
    re-checked."""
    from mvsched import is_conflict_robust, parse_workload

    verdicts = _verdicts(ck, codes, reports)
    for d, report in enumerate(verdicts):
        if report is None:
            continue
        w = inputs[ck.rows[d][0]]
        robust = report["verdict"]
        parsed = parse_workload(w.text())
        if w.kind == "family":
            if not robust:
                ck.fail(d, "the SI family is robust by construction")
        elif len(w.txns) <= 3:
            expected = is_conflict_robust(parsed, limits).robust
            if robust != expected:
                ck.fail(d, f"robust={robust}, enumeration says {expected}")
        elif robust:
            for pair in itertools.combinations(parsed.txn_ids, 2):
                if not is_conflict_robust(parsed.restrict(pair), limits).robust:
                    ck.fail(d, f"robust, but enumeration finds {' '.join(pair)} not robust")
                    break
        if not robust:
            ck.counterexample(d, report, w.text())


def check_schedules(ck: Checker, inputs, codes, reports, limits) -> None:
    """Serializability verdicts match brute force (so conflict-serializable
    implies view-serializable); 'allowed' holds exactly when completing the
    operation order under the allocation reproduces the schedule."""
    from mvsched import IsolationLevel, LevelAllocation, complete_under_allocation, parse_schedule

    verdicts = _verdicts(ck, codes, reports)
    for index, got in _by_input(ck.rows, verdicts).items():
        s = inputs[index]
        view = oracle.view_serializable(s.txns, s.vorder, s.vf)
        expected = {"conflict": oracle.conflict_serializable(s.txns, s.vorder, s.vf), "view": view}
        d, conflict = got["conflict"]
        _, reported_view = got["view"]
        if conflict is not None and reported_view is not None and conflict["verdict"] and not reported_view["verdict"]:
            ck.fail(d, "conflict-serializable but not view-serializable")
        if got["allowed"][1] is not None:
            parsed = parse_schedule(s.text())
            alloc = LevelAllocation({tid: IsolationLevel(lvl) for tid, lvl in s.alloc.items()})
            done = complete_under_allocation(parsed.txns, parsed.order, alloc)
            expected["allowed"] = (
                done is not None and dict(done.vorder) == dict(parsed.vorder) and dict(done.vf) == dict(parsed.vf)
            )
        for kind, (d, report) in got.items():
            if report is not None and report["verdict"] != expected[kind]:
                ck.fail(d, f"verdict {report['verdict']}, expected {expected[kind]}")


def check_polygraphs(ck: Checker, inputs, codes, reports, limits) -> None:
    """Every reduction check passes, and both reported verdicts match
    brute-force acyclicity."""
    verdicts = _verdicts(ck, codes, reports)
    for d, report in enumerate(verdicts):
        if report is None:
            continue
        details = report.get("details", {})
        failing = sorted(k for k, v in details.get("checks", {}).items() if v != "pass")
        if not report["verdict"] or failing:
            ck.fail(d, f"reduction checks fail: {failing}")
        acyclic = oracle.polygraph_acyclic(inputs[ck.rows[d][0]])
        for key in ("polygraph-acyclic", "view-serializable"):
            if details.get(key) != acyclic:
                ck.fail(d, f"{key}={details.get(key)}, brute force says {acyclic}")
