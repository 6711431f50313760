"""Command-line surface: exit codes, reports, JSON schema, end-to-end audits."""

from __future__ import annotations

import contextlib
import io
import json
import time

import jsonschema
import pytest

from fixtures import *
from oracles import view_search_oracle

from mvsched import (
    LevelAllocation,
    Polygraph,
    ReductionInadmissible,
    is_conflict_serializable,
    is_view_serializable,
    render_schedule,
    render_workload,
)
from mvsched import cli, polygraph
from mvsched.cli import REPORT_SCHEMA, main, run


def invoke(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def invoke_json(*argv):
    code, out = invoke(*argv, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    return code, payload


@pytest.fixture()
def docs(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)

    write("s2-rc.wl", render_workload(s2_workload(RC)))
    write("wlu-si.wl", render_workload(workload(SI, *W_LU)))
    write("wlu-rc.wl", render_workload(workload(RC, *W_LU)))
    write("wws-si.wl", render_workload(workload(SI, *W_WS)))
    write("s1.sched", render_schedule(S1, LevelAllocation({"T1": RC, "T2": SI, "T3": SSI, "T4": RC})))
    write("s2.sched", render_schedule(S2, all_level(RC, *S2_TXNS)))
    write("s3.sched", render_schedule(S3, all_level(RC, S2_T1, S2_T2)))
    write("s4.sched", render_schedule(S4, all_level(RC, *S2_TXNS)))
    write("sd.sched", render_schedule(SD, all_level(SI, SD_T1, SD_T2, SD_T3)))
    write("lu.sched", render_schedule(lost_update_schedule(), all_level(RC, *W_LU)))
    write("choice.poly", "node u\nnode v\nnode w\narc w u\nchoice u v w\n")
    write("cycle.poly", "node a\nnode b\narc a b\narc b a\n")
    paths["dir"] = str(tmp_path)
    return paths


def test_check_schedule(docs):
    code, payload = invoke_json("check-schedule", docs["s1.sched"])
    assert code == 0 and payload["verdict"] is True
    bad = docs["dir"] + "/bad.sched"
    with open(bad, "w") as fh:
        fh.write("txn T1: R(t) C\norder: R1(t) C1\n")
    code, payload = invoke_json("check-schedule", bad)
    assert code == 1 and payload["verdict"] is False
    assert any("unmapped-read" in v for v in payload["details"]["violations"])


def test_serializable_verdicts_mirror_library(docs):
    for name, sched in (("s1.sched", S1), ("s2.sched", S2), ("s3.sched", S3), ("s4.sched", S4), ("sd.sched", SD), ("lu.sched", lost_update_schedule())):
        code, payload = invoke_json("serializable", "--mode", "conflict", docs[name])
        ok, _ = is_conflict_serializable(sched)
        assert payload["verdict"] == ok and code == (0 if ok else 1)
        code, payload = invoke_json("serializable", "--mode", "view", docs[name])
        witness = is_view_serializable(sched)
        assert payload["verdict"] == witness.verdict and code == (0 if witness.verdict else 1)
        if witness.verdict:
            assert tuple(payload["details"]["witness"]) == witness.witness


def test_serializable_view_on_s2_reports_witness(docs):
    code, payload = invoke_json("serializable", "--mode", "view", docs["s2.sched"])
    assert code == 0
    assert payload["details"]["witness"] == ["T1", "T2", "T3"]


def test_allowed(docs):
    code, payload = invoke_json("allowed", docs["s2.sched"], "--workload", docs["s2-rc.wl"])
    assert code == 0 and payload["verdict"] is True
    # embedded allocation works too
    code, payload = invoke_json("allowed", docs["s1.sched"])
    assert code == 0
    # an all-SSI allocation for S1's first three transactions is refused
    doc = render_schedule(S1, LevelAllocation({"T1": SSI, "T2": SSI, "T3": SSI, "T4": RC}))
    p = docs["dir"] + "/s1-ssi.sched"
    with open(p, "w") as fh:
        fh.write(doc)
    code, payload = invoke_json("allowed", p)
    assert code == 1
    assert any("dangerous-structure" in v for v in payload["details"]["violations"])


def test_robust_view_mode_counterexample(docs):
    code, payload = invoke_json("robust", "--mode", "view", docs["s2-rc.wl"])
    assert code == 1 and payload["verdict"] is False
    ce = payload["details"]["counterexample"]
    assert ce["subset"] == ["T1", "T2"]
    # the emitted document can be fed back for independent confirmation
    ce_path = docs["dir"] + "/ce.sched"
    with open(ce_path, "w") as fh:
        fh.write(ce["schedule"])
    code, _ = invoke_json("serializable", "--mode", "view", ce_path)
    assert code == 1
    code, _ = invoke_json("allowed", ce_path)
    assert code == 0


def test_robust_modes_and_methods(docs):
    assert invoke_json("robust", "--mode", "exact-view", docs["s2-rc.wl"])[0] == 0
    assert invoke_json("robust", "--mode", "exact-conflict", docs["s2-rc.wl"])[0] == 1
    assert invoke_json("robust", "--mode", "conflict", docs["s2-rc.wl"])[0] == 1
    assert invoke_json("robust", "--mode", "conflict", "--method", "split", docs["s2-rc.wl"])[0] == 1
    assert invoke_json("robust", "--mode", "conflict", "--method", "both", docs["s2-rc.wl"])[0] == 1
    assert invoke_json("robust", "--mode", "view", "--method", "both", docs["wlu-si.wl"])[0] == 0
    assert invoke_json("robust", "--mode", "conflict", docs["wws-si.wl"])[0] == 1
    # split search is not a decision procedure for the exact modes
    assert invoke_json("robust", "--mode", "exact-view", "--method", "split", docs["s2-rc.wl"])[0] == 2


def test_method_both_reports_a_disagreement(docs, monkeypatch):
    monkeypatch.setattr(cli, "find_split_counterexample", lambda w, limits: None)
    code, payload = invoke_json("robust", "--mode", "conflict", "--method", "both", docs["s2-rc.wl"])
    assert code == 2 and payload["verdict"] is None
    assert payload["details"] == {
        "error": "internal disagreement between split search and enumeration",
        "enumerate": False,
        "split": True,
    }


@pytest.mark.parametrize("method", ["split", "both"])
def test_split_method_rejects_a_predicate_allocation(tmp_path, method):
    # not conflict-robust (enumeration finds a counterexample), and the split
    # search, which decides level allocations only, would call it robust
    path = tmp_path / "pred.wl"
    path.write_text(
        "txn T1: W(v) R(t) W(t) C\ntxn T2: W(t) C\ntxn T3: W(t) W(v) C\nalloc predicate=view-serializable-only\n",
        encoding="utf-8",
    )
    assert invoke_json("robust", "--mode", "conflict", "--method", "enumerate", str(path))[0] == 1
    code, payload = invoke_json("robust", "--mode", "conflict", "--method", method, str(path))
    assert code == 2 and payload["verdict"] is None
    assert payload["details"]["error"] == "the split method decides level allocations only"


def test_enumerate(docs):
    code, payload = invoke_json("enumerate", docs["wlu-si.wl"], "--count-only")
    assert code == 0 and payload["details"]["count"] == 2
    code, payload = invoke_json("enumerate", docs["wlu-si.wl"])
    assert len(payload["details"]["schedules"]) == 2


def test_polygraph_commands(docs, tmp_path):
    assert invoke_json("polygraph", "acyclic", docs["choice.poly"])[0] == 0
    code, payload = invoke_json("polygraph", "acyclic", docs["cycle.poly"])
    assert code == 1 and payload["verdict"] is False
    out = str(tmp_path / "reduced.sched")
    code, payload = invoke_json("polygraph", "reduce", docs["choice.poly"], "-o", out)
    assert code == 0 and payload["details"]["transactions"] == 5
    assert invoke_json("serializable", "--mode", "view", out)[0] == 0
    assert invoke_json("allowed", out)[0] == 0
    code, payload = invoke_json("polygraph", "verify", docs["choice.poly"])
    assert code == 0 and all("pass" == v for v in payload["details"]["checks"].values())
    assert invoke_json("polygraph", "verify", docs["cycle.poly"])[0] == 0


def test_polygraph_acyclic_applies_the_limits(docs, tmp_path):
    # the first resolution (u->v) closes the cycle u->v->u, the second is a DAG
    second = tmp_path / "second.poly"
    second.write_text("node u v w\narc w u\narc v u\nchoice u v w\n", encoding="utf-8")
    assert invoke_json("polygraph", "acyclic", str(second))[0] == 0
    code, payload = invoke_json("polygraph", "acyclic", str(second), "--max-orders", "1")
    assert code == 3 and payload["limit_exceeded"] is True
    code, payload = invoke_json("polygraph", "acyclic", docs["choice.poly"], "--budget-seconds", "0")
    assert code == 3 and payload["limit_exceeded"] is True


def test_serializable_view_applies_the_limits(docs):
    for flag, value in (("--budget-seconds", "0"), ("--max-orders", "1")):
        code, payload = invoke_json("serializable", "--mode", "view", docs["s2.sched"], flag, value)
        assert code == 3 and payload["limit_exceeded"] is True
    # the acyclicity half tries one resolution; the view half extends five prefixes
    assert invoke_json("polygraph", "verify", docs["choice.poly"], "--max-orders", "2")[0] == 3
    assert invoke_json("polygraph", "verify", docs["choice.poly"], "--max-orders", "5")[0] == 0


def test_serializable_view_reports_what_the_per_order_search_found(docs):
    schedules = {"s1.sched": S1, "s2.sched": S2, "s3.sched": S3, "s4.sched": S4, "sd.sched": SD,
                 "lu.sched": lost_update_schedule()}
    for name, sched in schedules.items():
        want = view_search_oracle(sched)
        code, payload = invoke_json("serializable", "--mode", "view", docs[name])
        assert code == (0 if want.verdict else 1)
        assert payload["details"] == {"mode": "view", "witness": list(want.witness or ()), "exhausted": want.exhausted}


#: A polygraph whose 30 arcs are acyclic and whose 8 choices close a cycle
#: whichever way they are resolved: arcs as digit pairs, choices as triples.
DENSE_ARCS = "06 09 10 13 14 15 19 26 29 30 36 39 46 49 50 52 54 56 59 70 73 74 76 80 81 82 83 85 86 89"
DENSE_CHOICES = "018 045 063 618 901 935 980 981"


def test_polygraph_verify_refutes_a_26_transaction_reduction(tmp_path):
    lines = [f"node n{k}" for k in range(10)]
    lines += [f"arc n{a} n{b}" for a, b in DENSE_ARCS.split()]
    lines += [f"choice n{u} n{v} n{w}" for u, v, w in DENSE_CHOICES.split()]
    path = tmp_path / "dense.poly"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, payload = invoke_json("polygraph", "reduce", str(path), "-o", str(tmp_path / "dense.sched"))
    assert code == 0 and (payload["details"]["transactions"], payload["details"]["operations"]) == (26, 126)
    started = time.process_time()
    code, payload = invoke_json("polygraph", "verify", str(path), "--max-txns", "26")
    assert code == 0
    assert payload["details"]["view-serializable"] is False and payload["details"]["polygraph-acyclic"] is False
    assert time.process_time() - started < 2.0


def test_input_error_exit_codes(docs, tmp_path):
    assert invoke("robust", "--mode", "view", str(tmp_path / "nope.wl"))[0] == 2
    bad = tmp_path / "bad.wl"
    bad.write_text("txn T1: R(t)\nalloc T1=RC\n", encoding="utf-8")
    code, payload = invoke_json("robust", "--mode", "view", str(bad))
    assert code == 2 and payload["verdict"] is None and "error" in payload["details"]


def test_limit_exit_code_and_flags(docs, tmp_path):
    big = tmp_path / "big.wl"
    txns = "".join(f"txn T{i}: R(a) C\n" for i in range(1, 6))
    alloc = "alloc " + " ".join(f"T{i}=SI" for i in range(1, 6)) + "\n"
    big.write_text(txns + alloc, encoding="utf-8")
    code, payload = invoke_json("robust", "--mode", "conflict", str(big))
    assert code == 3 and payload["limit_exceeded"] is True
    code, _ = invoke_json("robust", "--mode", "conflict", str(big), "--max-txns", "5", "--max-ops", "10")
    assert code == 0


def test_env_limits_flag_wins(docs, monkeypatch):
    monkeypatch.setenv("MVSCHED_MAX_TXNS", "1")
    assert invoke("robust", "--mode", "conflict", docs["s2-rc.wl"])[0] == 3
    # an explicit flag overrides the environment
    assert invoke("robust", "--mode", "conflict", docs["s2-rc.wl"], "--max-txns", "4")[0] == 1


def test_text_report_shape(docs):
    code, out = invoke("serializable", "--mode", "view", docs["s2.sched"])
    assert code == 0
    assert "verdict: true" in out
    assert "witness: T1 T2 T3" in out
    assert out.startswith("command: serializable")


def test_main_entry_point(docs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["check-schedule", docs["s1.sched"]]) == 0


@pytest.mark.parametrize(
    "flag, value", [("--max-txns", "0"), ("--max-ops", "0"), ("--max-orders", "0"), ("--budget-seconds", "-1")]
)
def test_bad_limit_values_are_input_errors(docs, flag, value):
    for method in ("enumerate", "split"):
        code, payload = invoke_json("robust", "--mode", "conflict", "--method", method, docs["s2-rc.wl"], flag, value)
        assert code == 2 and payload["limit_exceeded"] is False
        assert "bad search limit" in payload["details"]["error"]


@pytest.mark.parametrize(
    "name, value",
    [("MAX_TXNS", "0"), ("MAX_OPS", "-2"), ("MAX_ORDERS", "0"), ("BUDGET_SECONDS", "-1"), ("BUDGET_SECONDS", "nan")],
)
def test_bad_limit_values_from_the_environment(docs, monkeypatch, name, value):
    monkeypatch.setenv("MVSCHED_" + name, value)
    code, payload = invoke_json("robust", "--mode", "conflict", docs["s2-rc.wl"])
    assert code == 2 and "bad search limit" in payload["details"]["error"]


# every command but robust, which the test above covers; a "{out}" is an output path
COMMANDS_WITH_LIMIT_FLAGS = [
    ("check-schedule", "{s2.sched}"),
    ("serializable", "--mode", "conflict", "{s2.sched}"),
    ("serializable", "--mode", "view", "{s2.sched}"),
    ("allowed", "{s2.sched}"),
    ("enumerate", "{wlu-si.wl}"),
    ("polygraph", "acyclic", "{choice.poly}"),
    ("polygraph", "reduce", "{choice.poly}", "-o", "{out}"),
    ("polygraph", "verify", "{choice.poly}"),
]


@pytest.mark.parametrize(
    "command", COMMANDS_WITH_LIMIT_FLAGS, ids=lambda c: " ".join(a for a in c if not a.startswith("{"))
)
@pytest.mark.parametrize(
    "flag, value", [("--max-txns", "0"), ("--max-ops", "0"), ("--max-orders", "0"), ("--budget-seconds", "-1")]
)
def test_every_command_rejects_bad_limit_values(docs, tmp_path, command, flag, value):
    paths = dict(docs, out=str(tmp_path / "out.sched"))
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in command]
    code, payload = invoke_json(*argv, flag, value)
    assert code == 2 and payload["limit_exceeded"] is False
    assert "bad search limit" in payload["details"]["error"]


def test_enumerate_walks_a_transaction_longer_than_the_recursion_limit(tmp_path):
    path = tmp_path / "long.wl"
    path.write_text("txn T1: " + "R(a) " * 1499 + "C\nalloc T1=RC\n", encoding="utf-8")
    code, payload = invoke_json("enumerate", str(path), "--max-ops", "5000", "--count-only")
    assert code == 0 and payload["details"]["count"] == 1


def test_the_view_serializable_predicate_applies_the_command_limits(tmp_path):
    path = tmp_path / "reads.wl"
    path.write_text("txn T1: " + "R(a) " * 24 + "C\nalloc predicate=view-serializable-only\n", encoding="utf-8")
    code, payload = invoke_json("enumerate", str(path), "--count-only", "--max-ops", "40")
    assert code == 0 and payload["details"]["count"] == 1


def test_zero_budget_is_a_limit_hit(docs):
    for method in ("enumerate", "split"):
        argv = ("robust", "--mode", "conflict", "--method", method, docs["s2-rc.wl"], "--budget-seconds", "0")
        code, payload = invoke_json(*argv)
        assert code == 3 and payload["limit_exceeded"] is True


def test_unwritable_reduce_output_is_an_input_error(docs, tmp_path):
    out = str(tmp_path / "missing" / "out.sched")
    code, payload = invoke_json("polygraph", "reduce", docs["choice.poly"], "-o", out)
    assert code == 2 and payload["verdict"] is None
    assert payload["details"]["error"].startswith("cannot write")


def test_unexpected_exception_exits_2_with_a_report(docs, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_check_schedule", boom)
    code, payload = invoke_json("check-schedule", docs["s1.sched"])
    assert code == 2 and payload["details"]["error"] == "internal error: RuntimeError: boom"
    assert "Traceback" in capsys.readouterr().err


def test_interrupt_exits_130(docs, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_robust", interrupted)
    code, payload = invoke_json("robust", "--mode", "conflict", docs["s2-rc.wl"])
    assert code == 130 and payload["details"]["error"] == "interrupted"


def test_inadmissible_reduction_is_an_error_not_an_assert(docs, monkeypatch, tmp_path):
    monkeypatch.setattr(polygraph, "complete_under_allocation", lambda *args, **kwargs: None)
    with pytest.raises(ReductionInadmissible):
        polygraph.reduce_to_schedule(Polygraph.of(("u",)))
    reduce = ("polygraph", "reduce", docs["choice.poly"], "-o", str(tmp_path / "o"))
    for argv in (("polygraph", "verify", docs["choice.poly"]), reduce):
        code, payload = invoke_json(*argv)
        assert code == 2 and "not admissible" in payload["details"]["error"]


def _write_si_workload(path, bodies):
    lines = [f"txn T{i}: {body} C" for i, body in enumerate(bodies, start=1)]
    lines.append("alloc " + " ".join(f"T{i}=SI" for i in range(1, len(bodies) + 1)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_split_method_decides_large_workloads_with_default_limits(tmp_path):
    family = _write_si_workload(tmp_path / "family.wl", [f"R(a) W(b{i})" for i in range(1, 101)])
    started = time.process_time()
    code, payload = invoke_json("robust", "--mode", "conflict", "--method", "split", family)
    assert code == 0 and payload["verdict"] is True
    assert time.process_time() - started < 2.0

    n = 50
    ring = _write_si_workload(tmp_path / "ring.wl", [f"R(x{i}) W(x{i % n + 1})" for i in range(1, n + 1)])
    started = time.process_time()
    code, payload = invoke_json("robust", "--mode", "conflict", "--method", "split", ring)
    assert code == 1 and len(payload["details"]["counterexample"]["subset"]) == n
    assert time.process_time() - started < 2.0
    ce = tmp_path / "ring-ce.sched"
    ce.write_text(payload["details"]["counterexample"]["schedule"], encoding="utf-8")
    assert invoke_json("serializable", "--mode", "conflict", str(ce))[0] == 1
    assert invoke_json("allowed", str(ce))[0] == 0
