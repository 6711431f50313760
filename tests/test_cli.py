"""Command-line surface: exit codes, reports, JSON schema, end-to-end audits."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import os
import sys
import tempfile
import time
from math import factorial

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpus import dense_polygraphs
from fixtures import *
from oracles import render_polygraph, view_search_oracle

from mvsched import (
    LevelAllocation,
    ParseError,
    Polygraph,
    is_acyclic_polygraph,
    is_conflict_serializable,
    is_view_serializable,
    render_schedule,
    render_workload,
    serial_schedule,
)
from mvsched import cli, polygraph, robustness
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


def test_misplaced_init_tokens_are_an_invalid_schedule(docs):
    path = docs["dir"] + "/misplaced-init.sched"
    with open(path, "w") as fh:
        fh.write(MISPLACED_INIT)
    code, payload = invoke_json("check-schedule", path)
    assert code == 1 and payload["verdict"] is False
    assert [v.split(":")[0] for v in payload["details"]["violations"]] == ["init-not-first", "duplicate-position"]
    for argv in (("serializable", "--mode", "conflict"), ("serializable", "--mode", "view"), ("allowed",)):
        code, payload = invoke_json(*argv, path)
        assert code == 2 and payload["verdict"] is None and "init-not-first" in payload["details"]["error"]


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


def test_every_method_finds_a_read_that_misses_its_own_write(tmp_path):
    """Under RC, SI and SSI a read sees a committed version, never the
    write its own transaction made before it, which every serial order
    shows it: T2 alone is conflict- but not view-serializable.  The split
    method, whose schedules need two transactions, answers in the view sense
    with the enumeration's counterexample, T2 run alone."""
    for level in ("RC", "SI", "SSI"):
        path = tmp_path / f"own-write-{level}.wl"
        path.write_text(f"txn T1: R(x) C\ntxn T2: W(y) R(y) C\nalloc T1={level} T2={level}\n", encoding="utf-8")
        found = []
        for method in ("enumerate", "split", "both"):
            code, payload = invoke_json("robust", "--mode", "view", "--method", method, str(path))
            assert code == 1, (level, method, payload)
            found.append(payload["details"]["counterexample"])
            assert invoke_json("robust", "--mode", "conflict", "--method", method, str(path))[0] == 0
        assert found[0]["subset"] == ["T2"]
        assert "order: W2(y) R2(y) C2\nreads: R2(y)<-init\n" in found[0]["schedule"]
        assert found[1] == found[2] == found[0]
        assert invoke_json("robust", "--mode", "exact-view", str(path))[0] == 1


def test_method_both_reports_a_disagreement(docs, monkeypatch):
    monkeypatch.setattr(robustness, "_decide_split", lambda w, limits, eng: None)
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
    code, payload = invoke_json("polygraph", "verify", str(path))
    assert code == 0
    assert payload["details"]["view-serializable"] is False and payload["details"]["polygraph-acyclic"] is False
    assert time.process_time() - started < 2.0


def test_input_error_exit_codes(docs, tmp_path):
    assert invoke("robust", "--mode", "view", str(tmp_path / "nope.wl"))[0] == 2
    bad = tmp_path / "bad.wl"
    bad.write_text("txn T1: R(t)\nalloc T1=RC\n", encoding="utf-8")
    code, payload = invoke_json("robust", "--mode", "view", str(bad))
    assert code == 2 and payload["verdict"] is None and "error" in payload["details"]


#: a workload line whose 13th byte is not UTF-8
UNDECODABLE = b"txn T1: R(x)\xff C\nalloc T1=RC\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("robust", "--mode", "conflict", "{bad}"),
        ("check-schedule", "{bad}"),
        ("allowed", "{schedule}", "--workload", "{bad}"),
        ("polygraph", "verify", "{bad}"),
    ],
    ids=["workload", "schedule", "--workload", "polygraph"],
)
def test_undecodable_input_is_an_input_error(docs, tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(UNDECODABLE)
    code, payload = invoke_json(*(a.format(bad=bad, schedule=docs["s2.sched"]) for a in argv))
    error = payload["details"]["error"]
    assert code == 2 and payload["verdict"] is None
    assert error == f"cannot read {str(bad)!r}: not valid UTF-8 (invalid start byte at byte 12)"
    assert "Traceback" not in capsys.readouterr().err


def test_undecodable_stdin_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(UNDECODABLE), encoding="utf-8"))
    code, payload = invoke_json("robust", "--mode", "conflict", "-")
    assert code == 2 and payload["details"]["error"].startswith("cannot read '-': not valid UTF-8")
    assert "Traceback" not in capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(UNDECODABLE[:12] + b" C\nalloc T1=RC\n")))
    assert invoke_json("robust", "--mode", "conflict", "-")[0] == 0


def _from_stdin(monkeypatch, data: bytes, *argv):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    return invoke(*argv)


def test_a_bad_byte_past_the_first_8_kib_keeps_its_offset(tmp_path, monkeypatch):
    """The offset counts from the start of the input, not from a read chunk."""
    data = b"# " + b"a" * 9000 + b"\n\xff\n"
    bad = tmp_path / "bad.sched"
    bad.write_bytes(data)
    for path, (code, out) in ((str(bad), invoke("check-schedule", str(bad))), ("-", _from_stdin(monkeypatch, data, "check-schedule", "-"))):
        assert code == 2 and f"error: cannot read {path!r}: not valid UTF-8 (invalid start byte at byte 9003)\n" in out


def _without_elapsed(report: str) -> str:
    return "".join(line for line in report.splitlines(True) if "elapsed" not in line)


def test_lf_crlf_and_cr_documents_give_identical_reports_from_a_file_and_from_stdin(tmp_path, monkeypatch):
    doc = "# S1, compact references\n" + render_schedule(S1, LevelAllocation({"T1": RC, "T2": SI, "T3": SSI, "T4": RC}))
    doc = doc.replace("\norder:", "  # after the allocation\norder:")
    path = tmp_path / "s1.sched"
    commands = [("check-schedule",), ("serializable", "--mode", "conflict"), ("serializable", "--mode", "view"), ("allowed",)]
    reports = set()
    for newline in ("\n", "\r\n", "\r"):
        data = doc.replace("\n", newline).encode("utf-8")
        path.write_bytes(data)
        for words in commands:
            for as_json in ((), ("--json",)):
                from_file = _without_elapsed(invoke(*words, *as_json, str(path))[1])
                from_stdin = _without_elapsed(_from_stdin(monkeypatch, data, *words, *as_json, "-")[1])
                assert from_stdin == from_file.replace(str(path), "-")
                reports.add((words, as_json, from_stdin))
    assert len(reports) == len(commands) * 2


@pytest.mark.parametrize(
    "value",
    [
        "é\u2028\x00\x1f\x7f\ud800😀\"\\/",
        10**5000, -(10**4301), factorial(1600),
        0.1, 1e16, 5e-324, -0.0, 1e22, float("nan"), float("inf"), float("-inf"),
        [True, 1, False, 0, None, 1.0], {"a": True, "b": 1},
        None, {}, [], (), {"": {}, "b": [[]], "a": [{}], "c": {"x": [1, ("y", 2.5)]}},
    ],
    ids=lambda value: type(value).__name__,  # the default id would print a 5,000-digit int
)
def test_the_report_writer_matches_json_dumps_on_edge_values(value):
    assert_written_as_json_dumps(value)


def assert_written_as_json_dumps(value):
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as the report writer's caller does
    try:
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(digits)


_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_ANY_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_the_report_writer_matches_json_dumps(value):
    assert_written_as_json_dumps(value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("node a b->c a->b c\narc a b->c\narc a->b c\n", "node 'a->b' contains '->'"),
        (
            "node x,y z w\nnode x y,z\nchoice x,y z w\nchoice x y,z w\narc w x,y\narc w x\n",
            "node 'x,y' contains ','",
        ),
        ("node a(1) b\narc a(1) b\n", "node 'a(1)' contains '('"),
        ("node a b<c\narc a b<c\n", "node 'b<c' contains '<'"),
    ],
    ids=["arcs-collide", "choice-writers-collide", "unparsable-object", "split-version-chain"],
)
def test_reduction_refuses_node_names_it_cannot_encode(tmp_path, capsys, text, message):
    """Unchecked, the first made two arcs one object (verify: not admissible
    under RC), the second two transactions one id (verify: an internal
    error) and the last two documents no command parses back."""
    path = tmp_path / "names.poly"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "reduced.sched"
    for argv in (("polygraph", "verify", str(path)), ("polygraph", "reduce", str(path), "-o", str(out))):
        code, payload = invoke_json(*argv)
        assert code == 2 and payload["details"]["error"].startswith(message + ", which the reduction cannot encode")
    assert not out.exists()
    assert invoke_json("polygraph", "acyclic", str(path))[0] in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("txn A<B: R(x) W(x) C\ntxn D: R(x) W(x) C\nalloc A<B=RC D=RC\n", "transaction id 'A<B' contains '<'"),
        ("txn T1: R(a<-b) W(a<-b) C\ntxn T2: R(a<-b) C\nalloc T1=RC T2=RC\n", "bad operation token 'R(a<-b)'"),
    ],
    ids=["transaction-id", "object-name"],
)
def test_names_holding_a_version_chain_separator_are_input_errors(tmp_path, capsys, text, message):
    """Unchecked, both gave a counterexample that check-schedule could not
    parse back: version chains split on '<' and read entries on '<-'."""
    path = tmp_path / "names.wl"
    path.write_text(text, encoding="utf-8")
    code, payload = invoke_json("robust", "--mode", "conflict", str(path))
    assert code == 2 and payload["details"]["error"].startswith(message)
    assert "Traceback" not in capsys.readouterr().err


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


#: The limits contract of the README's table: per command, an input that
#: needs its search, the exit code without limits, and the limits it
#: applies.  ``--max-txns``/``--max-ops`` cap the input of the exhaustive
#: enumerations; ``--max-orders``/``--budget-seconds`` bound the work of
#: every search; the split method runs no exhaustive search.
ALL_LIMITS = ("--max-txns", "--max-ops", "--max-orders", "--budget-seconds")
WORK_LIMITS = ("--max-orders", "--budget-seconds")
LIMITS_CONTRACT = [
    (("check-schedule", "{s2.sched}"), 0, ()),
    (("serializable", "--mode", "conflict", "{s2.sched}"), 1, ()),
    (("serializable", "--mode", "view", "{s2.sched}"), 0, WORK_LIMITS),
    (("allowed", "{s2.sched}"), 0, ()),
    (("allowed", "{s2-pred.sched}"), 0, WORK_LIMITS),
    (("robust", "--mode", "conflict", "--method", "enumerate", "{s2-rc.wl}"), 1, ALL_LIMITS),
    (("robust", "--mode", "view", "--method", "split", "{s2-rc.wl}"), 1, ("--budget-seconds",)),
    (("robust", "--mode", "view", "--method", "both", "{s2-rc.wl}"), 1, ALL_LIMITS),
    (("robust", "--mode", "conflict", "{s2-pred.wl}"), 1, ALL_LIMITS),
    (("enumerate", "{wlu-si.wl}"), 0, ALL_LIMITS),
    (("polygraph", "acyclic", "{second.poly}"), 0, WORK_LIMITS),
    (("polygraph", "reduce", "{choice.poly}", "-o", "{out}"), 0, ()),
    (("polygraph", "verify", "{choice.poly}"), 0, WORK_LIMITS),
]
#: The least value of each limit: 1, or 0 seconds.
LEAST = {"--max-txns": "1", "--max-ops": "1", "--max-orders": "1", "--budget-seconds": "0"}


@pytest.mark.parametrize(
    "command, unlimited, applied",
    LIMITS_CONTRACT,
    ids=[" ".join(a.strip("{}") for a in command) for command, _, _ in LIMITS_CONTRACT],
)
@pytest.mark.parametrize("flag", ALL_LIMITS)
def test_every_command_applies_the_limits_of_the_contract(docs, tmp_path, command, unlimited, applied, flag):
    paths = dict(docs, out=str(tmp_path / "out.sched"))
    for name, text in (
        ("s2-pred.sched", render_schedule(S2, s2_predicate_workload().alloc)),
        ("s2-pred.wl", render_workload(s2_predicate_workload())),
        ("second.poly", "node u v w\narc w u\narc v u\nchoice u v w\n"),
    ):
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in command]
    assert invoke_json(*argv)[0] == unlimited
    code, payload = invoke_json(*argv, flag, LEAST[flag])
    assert (code, payload["limit_exceeded"]) == ((3, True) if flag in applied else (unlimited, False))


def ten_transactions(alloc=None) -> str:
    """A serial schedule of ten transactions, each reading its predecessor's write."""
    txns = tuple(make_transaction(f"T{i}", "R(x) W(x) C") for i in range(1, 11))
    return render_schedule(serial_schedule(txns), alloc or all_level(RC, *txns))


def test_the_view_search_is_not_bounded_by_the_schedule_size(tmp_path):
    path = tmp_path / "ten.sched"
    path.write_text(ten_transactions(), encoding="utf-8")
    code, payload = invoke_json("serializable", "--mode", "view", str(path))
    assert code == 0 and payload["details"]["witness"] == [f"T{i}" for i in range(1, 11)]
    # the 14-transaction reductions of the test corpus, one of each verdict
    verdicts = []
    for k, p in enumerate(dense_polygraphs(2, acyclic=lambda p: is_acyclic_polygraph(p)[0])):
        path = tmp_path / f"dense{k}.poly"
        path.write_text(render_polygraph(p), encoding="utf-8")
        code, payload = invoke_json("polygraph", "verify", str(path))
        assert code == 0 and payload["details"]["checks"]["verdicts-match"] == "pass"
        verdicts.append(payload["details"]["view-serializable"])
    assert verdicts == [True, False]


def test_a_view_report_on_thousands_of_transactions_renders(tmp_path, capsys):
    """T2 reads the version T1 overwrites, so no serial order matches and
    ``exhausted`` is 1600!, which has more digits (4,434) than the
    interpreter converts to text by default."""
    t1, t2 = make_transaction("T1", "W(x) W(x) C"), make_transaction("T2", "R(x) C")
    rest = [make_transaction(f"T{i}", "R(y) C") for i in range(3, 1601)]
    order = [opid("T1", 1), opid("T2", 1), opid("T1", 2), opid("T1", 3), opid("T2", 2)]
    order += [op.id for t in rest for op in t.ops]
    vf = {opid("T2", 1): opid("T1", 1), **{t.ops[0].id: INIT for t in rest}}
    s = make_schedule((t1, t2, *rest), order, {"x": (opid("T1", 1), opid("T1", 2))}, vf)
    path = tmp_path / "wide.sched"
    path.write_text(render_schedule(s), encoding="utf-8")
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    digits = str(factorial(1600))
    # the report lifts the limit for its own text alone: the caller's stays
    sys.set_int_max_str_digits(4300)
    try:
        code, out = invoke("serializable", "--mode", "view", str(path))
        assert code == 1 and f"exhausted: {digits}\n" in out
        code, out = invoke("serializable", "--mode", "view", str(path), "--json")
        assert code == 1 and f'"exhausted": {digits},\n' in out
        assert sys.get_int_max_str_digits() == 4300
        invoke("check-schedule", str(tmp_path / "missing.sched"))
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(caller_limit)
    assert "Traceback" not in capsys.readouterr().err


def test_a_zero_budget_stops_the_view_search_before_it_grows_with_the_input(tmp_path):
    """Each of 3,000 transactions reads its predecessor's write of one object
    and overwrites it: the placement constraints stay linear in the
    schedule, and the search stops at its first candidate."""
    txns = tuple(make_transaction(f"T{i}", "R(x) W(x) C") for i in range(1, 3001))
    path = tmp_path / "chain.sched"
    path.write_text(render_schedule(serial_schedule(txns)), encoding="utf-8")
    code, payload = invoke_json("serializable", "--mode", "view", str(path), "--budget-seconds", "0")
    assert code == 3 and payload["limit_exceeded"] is True
    assert payload["elapsed_ms"] < 2000


def test_the_level_walk_signature_pool_stops_at_the_budget(tmp_path):
    """Ten transactions that each read their own object commute in every
    interleaving, so the exact view sweep checks one leaf.  The first writes
    its object before it reads it, which no conflict test clears, so that
    leaf builds the view signatures of all 10! serial orders."""
    ids = [f"T{i:02d}" for i in range(1, 11)]
    text = "".join(f"txn {t}: R(x{i}) C\n" for i, t in enumerate(ids, 1)) + f"alloc {' '.join(f'{t}=RC' for t in ids)}\n"
    path = tmp_path / "reads.wl"
    path.write_text(text.replace("R(x1) C", "W(x1) R(x1) C"), encoding="utf-8")
    limits = ("--max-txns", "10", "--max-ops", "21", "--budget-seconds", "0.2")
    started = time.process_time()
    code, payload = invoke_json("robust", "--mode", "exact-view", str(path), *limits)
    assert code == 3 and payload["details"]["error"] == "search exceeded its wall-clock budget"
    assert time.process_time() - started < 2.0


def test_allowed_applies_the_limits_to_a_predicate_allocation(tmp_path):
    path = tmp_path / "ten.sched"
    path.write_text(ten_transactions(PredicateAllocation("view-serializable-only")), encoding="utf-8")
    assert invoke_json("allowed", str(path))[0] == 0
    code, payload = invoke_json("allowed", str(path), "--max-orders", "1")
    assert code == 3 and payload["limit_exceeded"] is True


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


def test_a_stale_read_in_the_reduction_fails_verify(docs, monkeypatch):
    """The reduction builds its version function by construction, and verify
    checks RC and SI admissibility on its own: a read pointed at a version
    older than the newest one committed before it fails both, with exit 1."""
    reduce_to_schedule = polygraph.reduce_to_schedule

    def stale(p):
        txns, s = reduce_to_schedule(p)
        read = next(r for r, v in s.vf.items() if not v.is_init)
        return txns, dataclasses.replace(s, vf={**s.vf, read: INIT})

    monkeypatch.setattr(polygraph, "reduce_to_schedule", stale)
    code, payload = invoke_json("polygraph", "verify", docs["choice.poly"])
    checks = payload["details"]["checks"]
    assert code == 1 and payload["verdict"] is False
    for name in ("rc-admissible", "reads-fresh-at-read", "si-admissible", "reads-fresh-at-start"):
        assert checks[name].startswith("FAIL"), name
    assert checks["schedule-valid"] == checks["writes-respect-commit-order"] == "pass"


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


# --- the exit-code contract under malformed input -----------------------------------

_FUZZ_TOKENS = [
    "txn", "T1:", "T2:", "T3", "alloc", "T1=RC", "T2=SI", "T3=SSI", "T1=XX", "predicate=view-serializable-only",
    "order:", "reads:", "vorder", "x:", "t:", "node", "arc", "choice", "u", "v", "w", "R(t)", "W(t)", "R(x)",
    "W(x)", "C", "R1(t)", "W2(t)", "C1", "C2", "T1#1", "T2#2", "T1#9", "init", "R1(t)<-init", "R2(v)<-W1(t)",
    "init<W2(t)", "init<W4(t)<W2(t)", "<-", "<", "#", "=", ":", "()", "R()", "\t", "\u00e9", "0",
]
_FUZZ_BASES = [
    render_workload(s2_workload(RC)),
    render_workload(workload(SSI, SD_T1, SD_T2, SD_T3)),
    render_schedule(S1, LevelAllocation({"T1": RC, "T2": SI, "T3": SSI, "T4": RC})),
    "node u v w\narc w u\nchoice u v w\n",
]
_FUZZ_COMMANDS = [
    ("check-schedule",),
    ("serializable", "--mode", "conflict"),
    ("serializable", "--mode", "view"),
    ("allowed",),
    *[("robust", "--mode", mode, "--method", method)
      for mode in ("conflict", "view", "exact-conflict", "exact-view") for method in ("split", "enumerate", "both")],
    ("enumerate",),
    ("enumerate", "--count-only"),
    ("polygraph", "acyclic"),
    ("polygraph", "verify"),
]


@st.composite
def fuzz_documents(draw):
    """A valid document of one of the kinds after up to three edits: a line
    dropped, a line of the formats' own tokens (junk included) inserted, or
    a token put into a line."""
    lines = draw(st.sampled_from(_FUZZ_BASES)).splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(lines)))
        edit = draw(st.sampled_from(["drop", "insert", "token"]))
        if edit == "insert" or not lines:
            lines.insert(k, " ".join(draw(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=7))))
        elif edit == "drop":
            del lines[min(k, len(lines) - 1)]
        else:
            words = lines[min(k, len(lines) - 1)].split(" ")
            words.insert(draw(st.integers(min_value=0, max_value=len(words))), draw(st.sampled_from(_FUZZ_TOKENS)))
            lines[min(k, len(lines) - 1)] = " ".join(words)
    return "\n".join(lines)


@given(fuzz_documents())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_command_keeps_the_exit_code_contract_on_fuzzed_input(text):
    limits = ("--max-orders", "20000", "--budget-seconds", "5")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argvs = [(*command, path, *limits) for command in _FUZZ_COMMANDS]
        argvs.append(("polygraph", "reduce", path, "-o", os.path.join(tmp, "out.sched"), *limits))
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, payload = invoke_json(*argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err.getvalue(), argv
            assert not str(payload["details"].get("error", "")).startswith("internal error"), argv


# --- the command line: the grammar table's reader against argparse -----------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (("serializable", "--mode", "view", "{s2.sched}", "--max-orders", "abc"), "argument --max-orders: invalid int"),
        (("serializable", "{s2.sched}"), "the following arguments are required: --mode"),
        (("nope", "{s2.sched}"), "argument cmd: invalid choice: 'nope'"),
        (("polygraph",), "the following arguments are required: polycmd"),
    ],
    ids=["bad int", "missing --mode", "unknown command", "bare polygraph"],
)
def test_a_rejected_command_line_exits_2_with_a_report(docs, capsys, argv, message):
    argv = [docs[a[1:-1]] if a.startswith("{") else a for a in argv]
    code, payload = invoke_json(*argv)
    assert code == 2 and payload["verdict"] is None and payload["limit_exceeded"] is False
    assert payload["details"]["error"].startswith(message)
    err = capsys.readouterr().err
    assert err.startswith("usage: mvsched") and "Traceback" not in err
    code, out = invoke(*argv)
    assert code == 2 and "verdict: n/a" in out and f"error: {message}" in out


def test_help_exits_0_with_the_help(capsys):
    assert run(["--help"]) == 0
    assert run(["polygraph", "verify", "-h"]) == 0
    out = capsys.readouterr().out
    assert out.count("usage: mvsched") == 2 and "verdict:" not in out


@functools.cache
def _parser():
    """The CLI's argparse parser, built once for the module: ``parse_args``
    keeps no state between calls."""
    return cli._build_parser()


def _argparse_namespace(argv):
    """``vars`` of argparse's namespace for ``argv``, or None when argparse
    rejects it or prints the help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_parser().parse_args(argv))
        except (ParseError, SystemExit):
            return None


_VALID_VALUES = {int: ["1", "7", "+3", "1_000"], float: ["0", "2.5", "inf", "1e3"], str: ["a.txt", "-", ""]}
_HOSTILE_TOKENS = [
    "--max-or", "--json=1", "--mode=view", "--", "-h", "--help", "-1", "-", "", "-o", "-ox", "--bogus", "-x y",
    "abc", "1.5", "conflict", "verify", "polygraph", "nope",
]


@st.composite
def command_lines(draw):
    """A well-formed command line of any command, after up to two edits of
    its options and positionals (one dropped, an option's value replaced by
    any token, or an option given again with a valid value or any token), in
    any order, then up to two edits of its tokens (a hostile token or one of
    the command's own inserted, or a token dropped)."""
    words, (_, args) = draw(st.sampled_from([c for c in cli._GRAMMAR.items() if c[1][1] is not None]))
    options, units = [], []
    for names, keywords in cli._OPTIONS + args:
        if not names[0].startswith("-"):
            units.append([draw(st.sampled_from(_VALID_VALUES[str]))])
            continue
        values = [] if keywords.get("action") else keywords.get("choices") or _VALID_VALUES[keywords.get("type", str)]
        options.append((names, values))
        if keywords.get("required") or draw(st.booleans()):
            units.append([draw(st.sampled_from(names)), *([draw(st.sampled_from(values))] if values else [])])
    pool = _HOSTILE_TOKENS + [n for names, _ in options for n in names] + [v for _, vs in options for v in vs]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        edit = draw(st.sampled_from(["drop", "spoil", "repeat"]))
        valued = [unit for unit in units if len(unit) == 2]
        if edit == "drop" and units:
            del units[draw(st.integers(min_value=0, max_value=len(units) - 1))]
        elif edit == "spoil" and valued:
            draw(st.sampled_from(valued))[1] = draw(st.sampled_from(pool))
        else:
            names, values = draw(st.sampled_from(options))
            value = draw(st.sampled_from(values or [None]) | st.sampled_from(pool))
            units.append([draw(st.sampled_from(names)), *([] if value is None else [value])])
    tokens = [t for unit in draw(st.permutations(units)) for t in unit]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(tokens)))
        if tokens and draw(st.booleans()):
            del tokens[min(at, len(tokens) - 1)]
        else:
            tokens.insert(at, draw(st.sampled_from(pool)))
    # now and then a command word missing, or an unknown command
    return [*draw(st.sampled_from([words, words, words, words[:-1], ("nope",)])), *tokens]


@given(command_lines())
@settings(max_examples=600, deadline=None)
def test_the_reader_agrees_with_argparse_or_hands_off(argv):
    ours = cli._read_argv(argv)
    if ours is not None:
        assert vars(ours) == _argparse_namespace(argv), argv


@pytest.mark.parametrize(
    "args",
    [
        "x --max-or 5", "x --mode=view", "x --", "--", "x -h", "x --budget-seconds -1", "x --max-orders",
        "x --mode bad", "x --max-orders abc", "x y", "", "x --method split",
    ],
)
def test_the_reader_hands_off_what_it_does_not_read_exactly_as_argparse_does(args):
    """Each after ``serializable --mode view``: an abbreviation, ``=``, ``--``
    (with and without the positional after it), ``-h``, a negative number, a
    missing value, a bad choice, a bad number, an extra or missing
    positional and another command's option."""
    assert cli._read_argv(["serializable", "--mode", "view", *args.split()]) is None


def test_the_reader_reads_every_benchmark_command_line(tmp_path, monkeypatch):
    """The fast path is taken: every command line the benchmark issues, and
    the other shapes and commands the output comparison runs, JSON and text."""
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds the benchmark's directory
    tool = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_outputs.py")
    spec = importlib.util.spec_from_file_location("compare_outputs", tool)
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    runs = compare_outputs.commands(5, None, str(tmp_path))
    assert len(runs) > 5000
    for _, argv in runs:
        ours = cli._read_argv(argv)
        assert ours is not None and vars(ours) == _argparse_namespace(argv), argv


@pytest.mark.parametrize(
    "command", COMMANDS_WITH_LIMIT_FLAGS, ids=lambda c: " ".join(a for a in c if not a.startswith("{"))
)
def test_the_reader_reads_every_command_with_its_limit_flags(command):
    argv = [a[1:-1] if a.startswith("{") else a for a in command]
    limits = ["--max-txns", "0", "--max-ops", "3", "--max-orders", "10", "--budget-seconds", "0.5"]
    for extra in ([], ["--json"], limits, [*limits, "--json"], ["--max-orders", "10", "--max-orders", "20"]):
        ours = cli._read_argv([*argv, *extra])
        assert ours is not None and vars(ours) == _argparse_namespace([*argv, *extra])
