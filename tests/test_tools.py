"""The output comparison tool: a tree agrees with itself, and a changed report is listed."""

from __future__ import annotations

import importlib.util
import pathlib
import shutil
import subprocess
import sys

from corpus import planted_polygraphs
from oracles import render_polygraph

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(base) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(TOOL), str(base), "--seed", "3", "--limit", "2"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_the_tree_agrees_with_itself():
    done = compare(ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr
    summary = "1112 runs (documents, polygraph-verify, robust-enum, robust-split, schedule-check; seed 3, JSON and text): 0 differ"
    assert summary in done.stdout


def test_a_changed_report_is_listed(tmp_path):
    shutil.copytree(ROOT / "src" / "mvsched", tmp_path / "src" / "mvsched", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "mvsched" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert 'lines.append(f"verdict: {verdict}")' in text
    cli.write_text(text.replace('lines.append(f"verdict: {verdict}")', 'lines.append(f"verdict = {verdict}")'), encoding="utf-8")
    done = compare(tmp_path / "src")
    assert done.returncode == 1, done.stdout + done.stderr
    # every text report changed, no JSON one did: 204 on the generated inputs, 352 on the hand-written and planted
    # documents and the rings
    assert done.stdout.count("DIFFERS ") == 556 and ": 556 differ from " in done.stdout
    assert "--json" not in "".join(line for line in done.stdout.splitlines() if line.startswith("DIFFERS"))


def test_the_planted_polygraphs_are_the_corpus_ones():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for nodes, choices in ((60, 80), (100, 130)):
        (p,) = planted_polygraphs(1, nodes, choices, nodes)
        assert tool.POLYGRAPHS[f"planted-{nodes}-{choices}"] == render_polygraph(p)
