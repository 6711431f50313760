"""The output comparison tool: a tree agrees with itself, and a changed report is listed."""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(base) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(TOOL), str(base), "--seed", "3", "--limit", "2"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_the_tree_agrees_with_itself():
    done = compare(ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr
    summary = "1024 runs (documents, polygraph-verify, robust-enum, robust-split, schedule-check; seed 3, JSON and text): 0 differ"
    assert summary in done.stdout


def test_a_changed_report_is_listed(tmp_path):
    shutil.copytree(ROOT / "src" / "mvsched", tmp_path / "src" / "mvsched", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "mvsched" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert 'lines.append(f"verdict: {verdict}")' in text
    cli.write_text(text.replace('lines.append(f"verdict: {verdict}")', 'lines.append(f"verdict = {verdict}")'), encoding="utf-8")
    done = compare(tmp_path / "src")
    assert done.returncode == 1, done.stdout + done.stderr
    # every text report changed, no JSON one did: 200 on the generated inputs, 312 on the hand-written documents
    assert done.stdout.count("DIFFERS ") == 512 and ": 512 differ from " in done.stdout
    assert "--json" not in "".join(line for line in done.stdout.splitlines() if line.startswith("DIFFERS"))
