"""No module of the package reaches into another module's private names."""

from __future__ import annotations

import ast
import pathlib

import mvsched

SRC = pathlib.Path(mvsched.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: pathlib.Path) -> list[str]:
    """Every ``from .m import _x`` and every ``m._x`` with ``m`` a module of
    the package, as ``file:line: text``."""
    modules = {p.stem for p in SRC.glob("*.py")}
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    # local names bound to the package's modules: "from . import textio",
    # "from mvsched import textio", "import mvsched.textio as textio"
    bound: set[str] = set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "mvsched"
            if not package:
                continue
            for alias in node.names:
                if _private(alias.name):
                    out.append(f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif alias.name in modules:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, stem = alias.name.partition(".")
                if head == "mvsched" and stem in modules and alias.asname:
                    bound.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                out.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(out)


def test_no_private_cross_module_use():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_uses(path)]
    assert found == []


def test_the_scan_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import textio\nfrom .serializability import _shortest_cycle, is_conflict_serializable\n"
        "textio._parse_declarations('')\ntextio.parse_workload('')\n",
        encoding="utf-8",
    )
    assert private_uses(sample) == [
        "sample.py:2: from .serializability import _shortest_cycle",
        "sample.py:3: textio._parse_declarations",
    ]
