"""No module of the package reaches into another module's private names, and
every module boundary the benchmark's tracer wraps still exists."""

from __future__ import annotations

import ast
import importlib
import pathlib

import mvsched

SRC = pathlib.Path(mvsched.__file__).parent
TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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


def tracer_boundaries() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of ``BOUNDARIES`` in the benchmark's
    tracer, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in node.value.elts]
    raise AssertionError("bench/tracing.py defines no BOUNDARIES")


#: Boundaries the tracer still lists although the library no longer calls
#: through them on purpose: the polygraph reduction builds its schedule
#: without completing an order, so its completions are 0, not lost.  The
#: next change to the benchmark drops them from the tracer.
RETIRED_BOUNDARIES = ["mvsched.polygraph.complete_under_allocation"]


def test_every_traced_boundary_resolves_to_a_callable():
    """A refactor that renames or stops importing a wrapped name would leave a
    per-layer metric silently reading 0."""
    boundaries = tracer_boundaries()
    assert len(boundaries) > 20
    missing = [
        f"{module}.{attr}"
        for module, attr in boundaries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == RETIRED_BOUNDARIES
