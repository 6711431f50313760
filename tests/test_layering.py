"""No module of the package reaches into another module's private names,
every module boundary the benchmark's tracer wraps still exists, and every
function the package exports has a caller outside the unit tests."""

from __future__ import annotations

import ast
import importlib
import pathlib

import mvsched

SRC = pathlib.Path(mvsched.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "mvsched"


def bound_modules(tree: ast.AST) -> set[str]:
    """Local names bound to the package's modules: "from . import textio",
    "from mvsched import textio", "import mvsched.textio as textio"."""
    modules = {p.stem for p in SRC.glob("*.py")}
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            bound.update(alias.asname or alias.name for alias in node.names if alias.name in modules)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, stem = alias.name.partition(".")
                if head == "mvsched" and stem in modules and alias.asname:
                    bound.add(alias.asname)
    return bound


def private_uses(path: pathlib.Path) -> list[str]:
    """Every ``from .m import _x`` and every ``m._x`` with ``m`` a module of
    the package, as ``file:line: text``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = bound_modules(tree)
    out = [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _from_package(node)
        for alias in node.names
        if _private(alias.name)
    ]
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
#: without completing an order, and the robustness deciders complete every
#: order on the compiled engine, so these completions are 0, not lost.  The
#: next change to the benchmark drops them from the tracer.
RETIRED_BOUNDARIES = ["mvsched.robustness.complete_under_allocation", "mvsched.polygraph.complete_under_allocation"]


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


def callers() -> list[pathlib.Path]:
    """The files whose uses keep a name in the package's exports: its
    modules but ``__init__``, the benchmark, the tools and the acceptance
    gate; not the unit tests."""
    src = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    outside = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("tools/*.py"))
    return src + outside + [ROOT / "tests" / "test_acceptance.py"]


def loaded_names(path: pathlib.Path) -> set[str]:
    """Every name the file loads, and every ``m.x`` with ``m`` bound to a
    module of the package as ``x``; ``str.split`` is no use of a ``split``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = bound_modules(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            out.add(node.attr)
    return out


def test_every_exported_function_has_a_caller():
    """A function or constant that only the unit tests use belongs in
    ``tests/oracles.py``, not in the package's exports.  Classes are exempt."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set().union(*map(loaded_names, callers()))
    unused = [name for name in exported if not isinstance(getattr(mvsched, name), type) and name not in used]
    assert unused == []
