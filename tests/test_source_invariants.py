"""Invariants of the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import instanton_lab

SOURCES = sorted(Path(instanton_lab.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "chow.py", "cli.py"}


def test_no_assert_statements():
    """Invariants raise typed errors: an ``assert`` vanishes under ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_cohomology_reaches_the_engine_table():
    """Line bundles reach their engine through ``cohomology``'s per-entry memo:
    no other module names ``ENGINES``, and ``cohomology.py`` subscripts it."""

    def names_engines(node):
        return getattr(node, "id", None) == "ENGINES" or getattr(node, "attr", None) == "ENGINES"

    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    outside = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        if name != "cohomology.py"
        for node in ast.walk(tree)
        if names_engines(node)
    ]
    assert outside == []
    assert any(
        isinstance(node, ast.Subscript) and names_engines(node.value) for node in ast.walk(trees["cohomology.py"])
    )


def test_benchmark_layers_resolve():
    """Every ``(module, attribute)`` the benchmark tracer wraps exists in the package.

    A renamed or deleted layer would otherwise fail only traced benchmark runs.
    ``bench/tracing.py`` is read as text and its ``LAYERS`` literal evaluated,
    so the benchmark is neither imported nor changed.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    (layers,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    missing = []
    for layer, modname, attr, _ in layers:
        module = importlib.import_module(f"instanton_lab.{modname}")
        owner, _, name = attr.rpartition(".")
        # the tracer replaces methods in the class's own dict, functions by module attribute
        if owner:
            found = name in vars(getattr(module, owner, object))
        else:
            found = callable(getattr(module, name, None))
        if not found:
            missing.append(f"{layer}: {modname}.{attr}")
    assert layers
    assert missing == []
