"""Invariants of the package source itself."""

from __future__ import annotations

import ast
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
