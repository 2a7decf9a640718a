"""Invariants of the package source itself."""

from __future__ import annotations

import ast
import importlib
import re
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


def test_cohomology_reads_the_kind_only_to_pick_an_engine():
    """``cohomology.py`` reads an entry's ``kind`` only inside an ``ENGINES[...]`` subscript:
    the engines themselves take the numbers they use, not the entry's family."""
    (path,) = [p for p in SOURCES if p.name == "cohomology.py"]
    tree = ast.parse(path.read_text(), filename=str(path))
    in_subscripts = {
        id(node)
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "ENGINES"
        for node in ast.walk(sub.slice)
    }
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads
    assert [node.lineno for node in reads if id(node) not in in_subscripts] == []


def test_only_the_engine_table_calls_an_engine():
    """Inside ``cohomology.py`` only the ``ENGINES`` lambdas call a ``coh_*`` engine, so
    every line bundle, a table's summands included, goes through the per-entry memo."""
    (path,) = [p for p in SOURCES if p.name == "cohomology.py"]
    tree = ast.parse(path.read_text(), filename=str(path))
    (table,) = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ENGINES"]
    ]
    in_lambdas = {
        id(node) for value in table.args[0].values if isinstance(value, ast.Lambda) for node in ast.walk(value)
    }
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "").lstrip("_").startswith("coh_")
    ]
    assert calls
    assert [node.lineno for node in calls if id(node) not in in_lambdas] == []


def test_only_cohomology_calls_an_engine():
    """Package-wide, line bundles reach an engine through the per-entry memo: no module
    but ``cohomology.py`` calls a ``coh_*`` engine or :func:`cohomology.bott_gl`."""

    def calls_an_engine(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", "")
        return name.startswith("coh_") or name == "bott_gl"

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cohomology.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if calls_an_engine(node)
    ]
    assert found == []


def test_rr_raises_no_bare_value_error():
    """Every input check in the package raises a typed ``InstantonLabError`` (each one a
    ``ValueError`` subclass where a bare ``ValueError`` stood), so the CLI can tell bad input
    from an internal bug.  Each module is covered, new ones by default; ``chow.py`` is exempt
    because its one bare ``ValueError``, a degree map that misses a top normal form, is an
    internal invariant of the Chow-ring presets, not a check on input."""
    raising = set()
    for path in SOURCES:
        if path.name == "chow.py":
            continue
        raised = [
            node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Raise) and node.exc is not None
        ]
        if raised:
            raising.add(path.name)
        assert [node.lineno for node in raised if getattr(node, "id", None) == "ValueError"] == [], path.name
    assert raising >= {"rr.py", "monads.py", "cli.py", "cohomology.py", "replays.py", "catalog.py"}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    """Each name a module imports is read in that module, in code or in an annotation
    (``TYPE_CHECKING`` imports included); a line marked ``# noqa: F401`` is exempt."""
    unused = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_only_the_input_boundaries_check_coordinates():
    """Coordinates are checked where they enter the package: ``catalog`` and
    ``cohomology`` call ``check_coords``, and no other module does, so scans
    (which build their own candidates) never check one per candidate and the
    CLI leaves a descriptor's coordinates to ``build_table``."""

    def calls_check_coords(node):
        if not isinstance(node, ast.Call):
            return False
        return "check_coords" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))

    callers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if calls_check_coords(node)
    }
    assert callers == {"catalog.py", "cohomology.py"}


def test_the_table_reader_resolves_no_variety_id():
    """A table's variety id is resolved once, by ``catalog.entry_ring`` in the constructor and
    in ``ChernData.from_json``: the body of ``CohomologyTable.from_json`` names no resolver."""
    (path,) = [p for p in SOURCES if p.name == "cohomology.py"]
    (table,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "CohomologyTable"
    ]
    (reader,) = [node for node in table.body if isinstance(node, ast.FunctionDef) and node.name == "from_json"]
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(reader)}
    assert names & {"entry_ring", "preset_ring", "ring_for"} == set()
    assert "from_json" in names


def test_only_instanton_evaluates_the_condition_kinds():
    """What each instanton condition compares is written once, in
    ``instanton.InstantonConditions.passes``: no other module compares anything
    with the check kinds ``"zero"``, ``"q"`` or ``"chi"``."""
    kinds = {"zero", "q", "chi"}

    def names_a_kind(node):
        return isinstance(node, ast.Constant) and node.value in kinds

    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    compares = {
        name: [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and any(map(names_a_kind, ast.walk(node)))
        ]
        for name, tree in trees.items()
    }
    assert {name: lines for name, lines in compares.items() if lines and name != "instanton.py"} == {}
    assert compares["instanton.py"]


def test_only_tables_and_their_parts_are_read_from_json():
    """A table is the one value the package reads back (``check --table``): only
    ``CohomologyTable`` and the ``ChernData`` and ``ChowClass`` it holds define
    ``from_json``, and no module-level function does."""
    readers, defined = set(), 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += sum(isinstance(node, ast.FunctionDef) and node.name == "from_json" for node in ast.walk(tree))
        readers |= {
            (path.name, cls.name)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "from_json"
        }
    assert readers == {("cohomology.py", "CohomologyTable"), ("rr.py", "ChernData"), ("chow.py", "ChowClass")}
    assert defined == len(readers)


def test_only_the_catalog_pairs_a_class_with_h_to_the_n_minus_1():
    """``c . h^(n-1)`` has one owner, ``VarietyCatalogEntry.h_degree`` and the weights it keeps:
    no call ``h_power(... - 1)`` outside ``catalog.py``, and one inside it.  Other powers, such as
    ``quantum_chern_identity``'s ``h^(n-2)``, are not this pairing."""

    def pairs_with_h_top(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "h_power" and node.args):
            return False
        (arg,) = node.args
        return isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub) and getattr(arg.right, "value", None) == 1

    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    sites = {name: [node.lineno for node in ast.walk(tree) if pairs_with_h_top(node)] for name, tree in trees.items()}
    assert {name: lines for name, lines in sites.items() if lines and name != "catalog.py"} == {}
    assert len(sites["catalog.py"]) == 1


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


def _string_templates(tree: ast.AST):
    """``(lineno, text)`` of every string literal, an f-string's fields written ``{}``."""
    fields = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for v in node.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield node.lineno, "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in fields:
            yield node.lineno, node.value


def test_only_chow_splits_or_formats_a_ring_id():
    """A ring id is written once, by its builder in ``chow.py``, and split only by ``chow.read_id``:
    ``catalog.py`` imports no ``re``, only the catalog's entry reader calls ``read_id``, and no
    module but ``chow.py`` holds a string or f-string that is a ring id with arguments."""
    from instanton_lab import chow

    names = "|".join(name for name, (_, lower) in chow._PRESETS.items() if lower)
    ring_id = re.compile(rf"(?:{names})\((?:\{{\}}|\d+)(?:,(?:\{{\}}|\d+))*\)")
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    imports_re = [
        node.lineno
        for node in ast.walk(trees["catalog.py"])
        if isinstance(node, ast.Import) and "re" in {a.name for a in node.names}
        or isinstance(node, ast.ImportFrom) and node.module == "re"
    ]
    assert imports_re == []
    readers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if "read_id" in (getattr(node, "id", None), getattr(node, "attr", None))
    }
    assert readers == {"chow.py", "catalog.py"}
    formats = [
        f"{name}:{line}: {text}"
        for name, tree in trees.items()
        if name != "chow.py"
        for line, text in _string_templates(tree)
        if ring_id.fullmatch(text)
    ]
    assert formats == []
    assert any(ring_id.fullmatch(text) for _, text in _string_templates(trees["chow.py"]))


def test_no_module_makes_values_without_their_constructor():
    """No module in the package names ``__new__`` or a slot's ``__set__``, so every ``CohVector``
    and every table passes its constructor's checks."""
    bypasses = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("__new__", "__set__")
    ]
    assert bypasses == []


def test_no_module_reads_a_tables_vector_view():
    """A table's ``rows`` and ``row(t)`` show its int rows as ``CohVector`` values for callers
    outside the package; no module in it reads them."""
    reads = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "row")
    ]
    assert reads == []
