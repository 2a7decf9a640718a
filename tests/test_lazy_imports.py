"""Import cost: the package re-exports lazily and each CLI leaf loads only what it runs.

Every check runs in a fresh interpreter, since the test session has long
since imported every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import instanton_lab

SRC = Path(instanton_lab.__file__).resolve().parents[1]


def run_fresh(code: str, *argv: str) -> str:
    """Run ``code`` in a new interpreter that imports the package from SRC; returns stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LAZY_EXPORTS = """
import importlib, sys

import instanton_lab

loaded = sorted(m for m in sys.modules if m.startswith("instanton_lab."))
assert loaded == [], loaded

names = instanton_lab.__all__
assert len(names) == len(set(names)) == 79, len(names)
assert set(names) <= set(dir(instanton_lab))
for name in names:
    home = importlib.import_module("instanton_lab." + instanton_lab._EXPORTS[name])
    assert getattr(instanton_lab, name) is getattr(home, name), name
for sub in ("catalog", "chow", "classify", "cli", "cohomology", "errors", "instanton", "monads", "rr", "util"):
    assert getattr(instanton_lab, sub) is sys.modules["instanton_lab." + sub], sub

star = {}
exec("from instanton_lab import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(names)

try:
    instanton_lab.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_lazy_exports():
    assert run_fresh(LAZY_EXPORTS) == "ok\n"


CATALOG_ONLY = """
import sys

import instanton_lab.catalog

print(sorted(m for m in ("decimal", "fractions") if m in sys.modules))
"""


def test_catalog_import_loads_no_rational_arithmetic():
    """Building catalog entries (the benchmark's set-up) needs neither fractions nor decimal."""
    assert run_fresh(CATALOG_ONLY) == "[]\n"


LEAF_MODULES = """
import contextlib, io, json, sys

from instanton_lab import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("instanton_lab"))]))
"""

CORE = {"catalog", "chow", "cli", "cohomology", "errors", "rr", "util"}


#: a request of each leaf kind the one-shot CLI benchmark makes -> the modules
#: it loads beyond CORE
LEAVES = {
    "cohom --variety flag3 --bundle -1,3 --window -3:0 --json": set(),
    "chi --variety triple-p1 --bundle -1,1,3 --twist -1 --json": set(),
    "check --variety triple-p1 --bundle -1,1,3 --json": {"instanton"},
    "monad pn --n 3 --defect 1 --quantum 1 --chi0 0 --h0 2 --hn 2 --json": {"monads"},
    "classify flag --box 4 --defect 0 --json": {"classify", "instanton"},
}


@pytest.mark.parametrize("argv", LEAVES)
def test_each_leaf_loads_only_the_modules_it_runs(argv):
    code, loaded = json.loads(run_fresh(LEAF_MODULES, *argv.split()))
    assert code == 0
    assert loaded == sorted({"instanton_lab"} | {f"instanton_lab.{m}" for m in CORE | LEAVES[argv]})
