"""Import cost: the package re-exports lazily and each CLI leaf loads only what it runs.

Every check runs in a fresh interpreter, since the test session has long
since imported every module.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import instanton_lab
from instanton_lab import cli

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
for sub in ("catalog", "chow", "classify", "cli", "cohomology", "errors", "instanton", "monads", "replays",
            "rr", "util"):
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

CORE = {"cli", "errors", "util"}
#: the modules a line-bundle table needs
TABLE = {"catalog", "chow", "cohomology", "rr"}


#: a request of each leaf kind the one-shot CLI benchmark makes -> the modules
#: it loads beyond CORE
LEAVES = {
    "cohom --variety flag3 --bundle -1,3 --window -3:0 --json": TABLE,
    "chi --variety triple-p1 --bundle -1,1,3 --twist -1 --json": TABLE,
    "check --variety triple-p1 --bundle -1,1,3 --json": TABLE | {"instanton"},
    "monad pn --n 3 --defect 1 --quantum 1 --chi0 0 --h0 2 --hn 2 --json": {"monads"},
    "classify flag --box 4 --defect 0 --json": TABLE | {"classify", "instanton"},
}

#: a request of each paper-replay leaf -> the modules it loads beyond CORE
REPLAY_LEAVES = {
    "classify cyclic --n 3 --u 2 --v -4 --defect 1 --json": TABLE | {"replays"},
    "stability --n 3 --u 1 --v -4 --defect 0 --h0-norm 1 --h0-norm-minus 0 --json": TABLE | {"replays"},
    "scroll --degrees 1,1,1 --k 1 --json": TABLE | {"replays"},
    "fano --index 1 --defect 0 --epsilon 1 --json": TABLE | {"replays"},
    "resolution-check --ambient 3 --v 0 --w 0 --beta 0,0:1 --n 3 --defect 0 --quantum 0 --chi0 1 --json": (
        TABLE | {"replays"}
    ),
    "veronese --n 3 --rank 2 --d 2 --hn 2 --json": TABLE | {"replays"},
}

#: leaves no benchmark runs: ``monad acm``, whose handler imports the table modules
#: inside ``monads.monad_acm``, and ``monad pn --rank``, whose rank rule lives in
#: ``monads``; only a fresh interpreter sees what they load
COLD_LEAVES = {
    "monad acm --variety q3 --defect 0 --quantum 1 --json": TABLE | {"monads"},
    "monad pn --n 4 --defect 1 --quantum 1 --rank 4 --h0 0 --hn 0 --json": {"monads"},
}


@pytest.mark.parametrize("argv", {**LEAVES, **REPLAY_LEAVES, **COLD_LEAVES})
def test_each_leaf_loads_only_the_modules_it_runs(argv):
    code, loaded = json.loads(run_fresh(LEAF_MODULES, *argv.split()))
    assert code == 0
    beyond_core = {**LEAVES, **REPLAY_LEAVES, **COLD_LEAVES}[argv]
    assert loaded == sorted({"instanton_lab"} | {f"instanton_lab.{m}" for m in CORE | beyond_core})


DATACLASSES_CREATED = """
import contextlib, dataclasses, io, json, sys

from instanton_lab import cli

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
modules = [m for name, m in list(sys.modules.items()) if name.startswith("instanton_lab.")]
print(json.dumps(sorted(
    f"{m.__name__.rpartition('.')[2]}.{name}"
    for m in modules
    for name, value in vars(m).items()
    if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == m.__name__
)))
"""

#: the dataclasses every leaf creates: none, since the core value types derive
#: from ``util.FrozenValue``; a dataclass compiles its generated methods when
#: its module loads
CORE_DATACLASSES: set[str] = set()
CHECKER = {"instanton.InstantonVerdict"}

#: each benchmark leaf -> the dataclasses it creates beyond CORE_DATACLASSES
LEAF_DATACLASSES = {
    "cohom": set(),
    "chi": set(),
    "check": CHECKER,
    "monad pn": set(),
    "classify flag": CHECKER | {"classify.FoundLine", "classify.ClassificationReport"},
}


@pytest.mark.parametrize("argv", LEAVES)
def test_each_benchmark_leaf_creates_only_the_dataclasses_it_runs(argv):
    """A scan or a check creates the checker's and the scan's classes and none of the replays'."""
    created = json.loads(run_fresh(DATACLASSES_CREATED, *argv.split()))
    assert created == sorted(CORE_DATACLASSES | LEAF_DATACLASSES[argv.partition(" --")[0]])


STDLIB_LOADED = """
import contextlib, io, json, sys

from instanton_lab import cli

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in ("dataclasses", "decimal", "fractions", "inspect") if m in sys.modules)))
"""

#: each benchmark leaf -> which of dataclasses, decimal, fractions and inspect it loads:
#: ``chi`` builds the Todd weights as rationals, and the checker and the scan keep their
#: result types as dataclasses
LEAF_STDLIB = {
    "cohom": [],
    "chi": ["decimal", "fractions"],
    "check": ["dataclasses", "inspect"],
    "monad pn": [],
    "classify flag": ["dataclasses", "inspect"],
}


@pytest.mark.parametrize("argv", LEAVES)
def test_each_benchmark_leaf_loads_only_the_standard_modules_it_runs(argv):
    loaded = json.loads(run_fresh(STDLIB_LOADED, *argv.split()))
    assert loaded == LEAF_STDLIB[argv.partition(" --")[0]]


def test_groups_declare_their_leaves_only_when_a_parse_reaches_them():
    parser = cli.build_parser()
    parser.parse_args(["cohom", "--variety", "flag3", "--bundle", "1,1"])
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    groups = {name: commands.choices[name] for name in ("monad", "classify")}
    assert {name: group._subparsers for name, group in groups.items()} == {"monad": None, "classify": None}
    parser.parse_args(["classify", "flag"])
    assert groups["monad"]._subparsers is None and groups["classify"]._subparsers is not None
