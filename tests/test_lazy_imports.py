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

#: a request of each paper-replay leaf -> the modules it loads beyond CORE
REPLAY_LEAVES = {
    "classify cyclic --n 3 --u 2 --v -4 --defect 1 --json": {"replays"},
    "stability --n 3 --u 1 --v -4 --defect 0 --h0-norm 1 --h0-norm-minus 0 --json": {"replays"},
    "scroll --degrees 1,1,1 --k 1 --json": {"monads", "replays"},
    "fano --index 1 --defect 0 --epsilon 1 --json": {"replays"},
    "resolution-check --ambient 3 --v 0 --w 0 --beta 0,0:1 --n 3 --defect 0 --quantum 0 --chi0 1 --json": {
        "replays"
    },
    "veronese --n 3 --rank 2 --d 2 --hn 2 --json": {"replays"},
}


@pytest.mark.parametrize("argv", {**LEAVES, **REPLAY_LEAVES})
def test_each_leaf_loads_only_the_modules_it_runs(argv):
    code, loaded = json.loads(run_fresh(LEAF_MODULES, *argv.split()))
    assert code == 0
    beyond_core = {**LEAVES, **REPLAY_LEAVES}[argv]
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

#: the dataclasses every leaf creates; a dataclass compiles its generated
#: methods when its module loads
CORE_DATACLASSES = {
    "catalog.VarietyCatalogEntry", "chow.ChowClass", "chow.ChowRingPresentation", "chow.RewriteRule",
    "cohomology.CohVector", "cohomology.CohomologyTable", "rr.ChernData",
}
CHECKER = {"instanton.InstantonVerdict", "instanton.InstantonConditions"}

#: each benchmark leaf -> the dataclasses it creates beyond CORE_DATACLASSES
LEAF_DATACLASSES = {
    "cohom": set(),
    "chi": set(),
    "check": CHECKER,
    "monad pn": {"monads.Constraint", "monads.MonadShape", "monads.ScrollMonadReport",
                 "monads.SpinorMultiplicities", "monads.Summand"},
    "classify flag": CHECKER | {"classify.FoundLine", "classify.ClassificationReport"},
}


@pytest.mark.parametrize("argv", LEAVES)
def test_each_benchmark_leaf_creates_only_the_dataclasses_it_runs(argv):
    """A scan or a check creates the checker's and the scan's classes and none of the replays'."""
    created = json.loads(run_fresh(DATACLASSES_CREATED, *argv.split()))
    assert created == sorted(CORE_DATACLASSES | LEAF_DATACLASSES[argv.partition(" --")[0]])


def test_groups_declare_their_leaves_only_when_a_parse_reaches_them():
    parser = cli.build_parser()
    parser.parse_args(["cohom", "--variety", "flag3", "--bundle", "1,1"])
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    groups = {name: commands.choices[name] for name in ("monad", "classify")}
    assert {name: group._subparsers for name, group in groups.items()} == {"monad": None, "classify": None}
    parser.parse_args(["classify", "flag"])
    assert groups["monad"]._subparsers is None and groups["classify"]._subparsers is not None
