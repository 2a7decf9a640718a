from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: each demo's stdout, with the checkout's root spelled ``<repo>``
GOLDEN = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    """Each demo exits 0 in a fresh interpreter and prints its golden stdout byte for byte."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.replace(str(ROOT), "<repo>") == (GOLDEN / f"{demo.stem}.txt").read_text()
