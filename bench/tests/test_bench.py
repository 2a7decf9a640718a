"""Self-tests of the benchmark: each checker rejects a corrupted result, each
workload passes a tiny smoke run, and the runner prints exactly the metrics
that BENCHMARK.json declares.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from instanton_lab import classify, cohomology  # noqa: E402


def unknown(findings):
    return [f for f in findings if not f.known]


def test_lattice_checker_rejects_changed_quantum_number():
    w = workloads.LatticeScan(0)
    op = ("flag", 4, 0)
    report = w.run(op)
    assert w.check(op, report) == []
    first = report.found[0]
    bad = dataclasses.replace(
        report, found=(dataclasses.replace(first, quantum=first.quantum + 1),) + report.found[1:]
    )
    assert unknown(w.check(op, bad))


def test_lattice_checker_rejects_swapped_member():
    w = workloads.LatticeScan(0)
    op = ("segre", 4, 0)
    report = w.run(op)
    first = report.found[0]
    swapped = dataclasses.replace(first, coordinates=tuple(reversed(first.coordinates)))
    bad = dataclasses.replace(report, found=(swapped,) + report.found[1:])
    assert unknown(w.check(op, bad))


def test_chern_rr_checker_rejects_chi_off_by_one():
    w = workloads.ChernRR(0)
    op = w.round(0)[0]
    c, chis, slope, t_norm = w.run(op)
    assert w.check(op, (c, chis, slope, t_norm)) == []
    bad = (c, [chis[0] + 1] + chis[1:], slope, t_norm)
    assert [f.check for f in w.check(op, bad)] == ["chi_rr_vs_engine"]


def test_table_io_checker_rejects_changed_quantum_number():
    w = workloads.TableIO(0)
    p4 = next(i for i, e in enumerate(w.entries) if e.variety_id == "projective_space(4)")
    op = (p4, (((0,), 1),), (-10, 6))  # O_P4 is Ulrich: admissible (0, 0)
    table, verdict, restored, chi_line = w.run(op)
    assert (0, 0) in verdict.admissible
    assert w.check(op, (table, verdict, restored, chi_line)) == []
    bad = dataclasses.replace(verdict, admissible=((0, 1),), is_ulrich=False)
    assert [f.check for f in w.check(op, (table, bad, restored, chi_line))] == ["instanton_verdict"]


def test_table_io_names_the_known_round_trip_defect():
    w = workloads.TableIO(0)
    scroll = next(i for i, e in enumerate(w.entries) if e.kind == "scroll_p1")
    op = (scroll, (((0, 0), 1),), (-10, 6))
    findings = w.check(op, w.run(op))
    assert [(f.check, f.known) for f in findings] == [("table_round_trip", True)]


def test_cli_checker_rejects_wrong_exit_code():
    w = workloads.CliOneshot(0)
    op = ("monad", 3, 0, 1, 0, ())
    code, stdout, stderr = w.run(op)
    assert w.check(op, (code, stdout, stderr)) == []
    assert [f.check for f in w.check(op, (code + 1, stdout, stderr))] == ["exit_code"]


def test_smoke_every_workload():
    for name, cls in workloads.WORKLOADS.items():
        w = cls(1)
        ops = w.round(0)
        if name == "lattice_scan":
            ops = [op for op in ops if op[1] == 4]
        for op in ops[:2]:
            result = w.run(op)
            assert unknown(w.check(op, result)) == [], (name, op)
            json.dumps(w.canonical(op, result))


def test_tracer_wraps_by_name_imports_and_reports_unreached_layers():
    original = cohomology.build_table
    tracer = Tracer()
    tracer.install()
    try:
        assert classify.build_table is cohomology.build_table is not original
        tracer.enabled = True
        report = classify.classify_flag_lines(4, 0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert classify.build_table is original
    m = tracer.metrics()
    assert m["classify.flag.calls"] == 1
    assert m["classify.candidates"] == m["cohomology.build_table.calls"] > 0
    assert m["classify.hit_ratio"] == len(report.found) / m["classify.candidates"]
    assert m["cohomology.engine.scroll_p1.calls"] == 0
    assert m["rr.chi_twisted.calls"] == 0


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_runner_prints_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("--workload", "chern_rr", "--seed", "3", "--seconds", "0.1", "--trace", str(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
