"""instanton-lab benchmark runner.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``workloads.py``): ``lattice_scan``,
``chern_rr``, ``table_io``, ``cli_oneshot``.  Uses only the standard library
and imports the package from ``src/`` of this checkout.

``--trace 0`` measures the end-to-end metrics: it runs whole rounds of ops,
one at a time, until ``--seconds`` have passed and at least ``MIN_OPS`` ran,
and reports ``setup_s`` (median of fresh interpreters importing the package
and building the workload's catalog entries), ``ops_per_s`` (ops over their
summed op time), ``op_ms_p50``, ``op_ms_p90``, ``success_rate`` and
``peak_rss_mb`` (of this process, or of the CLI processes).  The four
timings are calibrated against a fixed kernel timed along the run (see
``calibration.py``); the raw wall-clock figures are in the run record.

``--trace 1`` runs the fixed op list of the digest prefix twice: untraced,
then traced and checked.  It reports per-layer totals over that list (see
``tracing.py``) and ``trace.overhead_ratio``, the traced over the untraced
op time.

Every op is checked.  An op fails when a check does not hold; the run is
``correct`` when every failure is a documented defect of the program (see
``workloads.Finding``).  The line before the result is a run record: the
machine, the Python version, the commit, failures by check, sample counts
and the SHA-256 digest of the results of the digest prefix, which is the
same for every run of the same code and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import calibration
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
#: at least ten samples lie beyond the 90th percentile
MIN_OPS = 100
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: import the package and build the catalog
# entries (and so their Chow rings) named in argv[2]; prints the time taken.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from instanton_lab import catalog
for name, args in json.loads(sys.argv[2]):
    getattr(catalog, name)(*args)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import ``instanton_lab`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "instanton_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no instanton_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import instanton_lab

    if Path(instanton_lab.__file__).resolve().parent != SRC / "instanton_lab":
        raise SystemExit(f"error: imported instanton_lab from {instanton_lab.__file__}")


def measure_setup(workload, env) -> tuple[list[float], list[float]]:
    """Raw and calibrated set-up times of fresh interpreters."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(workload.specs)]
    cal = calibration.interpreter(env)
    starts, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        cal.sample()
        t = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first child only warms the bytecode cache
            starts.append(t)
            raw.append(float(out.stdout))
    cal.sample()
    return raw, [s * cal.scale(t) for t, s in zip(starts, raw)]


def latency_metrics(times: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1000,
    }


class Tally:
    """Outcomes of checked ops and the digest of the prefix's results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.by_check = Counter()
        self.examples = {}
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def record(self, index, op, result, exc, in_prefix):
        self.attempted += 1
        if exc is not None:
            findings = [("exception", f"{type(exc).__name__}: {exc}", False)]
        else:
            findings = [(f.check, f.message, f.known) for f in self.workload.check(op, result)]
        if findings:
            self.failed += 1
            for check, message, known in findings:
                self.by_check[check] += 1
                self.examples.setdefault(check, message)
                self.unexpected += not known
        elif in_prefix:
            line = json.dumps([index, self.workload.canonical(op, result)], sort_keys=True)
            self.digest.update(line.encode() + b"\n")
            self.digest_ops += 1

    def record_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted,
            "failures_by_check": dict(self.by_check),
            "failure_examples": self.examples,
            "digest": {"sha256": self.digest.hexdigest(), "ops": self.digest_ops},
        }


def time_op(run, *args):
    """Call ``run(*args)``; returns (seconds, result, exception or None)."""
    t0 = time.perf_counter()
    try:
        result = run(*args)
    except Exception as exc:  # an op that raises is counted, not fatal
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


def prefix_ops(workload):
    return [op for r in range(workload.prefix_rounds) for op in workload.round(r)]


def timed_run(workload, seconds, env):
    raw_setup, setup = measure_setup(workload, env)
    tally = Tally(workload)
    cal = calibration.compute() if workload.in_process else calibration.interpreter(env)
    # compact arrays, so the bookkeeping barely moves peak_rss_mb
    starts, times = array("d"), array("d")
    start = time.perf_counter()
    r = 0
    while (
        r < workload.prefix_rounds or len(times) < MIN_OPS or time.perf_counter() - start < seconds
    ):
        for op in workload.round(r):
            cal.maybe_sample()
            starts.append(time.perf_counter())
            dt, result, exc = time_op(workload.run, op)
            times.append(dt)
            tally.record(len(times) - 1, op, result, exc, r < workload.prefix_rounds)
        r += 1
    cal.sample()
    wall = time.perf_counter() - start
    scaled = array("d", (dt * cal.scale(t) for t, dt in zip(starts, times)))
    p90 = statistics.quantiles(scaled, n=10)[8]
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup),
        **latency_metrics(scaled),
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    record = {
        "rounds": r,
        "samples": {"ops": len(times), "beyond_p90": sum(t > p90 for t in scaled), "setup": len(setup)},
        "raw": {"setup_s": statistics.median(raw_setup), **latency_metrics(times)},
        "calibration": cal.summary(),
        "wall_s": wall,
        "untraced_op_s": sum(times),
        "traced_op_s": None,
    }
    return metrics, tally, record


def layer_units() -> dict[str, str]:
    names = tracing.layer_metric_names() + ["classify.candidates", "cli.interpreter_ms", "cli.import_ms"]
    units = {name: "ms" if name.endswith("_ms") else "count" for name in names}
    units.update({"classify.hit_ratio": "ratio", "trace.overhead_ratio": "ratio"})
    return units


def traced_run(workload):
    ops = prefix_ops(workload)
    untraced = sum(time_op(workload.run, op)[0] for op in ops)
    tracer = tracing.Tracer()
    tally = Tally(workload)
    # a workload that runs ops in child processes traces them there
    run_traced = getattr(workload, "run_traced", None)
    traced = 0.0
    tracer.install()
    try:
        for i, op in enumerate(ops):
            if run_traced is not None:
                dt, result, exc = time_op(run_traced, op, tracer)
            else:
                tracer.enabled = True
                try:
                    dt, result, exc = time_op(workload.run, op)
                finally:
                    tracer.enabled = False
            traced += dt
            tally.record(i, op, result, exc, True)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / untraced
    metrics = {name: (values[name], unit) for name, unit in layer_units().items()}
    record = {"samples": {"ops": len(ops)}, "untraced_op_s": untraced, "traced_op_s": traced}
    return metrics, tally, record


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "instanton_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, tally, record = traced_run(workload)
    else:
        metrics, tally, record = timed_run(workload, args.seconds, workloads.child_env())
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        # without a bytecode cache every fresh interpreter compiles the package
        "bytecode_cache": not sys.dont_write_bytecode,
        "commit": commit(),
        "src_sha256": source_digest(),
        **tally.record_json(),
    })
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
