"""Machine-speed calibration for the benchmark's timings.

On shared virtual machines the host's speed changes in phases: on a 2-vCPU
Intel Xeon guest the same op took up to 1.9 times as long for 10 to 25
seconds at a time, and the raw wall-clock figures of a run then depend on
how much of it fell into slow phases.

A fixed kernel that never touches the code under test is timed along the
run.  Each op's wall time is scaled by the kernel's reference time over the
median kernel time measured next to the op, so a timing reads as it would
on a machine where the kernel takes exactly its reference time.  Two kernels
match the two kinds of work:

* :func:`compute`, a pure-Python loop, for ops that run in this process;
* :func:`interpreter`, a bare ``python -c pass`` process, for ops that are
  fresh interpreters (CLI calls and the set-up probe), whose start-up and
  imports slow down with the host differently from in-process compute.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time


def compute_seconds() -> float:
    """Wall time of the pure-Python kernel: tuple keys, dict updates, int arithmetic."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(4000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * 3
    sum(d.values())
    return time.perf_counter() - t0


def interpreter_seconds(env: dict) -> float:
    """Wall time of starting and stopping a bare interpreter with ``env``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


class Calibration:
    """Kernel timings taken along a run, and the scale factors they give.

    ``window`` kernel samples around an op, the one just before it first,
    give its scale; ``interval_s`` is the least time between samples.
    """

    def __init__(self, kernel, ref_s: float, interval_s: float, window: int):
        self.kernel, self.ref_s, self.interval_s, self.window = kernel, ref_s, interval_s, window
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.seconds.append(self.kernel())

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.interval_s:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor that turns a wall time started at ``t`` into calibrated time."""
        lo = max(0, bisect.bisect(self.at, t) - (self.window + 1) // 2)
        return self.ref_s / statistics.median(self.seconds[lo : lo + self.window])

    def summary(self) -> dict:
        return {
            "samples": len(self.seconds),
            "kernel_ms_min": min(self.seconds) * 1000,
            "kernel_ms_median": statistics.median(self.seconds) * 1000,
            "kernel_ms_max": max(self.seconds) * 1000,
        }


def compute() -> Calibration:
    return Calibration(compute_seconds, ref_s=0.001, interval_s=0.02, window=2)


def interpreter(env: dict) -> Calibration:
    return Calibration(lambda: interpreter_seconds(env), ref_s=0.06, interval_s=0.3, window=4)
