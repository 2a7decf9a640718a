"""Traced stand-in for ``python -m instanton_lab.cli``.

Usage: ``python cli_probe.py FD SRC ARGS...``.  Runs the CLI on ARGS with the
layers of ``tracing`` installed and writes one JSON object to the file
descriptor FD: the ``time.perf_counter`` readings at interpreter start-up
done (``t0``) and at the end of the package import (``t1``), and the
tracer's snapshot.  ``perf_counter`` is the system-wide monotonic clock on
Linux, so the parent can subtract its own spawn time from ``t0``.  Exits
with the CLI's exit code.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

fd, src, args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
import instanton_lab.cli as cli  # noqa: E402

T1 = time.perf_counter()

import json  # noqa: E402

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.enabled = True
try:
    code = cli.main(args)
finally:
    tracer.enabled = False
    sys.stdout.flush()
    with os.fdopen(fd, "w") as out:
        json.dump({"t0": T0, "t1": T1, "stats": tracer.snapshot()}, out)
sys.exit(code)
