"""Per-layer counters and self times, recorded from outside the package.

:class:`Tracer` wraps public functions of ``instanton_lab`` in place, so no
code under ``src/`` changes.  Several modules import functions by name (for
example ``classify`` holds its own ``build_table`` binding), so a function is
replaced under every name that refers to it in every loaded package module,
and class attributes are replaced on the class.

Spans are aggregated as they close instead of being kept: a traced run makes
millions of ``chow.multiply`` calls.  A layer's self time is its span's time
minus the time of the traced spans it caused.  Every layer is reported, with
zero calls when the workload never reaches it.
"""

from __future__ import annotations

import sys
import time

#: (layer, defining module, attribute, timed); untimed layers only count calls
LAYERS = (
    ("chow.multiply", "chow", "multiply", True),
    ("chow.integrate", "chow", "integrate", True),
    ("chow.ring_for", "chow", "ring_for", False),
    ("chow.from_json", "chow", "ChowClass.from_json", True),
    ("cohomology.table_from_json", "cohomology", "CohomologyTable.from_json", True),
    ("cohomology.table_to_json", "cohomology", "CohomologyTable.to_json", True),
    ("cohomology.build_table", "cohomology", "build_table", True),
    ("cohomology.line_bundle_cohomology", "cohomology", "line_bundle_cohomology", True),
    ("cohomology.engine.product", "cohomology", "coh_product", True),
    ("cohomology.engine.flag3", "cohomology", "coh_flag3", True),
    ("cohomology.engine.pn", "cohomology", "coh_projective_space", True),
    ("cohomology.engine.quadric", "cohomology", "coh_quadric", True),
    ("cohomology.engine.curve", "cohomology", "coh_curve", True),
    ("cohomology.engine.curve", "cohomology", "coh_curve_theta_shift", True),
    ("cohomology.engine.fano", "cohomology", "coh_cyclic_fano_index1", True),
    ("cohomology.engine.scroll_p1", "cohomology", "coh_scroll_p1", True),
    ("instanton.check_instanton", "instanton", "check_instanton", True),
    ("classify.flag", "classify", "classify_flag_lines", True),
    ("classify.segre", "classify", "classify_segre_lines", True),
    ("rr.chern_of_line_bundle_sum", "rr", "chern_of_line_bundle_sum", True),
    ("rr.chi_twisted", "rr", "chi_twisted", True),
    ("catalog.twist_coords", "catalog", "twist_coords", False),
    ("cli.main", "cli", "main", True),
)

PACKAGE = "instanton_lab"


def layer_metric_names() -> list[str]:
    names = []
    for layer, _, _, timed in LAYERS:
        for name in (f"{layer}.calls", f"{layer}.self_ms") if timed else (f"{layer}.calls",):
            if name not in names:
                names.append(name)
    return names


class Tracer:
    """Wraps the layers while installed; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.calls = {layer: 0 for layer, *_ in LAYERS}
        self.self_s = {layer: 0.0 for layer, _, _, timed in LAYERS if timed}
        self.candidates = 0
        self.found = 0
        self.cli_interpreter_s = 0.0
        self.cli_import_s = 0.0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, timed: bool):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        tracer = self

        if not timed:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    calls[layer] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[layer] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        if not layer.startswith("classify."):
            return spanned

        def classified(*args, **kwargs):
            # every candidate of a scan is one build_table call
            before = calls["cohomology.build_table"]
            report = spanned(*args, **kwargs)
            if tracer.enabled:
                tracer.candidates += calls["cohomology.build_table"] - before
                tracer.found += len(report.found)
            return report

        return classified

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, modname, attr, timed in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            if mod is None:
                continue  # not imported in this process: the layer reads zero
            owner, _, name = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[name]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, raw.__func__, timed))
                else:
                    wrapped = self._wrap(layer, raw, timed)
                self._restore.append((cls, name, raw))
                setattr(cls, name, wrapped)
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(layer, fn, timed)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def merge(self, other: dict) -> None:
        """Add a child process's :meth:`snapshot`."""
        for layer, n in other["calls"].items():
            self.calls[layer] += n
        for layer, s in other["self_s"].items():
            self.self_s[layer] += s
        self.candidates += other["candidates"]
        self.found += other["found"]

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "candidates": self.candidates,
            "found": self.found,
        }

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, n in self.calls.items():
            out[f"{layer}.calls"] = n
        for layer, s in self.self_s.items():
            out[f"{layer}.self_ms"] = s * 1000
        out["classify.candidates"] = self.candidates
        out["classify.hit_ratio"] = self.found / self.candidates if self.candidates else 0.0
        out["cli.interpreter_ms"] = self.cli_interpreter_s * 1000
        out["cli.import_ms"] = self.cli_import_s * 1000
        return out
