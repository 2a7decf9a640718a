"""The four workloads of the instanton-lab benchmark.

Each workload is a closed loop with one caller: an op is issued only after the
previous one returned.  Ops come in rounds.  Round ``r`` of a workload is a
pure function of ``(seed, r)`` and covers every stratum of the workload once
(each box and family, catalog entry or CLI command), with the seed drawing
the parameters and the order.  The runner always finishes the round it
started, so runs differ in draws, not in mix.

A workload provides:

* ``in_process`` -- whether ops run in this process or in child processes;
* ``prefix_rounds`` -- the rounds behind the digest and the traced op list;
* ``specs`` -- the catalog constructors it needs, ``(name, args)`` pairs that
  the set-up probe replays in a fresh interpreter;
* ``round(r)`` -- the ops of round ``r``;
* ``run(op)`` -- the timed call into the library;
* ``check(op, result)`` -- a list of :class:`Finding`; empty means correct;
* ``canonical(op, result)`` -- the JSON-able result hashed into the digest;
* optionally ``run_traced(op, tracer)`` -- ``run`` with the layers traced in
  the child process.

The checkers compare against references that do not share the code path
under test: closed-form classification families, Euler-characteristic
polynomials, an independent evaluation of the instanton condition list, and
the in-process library result for CLI calls.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor
from pathlib import Path

from instanton_lab import catalog, chow, classify, cohomology, instanton, monads, rr
from instanton_lab.errors import UnknownVarietyError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROBE = BENCH_DIR / "cli_probe.py"
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Finding:
    """One failed check.  ``known`` marks a documented defect of the program:
    the op counts as failed, but the run stays ``correct``."""

    check: str
    message: str
    known: bool = False


def make_entry(spec):
    name, args = spec
    return getattr(catalog, name)(*args)


def _rng(workload: str, seed: int, part) -> random.Random:
    # str seeds hash through SHA-512, so draws repeat across interpreters
    return random.Random(f"{workload}:{seed}:{part}")


def _draw_bundles(rng, entry, count, lo, hi):
    return tuple(
        (tuple(rng.randint(lo, hi) for _ in range(entry.picard_rank())), rng.randint(1, 2))
        for _ in range(count)
    )


def reference_admissible(table) -> tuple[tuple[int, int], ...]:
    """The instanton condition list evaluated directly from its definition."""
    n, h = table.dimension, table.h
    out = []
    for d in (0, 1):
        zeros = [(0, -1), (n, d - n)]
        zeros += [(i, -(i + 1)) for i in range(1, n - 1)]
        zeros += [(n - i, d - n + i) for i in range(1, n - 1)]
        if d:
            zeros += [(i, -i) for i in range(2, n - 1)]
        if any(h(i, t) for i, t in zeros) or h(1, -1) != h(n - 1, d - n):
            continue
        if d and table.chi_at(0) != (-1) ** n * table.chi_at(-n):
            continue
        out.append((d, h(1, -1)))
    return tuple(out)


def chi_pn(n: int, t: int) -> int:
    """chi(O(t)) on P^n, the polynomial binom(t + n, n)."""
    num = 1
    for k in range(1, n + 1):
        num *= t + k
    return num // factorial(n)


# --------------------------------------------------------------------------
# lattice_scan
# --------------------------------------------------------------------------


def expected_lines(family: str, box: int, defect: int) -> set[tuple[tuple[int, ...], int]]:
    """Closed-form members, including the a = 0 boundary member, inside the box."""
    if family == "flag":
        return {
            ((-a, a + 2 - defect), (2 - defect) * a * (a + 2 - defect) // 2)
            for a in range(box + 1)
            if a + 2 - defect <= box
        }
    if defect:
        return set()
    return {(tuple(sorted((-a, 1, 2 + a))), a * (a + 2)) for a in range(box + 1) if 2 + a <= box}


class LatticeScan:
    in_process = True
    name = "lattice_scan"
    prefix_rounds = 1
    specs = (("flag3", ()), ("triple_p1", ()))
    BOXES = range(4, 11)

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r):
        grid = [(f, b, d) for f in ("flag", "segre") for b in self.BOXES for d in (0, 1)]
        _rng(self.name, self.seed, r).shuffle(grid)
        return grid

    def run(self, op):
        family, box, defect = op
        if family == "flag":
            return classify.classify_flag_lines(box, defect)
        return classify.classify_segre_lines(box, defect)

    def check(self, op, report):
        family, box, defect = op
        expected = expected_lines(family, box, defect)
        found = {(f.coordinates, f.quantum) for f in report.found}
        out = []
        if found != expected or any(f.defect != defect for f in report.found):
            out.append(Finding(
                "classification_members",
                f"{op}: missing {sorted(expected - found)}, extra {sorted(found - expected)}",
            ))
        boundary = any(0 in coords for coords, _ in expected)
        agreement = "superset" if boundary else "exact"
        if report.agreement != agreement or not report.quantum_formula_ok:
            out.append(Finding("classification_agreement", f"{op}: {report.agreement}"))
        return out

    def canonical(self, op, report):
        return report.to_json()


# --------------------------------------------------------------------------
# chern_rr
# --------------------------------------------------------------------------


class ChernRR:
    in_process = True
    name = "chern_rr"
    prefix_rounds = 20

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(self.name, seed, "catalog")
        self.specs = (
            ("projective_space", (2,)),
            ("projective_space", (3,)),
            ("projective_space", (3, 2)),
            ("quadric", (2,)),
            ("quadric", (3,)),
            ("flag3", ()),
            ("triple_p1", ()),
            ("scroll_p1", (tuple(rng.randint(1, 3) for _ in range(2)),)),
            ("scroll_p1", (tuple(rng.randint(1, 2) for _ in range(3)),)),
            ("curve", (0, rng.randint(1, 3), "exact_p1")),
            ("curve", (rng.randint(1, 3), rng.randint(1, 4), "generic")),
            ("prime_fano", (rng.randint(3, 12),)),
        )
        self.entries = [make_entry(s) for s in self.specs]
        # h-degree of each divisor generator, for the additive slope reference
        self.gen_degrees = [
            [chow.integrate(g * e.h_power(e.dimension - 1)) for g in e.ring.gens()]
            for e in self.entries
        ]
        self.hn = [e.hn() for e in self.entries]

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        ops = [
            (i, _draw_bundles(rng, e, k, -2, 2))
            for i, e in enumerate(self.entries)
            for k in (1, 2)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        i, bundles = op
        entry = self.entries[i]
        c = rr.chern_of_line_bundle_sum(
            [(catalog.line_bundle_class(entry, coords), m) for coords, m in bundles]
        )
        chis = [rr.chi_twisted(entry, c, t) for t in range(-entry.dimension, 1)]
        return c, chis, rr.slope(entry, c), rr.normalization_twist(entry, c)

    def check(self, op, result):
        i, bundles = op
        entry = self.entries[i]
        c, chis, slope, t_norm = result
        n = entry.dimension
        out = []
        table = cohomology.build_table(entry, list(bundles), (-n, 0), with_chern=False)
        engine = [table.chi_at(t) for t in range(-n, 1)]
        if chis != engine:
            out.append(Finding("chi_rr_vs_engine", f"{entry.variety_id} {bundles}: RR {chis} != engine {engine}"))
        rank = sum(m for _, m in bundles)
        c1 = [sum(m * coords[j] for coords, m in bundles) for j in range(entry.picard_rank())]
        got_c1 = [c.c1.coefficient(tuple(int(k == j) for k in range(len(c1)))) for j in range(len(c1))]
        if c.rank != rank or got_c1 != c1:
            out.append(Finding("chern_c1", f"{entry.variety_id} {bundles}: rank {c.rank}, c1 {got_c1} != {c1}"))
        ref_slope = Fraction(sum(x * d for x, d in zip(c1, self.gen_degrees[i])), rank)
        if slope != ref_slope:
            out.append(Finding("slope", f"{entry.variety_id} {bundles}: {slope} != {ref_slope}"))
        if t_norm != floor(-ref_slope / self.hn[i]):
            out.append(Finding("normalization_twist", f"{entry.variety_id} {bundles}: {t_norm}"))
        return out

    def canonical(self, op, result):
        c, chis, slope, t_norm = result
        return {"chern": c.to_json(), "chi": chis, "slope": str(slope), "t_norm": t_norm}


# --------------------------------------------------------------------------
# table_io
# --------------------------------------------------------------------------


class TableIO:
    in_process = True
    name = "table_io"
    prefix_rounds = 40

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(self.name, seed, "catalog")
        scrolls = [("scroll_p1", (tuple(rng.randint(1, 3) for _ in range(n)),)) for n in range(2, 7)]
        self.specs = tuple(scrolls) + (
            ("projective_space", (4,)),
            ("quadric", (4,)),
            ("curve", (0, rng.randint(1, 3), "exact_p1")),
            ("curve", (rng.randint(1, 3), rng.randint(1, 4), "generic")),
        )
        self.entries = [make_entry(s) for s in self.specs]

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        ops = []
        for i, e in enumerate(self.entries):
            w = rng.randint(6, 9)
            bundles = _draw_bundles(rng, e, rng.randint(1, 2), -1, 1)
            ops.append((i, bundles, (-e.dimension - w, w)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        i, bundles, window = op
        entry = self.entries[i]
        table = cohomology.build_table(entry, list(bundles), window)
        verdict = instanton.check_instanton(table)
        try:
            restored = cohomology.CohomologyTable.from_json(json.loads(json.dumps(table.to_json())))
        except UnknownVarietyError as exc:
            restored = exc
        chi_line = None
        if entry.kind == "scroll_p1":
            chi_line = [
                sum(m * cohomology.chi_scroll_line(entry, t + co[0], co[1]) for co, m in bundles)
                for t in table.twists()
            ]
        return table, verdict, restored, chi_line

    def reference_chi(self, entry, bundles, t):
        if entry.kind == "projective_space":
            return sum(m * chi_pn(entry.dimension, co[0] + t) for co, m in bundles)
        if entry.kind == "quadric":
            n = entry.dimension
            return sum(m * (chi_pn(n + 1, co[0] + t) - chi_pn(n + 1, co[0] + t - 2)) for co, m in bundles)
        # curves: Riemann-Roch, deg + 1 - g
        return sum(m * (co[0] + t * entry.deg_h + 1 - entry.genus) for co, m in bundles)

    def check(self, op, result):
        i, bundles, window = op
        entry = self.entries[i]
        table, verdict, restored, chi_line = result
        out = []
        twists = range(window[0], window[1] + 1)
        if chi_line is None:
            chi_line = [self.reference_chi(entry, bundles, t) for t in twists]
        engine = [row.chi() for row in table.rows]
        if table.twists() != twists or engine != chi_line:
            out.append(Finding("table_chi_rows", f"{entry.variety_id} {bundles}: {engine} != {chi_line}"))
        if verdict.admissible != reference_admissible(table):
            out.append(Finding("instanton_verdict", f"{entry.variety_id} {bundles}: {verdict.admissible}"))
        if isinstance(restored, Exception):
            # The table's id is an entry id; from_json resolves it as a ring id.
            known = (
                str(restored) == f"unknown variety key {table.variety_id!r}"
                and entry.variety_id != entry.ring.variety_id
            )
            out.append(Finding("table_round_trip", f"{type(restored).__name__}: {restored}", known))
        elif restored.to_json() != table.to_json():
            out.append(Finding("table_round_trip", f"{entry.variety_id}: restored table differs"))
        return out

    def canonical(self, op, result):
        table, verdict, _, chi_line = result
        return {"table": table.to_json(), "verdict": verdict.to_json(), "chi_line": chi_line}


# --------------------------------------------------------------------------
# cli_oneshot
# --------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "INSTANTON_LAB_BOX")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _bundle_arg(bundles) -> str:
    return "+".join(",".join(map(str, co)) + (f"^{m}" if m > 1 else "") for co, m in bundles)


class CliOneshot:
    in_process = False
    name = "cli_oneshot"
    prefix_rounds = 2
    # (CLI variety name, catalog spec)
    VARIETIES = {
        "p2": ("projective_space", (2,)),
        "p3": ("projective_space", (3,)),
        "q3": ("quadric", (3,)),
        "flag3": ("flag3", ()),
        "triple-p1": ("triple_p1", ()),
        "scroll-p1:1,1,2": ("scroll_p1", ((1, 1, 2),)),
        "curve:g=2,deg=3": ("curve", (2, 3, "generic")),
    }
    specs = tuple(VARIETIES.values())

    def __init__(self, seed: int):
        self.seed = seed
        self.entries = {name: make_entry(spec) for name, spec in self.VARIETIES.items()}
        self.env = child_env()
        self._expected = {}

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        names = sorted(self.entries)
        # check: half family members (exit 0), half drawn bundles (mostly exit 1)
        if rng.random() < 0.5:
            a = rng.randint(1, 4)
            if rng.random() < 0.5:
                name, coords = "flag3", (-a, a + 2)
            else:
                name, coords = "triple-p1", tuple(rng.sample((-a, 1, a + 2), 3))
            check = ("check", name, ((coords, 1),))
        else:
            name = rng.choice(names)
            check = ("check", name, _draw_bundles(rng, self.entries[name], rng.randint(1, 2), -2, 3))
        name = rng.choice(names)
        n = self.entries[name].dimension
        cohom = ("cohom", name, _draw_bundles(rng, self.entries[name], 1, -2, 2),
                 (-n - rng.randint(1, 3), rng.randint(0, 3)))
        name = rng.choice(names)
        n = self.entries[name].dimension
        chi = ("chi", name, _draw_bundles(rng, self.entries[name], rng.randint(1, 2), -2, 2),
               rng.randint(-n - 1, 1))
        flag = ("classify", rng.randint(0, 1))
        n, d, q = rng.randint(2, 4), rng.randint(0, 1), rng.randint(0, 3)
        rank = 2 * rng.randint(1, 2)
        if d == 0:
            chi0, extra = rank - (n - 1) * q, ()
        else:
            chi0 = rank // 2 - (n if n >= 3 else 1) * q
            extra = (max(chi0, 0) + rng.randint(0, 2), max(chi0, 0) + rng.randint(0, 2))
        monad = ("monad", n, d, q, chi0, extra)
        ops = [check, cohom, chi, flag, monad]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        kind = op[0]
        if kind == "check":
            return ["check", "--variety", op[1], "--bundle", _bundle_arg(op[2]), "--json"]
        if kind == "cohom":
            return ["cohom", "--variety", op[1], "--bundle", _bundle_arg(op[2]),
                    "--window", f"{op[3][0]}:{op[3][1]}", "--json"]
        if kind == "chi":
            return ["chi", "--variety", op[1], "--bundle", _bundle_arg(op[2]),
                    "--twist", str(op[3]), "--json"]
        if kind == "classify":
            return ["classify", "flag", "--box", "6", "--defect", str(op[1]), "--json"]
        _, n, d, q, chi0, extra = op
        out = ["monad", "pn", "--n", str(n), "--defect", str(d), "--quantum", str(q),
               "--chi0", str(chi0), "--json"]
        if extra:
            out += ["--h0", str(extra[0]), "--hn", str(extra[1])]
        return out

    def expected(self, op) -> tuple[int, object]:
        """(exit code, JSON payload) of the same request made in-process."""
        if op in self._expected:
            return self._expected[op]
        kind = op[0]
        if kind in ("check", "cohom", "chi"):
            entry = self.entries[op[1]]
            n = entry.dimension
            window = op[3] if kind == "cohom" else (-n - 1, 1)
            table = cohomology.build_table(entry, list(op[2]), window)
        if kind == "check":
            verdict = instanton.check_instanton(table)
            result = (0 if verdict.passes() else 1, verdict.to_json())
        elif kind == "cohom":
            result = (0, table.to_json())
        elif kind == "chi":
            t = op[3]
            chi = rr.chi_twisted(entry, table.chern, t)
            result = (0, {"twist": t, "chi": chi, "routes": ["engine", "riemann_roch"]})
        elif kind == "classify":
            report = classify.classify_flag_lines(6, op[1])
            result = (0 if report.agreement in ("exact", "superset") else 1, report.to_json())
        else:
            _, n, d, q, chi0, extra = op
            result = (0, monads.monad_pn(n, d, q, chi0, *extra).to_json())
        result = (result[0], json.loads(json.dumps(result[1])))
        self._expected[op] = result
        return result

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "instanton_lab.cli", *self.argv(op)],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, op, tracer):
        """The op through ``cli_probe.py``; the child's layers go into ``tracer``."""
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd) as fh:
            t_spawn = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(PROBE), str(write_fd), str(SRC), *self.argv(op)],
                    env=self.env, cwd=ROOT, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S, pass_fds=(write_fd,),
                )
            finally:
                os.close(write_fd)
            report = json.load(fh)
        tracer.cli_interpreter_s += report["t0"] - t_spawn
        tracer.cli_import_s += report["t1"] - report["t0"]
        tracer.merge(report["stats"])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result):
        code, stdout, stderr = result
        want_code, want_json = self.expected(op)
        out = []
        if code != want_code:
            out.append(Finding("exit_code", f"{self.argv(op)}: exit {code} != {want_code}: {stderr.strip()}"))
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            got = None
        if got != want_json:
            out.append(Finding("json_output", f"{self.argv(op)}: output differs from the library result"))
        return out

    def canonical(self, op, result):
        return {"argv": self.argv(op), "exit": result[0], "json": json.loads(result[1])}


WORKLOADS = {w.name: w for w in (LatticeScan, ChernRR, TableIO, CliOneshot)}

