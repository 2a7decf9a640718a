"""Command-line front-end.

Subcommands: cohom, check, chi, monad, classify {flag|segre|cyclic},
stability, scroll, fano, resolution-check, veronese.  Output is exact
(integers, or rationals rendered ``p/q``) in markdown-ish text or JSON.
Exit codes: 0 success / verdict-positive, 1 verdict-negative or
classification mismatch, 2 input or window errors.  The environment variable
``INSTANTON_LAB_BOX`` overrides the default enumeration box.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, classify, instanton, monads, rr
from .cohomology import CohomologyTable, build_table
from .errors import InstantonLabError, UnknownVarietyError, WindowError
from .instanton import BettiShape, chi_polynomial
from .util import render_rational

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def parse_bundle(entry, text: str) -> tuple[list[tuple[tuple[int, ...], int]], bool]:
    """Parse a bundle descriptor into (coordinates, multiplicity) summands.

    Summands are '+'-separated, each ``COORDS`` or ``COORDS^MULT``; COORDS is
    a comma tuple in the entry's divisor basis, or ``O:t`` on cyclic entries,
    ``h:t`` / ``h:t,f:a`` on scrolls, ``theta:s`` on curves.  All summands of
    a curve bundle must agree on theta-ness.
    """
    summands: list[tuple[tuple[int, ...], int]] = []
    thetas: set[bool] = set()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        mult = 1
        if "^" in chunk:
            chunk, _, m = chunk.rpartition("^")
            mult = int(m)
        theta = False
        if chunk.lower().startswith("theta:"):
            theta = True
            coords: tuple[int, ...] = (int(chunk.split(":", 1)[1]),)
        elif chunk.lower().startswith("o:"):
            coords = (int(chunk.split(":", 1)[1]),)
        elif chunk.lower().startswith("h:"):
            body = dict(p.split(":") for p in chunk.lower().split(","))
            coords = (int(body["h"]), int(body.get("f", 0)))
        else:
            coords = tuple(int(x) for x in chunk.split(","))
        summands.append((catalog.check_coords(entry, coords), mult))
        thetas.add(theta)
    if len(thetas) > 1:
        raise ValueError("cannot mix theta and plain summands in one bundle")
    return summands, thetas.pop()


def parse_window(text: str) -> tuple[int, int]:
    a, _, b = text.partition(":")
    lo, hi = int(a), int(b)
    if lo > hi:
        raise ValueError(f"window {text!r} has tmin > tmax")
    return lo, hi


def render_table(table: CohomologyTable) -> str:
    n = table.dimension
    head = "| t | " + " | ".join(f"h^{i}" for i in range(n + 1)) + " | chi |"
    sep = "|" + "---|" * (n + 3)
    lines = [
        f"variety: {table.variety_id}   rank: {table.rank}   window: [{table.tmin}, {table.tmax}]",
        head,
        sep,
    ]
    for t in table.twists():
        row = table.row(t)
        lines.append(f"| {t} | " + " | ".join(str(v) for v in row.dims) + f" | {row.chi()} |")
    for a in table.assumptions:
        lines.append(f"(assumption: {a})")
    return "\n".join(lines)


def _emit(args, payload_json: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload_json, indent=2, sort_keys=True))
    else:
        print(text)


def _default_box(args) -> int:
    if args.box is not None:
        return args.box
    env = os.environ.get("INSTANTON_LAB_BOX")
    if env:
        return int(env)
    return classify.DEFAULT_BOX


def _table_from_args(args) -> tuple[CohomologyTable, object]:
    entry = catalog.parse_variety(args.variety)
    bundles, theta = parse_bundle(entry, args.bundle)
    n = entry.dimension
    window = parse_window(args.window) if args.window else (-n - 1, 1)
    table = build_table(entry, bundles, window, theta=theta)
    return table, entry


def cmd_cohom(args) -> int:
    table, _ = _table_from_args(args)
    _emit(args, table.to_json(), render_table(table))
    return EXIT_OK


def cmd_check(args) -> int:
    if args.table:
        with open(args.table) as fh:
            table = CohomologyTable.from_json(json.load(fh))
    else:
        table, _ = _table_from_args(args)
    verdict = instanton.check_instanton(table)
    pairs = str(list(verdict.admissible)) if verdict.admissible else "none"
    text = [f"admissible (defect, quantum) pairs: {pairs}"]
    text.append(
        f"ulrich: {verdict.is_ulrich}   wic: {verdict.is_wic}   natural: {verdict.natural_window}"
    )
    for note in verdict.notes:
        text.append(f"  {note}")
    _emit(args, verdict.to_json(), "\n".join(text))
    ok = verdict.passes(args.defect if args.defect is not None else None)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_chi(args) -> int:
    table, entry = _table_from_args(args)
    t = args.twist
    engine = table.chi_at(t) if table.covers(t, t) else None
    values = {}
    if engine is not None:
        values["engine"] = engine
    if table.chern is not None and entry.dimension <= 3:
        values["riemann_roch"] = rr.chi_twisted(entry, table.chern, t)
    if not values:
        raise InstantonLabError("no chi route available (window too small, no Chern data)")
    if len(values) == 2 and values["engine"] != values["riemann_roch"]:
        raise InstantonLabError(f"engine and Riemann-Roch disagree: {values}")
    val = next(iter(values.values()))
    _emit(args, {"twist": t, "chi": val, "routes": list(values)}, f"chi(E({t}h)) = {val}")
    return EXIT_OK


def cmd_monad(args) -> int:
    kind = args.monad_kind
    if kind == "pn":
        chi0 = args.chi0
        if chi0 is None:
            if args.rank is None:
                raise InstantonLabError("need --chi0 or --rank")
            if args.defect == 0:
                chi0 = args.rank - (args.n - 1) * args.quantum
            else:
                if args.rank % 2:
                    raise InstantonLabError("non-ordinary rank must be even")
                chi0 = args.rank // 2 - (args.n if args.n >= 3 else 1) * args.quantum
        shape = monads.monad_pn(args.n, args.defect, args.quantum, chi0, args.h0, args.hn)
        _emit(args, shape.to_json(), shape.to_markdown())
        return EXIT_OK
    if kind == "acm":
        entry = catalog.parse_variety(args.variety)
        shape = monads.monad_acm(entry, args.defect, args.quantum, args.h1 or 0, args.hn1 or 0)
        _emit(args, shape.to_json(), shape.to_markdown())
        return EXIT_OK
    if kind == "quadric":
        result = monads.monad_quadric_ordinary(args.n, args.rank, args.quantum)
        payload = {"s_total": result.total, "split": result.split}
        text = f"spinor multiplicity s = {result.total}"
        if args.n % 2 == 0:
            text += " (s' + s''; split undetermined without spinor pairings)"
        else:
            shape = monads.monad_quadric_ordinary_shape(args.n, args.rank, args.quantum)
            text += "\n" + shape.to_markdown()
        _emit(args, payload, text)
        return EXIT_OK
    if kind == "space1":
        shape = monads.monad_space_nonordinary(args.n, args.rank, args.quantum, args.a, args.c)
        _emit(args, shape.to_json(), shape.to_markdown())
        return EXIT_OK
    if kind == "quadric1":
        s = monads.monad_quadric_nonordinary(args.n, args.rank, args.quantum, args.a, args.c, args.b)
        shape = monads.monad_quadric_nonordinary_shape(
            args.n, args.rank, args.quantum, args.a, args.c, args.b
        )
        _emit(args, {"s": s, **shape.to_json()}, shape.to_markdown())
        return EXIT_OK
    if kind == "scroll3":
        inputs = tuple(int(x) for x in args.inputs.split(","))
        report = monads.monad_scroll3(args.deg, args.rank, args.quantum, inputs)
        _emit(
            args,
            {"multiplicities": list(report.multiplicities), "relation": report.relation},
            f"(s1, s2, s3) = {report.multiplicities}   [{report.relation}]",
        )
        return EXIT_OK
    if kind == "p1p3":
        inputs = tuple(int(x) for x in args.inputs.split(","))
        report = monads.monad_p1p3(args.rank, args.quantum, inputs)
        _emit(
            args,
            {"multiplicities": list(report.multiplicities), "relation": report.relation},
            f"(s1, s2, s3, s4) = {report.multiplicities}   [{report.relation}]",
        )
        return EXIT_OK
    raise InstantonLabError(f"unknown monad kind {kind}")


def cmd_classify(args) -> int:
    target = args.target
    if target == "flag":
        report = classify.classify_flag_lines(_default_box(args), args.defect)
    elif target == "segre":
        report = classify.classify_segre_lines(_default_box(args), args.defect)
    elif target == "cyclic":
        decision = classify.classify_cyclic_lines(args.n, args.u, args.v, args.defect)
        payload = {
            "assertion": decision.assertion,
            "witness": decision.witness,
            "steps": list(decision.steps),
        }
        text = [f"assertion: {decision.assertion}   witness: " + (
            f"O({decision.witness}H)" if decision.witness is not None else "none")]
        text.extend(f"  {s}" for s in decision.steps)
        _emit(args, payload, "\n".join(text))
        return EXIT_OK if decision.assertion is not None else EXIT_NEGATIVE
    else:
        raise InstantonLabError(f"unknown classification target {target}")
    _emit(args, report.to_json(), report.to_markdown())
    return EXIT_OK if report.agreement in ("exact", "superset") else EXIT_NEGATIVE


def cmd_stability(args) -> int:
    report = classify.cyclic_rank2_stability_cases(args.n, args.u, args.v, args.defect)
    lines = [
        f"c1 = {report.eps} H, normalization twist {report.t_norm}",
        f"mu-semistable guaranteed: {report.semistable_guaranteed}"
        + (f" (exception {report.exception_semistable})" if report.exception_semistable else ""),
        f"mu-stable guaranteed (given semistable): {report.stable_guaranteed}"
        + (f" (exception {report.exception_stable})" if report.exception_stable else ""),
    ]
    payload = report.to_json()
    if args.h0_norm is not None:
        verdict = classify.hoppe_rank2_from_eps(report.eps, args.h0_norm, args.h0_norm_minus)
        lines.append(f"section criterion: {verdict.status} ({verdict.rule})")
        payload["section_criterion"] = verdict.to_json()
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_scroll(args) -> int:
    if args.degrees:
        scroll: object = tuple(int(x) for x in args.degrees.split(","))
    else:
        scroll = catalog.scroll_generic(args.n, args.genus, args.deg)
    report = classify.scroll_construction_report(scroll, args.k)
    text = [
        f"scroll {report.variety_id}: k = {report.k}",
        f"quantum number (chi-additivity): {report.quantum}"
        + ("  [exact]" if report.exact else "  [chi-level]"),
        f"decomposable: {report.decomposable}"
        + (f" ({report.splitting})" if report.splitting else ""),
        f"h^1(E (x) E^v) = {report.h1_end}",
    ]
    if report.h1_end_ulrich_pair is not None:
        text.append(f"non-split Ulrich pair variant: h^1(End) = {report.h1_end_ulrich_pair}")
    _emit(args, report.to_json(), "\n".join(text))
    return EXIT_OK


def cmd_fano(args) -> int:
    report = classify.fano_instanton_bridge(args.index, args.defect, args.epsilon)
    text = [
        f"q_X^eps = {report.q_eps}, normalization twist {report.t_norm}",
        f"forward (instanton -> classical): case {report.forward_case}"
        + (f", requires {report.forward_extra_vanishing}" if report.forward_extra_vanishing else ""),
        f"backward (classical -> instanton): case {report.backward_case}"
        + (f", requires {report.backward_extra_vanishing}" if report.backward_extra_vanishing else ""),
    ]
    _emit(args, report.to_json(), "\n".join(text))
    return EXIT_OK


def cmd_resolution_check(args) -> int:
    beta: dict[tuple[int, int], int] = {}
    for chunk in filter(None, (args.beta or "").split(";")):
        pos, _, mult = chunk.partition(":")
        p, i = (int(x) for x in pos.split(","))
        beta[(p, i)] = int(mult)
    shape = BettiShape.from_dict(args.v, args.w, args.ambient, beta)
    ok = instanton.betti_shape_check(
        shape, lambda t: chi_polynomial(args.n, args.defect, args.quantum, args.chi0, t)
    )
    _emit(args, {"consistent": ok}, f"resolution shape consistent: {ok}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_veronese(args) -> int:
    q = instanton.veronese_quantum(args.n, args.rank, args.d, args.hn)
    payload = {"quantum": render_rational(q), "integral": q.denominator == 1}
    _emit(args, payload, f"quantum number: {render_rational(q)}"
          + ("" if q.denominator == 1 else "  (non-integral: infeasible)"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--box", type=int, default=None, help="enumeration box half-width")
    common.add_argument("--window", type=str, default=None, help="twist window a:b")

    parser = argparse.ArgumentParser(
        prog="instanton-lab",
        description="Exact cohomology, Chow-ring and instanton-sheaf computations on a fixed variety catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohom", parents=[common], help="cohomology table of a line-bundle sum")
    p.add_argument("--variety", required=True)
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=cmd_cohom)

    p = sub.add_parser("check", parents=[common], help="run the instanton condition list")
    p.add_argument("--variety")
    p.add_argument("--bundle")
    p.add_argument("--table", help="JSON table file instead of --variety/--bundle")
    p.add_argument("--defect", type=int, choices=(0, 1), default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("chi", parents=[common], help="exact Euler characteristic")
    p.add_argument("--variety", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("monad", parents=[common], help="synthesize monad shapes")
    msub = p.add_subparsers(dest="monad_kind", required=True)
    mp = msub.add_parser("pn", parents=[common])
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--defect", type=int, choices=(0, 1), required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.add_argument("--rank", type=int)
    mp.add_argument("--chi0", type=int)
    mp.add_argument("--h0", type=int, help="h^0(E), non-ordinary only")
    mp.add_argument("--hn", type=int, help="h^n(E(-n)), non-ordinary only")
    mp.set_defaults(func=cmd_monad)
    mp = msub.add_parser("acm", parents=[common])
    mp.add_argument("--variety", required=True)
    mp.add_argument("--defect", type=int, choices=(0, 1), required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.add_argument("--h1", type=int, help="h^1(E), defect 1 only")
    mp.add_argument("--hn1", type=int, help="h^(n-1)(E(-n h)), defect 1 only")
    mp.set_defaults(func=cmd_monad)
    mp = msub.add_parser("quadric", parents=[common])
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--rank", type=int, required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.set_defaults(func=cmd_monad)
    mp = msub.add_parser("space1", parents=[common])
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--rank", type=int, required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.add_argument("--a", type=int, default=0)
    mp.add_argument("--c", type=int, default=0)
    mp.set_defaults(func=cmd_monad)
    mp = msub.add_parser("quadric1", parents=[common])
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--rank", type=int, required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.add_argument("--a", type=int, default=0)
    mp.add_argument("--c", type=int, default=0)
    mp.add_argument("--b", type=int, default=0)
    mp.set_defaults(func=cmd_monad)
    mp = msub.add_parser("scroll3", parents=[common])
    mp.add_argument("--deg", type=int, required=True)
    mp.add_argument("--rank", type=int, required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.add_argument("--inputs", required=True, help="comma list x1,x2,x3")
    mp.set_defaults(func=cmd_monad)
    mp = msub.add_parser("p1p3", parents=[common])
    mp.add_argument("--rank", type=int, required=True)
    mp.add_argument("--quantum", type=int, required=True)
    mp.add_argument("--inputs", required=True, help="comma list x1,x2,x3,x4")
    mp.set_defaults(func=cmd_monad)

    p = sub.add_parser("classify", parents=[common], help="brute-force classification runs")
    p.add_argument("target", choices=("flag", "segre", "cyclic"))
    p.add_argument("--defect", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--v", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stability", parents=[common], help="rank-two stability case analysis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=int, default=1)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--defect", type=int, choices=(0, 1), required=True)
    p.add_argument("--h0-norm", dest="h0_norm", type=int)
    p.add_argument("--h0-norm-minus", dest="h0_norm_minus", type=int)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("scroll", parents=[common], help="rank-two scroll construction report")
    p.add_argument("--degrees", help="split degrees, e.g. 1,1,1")
    p.add_argument("--n", type=int)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--deg", type=int)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_scroll)

    p = sub.add_parser("fano", parents=[common], help="classical-instanton bridge on Fano 3-folds")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--defect", type=int, choices=(0, 1), required=True)
    p.add_argument("--epsilon", type=int, choices=(0, 1), required=True)
    p.set_defaults(func=cmd_fano)

    p = sub.add_parser("resolution-check", parents=[common], help="Betti-shape consistency check")
    p.add_argument("--ambient", type=int, required=True, help="ambient projective dimension N")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--beta", type=str, required=True, help="semicolon list p,i:mult")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--defect", type=int, choices=(0, 1), required=True)
    p.add_argument("--quantum", type=int, required=True)
    p.add_argument("--chi0", type=int, required=True)
    p.set_defaults(func=cmd_resolution_check)

    p = sub.add_parser("veronese", parents=[common], help="quantum number of the d-th polarization twist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--hn", type=int, required=True)
    p.set_defaults(func=cmd_veronese)

    return parser


#: flags whose values may start with '-' without being negative integers
#: (coordinate tuples, windows, Betti lists); joined as --flag=value so that
#: argparse does not mistake the value for an option
_DASH_VALUE_FLAGS = ("--bundle", "--window", "--beta", "--inputs")


def _preprocess_argv(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_preprocess_argv(list(argv)))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except WindowError as exc:
        print(f"window error: {exc}", file=sys.stderr)
        if exc.missing:
            print(f"missing twists: {list(exc.missing)}", file=sys.stderr)
        return EXIT_INPUT
    except (InstantonLabError, UnknownVarietyError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
