"""Command-line front-end.

Subcommands: cohom, check, chi, monad {pn|acm|quadric|space1|quadric1|scroll3|p1p3},
classify {flag|segre|cyclic}, stability, scroll, fano, resolution-check,
veronese.  Output is exact (integers, or rationals rendered ``p/q``) in
markdown-ish text, or JSON with ``--json``.  Each group declares its leaves,
and each leaf only the options its handler reads, when a parse reaches it;
a leaf names its handler with ``set_defaults``.  argparse does the dispatch
and rejects any other option: ``--json`` goes after the leaf, ``--window`` belongs to cohom, check
and chi, ``--box`` to classify flag and segre.  Exit codes: 0 success / verdict-positive,
1 verdict-negative or classification mismatch, 2 input or window errors
(missing, conflicting or unrecognized options included), 3 an internal error,
with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable

# Only the modules every leaf runs are imported here: errors, util and the
# standard library.  Each handler imports catalog, cohomology, rr, instanton, monads,
# classify or replays where it calls them, so a call compiles no module
# its subcommand does not run (`monad pn` compiles monads alone).
from .errors import InstantonLabError, MalformedDataError, WindowError
from .util import parse_int

if TYPE_CHECKING:
    from .classify import ClassificationReport
    from .cohomology import CohomologyTable
    from .monads import ScrollMonadReport

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def parse_bundle(entry, text: str) -> list[tuple[tuple[int, ...], int]]:
    """Parse a bundle descriptor into (coordinates, multiplicity) summands of ints.

    Summands are '+'-separated, each ``COORDS`` or ``COORDS^MULT``; COORDS is
    a comma tuple in the entry's divisor basis, or ``O:t`` on cyclic entries,
    ``h:t`` / ``h:t,f:a`` on scrolls, ``theta:s`` on curves: the degree of
    :func:`catalog.theta_coords`, so theta and plain summands mix freely.
    :func:`cohomology.build_table` checks each summand's coordinates against the entry.
    """
    from . import catalog

    summands: list[tuple[tuple[int, ...], int]] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        mult = 1
        if "^" in chunk:
            chunk, _, m = chunk.rpartition("^")
            mult = parse_int(m)
        if chunk.lower().startswith("theta:"):
            coords: tuple[int, ...] = catalog.theta_coords(entry, parse_int(chunk.split(":", 1)[1]))
        elif chunk.lower().startswith("o:"):
            coords = (parse_int(chunk.split(":", 1)[1]),)
        elif chunk.lower().startswith("h:"):
            pairs = [p.split(":") for p in chunk.lower().split(",")]
            if any(len(pair) != 2 for pair in pairs):
                raise MalformedDataError(f"{chunk!r} is not of the form h:t or h:t,f:a")
            body = dict(pairs)
            gens = entry.ring.generators
            if not body.keys() <= set(gens):
                raise MalformedDataError(f"{entry.variety_id} has divisor classes {gens}, not {tuple(body)}")
            coords = tuple(parse_int(body.get(g, 0)) for g in gens)
        else:
            coords = tuple(map(parse_int, chunk.split(",")))
        summands.append((coords, mult))
    return summands


def parse_window(text: str) -> tuple[int, int]:
    """``TMIN:TMAX`` as two ints; :func:`cohomology.build_table` refuses a reversed window."""
    a, _, b = text.partition(":")
    try:
        return int(a), int(b)
    except ValueError:
        raise MalformedDataError(f"window {text!r} is not of the form TMIN:TMAX") from None


def render_table(table: CohomologyTable) -> str:
    n = table.dimension
    head = "| t | " + " | ".join(f"h^{i}" for i in range(n + 1)) + " | chi |"
    sep = "|" + "---|" * (n + 3)
    lines = [
        f"variety: {table.variety_id}   rank: {table.rank}   window: [{table.tmin}, {table.tmax}]",
        head,
        sep,
    ]
    for t, dims in zip(table.twists(), table.dims):
        lines.append(f"| {t} | " + " | ".join(str(v) for v in dims) + f" | {table.chi_at(t)} |")
    for a in table.assumptions:
        lines.append(f"(assumption: {a})")
    return "\n".join(lines)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(map(parse_int, text.split(",")))


def _emit(args, payload_json: dict, text: str) -> int:
    """Print the JSON payload under ``--json``, else the text; returns ``EXIT_OK``."""
    if args.json:
        print(json.dumps(payload_json, indent=2, sort_keys=True))
    else:
        print(text)
    return EXIT_OK


def _emit_multiplicities(args, report: ScrollMonadReport) -> int:
    names = ", ".join(f"s{i}" for i in range(1, len(report.multiplicities) + 1))
    payload = {"multiplicities": list(report.multiplicities), "relation": report.relation}
    return _emit(args, payload, f"({names}) = {report.multiplicities}   [{report.relation}]")


def _emit_classification(args, report: ClassificationReport) -> int:
    _emit(args, report.to_json(), report.to_markdown())
    return EXIT_OK if report.agreement in ("exact", "superset") else EXIT_NEGATIVE


def _default_box(args) -> int:
    from . import classify

    return classify.DEFAULT_BOX if args.box is None else args.box


def _table_from_args(args) -> tuple[CohomologyTable, object]:
    from . import catalog
    from .cohomology import build_table

    entry = catalog.parse_variety(args.variety)
    bundles = parse_bundle(entry, args.bundle)
    n = entry.dimension
    window = parse_window(args.window) if args.window else (-n - 1, 1)
    table = build_table(entry, bundles, window)
    return table, entry


def cmd_cohom(args) -> int:
    table, _ = _table_from_args(args)
    return _emit(args, table.to_json(), render_table(table))


def cmd_check(args) -> int:
    from . import instanton

    if args.table is not None and (args.variety, args.bundle, args.window) == (None, None, None):
        from .cohomology import CohomologyTable

        with open(args.table) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not text
                raise MalformedDataError(str(exc)) from None
        table = CohomologyTable.from_json(data)
    elif args.table is None and args.variety is not None and args.bundle is not None:
        table, _ = _table_from_args(args)
    else:
        raise InstantonLabError("check needs --table, or --variety and --bundle (optionally --window)")
    verdict = instanton.check_instanton(table)
    pairs = str(list(verdict.admissible)) if verdict.admissible else "none"
    text = [f"admissible (defect, quantum) pairs: {pairs}"]
    text.append(
        f"ulrich: {verdict.is_ulrich}   wic: {verdict.is_wic}   natural: {verdict.natural_window}"
    )
    for note in verdict.notes:
        text.append(f"  {note}")
    _emit(args, verdict.to_json(), "\n".join(text))
    return EXIT_OK if verdict.passes(args.defect) else EXIT_NEGATIVE


def cmd_chi(args) -> int:
    from . import rr

    table, entry = _table_from_args(args)
    t = args.twist
    engine = table.chi_at(t) if table.covers(t, t) else None
    values = {}
    if engine is not None:
        values["engine"] = engine
    if entry.dimension <= 3:
        values["riemann_roch"] = rr.chi_twisted(entry, table.chern, t)
    if not values:
        raise InstantonLabError(
            f"no chi route available: Riemann-Roch stops at dimension 3 and the window "
            f"[{table.tmin}, {table.tmax}] misses t = {t}"
        )
    if len(values) == 2 and values["engine"] != values["riemann_roch"]:
        raise InstantonLabError(f"engine and Riemann-Roch disagree: {values}")
    val = next(iter(values.values()))
    return _emit(args, {"twist": t, "chi": val, "routes": list(values)}, f"chi(E({t}h)) = {val}")


def cmd_monad_pn(args) -> int:
    from . import monads

    chi0 = args.chi0
    if chi0 is None:
        chi0 = monads.chi_from_rank(args.n, args.defect, args.quantum, args.rank)
    shape = monads.monad_pn(args.n, args.defect, args.quantum, chi0, args.h0, args.hn)
    return _emit(args, shape.to_json(), shape.to_markdown())


def cmd_monad_acm(args) -> int:
    from . import catalog, monads

    entry = catalog.parse_variety(args.variety)
    shape = monads.monad_acm(entry, args.defect, args.quantum, args.h1, args.hn1)
    return _emit(args, shape.to_json(), shape.to_markdown())


def cmd_monad_quadric(args) -> int:
    from . import monads

    result = monads.monad_quadric_ordinary(args.n, args.rank, args.quantum)
    payload = {"s_total": result.total, "split": result.split}
    text = f"spinor multiplicity s = {result.total}"
    if args.n % 2 == 0:
        text += " (s' + s''; split undetermined without spinor pairings)"
    else:
        shape = monads.monad_quadric_ordinary_shape(args.n, args.rank, args.quantum)
        text += "\n" + shape.to_markdown()
    return _emit(args, payload, text)


def cmd_monad_space1(args) -> int:
    from . import monads

    shape = monads.monad_space_nonordinary(args.n, args.rank, args.quantum, args.a, args.c)
    return _emit(args, shape.to_json(), shape.to_markdown())


def cmd_monad_quadric1(args) -> int:
    from . import monads

    shape = monads.monad_quadric_nonordinary_shape(args.n, args.rank, args.quantum, args.a, args.c, args.b)
    spinors = shape.terms[1][1]  # O^b + S^s + S(h)^s
    return _emit(args, {"s": spinors.multiplicity, **shape.to_json()}, shape.to_markdown())


def cmd_monad_scroll3(args) -> int:
    from . import monads

    report = monads.monad_scroll3(args.deg, args.rank, args.quantum, _int_tuple(args.inputs))
    return _emit_multiplicities(args, report)


def cmd_monad_p1p3(args) -> int:
    from . import monads

    return _emit_multiplicities(args, monads.monad_p1p3(args.rank, args.quantum, _int_tuple(args.inputs)))


def cmd_classify_flag(args) -> int:
    from . import classify

    return _emit_classification(args, classify.classify_flag_lines(_default_box(args), args.defect))


def cmd_classify_segre(args) -> int:
    from . import classify

    return _emit_classification(args, classify.classify_segre_lines(_default_box(args), args.defect))


def cmd_classify_cyclic(args) -> int:
    from . import replays

    decision = replays.classify_cyclic_lines(args.n, args.u, args.v, args.defect)
    payload = {"assertion": decision.assertion, "witness": decision.witness, "steps": list(decision.steps)}
    text = [f"assertion: {decision.assertion}   witness: " + (
        f"O({decision.witness}H)" if decision.witness is not None else "none")]
    text.extend(f"  {s}" for s in decision.steps)
    _emit(args, payload, "\n".join(text))
    return EXIT_OK if decision.assertion is not None else EXIT_NEGATIVE


def cmd_stability(args) -> int:
    from . import replays

    report = replays.cyclic_rank2_stability_cases(args.n, args.u, args.v, args.defect)
    lines = [
        f"c1 = {report.eps} H, normalization twist {report.t_norm}",
        f"mu-semistable guaranteed: {report.semistable_guaranteed}"
        + (f" (exception {report.exception_semistable})" if report.exception_semistable else ""),
        f"mu-stable guaranteed (given semistable): {report.stable_guaranteed}"
        + (f" (exception {report.exception_stable})" if report.exception_stable else ""),
    ]
    payload = report.to_json()
    if args.h0_norm is not None:
        verdict = replays.hoppe_rank2_from_eps(report.eps, args.h0_norm, args.h0_norm_minus)
        lines.append(f"section criterion: {verdict.status} ({verdict.rule})")
        payload["section_criterion"] = verdict.to_json()
    return _emit(args, payload, "\n".join(lines))


def cmd_scroll(args) -> int:
    from . import catalog, replays

    if args.degrees is not None and (args.n, args.genus, args.deg) == (None, None, None):
        scroll: object = _int_tuple(args.degrees)
    elif args.degrees is None and args.n is not None and args.deg is not None:
        scroll = catalog.scroll_generic(args.n, args.genus or 0, args.deg)
    else:
        raise InstantonLabError("scroll needs --degrees, or --n and --deg (and optionally --genus)")
    report = replays.scroll_construction_report(scroll, args.k)
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
    return _emit(args, report.to_json(), "\n".join(text))


def cmd_fano(args) -> int:
    from . import replays

    report = replays.fano_instanton_bridge(args.index, args.defect, args.epsilon)
    text = [
        f"q_X^eps = {report.q_eps}, normalization twist {report.t_norm}",
        f"forward (instanton -> classical): case {report.forward_case}"
        + (f", requires {report.forward_extra_vanishing}" if report.forward_extra_vanishing else ""),
        f"backward (classical -> instanton): case {report.backward_case}"
        + (f", requires {report.backward_extra_vanishing}" if report.backward_extra_vanishing else ""),
    ]
    return _emit(args, report.to_json(), "\n".join(text))


def cmd_resolution_check(args) -> int:
    from .replays import BettiShape, betti_shape_check, chi_polynomial

    beta: dict[tuple[int, int], int] = {}
    for chunk in filter(None, args.beta.split(";")):
        pos, _, mult = chunk.partition(":")
        p_i = _int_tuple(pos)
        if len(p_i) != 2:
            raise MalformedDataError(f"--beta entry {chunk!r} is not of the form p,i:mult")
        beta[p_i] = parse_int(mult)
    shape = BettiShape.from_dict(args.v, args.w, args.ambient, beta)
    ok = betti_shape_check(
        shape, lambda t: chi_polynomial(args.n, args.defect, args.quantum, args.chi0, t)
    )
    _emit(args, {"consistent": ok}, f"resolution shape consistent: {ok}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_veronese(args) -> int:
    from . import replays

    q = replays.veronese_quantum(args.n, args.rank, args.d, args.hn)
    payload = {"quantum": str(q), "integral": q.denominator == 1}
    return _emit(args, payload, f"quantum number: {q}"
                 + ("" if q.denominator == 1 else "  (non-integral: infeasible)"))


#: declares some options on a leaf parser
_Options = Callable[[argparse.ArgumentParser], object]


class _Parser(argparse.ArgumentParser):
    """A parser that declares its options (a group: its leaves), ``options(self)``, on its first parse."""

    options: _Options | None = None

    def declare(self) -> None:
        options, self.options = self.options, None
        if options is not None:
            options(self)

    def parse_known_args(self, args=None, namespace=None):
        self.declare()
        return super().parse_known_args(args, namespace)


def _arg(*flags: str, **kw) -> _Options:
    return lambda p: p.add_argument(*flags, **kw)


def _ints(*flags: str, default: int | None = None) -> _Options:
    """Integer options: required, or optional when given a default."""
    return lambda p: [p.add_argument(f, type=int, required=default is None, default=default) for f in flags]


def _defect(**kw) -> _Options:
    return _arg("--defect", type=int, choices=(0, 1), **kw)


def _bundle_options(required: bool = True) -> list[_Options]:
    window = _arg("--window", type=str, default=None, help="twist window a:b")
    return [_arg("--variety", required=required), _arg("--bundle", required=required), window]


def _rank_or_chi0(p: argparse.ArgumentParser) -> None:
    rank_or_chi0 = p.add_mutually_exclusive_group(required=True)
    rank_or_chi0.add_argument("--rank", type=int)
    rank_or_chi0.add_argument("--chi0", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, every subcommand registered by name and help string.

    Each leaf declares ``--json`` and then its own options, and each group
    (``monad``, ``classify``) its leaves, only when a parse reaches it, so a
    call builds the parsers on the one path its argv names.
    """

    def leaf(group, name: str, func, *options: _Options, help: str | None = None) -> None:
        def declare(p: argparse.ArgumentParser) -> None:
            p.add_argument("--json", action="store_true", help="machine-readable output")
            p.set_defaults(func=func)
            for option in options:
                option(p)

        group.add_parser(name, help=help).options = declare

    def monad_leaves(p: argparse.ArgumentParser) -> None:
        msub = p.add_subparsers(dest="monad_kind", required=True)
        leaf(msub, "pn", cmd_monad_pn, _ints("--n", "--quantum"), _defect(required=True), _rank_or_chi0,
             _arg("--h0", type=int, help="h^0(E), non-ordinary only"),
             _arg("--hn", type=int, help="h^n(E(-n)), non-ordinary only"))
        leaf(msub, "acm", cmd_monad_acm, _arg("--variety", required=True), _defect(required=True),
             _ints("--quantum"), _arg("--h1", type=int, default=0, help="h^1(E), defect 1 only"),
             _arg("--hn1", type=int, default=0, help="h^(n-1)(E(-n h)), defect 1 only"))
        n_rank_quantum = _ints("--n", "--rank", "--quantum")
        leaf(msub, "quadric", cmd_monad_quadric, n_rank_quantum)
        leaf(msub, "space1", cmd_monad_space1, n_rank_quantum, _ints("--a", "--c", default=0))
        leaf(msub, "quadric1", cmd_monad_quadric1, n_rank_quantum, _ints("--a", "--c", "--b", default=0))
        leaf(msub, "scroll3", cmd_monad_scroll3, _ints("--deg", "--rank", "--quantum"),
             _arg("--inputs", required=True, help="comma list x1,x2,x3"))
        leaf(msub, "p1p3", cmd_monad_p1p3, _ints("--rank", "--quantum"),
             _arg("--inputs", required=True, help="comma list x1,x2,x3,x4"))

    n_v_u = (_ints("--n", "--v"), _ints("--u", default=1))

    def classify_leaves(p: argparse.ArgumentParser) -> None:
        csub = p.add_subparsers(dest="target", required=True)
        box = _arg("--box", type=int, default=None, help="enumeration box half-width")
        for name, func in (("flag", cmd_classify_flag), ("segre", cmd_classify_segre)):
            leaf(csub, name, func, box, _defect(default=0))
        leaf(csub, "cyclic", cmd_classify_cyclic, _defect(default=0), *n_v_u)

    parser = _Parser(
        prog="instanton-lab",
        description="Exact cohomology, Chow-ring and instanton-sheaf computations on a fixed variety catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaf(sub, "cohom", cmd_cohom, *_bundle_options(), help="cohomology table of a line-bundle sum")
    table = _arg("--table", help="JSON table file instead of --variety/--bundle")
    leaf(sub, "check", cmd_check, *_bundle_options(required=False), table, _defect(default=None),
         help="run the instanton condition list")
    twist = _arg("--twist", type=int, default=0)
    leaf(sub, "chi", cmd_chi, *_bundle_options(), twist, help="exact Euler characteristic")
    sub.add_parser("monad", help="synthesize monad shapes").options = monad_leaves
    sub.add_parser("classify", help="brute-force classification runs").options = classify_leaves

    leaf(sub, "stability", cmd_stability, *n_v_u, _defect(required=True),
         _arg("--h0-norm", dest="h0_norm", type=int), _arg("--h0-norm-minus", dest="h0_norm_minus", type=int),
         help="rank-two stability case analysis")
    leaf(sub, "scroll", cmd_scroll, _arg("--degrees", help="split degrees, e.g. 1,1,1"),
         _arg("--n", type=int), _arg("--genus", type=int, help="genus of the base curve (default 0)"),
         _arg("--deg", type=int), _ints("--k"), help="rank-two scroll construction report")
    leaf(sub, "fano", cmd_fano, _ints("--index"), _defect(required=True),
         _arg("--epsilon", type=int, choices=(0, 1), required=True),
         help="classical-instanton bridge on Fano 3-folds")
    leaf(sub, "resolution-check", cmd_resolution_check,
         _arg("--ambient", type=int, required=True, help="ambient projective dimension N"),
         _ints("--v", "--w", "--n", "--quantum", "--chi0"),
         _arg("--beta", type=str, required=True, help="semicolon list p,i:mult"), _defect(required=True),
         help="Betti-shape consistency check")
    leaf(sub, "veronese", cmd_veronese, _ints("--n", "--rank", "--d", "--hn"),
         help="quantum number of the d-th polarization twist")
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
    except (InstantonLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # imported only on an internal error: it costs CLI start-up time

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
