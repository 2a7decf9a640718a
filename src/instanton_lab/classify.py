"""Brute-force classification, stability rules and worked example computations.

The classification routines enumerate line bundles on the sextic del Pezzo
entries over a lattice box, filter the candidates through the instanton
condition list one condition at a time (each condition sees only the
candidates that passed the earlier ones, and each twisted line bundle is read
from the entry's line-bundle cohomology memo, so it reaches its exact engine
once per process however many scans share it), and compare the outcome against
the closed-form families (exposing the boundary members explicitly rather
than suppressing either side).  The remaining routines replay, as exact integer
decision procedures, the cyclic line-bundle trichotomy, the Hoppe-type
rank-two stability criteria, the classical-vs-cohomological instanton bridge
on Fano 3-folds, and the scroll/Serre constructions together with their
deformation-theoretic dimension counts.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import catalog, chow, cohomology, instanton, rr
from .catalog import VarietyCatalogEntry, check_coords, polarization_coords
# build_table: unused here, read by bench/tests/test_bench.py
from .cohomology import CohVector, build_table, coh_product  # noqa: F401
from .errors import InfeasibleError
from .rr import ChernData

#: default half-width of enumeration boxes; all known families and their
#: nearest non-members fit inside
DEFAULT_BOX = 6


@dataclass(frozen=True)
class FoundLine:
    coordinates: tuple[int, ...]
    defect: int
    quantum: int

    def to_json(self) -> dict:
        return {
            "coordinates": list(self.coordinates),
            "defect": self.defect,
            "quantum": self.quantum,
        }


@dataclass(frozen=True)
class ClassificationReport:
    family: str
    defect: int
    box: int
    found: tuple[FoundLine, ...]
    expected: tuple[FoundLine, ...]
    boundary: tuple[FoundLine, ...]
    agreement: str  # exact | superset | mismatch
    diffs: tuple[str, ...]
    quantum_formula_ok: bool
    #: per condition, in list order, the candidates whose first failing
    #: condition it is; kept out of ``to_json`` and ``to_markdown``
    rejections: tuple[tuple[instanton.Check, int], ...]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "defect": self.defect,
            "box": self.box,
            "found": [f.to_json() for f in self.found],
            "expected": [f.to_json() for f in self.expected],
            "boundary": [f.to_json() for f in self.boundary],
            "agreement": self.agreement,
            "diffs": list(self.diffs),
            "quantum_formula_ok": self.quantum_formula_ok,
        }

    def to_markdown(self) -> str:
        lines = [
            f"## {self.family} classification (defect {self.defect}, box {self.box})",
            "",
            f"agreement: **{self.agreement}**"
            + ("" if self.quantum_formula_ok else " (quantum formula FAILED)"),
            "",
            "| coordinates | quantum | status |",
            "|---|---|---|",
        ]
        expected_set = {f.coordinates for f in self.expected}
        boundary_set = {f.coordinates for f in self.boundary}
        for f in self.found:
            status = (
                "expected"
                if f.coordinates in expected_set
                else "boundary" if f.coordinates in boundary_set else "EXTRA"
            )
            lines.append(f"| {f.coordinates} | {f.quantum} | {status} |")
        for d in self.diffs:
            lines.append(f"- {d}")
        return "\n".join(lines)


def _sift(
    entry: VarietyCatalogEntry, candidates: list[tuple[int, ...]], defect: int
) -> tuple[list[FoundLine], tuple[tuple[instanton.Check, int], ...]]:
    """The members in candidate order, and how many candidates each condition rejected.

    Each candidate is validated once; then each condition, in list order,
    filters the candidates that passed every earlier one
    (:meth:`instanton.InstantonConditions.sift`).  Rows are read from the
    entry's line-bundle memo (``cohomology._rows``) keyed by twisted
    coordinates, each twist being the candidate plus a shift ``t h`` computed
    once per scan: neighbouring candidates, nested boxes and the two defects
    share most of their twisted bundles, so each distinct bundle reaches its
    engine once per process.
    """
    n = entry.dimension
    conditions = instanton.InstantonConditions(n, defect)
    h = polarization_coords(entry)
    shifts = {t: [t * v for v in h] for t in range(-n, 1)}
    rows = cohomology._rows(entry)
    add = operator.add

    def row_of(coords: tuple[int, ...]) -> Callable[[int], CohVector]:
        return lambda t: rows[tuple(map(add, coords, shifts[t]))]

    members, rejected = conditions.sift([check_coords(entry, c) for c in candidates], row_of)
    # the quantum number is h^1(E(-h))
    found = [FoundLine(coords, defect, row_of(coords)(-1)[1]) for coords in members]
    return found, tuple(zip(conditions.checks, rejected))


def _assemble_report(
    family: str,
    defect: int,
    box: int,
    found: list[FoundLine],
    rejections: tuple[tuple[instanton.Check, int], ...],
    expected: list[FoundLine],
    boundary_candidates: list[FoundLine],
) -> ClassificationReport:
    found_map = {f.coordinates: f for f in found}
    expected_map = {f.coordinates: f for f in expected}
    boundary = [f for f in found if f.coordinates in {b.coordinates for b in boundary_candidates}]
    diffs: list[str] = []
    missing = [c for c in expected_map if c not in found_map]
    extras = [
        f for f in found if f.coordinates not in expected_map and f not in boundary
    ]
    for c in missing:
        diffs.append(f"expected member {c} not found by the brute-force oracle")
    for f in extras:
        diffs.append(f"oracle found {f.coordinates} (defect {f.defect}, q={f.quantum}) outside the family")
    for f in boundary:
        diffs.append(
            f"boundary member {f.coordinates} (a=0) passes the oracle with q={f.quantum};"
            " the closed-form family starts at a >= 1"
        )
    quantum_ok = True
    for c, f in found_map.items():
        if c in expected_map and f.quantum != expected_map[c].quantum:
            quantum_ok = False
            diffs.append(
                f"quantum mismatch at {c}: oracle {f.quantum} vs formula {expected_map[c].quantum}"
            )
    if missing or extras or not quantum_ok:
        agreement = "mismatch"
    elif boundary:
        agreement = "superset"
    else:
        agreement = "exact"
    return ClassificationReport(
        family,
        defect,
        box,
        tuple(found),
        tuple(expected),
        tuple(boundary),
        agreement,
        tuple(diffs),
        quantum_ok,
        rejections,
    )


#: the closed-form line-bundle family per scanned (kind, defect): the member
#: ``a -> (coordinates, quantum number)``, stated for a >= 1; the a = 0 member is
#: adjudicated by the oracle and reported as a boundary case
_FAMILIES = {
    # O(-a h1 + (a + 2 - defect) h2), quantum number (2 - defect)/2 a (a + 2 - defect)
    ("flag3", 0): lambda a: ((-a, a + 2), a * (a + 2)),
    ("flag3", 1): lambda a: ((-a, a + 1), a * (a + 1) // 2),
    # O(-a h1 + h2 + (2 + a) h3) up to permutation, quantum number a (a + 2); the
    # degree condition on c1 is odd for defect 1, so that scan must come back empty
    ("triple_p1", 0): lambda a: (tuple(sorted((-a, 1, 2 + a))), a * (a + 2)),
    ("triple_p1", 1): None,
}


def classify_lines(
    entry: VarietyCatalogEntry, box: int = DEFAULT_BOX, defect: int = 0
) -> ClassificationReport:
    """Enumerate instanton line bundles on ``entry`` over ``[-box, box]^rank``.

    Candidates are canonicalized under coordinate permutations (the sorted,
    lexicographically minimal representative), which are symmetries of both
    scanned kinds.  The oracle's members are compared with the kind's
    closed-form family (``_FAMILIES``) inside the box.
    """
    if box < 4:
        raise ValueError("box >= 4")
    if (entry.kind, defect) not in _FAMILIES:
        raise ValueError(f"no closed-form line-bundle family on {entry.variety_id} with defect {defect}")
    candidates = list(itertools.combinations_with_replacement(range(-box, box + 1), entry.picard_rank()))
    found, rejections = _sift(entry, candidates, defect)
    member = _FAMILIES[entry.kind, defect]
    lines = [FoundLine(c, defect, q) for c, q in map(member, range(box + 1))] if member else []
    family = [f for f in lines if max(map(abs, f.coordinates)) <= box]
    return _assemble_report(entry.variety_id, defect, box, found, rejections, family[1:], family[:1])


def classify_flag_lines(box: int = DEFAULT_BOX, defect: int = 0) -> ClassificationReport:
    """:func:`classify_lines` on the flag 3-fold."""
    return classify_lines(catalog.flag3(), box, defect)


def classify_segre_lines(box: int = DEFAULT_BOX, defect: int = 0) -> ClassificationReport:
    """:func:`classify_lines` on P^1 x P^1 x P^1."""
    return classify_lines(catalog.triple_p1(), box, defect)


# --------------------------------------------------------------------------
# Cyclic n-folds
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicDecision:
    """Outcome of the line-bundle decision on a cyclic n-fold.

    ``assertion`` is 1 (projective space, ordinary, trivial bundle),
    2 (the (P^3, O(2)) non-ordinary case with L = O(1)),
    3 (the quadric non-ordinary case with trivial L), or None; ``witness``
    is the multiple w with L = O(w H) when one exists.
    """

    n: int
    u: int
    v: int
    defect: int
    assertion: int | None
    witness: int | None
    steps: tuple[str, ...]


def classify_cyclic_lines(n: int, u: int, v: int, defect: int) -> CyclicDecision:
    """Decide which instanton line bundles a cyclic n-fold can carry.

    Inputs: ``h = u H`` with u >= 1, ``omega = v H``, and the defect; the
    ample generator is assumed effective.  Replays the exact arithmetic:
    parity of ``u(n + 1 - defect) + v``, the section bound ``w <= u - 1``
    (equivalently ``u(n - 1 - defect) + v <= -2``), the index bound
    ``v >= -n - 1`` with its equality cases, and the per-case parity checks.
    """
    if n < 2 or u < 1 or defect not in (0, 1):
        raise ValueError("need n >= 2, u >= 1, defect in {0, 1}")
    steps: list[str] = []

    def none(reason: str) -> CyclicDecision:
        steps.append(reason)
        return CyclicDecision(n, u, v, defect, None, None, tuple(steps))

    if v < -n - 1:
        return none(f"omega = {v} H is below the index bound v >= -(n+1); no such n-fold")
    twice = u * (n + 1 - defect) + v
    if twice % 2:
        return none(f"u(n+1-defect)+v = {twice} is odd: c1 = 2 w H has no solution")
    w = twice // 2
    steps.append(f"square root: L = O({w} H)")
    if w > u - 1:
        return none(
            f"sections: w = {w} > u - 1 = {u - 1}, so h^0(L(-h)) != 0 against an effective generator"
        )
    steps.append(f"section bound holds: w = {w} <= u - 1")
    # the bound forces v <= -n - 1 + defect, i.e. projective space or, with
    # defect 1, the quadric
    if v == -n - 1:
        if defect == 0:
            if u == 1:
                steps.append("projective space, ordinary: u = 1 and L = O")
                return CyclicDecision(n, u, v, defect, 1, w, tuple(steps))
            return none(f"(n-1)(u-1) = {(n - 1) * (u - 1)} > 0 violates the section bound")
        if (n, u) == (3, 2):
            steps.append("projective 3-space polarized by O(2), non-ordinary: L = O(1)")
            return CyclicDecision(n, u, v, defect, 2, w, tuple(steps))
        return none("projective space with defect 1 admits only (n, u) = (3, 2)")
    if v == -n:
        if defect == 0:
            return none("index-n cyclic n-folds carry no ordinary instanton line bundle")
        if n == 2:
            return none("the index-2 surface is the quadric P^1 x P^1, which is not cyclic")
        if u == 1:
            steps.append("quadric hypersurface, non-ordinary: L = O")
            return CyclicDecision(n, u, v, defect, 3, w, tuple(steps))
        return none(f"(n-2)(u-1) = {(n - 2) * (u - 1)} > 0 violates the section bound")
    return none(f"v = {v} is incompatible with the section bound (needs v <= {-n - 1 + defect})")


@dataclass(frozen=True)
class StabilityVerdict:
    status: str  # stable | semistable | strictly-semistable-possible | unstable-possible | undecided
    rule: str

    def to_json(self) -> dict:
        return {"status": self.status, "rule": self.rule}


def hoppe_rank2_from_eps(
    eps: int, h0_norm: int, h0_norm_minus: int | None = None
) -> StabilityVerdict:
    """Rank-two stability from section counts of the normalized bundle.

    ``eps`` is the multiple with ``c1(E) = eps H`` on a cyclic entry; the
    inputs are ``h^0(E_norm,H)`` and ``h^0(E_norm,H(-H))``.  Vanishing of the
    first gives stability; for even eps, vanishing of the second gives
    semistability; for odd eps stability and semistability coincide, so a
    nonzero first count is decisive.
    """
    if h0_norm == 0:
        return StabilityVerdict("stable", "h^0(E_norm) = 0 forces mu-stability (rank two)")
    if eps % 2:
        return StabilityVerdict(
            "unstable-possible",
            "odd determinant: semistable iff stable, and h^0(E_norm) != 0 rules stability out",
        )
    if h0_norm_minus is None:
        return StabilityVerdict("undecided", "need h^0(E_norm(-H)) for even determinant")
    if h0_norm_minus == 0:
        return StabilityVerdict(
            "semistable",
            "h^0(E_norm(-H)) = 0 forces mu-semistability; h^0(E_norm) != 0 rules stability out",
        )
    return StabilityVerdict(
        "unstable-possible", "mu-semistability would force h^0(E_norm(-H)) = 0"
    )


def hoppe_rank2(
    entry: VarietyCatalogEntry,
    c: ChernData,
    h0_norm: int,
    h0_norm_minus: int | None = None,
) -> StabilityVerdict:
    """Section criterion on a cyclic entry, reading eps off the Chern data."""
    if c.rank != 2:
        raise ValueError("the criterion is specific to rank two")
    if len(entry.ring.generators) != 1:
        raise ValueError("the criterion needs a cyclic entry")
    eps = c.c1.coefficient(entry.ring.monomial(H=1))
    return hoppe_rank2_from_eps(eps, h0_norm, h0_norm_minus)


@dataclass(frozen=True)
class StabilityCaseReport:
    """Which rank-two (semi)stability guarantees apply on a cyclic n-fold."""

    n: int
    u: int
    v: int
    defect: int
    eps: int
    t_norm: int
    semistable_guaranteed: bool
    stable_guaranteed: bool
    exception_semistable: str | None
    exception_stable: str | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "u": self.u,
            "v": self.v,
            "defect": self.defect,
            "eps": self.eps,
            "t_norm": self.t_norm,
            "semistable_guaranteed": self.semistable_guaranteed,
            "stable_guaranteed": self.stable_guaranteed,
            "exception_semistable": self.exception_semistable,
            "exception_stable": self.exception_stable,
        }


def cyclic_rank2_stability_cases(n: int, u: int, v: int, defect: int) -> StabilityCaseReport:
    """Replay the rank-two stability case analysis on a cyclic n-fold.

    A rank-two instanton bundle has ``c1 = eps H`` with
    ``eps = u(n + 1 - defect) + v`` and normalization twist ``[-eps/2]``; the
    vanishing ``h^0(E(-h)) = 0`` then forces (semi)stability through the
    section criterion whenever the normalization reaches below ``-u``.  The
    exceptions are tagged 1a/1b (semistability) and 2a/2b/2c (stability);
    these lists are complete for tuples realized by actual cyclic n-folds,
    and ``unlisted`` marks failures on non-geometric inputs (e.g. an
    index-two cyclic surface, which does not exist).
    """
    if n < 2 or u < 1 or defect not in (0, 1):
        raise ValueError("need n >= 2, u >= 1, defect in {0, 1}")
    eps = u * (n + 1 - defect) + v
    t_norm = (-eps) // 2
    if eps % 2 == 0:
        semistable = t_norm - 1 <= -u
    else:
        semistable = t_norm <= -u
    stable = t_norm <= -u
    exc_semi = None
    if not semistable:
        if v == -n - 1 and u == 1 and defect == 1:
            exc_semi = "1a"
        elif n == 2 and v == -3 and defect == 1:
            exc_semi = "1b"
        else:
            exc_semi = "unlisted"
    exc_stable = None
    if semistable and not stable:
        if v == -n - 1 and u == 1 and defect == 0:
            exc_stable = "2a"
        elif (n, u, v, defect) == (3, 2, -4, 1):
            exc_stable = "2b"
        elif v == -n and u == 1 and defect == 1 and n >= 3:
            exc_stable = "2c"
        else:
            exc_stable = "unlisted"
    return StabilityCaseReport(
        n, u, v, defect, eps, t_norm, semistable, stable, exc_semi, exc_stable
    )


@dataclass(frozen=True)
class FanoBridgeReport:
    """Correspondence between cohomological and classical instanton bundles.

    On a cyclic Fano 3-fold of index ``i_X``, a rank-two bundle with
    ``c1 = (4 - defect - i_X) h`` normalizes by ``t = q_X^(1-defect) - 2``
    where ``q_X^eps = [(i_X + 1 - eps)/2]``.  The forward direction (from the
    cohomological conditions to the classical ones) needs an extra vanishing
    exactly when ``(i_X, defect)`` is (4,0), (4,1) or (3,1); the backward one
    exactly when it is (1,0).
    """

    index: int
    defect: int
    epsilon: int
    q_eps: int
    t_norm: int
    forward_case: str
    forward_extra_vanishing: str | None
    backward_case: str
    backward_extra_vanishing: str | None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "defect": self.defect,
            "epsilon": self.epsilon,
            "q_eps": self.q_eps,
            "t_norm": self.t_norm,
            "forward_case": self.forward_case,
            "forward_extra_vanishing": self.forward_extra_vanishing,
            "backward_case": self.backward_case,
            "backward_extra_vanishing": self.backward_extra_vanishing,
        }


def fano_instanton_bridge(i_X: int, defect: int, epsilon: int) -> FanoBridgeReport:
    if not 1 <= i_X <= 4:
        raise ValueError("cyclic Fano 3-folds have index 1..4")
    if defect not in (0, 1) or epsilon not in (0, 1):
        raise ValueError("defect and epsilon lie in {0, 1}")
    q_eps = (i_X + 1 - epsilon) // 2
    t_norm = (i_X + defect) // 2 - 2
    if (i_X, defect) in ((4, 0), (4, 1), (3, 1)):
        forward = ("1b", "h^0(E) = 0")
    else:
        forward = ("1a", None)
    if (i_X, defect) == (1, 0):
        backward = ("2b", "h^0(E_norm(h)) = 0")
    else:
        backward = ("2a", None)
    return FanoBridgeReport(
        i_X, defect, epsilon, q_eps, t_norm, forward[0], forward[1], backward[0], backward[1]
    )


# --------------------------------------------------------------------------
# Curves, scrolls and surfaces
# --------------------------------------------------------------------------


def curve_quantum(rank: int, deg: int, defect: int) -> int:
    """Quantum number ``defect rank deg / 2`` of an instanton bundle on a curve."""
    if defect not in (0, 1):
        raise ValueError("defect in {0, 1}")
    if defect and (rank * deg) % 2:
        raise InfeasibleError("defect 1 on a curve needs rank * deg even")
    return defect * rank * deg // 2


@dataclass(frozen=True)
class ScrollConstructionReport:
    """The rank-two Serre construction on a scroll, with its numerology.

    ``quantum`` is certified by chi-additivity along the defining sequences
    (``chi_pieces`` holds the three exact ingredients); the bundle is
    decomposable exactly for k = 0, where it splits into the two Ulrich line
    bundles.  ``h1_end`` is the deformation-space dimension for k >= 1 and
    ``h1_end_ulrich_pair`` its k = 0 replacement for the non-split extension
    of the same two line bundles.  ``dimension_chain`` collects the
    intermediate cohomology dimensions; ``engine_checked`` lists which of
    them were reproduced by the exact scroll engine.
    """

    variety_id: str
    n: int
    genus: int
    deg_g: int
    k: int
    chern: ChernData
    quantum: int
    chi_pieces: dict
    exact: bool
    decomposable: bool
    splitting: str | None
    h1_end: int
    h1_end_ulrich_pair: int | None
    dimension_chain: dict
    engine_checked: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "variety": self.variety_id,
            "n": self.n,
            "genus": self.genus,
            "deg_g": self.deg_g,
            "k": self.k,
            "chern": self.chern.to_json(),
            "quantum": self.quantum,
            "chi_pieces": self.chi_pieces,
            "exact": self.exact,
            "decomposable": self.decomposable,
            "splitting": self.splitting,
            "h1_end": self.h1_end,
            "h1_end_ulrich_pair": self.h1_end_ulrich_pair,
            "dimension_chain": self.dimension_chain,
            "engine_checked": list(self.engine_checked),
        }


def scroll_construction_report(
    scroll: tuple[int, ...] | VarietyCatalogEntry, k: int
) -> ScrollConstructionReport:
    """Numerology of the rank-two bundle built from k fiber hyperplanes.

    ``scroll`` is either a tuple of split degrees (scroll over P^1, all
    values exact) or a ``scroll_generic`` catalog entry (chi-level
    certification).  The bundle sits in
    ``0 -> O((g + theta) f) -> E -> I_Z(h + theta f) -> 0`` with Z a union of
    k general fiber hyperplanes.
    """
    from .monads import serre_construction_chern  # not at module level: scans need no monads

    if isinstance(scroll, tuple):
        entry = catalog.scroll_p1(scroll)
    else:
        entry = scroll
    if entry.kind not in ("scroll_p1", "scroll_generic"):
        raise ValueError("the construction lives on scroll entries")
    n, g, d = entry.dimension, entry.genus or 0, entry.deg_g
    if n < 3:
        raise ValueError("the construction needs scroll dimension >= 3")
    if k < 0:
        raise ValueError("k >= 0")
    ring = entry.ring
    h, f = ring.gen("h"), ring.gen("f")
    theta_deg = g - 1
    D = (d + theta_deg) * f
    detE = h + (d + 2 * g - 2) * f
    chern = serre_construction_chern(entry, D, detE, k * (h * f))

    # chi-additivity: -chi(E(-h)) = -chi(O(-h + (g+theta) f)) - chi(O(theta f)) + chi(O_Z)
    exact = entry.kind == "scroll_p1"
    chi_piece_1 = cohomology.chi_scroll_line(entry, -1, d + theta_deg)
    chi_piece_2 = cohomology.chi_scroll_line(entry, 0, theta_deg)
    chi_Z = k  # k disjoint copies of P^(n-2)
    quantum = -(chi_piece_1 + chi_piece_2 - chi_Z)
    chi_pieces = {
        "chi_O(-h+(g+theta)f)": chi_piece_1,
        "chi_O(theta f)": chi_piece_2,
        "chi_O_Z": chi_Z,
    }

    decomposable = k == 0
    splitting = "O((g+theta)f) (+) O(h+theta f)" if decomposable else None
    h1_end = (n - 1) * d + (n + 1) * (g - 1) + 2 * n * k
    h1_end_pair = (n - 1) * d + (n + 1) * (g - 1) + g if k == 0 else None

    x = 1  # h^0(I_Z (x) E(-(g+theta) f)) is 0 or 1; 1 in the split range
    chain = {
        "h1_I_Z": max(k - 1, 0),
        "h1_O(h-gf)": (n - 1) * d + n * (g - 1),
        "h0_O_Z(h-gf)": (n - 1) * k,
        "h1_I_Z(h-gf)": n * (g - 1) + (n - 1) * (d + k),
        "h0_E(-(g+theta)f)": 1,
        "h1_E(-(g+theta)f)": n * (g - 1) + (n - 1) * (d + k) + g,
        "h0_normal_bundle_component": n,
        "h1_I_Z_E(-(g+theta)f)_minus_h0": (n - 1) * d + (n + 1) * (g - 1) + (2 * n - 1) * k,
        "h0_I_Z_E_bound": x,
    }
    engine_checked: list[str] = []
    if exact:
        # h^i(O(h - g f)) = h^i(G(-g)) on the base
        vec = cohomology.coh_scroll_p1(entry.degrees, 1, -d)
        if vec[0] == 0 and vec[1] == chain["h1_O(h-gf)"] and all(v == 0 for v in vec.dims[2:]):
            engine_checked.append("h1_O(h-gf)")
        if cohomology.chi_scroll_line(entry, 1, -d) == -chain["h1_O(h-gf)"]:
            engine_checked.append("chi_O(h-gf)")
    return ScrollConstructionReport(
        entry.variety_id,
        n,
        g,
        d,
        k,
        chern,
        quantum,
        chi_pieces,
        exact,
        decomposable,
        splitting,
        h1_end,
        h1_end_pair,
        chain,
        tuple(engine_checked),
    )


def surface_quantum_formulas(kind: str, invariants: dict) -> int:
    """Quantum numbers of the two rank-two constructions on smooth surfaces.

    ``mukai``: from a curve in ``|(3 - defect) h + K|`` and a base-point-free
    divisor D on it; needs ``deg_D, chi_O, h2, Kh, defect`` and returns
    ``deg D - 2 chi(O) - ((defect^2 - 4 defect + 5) h^2 + (3 - defect) K h)/2``.

    ``genus0``: from a length-z subscheme on a surface with p_g = 0; needs
    ``z, defect, q_irr, h1_Oh, N`` and returns
    ``z + (1 + defect)(q - 1) + (1 - defect)(h^1(O(h)) - N - 1)``, subject to
    the degree bound ``z >= (1 - defect)(N + 1) + 1`` and nonnegativity.
    """
    if kind == "mukai":
        deg_D, chi_O, h2, Kh, defect = (
            invariants["deg_D"],
            invariants["chi_O"],
            invariants["h2"],
            invariants["Kh"],
            invariants["defect"],
        )
        q = Fraction(deg_D - 2 * chi_O) - Fraction(
            (defect**2 - 4 * defect + 5) * h2 + (3 - defect) * Kh, 2
        )
        if q.denominator != 1:
            raise InfeasibleError(f"half-integer quantum number {q}: parity-inconsistent inputs")
        return int(q)
    if kind == "genus0":
        z, defect, q_irr, h1_Oh, N = (
            invariants["z"],
            invariants["defect"],
            invariants["q_irr"],
            invariants["h1_Oh"],
            invariants["N"],
        )
        if z < (1 - defect) * (N + 1) + 1:
            raise InfeasibleError(
                f"z = {z} violates the degree bound z >= {(1 - defect) * (N + 1) + 1}"
            )
        q = z + (1 + defect) * (q_irr - 1) + (1 - defect) * (h1_Oh - N - 1)
        if q < 0:
            raise InfeasibleError(f"negative quantum number {q}: infeasible input")
        return q
    raise ValueError(f"unknown surface construction {kind!r}")


@dataclass(frozen=True)
class PrimeFanoReport:
    """Invariants of the rank-two instanton family on a prime Fano 3-fold."""

    genus: int
    k: int
    rank: int
    c1_mult: int
    c2_dot_h: int
    quantum: int
    h1_end: int
    higher_end_vanish: bool
    moduli_dim: int

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "k": self.k,
            "rank": self.rank,
            "c1": f"{self.c1_mult}h",
            "c2h": self.c2_dot_h,
            "quantum": self.quantum,
            "h1_end": self.h1_end,
            "higher_end_vanish": self.higher_end_vanish,
            "moduli_dim": self.moduli_dim,
        }


def prime_fano_family(g_X: int, k: int) -> PrimeFanoReport:
    """Expected invariants of the genus-g_X index-1 family member with quantum k.

    Rank two, ``c1 = 3h``, ``c2 h = 5 g_X - 1 + k``, simple with
    ``h^1(End) = 4 + g_X + 2k`` and no higher End cohomology; the member sits
    in a generically smooth moduli component of that dimension.
    """
    if g_X < 3 or k < 0:
        raise ValueError("need g_X >= 3 and k >= 0")
    return PrimeFanoReport(
        genus=g_X,
        k=k,
        rank=2,
        c1_mult=3,
        c2_dot_h=5 * g_X - 1 + k,
        quantum=k,
        h1_end=4 + g_X + 2 * k,
        higher_end_vanish=True,
        moduli_dim=4 + g_X + 2 * k,
    )


def prime_fano_chi_check(g_X: int, k: int) -> bool:
    """Euler-characteristic consistency: ``chi(E(-h)) = -k`` for the family member.

    The member's c_2 is the rational class ``(c_2 . h / h^3) H^2``.
    """
    entry = catalog.prime_fano(g_X)
    report = prime_fano_family(g_X, k)
    H = entry.polarization
    c2 = Fraction(report.c2_dot_h, entry.hn()) * H * H
    c = ChernData(report.rank, report.c1_mult * H, c2, entry.ring.zero())
    return rr.chi_twisted(entry, c, -1) == -k


@dataclass(frozen=True)
class SegreStableReport:
    """The unstable rank-two family on the triple product, oracle vs claim.

    The bundle extends ``O(h1 + 3 h3)`` by ``I_Z(h1 + 2 h2 - h3)`` with Z a
    union of s disjoint rulings of class ``h2 h3``.  The chi-additivity
    oracle pins the quantum number to ``s + 2`` (with the full vanishing
    pattern at twist -1 forced by the Kunneth pieces); the claimed value
    ``s - 2`` is recorded alongside and not asserted.
    """

    s: int
    chern: ChernData
    quantum_oracle: int
    claimed_quantum: int
    pieces: dict
    h_vector_at_minus_1: tuple[int, ...]
    internally_consistent: bool
    mu_semistable: bool

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "chern": self.chern.to_json(),
            "quantum_oracle": self.quantum_oracle,
            "claimed_quantum": self.claimed_quantum,
            "pieces": self.pieces,
            "h_vector_at_minus_1": list(self.h_vector_at_minus_1),
            "internally_consistent": self.internally_consistent,
            "mu_semistable": self.mu_semistable,
        }


def segre_stable_example(s: int) -> SegreStableReport:
    """Run the chi-additivity oracle on the unstable family member with s rulings."""
    from .monads import serre_construction_chern

    if s < 0:
        raise ValueError("s >= 0")
    entry = catalog.triple_p1()
    ring = entry.ring
    h1, h2, h3 = (ring.gen(g) for g in ring.generators)
    h = h1 + h2 + h3
    D = h1 + 3 * h3
    detE = 2 * h
    Z = s * (h2 * h3)
    chern = serre_construction_chern(entry, D, detE, Z)

    # twist the defining sequence by O(-h): the two line-bundle pieces
    chi_first = coh_product([(1, 0), (1, -1), (1, 2)]).chi()  # O(0,-1,2)
    chi_second_ambient = coh_product([(1, 0), (1, 1), (1, -2)]).chi()  # O(0,1,-2)
    chi_Z = s  # s disjoint rulings, restricted bundle trivial on each
    chi_E_minus_h = chi_first + (chi_second_ambient - chi_Z)
    q_oracle = -chi_E_minus_h

    # dimension bookkeeping at twist -1: the ambient piece has cohomology
    # only in degree 1, so the ideal-sheaf sequence forces every entry
    vec_first = coh_product([(1, 0), (1, -1), (1, 2)])
    vec_second = coh_product([(1, 0), (1, 1), (1, -2)])
    if not (vec_first.is_zero() and vec_second.support() == (1,)):
        raise RuntimeError(f"O(0,-1,2), O(0,1,-2) have cohomology {vec_first}, {vec_second}")
    h_vec = (0, s + vec_second[1], 0, 0)
    consistent = q_oracle == h_vec[1] and h_vec[0] == h_vec[2] == h_vec[3] == 0

    pieces = {
        "chi_O(0,-1,2)": chi_first,
        "chi_O(0,1,-2)": chi_second_ambient,
        "chi_O_Z": chi_Z,
        "h1_O(0,-2,4)": coh_product([(1, 0), (1, -2), (1, 4)])[1],
        "slope_O(h1+3h3)": chow.integrate(D * h * h),
        "slope_E": chow.integrate(chern.c1 * h * h) // 2,
    }
    return SegreStableReport(
        s=s,
        chern=chern,
        quantum_oracle=q_oracle,
        claimed_quantum=s - 2,
        pieces=pieces,
        h_vector_at_minus_1=h_vec,
        internally_consistent=consistent,
        mu_semistable=False,
    )


def discrepancy_probes() -> dict:
    """Collect the boundary members and the quantum-number discrepancy probes.

    The outcomes are recorded, not asserted: the a = 0 classification
    boundary members (Ulrich line bundles passing the oracle where the
    closed-form families start at a = 1) and the triple-product example whose
    claimed quantum number differs from the chi-additivity oracle.
    """
    flag0 = classify_flag_lines(box=4, defect=0)
    flag1 = classify_flag_lines(box=4, defect=1)
    segre0 = classify_segre_lines(box=4, defect=0)
    probes = {
        "flag_boundary_defect0": [f.to_json() for f in flag0.boundary],
        "flag_boundary_defect1": [f.to_json() for f in flag1.boundary],
        "segre_boundary_defect0": [f.to_json() for f in segre0.boundary],
        "segre_stable_family": [segre_stable_example(s).to_json() for s in range(0, 5)],
    }
    return probes
