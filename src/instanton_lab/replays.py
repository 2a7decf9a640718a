"""Paper replays: worked decision procedures, closed formulas and table transforms.

These routines replay the paper's exact arithmetic outside the two hot
paths, the lattice scans (:mod:`classify`) and the condition checker
(:mod:`instanton`), so a scan or a check compiles none of them.

* Instanton invariants and table transforms: the chi polynomial on P^n
  (the generic rank is :func:`monads.rank_from_chi`), restriction to a
  hyperplane section, the numerical
  pushforward under a finite map, direct sums and Ulrich duals (the checker
  works on tables alone, so it applies verbatim to each transformed table),
  the regularity bound, Betti-shape consistency, the Veronese quantum number
  and the Horrocks-type gate in dimension >= 4.
* Exact integer decision procedures: the cyclic line-bundle trichotomy, the
  Hoppe-type rank-two stability criteria, the classical-vs-cohomological
  instanton bridge on Fano 3-folds, and the scroll/Serre constructions
  together with their deformation-theoretic dimension counts; the surface and
  prime-Fano formulas; the unstable rank-two example on the triple product
  and the discrepancy probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import catalog, chow, cohomology, rr
from .catalog import VarietyCatalogEntry
from .cohomology import CohomologyTable, line_bundle_cohomology, serre_dual_vector
from .errors import (
    InfeasibleError,
    MalformedDataError,
    UnknownVarietyError,
    UnsupportedBundleError,
    VarietyMismatchError,
    WindowError,
)
from .rr import ChernData
from .util import binom, fields_json


# --------------------------------------------------------------------------
# Instanton invariants and table transforms
# --------------------------------------------------------------------------


def chi_polynomial(n: int, defect: int, quantum: int, chi0: int, t: int) -> int:
    """Euler characteristic ``chi(E(t h))`` of an instanton sheaf from its invariants.

    Uses the product-form binomial, valid at negative arguments.  The three
    branches: the general ``n >= 2`` display, the special shape
    ``(chi + q)(t + 1)^2 - q`` when (n, defect) = (2, 1), and
    ``chi (t + 1 + defect t)`` on curves.
    """
    if n < 1:
        raise UnsupportedBundleError("n >= 1")
    if n == 1:
        return chi0 * (t + 1 + defect * t)
    if (n, defect) == (2, 1):
        return (chi0 + quantum) * (t + 1) ** 2 - quantum
    return (chi0 + (n + 1) * quantum) * (binom(t + n, n) + defect * binom(t + n - defect, n)) - quantum * (
        binom(t + n + 1, n) + binom(t + n - 1 - defect, n)
    )


@dataclass(frozen=True)
class RestrictionResult:
    defect: int
    quantum: int
    #: lifting an instanton bundle from a hyperplane section back to the
    #: ambient variety is only valid from dimension 5 up
    extension_valid: bool


def restriction_transform(n: int, defect: int, quantum: int) -> RestrictionResult:
    """(defect, quantum) of the restriction to a general member of |h|.

    The pair is unchanged except on a 3-fold with defect 1, where the quantum
    number doubles.  The same map describes extension from the hyperplane
    section, valid only for n >= 5 (reported via ``extension_valid``).
    """
    if n <= 2:
        raise UnsupportedBundleError("restriction needs n >= 3")
    q = 2 * quantum if (n, defect) == (3, 1) else quantum
    return RestrictionResult(defect, q, extension_valid=n >= 5)


def pushforward_model(table: CohomologyTable, degree: int) -> CohomologyTable:
    """Numerical pushforward to P^n under a finite map of the given degree.

    Twist-by-twist cohomology is unchanged; the rank scales by ``h^n``.
    Chern data does not transport and is dropped.
    """
    if degree < 1:
        raise MalformedDataError("the degree h^n is positive")
    return CohomologyTable(
        variety_id=catalog.projective_space(table.dimension).variety_id,
        rank=table.rank * degree,
        tmin=table.tmin,
        rows=table.rows,
        chern=None,
        assumptions=table.assumptions,
    )


def direct_sum(t1: CohomologyTable, t2: CohomologyTable) -> CohomologyTable:
    """Entrywise sum over the common window of two tables on one variety; ranks add, Chern data is Whitney."""
    if t1.variety_id != t2.variety_id:
        raise VarietyMismatchError(f"cannot sum tables on {t1.variety_id} and {t2.variety_id}")
    tmin, tmax = max(t1.tmin, t2.tmin), min(t1.tmax, t2.tmax)
    if tmin > tmax:
        raise WindowError("the table windows do not overlap")
    rows = tuple(t1.row(t) + t2.row(t) for t in range(tmin, tmax + 1))
    chern = None
    if t1.chern is not None and t2.chern is not None:
        chern = rr.whitney_sum(t1.chern, t2.chern)
    return CohomologyTable(
        variety_id=t1.variety_id,
        rank=t1.rank + t2.rank,
        tmin=tmin,
        rows=rows,
        chern=chern,
        assumptions=tuple(dict.fromkeys(t1.assumptions + t2.assumptions)),
    )


def ulrich_dual_table(
    table: CohomologyTable, entry: VarietyCatalogEntry, defect: int
) -> CohomologyTable:
    """Table of ``E^v((n + 1 - defect) h + K_X)`` from the table of E.

    Serre duality turns each row into a reversed row of the input:
    ``h^i(F(t h)) = h^(n-i)(E((defect - n - 1 - t) h))``.  The transform is
    an involution and preserves instanton verdicts.  The output window is the
    input's reflected through ``t -> defect - n - 1 - t``, its rows the
    input's in reverse order.  The table must live on ``entry`` (``VarietyMismatchError``
    otherwise, so its rows have the entry's dimension); its Chern data, if any, are dualized too.
    """
    n = table.dimension
    if table.variety_id != entry.variety_id:
        raise VarietyMismatchError(f"table on {table.variety_id!r} does not live on {entry.variety_id!r}")
    rows = tuple(serre_dual_vector(row) for row in reversed(table.rows))
    chern = None if table.chern is None else rr.ulrich_dual_chern(entry, table.chern, defect)
    return CohomologyTable(
        variety_id=table.variety_id,
        rank=table.rank,
        tmin=defect - n - 1 - table.tmax,
        rows=rows,
        chern=chern,
        assumptions=table.assumptions,
    )


@dataclass(frozen=True)
class RegularityReport:
    """Output of :func:`regularity_report`.

    ``v`` is the first twist in the window with sections (``v_is_lower_bound``
    when the window never sees one, in which case v is the first twist beyond
    the window).  ``w = h^1(E((defect-1) h)) + defect`` bounds the
    Castelnuovo-Mumford regularity from above; ``violations`` lists any
    ``h^i(E((w - i) h)) != 0`` with i >= 1 seen inside the window and
    ``unverified`` the twists the window could not reach.
    """

    v: int
    v_is_lower_bound: bool
    w: int
    violations: tuple[str, ...]
    unverified: tuple[int, ...]

    @property
    def regularity_confirmed(self) -> bool:
        return not self.violations and not self.unverified


def regularity_report(table: CohomologyTable, defect: int) -> RegularityReport:
    """Locate v(E), compute the regularity bound w(E), and verify it on the window."""
    n = table.dimension
    w = table.h(1, defect - 1) + defect  # raises WindowError when the window misses defect - 1
    v = None
    for t in table.twists():
        if table.h(0, t) != 0:
            v = t
            break
    v_is_lower_bound = v is None
    if v is None:
        v = table.tmax + 1
    violations: list[str] = []
    unverified: list[int] = []
    for i in range(1, n + 1):
        t = w - i
        if table.covers(t, t):
            val = table.h(i, t)
            if val:
                violations.append(f"h^{i}(E({t}h)) = {val} != 0 contradicts the regularity bound")
        else:
            unverified.append(t)
    return RegularityReport(v, v_is_lower_bound, w, tuple(violations), tuple(unverified))


@dataclass(frozen=True)
class BettiShape:
    """Shape of the minimal graded free resolution of the section module.

    Columns are generators' twists (between v and w), rows the homological
    positions ``0 <= p <= N - 1`` over the coordinate ring of P^N; the
    resolution has ``F_p = (+)_i S(-i - p)^beta[p, i]``.  For an actual
    module whose first section twist v is attained, ``beta[0, v] >= 1``.
    """

    v: int
    w: int
    N: int
    beta: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self) -> None:
        if any(m < 0 for _, m in self.beta):
            raise MalformedDataError("Betti numbers are nonnegative")

    @staticmethod
    def from_dict(v: int, w: int, N: int, beta: dict[tuple[int, int], int]) -> "BettiShape":
        return BettiShape(v, w, N, tuple(sorted(beta.items())))


def betti_shape_check(shape: BettiShape, chi_oracle: Callable[[int], int]) -> bool:
    """Is the shape supported in ``[v, w] x [0, N-1]`` and chi-consistent?

    The sheafified alternating sum ``sum_p (-1)^p sum_i beta[p,i]
    C(t - i - p + N, N)`` must reproduce ``chi_oracle(t)`` on a probe window
    of size N + 2.
    """
    for (p, i), m in shape.beta:
        if m == 0:
            continue
        if not (0 <= p <= shape.N - 1) or not (shape.v <= i <= shape.w):
            return False
    for t in range(shape.v, shape.v + shape.N + 2):
        total = sum(
            (-1) ** p * m * binom(t - i - p + shape.N, shape.N) for (p, i), m in shape.beta
        )
        if total != chi_oracle(t):
            return False
    return True


def veronese_quantum(n: int, rank: int, d: int, hn: int) -> Fraction:
    """Quantum number matching Ulrich-ness of ``E((n+1)(d-1)/2 h)`` for ``O(d h)``.

    The exact rational ``(n-1)^n rank (d^2 - 1) h^n / (2^n n!)``; integrality
    is a feasibility requirement left to the caller.  Needs ``1 <= n <= 3``,
    an ample twist (``d >= 1``), ``rank >= 1``, ``h^n >= 1`` and
    ``(n+1)(d-1)`` even.
    """
    if not 1 <= n <= 3:
        raise UnsupportedBundleError("1 <= n <= 3")
    if d < 1 or rank < 1 or hn < 1:
        raise MalformedDataError(f"need d, rank, hn >= 1 (O(dh) ample), got d={d}, rank={rank}, hn={hn}")
    if ((n + 1) * (d - 1)) % 2:
        raise InfeasibleError(f"(n+1)(d-1) = {(n + 1) * (d - 1)} must be even")
    return Fraction((n - 1) ** n * rank * (d * d - 1) * hn, 2**n * math.factorial(n))


@dataclass(frozen=True)
class HorrocksReport:
    """Low-rank constraints on instanton bundles in dimension >= 4."""

    forced_acm: bool
    infeasible: bool
    forced_ulrich: bool
    notes: tuple[str, ...]


def horrocks_gate(n: int, rank: int, hn: int, quantum: int, defect: int) -> HorrocksReport:
    """Splitting-criterion constraints for ``n >= 4``.

    ``rank h^n < 2 [n/2]`` forces the bundle to be without intermediate
    cohomology (so q = 0); an ordinary instanton with q >= 1 needs
    ``rank h^n >= n - 1``; equality with n even forces Ulrich.
    """
    if n < 4:
        raise UnsupportedBundleError("the gate applies from dimension 4 on")
    rkh = rank * hn
    notes: list[str] = []
    forced_acm = rkh < 2 * (n // 2)
    infeasible = False
    if forced_acm:
        notes.append(f"rank h^n = {rkh} < {2 * (n // 2)} forces an aCM bundle with q = 0")
        if quantum >= 1:
            infeasible = True
            notes.append("q >= 1 contradicts the forced vanishing")
    if defect == 0 and quantum >= 1 and rkh < n - 1:
        infeasible = True
        notes.append(f"ordinary with q >= 1 requires rank h^n >= {n - 1}")
    forced_ulrich = defect == 0 and rkh == n - 1 and n % 2 == 0
    if forced_ulrich:
        notes.append("rank h^n = n - 1 with n even forces an Ulrich bundle")
    return HorrocksReport(forced_acm, infeasible, forced_ulrich, tuple(notes))


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
        raise UnsupportedBundleError("need n >= 2, u >= 1, defect in {0, 1}")
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
    # 2w <= 2u - 2 reads v <= -u(n - 1 - defect) - 2; with v >= -n - 1 and 2w even this
    # leaves (v, u) = (-n - 1, 1) for defect 0, and for defect 1 either (n, u, v) = (3, 2, -4)
    # or v = -n with n = 2 or u = 1
    if defect == 0:
        steps.append("projective space, ordinary: u = 1 and L = O")
        return CyclicDecision(n, u, v, defect, 1, w, tuple(steps))
    if v == -n - 1:
        steps.append("projective 3-space polarized by O(2), non-ordinary: L = O(1)")
        return CyclicDecision(n, u, v, defect, 2, w, tuple(steps))
    if n == 2:
        return none("the index-2 surface is the quadric P^1 x P^1, which is not cyclic")
    steps.append("quadric hypersurface, non-ordinary: L = O")
    return CyclicDecision(n, u, v, defect, 3, w, tuple(steps))


@dataclass(frozen=True)
class StabilityVerdict:
    status: str  # stable | semistable | strictly-semistable-possible | unstable-possible | undecided
    rule: str

    to_json = fields_json


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
        raise UnsupportedBundleError("the criterion is specific to rank two")
    if len(entry.ring.generators) != 1:
        raise UnsupportedBundleError("the criterion needs a cyclic entry")
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

    to_json = fields_json


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
        raise UnsupportedBundleError("need n >= 2, u >= 1, defect in {0, 1}")
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

    to_json = fields_json


def fano_instanton_bridge(i_X: int, defect: int, epsilon: int) -> FanoBridgeReport:
    if not 1 <= i_X <= 4:
        raise UnknownVarietyError("cyclic Fano 3-folds have index 1..4")
    if defect not in (0, 1) or epsilon not in (0, 1):
        raise MalformedDataError("defect and epsilon lie in {0, 1}")
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
    """Quantum number ``defect rank deg / 2`` of an instanton bundle on a curve.

    A rank, deg or defect that is not an int, bools included, raises ``MalformedDataError``.
    """
    for name, value in (("rank", rank), ("deg", deg), ("defect", defect)):
        if type(value) is not int:
            raise MalformedDataError(f"the curve {name} must be an int, got {value!r}")
    if defect not in (0, 1):
        raise MalformedDataError("defect in {0, 1}")
    if rank < 1:
        raise MalformedDataError("rank >= 1")
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
        return {"variety": self.variety_id, **fields_json(self, skip=("variety_id",))}


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
    if isinstance(scroll, tuple):
        entry = catalog.scroll_p1(scroll)
    else:
        entry = scroll
    if entry.kind not in ("scroll_p1", "scroll_generic"):
        raise UnsupportedBundleError("the construction lives on scroll entries")
    n, g, d = entry.dimension, entry.genus, entry.deg_g
    if n < 3:
        raise UnsupportedBundleError("the construction needs scroll dimension >= 3")
    if k < 0:
        raise MalformedDataError("k >= 0")
    ring = entry.ring
    h, f = ring.gen("h"), ring.gen("f")
    theta_deg = g - 1
    D = (d + theta_deg) * f
    detE = h + (d + 2 * g - 2) * f
    chern = rr.serre_construction_chern(entry, D, detE, k * (h * f))

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
        vec = line_bundle_cohomology(entry, (1, -d))
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


#: the invariants each surface construction reads, in the order its formula takes them
_SURFACE_INVARIANTS = {
    "mukai": ("deg_D", "chi_O", "h2", "Kh", "defect"),
    "genus0": ("z", "defect", "q_irr", "h1_Oh", "N"),
}


def surface_quantum_formulas(kind: str, invariants: dict) -> int:
    """Quantum numbers of the two rank-two constructions on smooth surfaces.

    ``mukai``: from a curve in ``|(3 - defect) h + K|`` and a base-point-free
    divisor D on it; needs ``deg_D, chi_O, h2, Kh, defect`` and returns
    ``deg D - 2 chi(O) - ((defect^2 - 4 defect + 5) h^2 + (3 - defect) K h)/2``.

    ``genus0``: from a length-z subscheme on a surface with p_g = 0; needs
    ``z, defect, q_irr, h1_Oh, N`` and returns
    ``z + (1 + defect)(q - 1) + (1 - defect)(h^1(O(h)) - N - 1)``, subject to
    the degree bound ``z >= (1 - defect)(N + 1) + 1`` and nonnegativity.

    An unknown construction raises ``UnsupportedBundleError``, a missing invariant or one that is
    not an int (bools included) ``MalformedDataError`` naming it.
    """
    needs = _SURFACE_INVARIANTS.get(kind) if isinstance(kind, str) else None
    if needs is None:
        raise UnsupportedBundleError(f"unknown surface construction {kind!r}")
    for key in needs:
        if key not in invariants:
            raise MalformedDataError(f"the {kind} construction needs the invariant {key!r}")
    for key in needs:
        if type(invariants[key]) is not int:
            raise MalformedDataError(f"the {kind} invariant {key!r} must be an int, got {invariants[key]!r}")
    if kind == "mukai":
        deg_D, chi_O, h2, Kh, defect = map(invariants.__getitem__, needs)
        q = Fraction(deg_D - 2 * chi_O) - Fraction(
            (defect**2 - 4 * defect + 5) * h2 + (3 - defect) * Kh, 2
        )
        if q.denominator != 1:
            raise InfeasibleError(f"half-integer quantum number {q}: parity-inconsistent inputs")
        return int(q)
    z, defect, q_irr, h1_Oh, N = map(invariants.__getitem__, needs)
    if z < (1 - defect) * (N + 1) + 1:
        raise InfeasibleError(
            f"z = {z} violates the degree bound z >= {(1 - defect) * (N + 1) + 1}"
        )
    q = z + (1 + defect) * (q_irr - 1) + (1 - defect) * (h1_Oh - N - 1)
    if q < 0:
        raise InfeasibleError(f"negative quantum number {q}: infeasible input")
    return q


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

    to_json = fields_json


def prime_fano_family(g_X: int, k: int) -> PrimeFanoReport:
    """Expected invariants of the genus-g_X index-1 family member with quantum k.

    Rank two, ``c1 = 3h``, ``c2 h = 5 g_X - 1 + k``, simple with
    ``h^1(End) = 4 + g_X + 2k`` and no higher End cohomology; the member sits
    in a generically smooth moduli component of that dimension.  A k that is not an int
    (bools included) raises ``MalformedDataError``.
    """
    if type(k) is not int:
        raise MalformedDataError(f"the quantum number k must be an int, got {k!r}")
    if g_X < 3 or k < 0:
        raise UnknownVarietyError("need g_X >= 3 and k >= 0")
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

    to_json = fields_json


def segre_stable_example(s: int) -> SegreStableReport:
    """Run the chi-additivity oracle on the unstable family member with s rulings."""
    if s < 0:
        raise MalformedDataError("s >= 0")
    entry = catalog.triple_p1()
    ring = entry.ring
    h1, h2, h3 = (ring.gen(g) for g in ring.generators)
    h = h1 + h2 + h3
    D = h1 + 3 * h3
    detE = 2 * h
    Z = s * (h2 * h3)
    chern = rr.serre_construction_chern(entry, D, detE, Z)

    # twist the defining sequence by O(-h): the two line-bundle pieces
    vec_first = line_bundle_cohomology(entry, (0, -1, 2))
    vec_second = line_bundle_cohomology(entry, (0, 1, -2))
    chi_first, chi_second_ambient = vec_first.chi(), vec_second.chi()
    chi_Z = s  # s disjoint rulings, restricted bundle trivial on each
    chi_E_minus_h = chi_first + (chi_second_ambient - chi_Z)
    q_oracle = -chi_E_minus_h

    # dimension bookkeeping at twist -1: the ambient piece has cohomology
    # only in degree 1, so the ideal-sheaf sequence forces every entry
    if not (vec_first.is_zero() and vec_second.support() == (1,)):
        raise RuntimeError(f"O(0,-1,2), O(0,1,-2) have cohomology {vec_first}, {vec_second}")
    h_vec = (0, s + vec_second[1], 0, 0)
    consistent = q_oracle == h_vec[1] and h_vec[0] == h_vec[2] == h_vec[3] == 0

    pieces = {
        "chi_O(0,-1,2)": chi_first,
        "chi_O(0,1,-2)": chi_second_ambient,
        "chi_O_Z": chi_Z,
        "h1_O(0,-2,4)": line_bundle_cohomology(entry, (0, -2, 4))[1],
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
    from .classify import classify_flag_lines, classify_segre_lines  # the one replay that scans

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
