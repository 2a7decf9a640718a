"""The instanton-sheaf condition checker and table transforms.

A sheaf E on an n-dimensional polarized variety is an instanton sheaf with
defect delta in {0, 1} and quantum number q when its cohomology table
satisfies a finite vanishing/symmetry pattern:

* ``h^0(E(-h)) = h^n(E((delta - n) h)) = 0``;
* ``h^i(E(-(i+1) h)) = h^(n-i)(E((delta - n + i) h)) = 0`` for 1 <= i <= n-2;
* ``delta h^i(E(-i h)) = 0`` for 2 <= i <= n-2;
* ``h^1(E(-h)) = h^(n-1)(E((delta - n) h)) = q``;
* ``delta (chi(E) - (-1)^n chi(E(-n h))) = 0``.

Ulrich sheaves are exactly the instantons with delta = q = 0.  The checker
works on tables alone, so it applies verbatim to pushforwards under finite
maps to projective space (twist-compatible by the projection formula), to
Ulrich duals ``E^v((n+1) h + K_X)`` and to direct sums; those transforms are
implemented here as table operations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar

from . import rr
from .catalog import VarietyCatalogEntry
from .cohomology import CohomologyTable, CohVector, serre_dual_vector
from .errors import InfeasibleError, VarietyMismatchError, WindowError
from .util import binom

#: one instanton condition ``(kind, i, t)``, see :class:`InstantonConditions`
Check = tuple[str, int, int]
_Candidate = TypeVar("_Candidate")


@dataclass(frozen=True)
class InstantonVerdict:
    """Outcome of the finite condition list, for both defects at once.

    ``admissible`` collects every (defect, quantum) pair that passes;
    ``notes`` records the first failing condition for the defects that do
    not.  ``is_ulrich`` means (0, 0) passed; ``is_wic`` that the sheaf has no
    intermediate cohomology in any twist; ``natural_window`` that each
    admissible defect sees at most one nonzero group per twist in its
    symmetry window.
    """

    admissible: tuple[tuple[int, int], ...]
    is_ulrich: bool
    is_wic: bool
    natural_window: bool
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        for _, q in self.admissible:
            if q < 0:
                raise ValueError("quantum numbers are nonnegative")
        if self.is_ulrich and (0, 0) not in self.admissible:
            raise ValueError("Ulrich verdicts must contain the pair (0, 0)")

    def passes(self, defect: int | None = None) -> bool:
        if defect is None:
            return bool(self.admissible)
        return any(d == defect for d, _ in self.admissible)

    def quantum(self, defect: int) -> int | None:
        for d, q in self.admissible:
            if d == defect:
                return q
        return None

    def to_json(self) -> dict:
        return {
            "admissible": [{"defect": d, "quantum": q} for d, q in self.admissible],
            "ulrich": self.is_ulrich,
            "wic": self.is_wic,
            "natural": self.natural_window,
            "notes": list(self.notes),
        }

    @staticmethod
    def from_json(data: dict) -> "InstantonVerdict":
        return InstantonVerdict(
            tuple((p["defect"], p["quantum"]) for p in data["admissible"]),
            data["ulrich"],
            data["wic"],
            data["natural"],
            tuple(data["notes"]),
        )


@dataclass(frozen=True)
class InstantonConditions:
    """The finite instanton condition list for one defect on an n-fold, as data.

    ``checks`` holds the conditions in evaluation order: first the
    vanishings ``("zero", i, t)``, meaning ``h^i(E(t h)) = 0``; then the q
    equality ``("q", n - 1, defect - n)``, meaning ``h^1(E(-h)) =
    h^(n-1)(E((defect - n) h))``; then, for defect 1 only, the chi equality
    ``("chi", n, -n)``, meaning ``chi(E) = (-1)^n chi(E(-n h))``.  Every
    twist lies in ``[-n, 0]``.  Checks read columns ``t -> rows``, the row
    at twist t of every sheaf under test, through :meth:`sides`, the one
    place that says what each check compares; :meth:`failures` runs the
    list on one sheaf and :meth:`sift` filters many candidates column-major,
    one check and one column of the survivors' rows at a time.
    """

    n: int
    defect: int
    checks: tuple[Check, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, defect = self.n, self.defect
        if n < 1 or defect not in (0, 1):
            raise ValueError("need n >= 1 and defect in {0, 1}")
        checks = [("zero", 0, -1), ("zero", n, defect - n)]
        for i in range(1, n - 1):
            checks += [("zero", i, -(i + 1)), ("zero", n - i, defect - n + i)]
        if defect:
            checks += [("zero", i, -i) for i in range(2, n - 1)]
        checks.append(("q", n - 1, defect - n))
        if defect:
            checks.append(("chi", n, -n))
        object.__setattr__(self, "checks", tuple(checks))

    @staticmethod
    def sides(check: Check, column: Callable[[int], Iterable[CohVector]]) -> tuple[list[int], list[int]]:
        """The two per-sheaf sequences ``check`` requires equal, reading only the columns it needs.

        ``column(t)`` is the row at twist t of every sheaf under test.  A
        vanishing compares ``h^i(E(t h))`` with 0, the q equality ``h^1(E(-h))``
        with ``h^i(E(t h))`` and the chi equality ``chi(E)`` with ``(-1)^i
        chi(E(t h))``; columns are read left to right.
        """
        kind, i, t = check
        if kind == "zero":
            left = [row.dims[i] for row in column(t)]
            return left, [0] * len(left)
        if kind == "q":
            return [row.dims[1] for row in column(-1)], [row.dims[i] for row in column(t)]
        return [row.chi() for row in column(0)], [(-1) ** i * row.chi() for row in column(t)]

    def failures(self, row: Callable[[int], CohVector]) -> Iterator[str]:
        """Yield a note for each failing condition of one sheaf, in list order, lazily."""
        sides, defect, column = self.sides, self.defect, lambda t: (row(t),)
        for check in self.checks:
            (left,), (right,) = sides(check, column)
            if left == right:
                continue
            kind, i, t = check
            if kind == "zero":
                yield f"delta={defect}: h^{i}(E({t}h)) = {left} != 0"
            elif kind == "q":
                yield f"delta={defect}: h^1(E(-h)) = {left} != h^{i}(E({t}h)) = {right}"
            else:
                yield f"delta={defect}: chi(E) = {left} != (-1)^{i} chi(E({t}h)) = {right}"

    def sift(
        self,
        candidates: Iterable[_Candidate],
        column_of: Callable[[int, list[_Candidate]], Iterable[CohVector]],
    ) -> tuple[list[_Candidate], tuple[int, ...]]:
        """Filter candidates condition-major: one pass per check, over the survivors.

        ``column_of(t, survivors)`` is the survivors' rows at twist t, in their
        order, possibly a lazy iterator.  A candidate meets exactly the checks
        that running its list alone, up to the first failure, would reach.
        Returns the candidates that pass every check, in order, and per check
        the number it rejected: the candidates whose first failing condition it is.
        """
        survivors = list(candidates)
        rejected = []
        for check in self.checks:
            left, right = self.sides(check, lambda t: column_of(t, survivors))
            kept = list(itertools.compress(survivors, map(operator.eq, left, right)))
            rejected.append(len(survivors) - len(kept))
            survivors = kept
        return survivors, tuple(rejected)


_conditions = functools.cache(InstantonConditions)  # immutable: one list per (n, defect)


def check_instanton(table: CohomologyTable) -> InstantonVerdict:
    """Run the finite instanton condition list for both defects.

    The window must cover ``[-n, 0]``; a smaller table raises
    :class:`WindowError` naming the missing twists.  Both admissible pairs
    are reported when both condition sets pass.
    """
    n = table.dimension
    if not table.covers(-n, 0):
        table.require(list(range(-n, 1)))  # raises, naming the missing twists
    admissible: list[tuple[int, int]] = []
    notes: list[str] = []
    for defect in (0, 1):
        fails = list(_conditions(n, defect).failures(table.row))
        if fails:
            notes.extend(fails)
        else:
            admissible.append((defect, table.h(1, -1)))
    is_ulrich = (0, 0) in admissible
    is_wic = False
    for d, q in admissible:
        if n == 1:
            # the intermediate range 0 < i < n is empty on curves
            is_wic = True
        elif q == 0 and (d == 0 or (table.h(1, 0) == 0 and table.h(n - 1, -n) == 0)):
            is_wic = True
    defects = [d for d, _ in admissible] or [0]
    natural = all(natural_cohomology_window(table, d) for d in defects)
    return InstantonVerdict(tuple(admissible), is_ulrich, is_wic, natural, tuple(notes))


def natural_cohomology_window(table: CohomologyTable, defect: int) -> bool:
    """At most one nonzero group per twist in the shifts ``defect - n <= t <= -1``."""
    n = table.dimension
    shifts = range(defect - n, 0)
    if not table.covers(defect - n, -1):
        table.require(list(shifts))
    return all(len(row.dims) - row.dims.count(0) <= 1 for row in map(table.row, shifts))


def chi_polynomial(n: int, defect: int, quantum: int, chi0: int, t: int) -> int:
    """Euler characteristic ``chi(E(t h))`` of an instanton sheaf from its invariants.

    Uses the product-form binomial, valid at negative arguments.  The three
    branches: the general ``n >= 2`` display, the special shape
    ``(chi + q)(t + 1)^2 - q`` when (n, defect) = (2, 1), and
    ``chi (t + 1 + defect t)`` on curves.
    """
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return chi0 * (t + 1 + defect * t)
    if (n, defect) == (2, 1):
        return (chi0 + quantum) * (t + 1) ** 2 - quantum
    return (chi0 + (n + 1) * quantum) * (binom(t + n, n) + defect * binom(t + n - defect, n)) - quantum * (
        binom(t + n + 1, n) + binom(t + n - 1 - defect, n)
    )


def rank_from_chi(n: int, defect: int, quantum: int, chi0: int) -> int:
    """Generic rank of an instanton sheaf on P^n from chi and the quantum number."""
    if n < 2:
        raise ValueError("n >= 2")
    if defect == 0:
        return chi0 + (n - 1) * quantum
    if n == 2:
        return 2 * chi0 + 2 * quantum
    return 2 * chi0 + 2 * n * quantum


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
        raise ValueError("restriction needs n >= 3")
    q = 2 * quantum if (n, defect) == (3, 1) else quantum
    return RestrictionResult(defect, q, extension_valid=n >= 5)


def pushforward_model(table: CohomologyTable, degree: int) -> CohomologyTable:
    """Numerical pushforward to P^n under a finite map of the given degree.

    Twist-by-twist cohomology is unchanged; the rank scales by ``h^n``.
    Chern data does not transport and is dropped.
    """
    if degree < 1:
        raise ValueError("the degree h^n is positive")
    return CohomologyTable(
        variety_id=f"projective_space({table.dimension})",
        dimension=table.dimension,
        rank=table.rank * degree,
        tmin=table.tmin,
        tmax=table.tmax,
        rows=table.rows,
        chern=None,
        assumptions=table.assumptions,
    )


def direct_sum(t1: CohomologyTable, t2: CohomologyTable) -> CohomologyTable:
    """Entrywise sum over the common window; ranks add, Chern data is Whitney."""
    if t1.variety_id != t2.variety_id or t1.dimension != t2.dimension:
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
        dimension=t1.dimension,
        rank=t1.rank + t2.rank,
        tmin=tmin,
        tmax=tmax,
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
    largest one the input rows support.
    """
    n = table.dimension
    if entry.dimension != n:
        raise VarietyMismatchError("entry dimension does not match the table")
    tmin = defect - n - 1 - table.tmax
    tmax = defect - n - 1 - table.tmin
    if tmin > tmax:
        raise WindowError("input window too small for the Ulrich dual")
    rows = tuple(
        serre_dual_vector(table.row(defect - n - 1 - t)) for t in range(tmin, tmax + 1)
    )
    chern = None
    if table.chern is not None and table.chern.variety_id == entry.ring.variety_id:
        chern = rr.ulrich_dual_chern(entry, table.chern, defect)
    return CohomologyTable(
        variety_id=table.variety_id,
        dimension=n,
        rank=table.rank,
        tmin=tmin,
        tmax=tmax,
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
    table.require([defect - 1])
    w = table.h(1, defect - 1) + defect
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
            raise ValueError("Betti numbers are nonnegative")

    def multiplicity(self, p: int, i: int) -> int:
        for (pp, ii), m in self.beta:
            if (pp, ii) == (p, i):
                return m
        return 0

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
        raise ValueError("1 <= n <= 3")
    if d < 1 or rank < 1 or hn < 1:
        raise ValueError(f"need d, rank, hn >= 1 (O(dh) ample), got d={d}, rank={rank}, hn={hn}")
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
        raise ValueError("the gate applies from dimension 4 on")
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
