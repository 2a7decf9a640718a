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
Ulrich duals ``E^v((n+1) h + K_X)`` and to direct sums; those table
transforms, and the other instanton invariants (chi polynomial, regularity,
Betti shapes), live in :mod:`instanton_lab.replays`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from .cohomology import CohomologyTable, CohVector

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
