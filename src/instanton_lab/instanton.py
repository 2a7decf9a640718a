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
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .cohomology import CohomologyTable, CohVector, _dims
from .errors import MalformedDataError
from .util import FrozenValue

#: one instanton condition ``(kind, i, t)``, see :class:`InstantonConditions`
Check = tuple[str, int, int]


@dataclass(frozen=True)
class InstantonVerdict:
    """Outcome of the finite condition list, for both defects at once.

    ``admissible`` collects every (defect, quantum) pair that passes;
    ``notes`` records every failing condition of each defect that does
    not, in list order, defect 0 first.  ``is_ulrich`` means (0, 0) passed;
    ``is_wic`` that the sheaf has no intermediate cohomology in any twist;
    ``natural_window`` that each admissible defect sees at most one nonzero
    group per twist in its symmetry window.
    """

    admissible: tuple[tuple[int, int], ...]
    is_ulrich: bool
    is_wic: bool
    natural_window: bool
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        for _, q in self.admissible:
            if q < 0:
                raise MalformedDataError("quantum numbers are nonnegative")
        if self.is_ulrich and (0, 0) not in self.admissible:
            raise MalformedDataError("Ulrich verdicts must contain the pair (0, 0)")

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


class InstantonConditions(FrozenValue):
    """The finite instanton condition list for one defect on an n-fold, as data.

    ``checks`` holds the conditions in evaluation order: first the
    vanishings ``("zero", i, t)``, meaning ``h^i(E(t h)) = 0``; then the q
    equality ``("q", n - 1, defect - n)``, meaning ``h^1(E(-h)) =
    h^(n-1)(E((defect - n) h))``; then, for defect 1 only, the chi equality
    ``("chi", n, -n)``, meaning ``chi(E) = (-1)^n chi(E(-n h))``.  Every
    twist lies in ``[-n, 0]``.  What each check compares is written once per
    traffic shape.  Scans read columns ``t -> rows``, the row at twist t of
    every sheaf under test, through :meth:`passes`: :meth:`sift` filters
    many candidates column-major, one check at a time over the survivors,
    reading each twist's column once and keeping it for the later checks.
    One table's verdict reads its flat window through :meth:`notes`, and a
    reference test keeps the two equal.  Both n and the defect must be ints.
    """

    #: ``checks`` and ``_places`` (the vanishings' getter, the vanishings, the places of h^1(E(-h)) and
    #: h^(n-1)(E((defect - n) h)) in :meth:`notes`'s window) follow from the two fields, so are neither compared nor shown
    __slots__ = ("n", "defect", "checks", "_places")
    _fields = ("n", "defect")

    def __init__(self, n: int, defect: int):
        if type(n) is not int or type(defect) is not int:
            raise MalformedDataError(f"n and the defect must be ints, got {n!r} and {defect!r}")
        if n < 1 or defect not in (0, 1):
            raise MalformedDataError("need n >= 1 and defect in {0, 1}")
        checks = [("zero", 0, -1), ("zero", n, defect - n)]
        for i in range(1, n - 1):
            checks += [("zero", i, -(i + 1)), ("zero", n - i, defect - n + i)]
        if defect:
            checks += [("zero", i, -i) for i in range(2, n - 1)]
        vanishings = tuple(checks)
        checks.append(("q", n - 1, defect - n))
        if defect:
            checks.append(("chi", n, -n))
        zeros = itemgetter(*[(t + n) * (n + 1) + i for _, i, t in vanishings])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "defect", defect)
        object.__setattr__(self, "checks", tuple(checks))
        object.__setattr__(self, "_places", (zeros, vanishings, (n - 1) * (n + 1) + 1, defect * (n + 1) + n - 1))

    @staticmethod
    def passes(check: Check, column: Callable[[int], Iterable[CohVector]]) -> list[bool]:
        """Per sheaf under test, whether ``check`` holds, in one pass over the columns it needs.

        ``column(t)`` is the row at twist t of every sheaf under test.  A
        vanishing asks ``h^i(E(t h)) = 0``, the q equality ``h^1(E(-h)) =
        h^i(E(t h))`` and the chi equality ``chi(E) = (-1)^i chi(E(t h))``;
        columns are read left to right.
        """
        kind, i, t = check
        if kind == "zero":
            return [not row.dims[i] for row in column(t)]
        if kind == "q":
            return [a.dims[1] == b.dims[i] for a, b in zip(column(-1), column(t))]
        sign = (-1) ** i
        return [a.chi() == sign * b.chi() for a, b in zip(column(0), column(t))]

    def notes(self, window: tuple[int, ...]) -> list[str]:
        """A note for each failing condition of one sheaf, in list order, read off ``window``, its rows
        at ``-n, ..., 0`` as one flat tuple (``h^i(E(t h))`` at ``(t + n) (n + 1) + i``): the vanishings
        by one ``itemgetter``, then the q pair and the chi pair."""
        zeros, vanishings, q1, qi, n, defect = *self._places, self.n, self.defect
        notes = []
        if any(values := zeros(window)):
            notes = [f"delta={defect}: h^{i}(E({t}h)) = {v} != 0" for (_, i, t), v in zip(vanishings, values) if v]
        if window[q1] != window[qi]:
            notes.append(f"delta={defect}: h^1(E(-h)) = {window[q1]} != h^{n - 1}(E({defect - n}h)) = {window[qi]}")
        if defect:
            top = n * (n + 1)  # the rows at 0 and at -n
            chi = sum(window[top::2]) - sum(window[top + 1 :: 2])
            chi_t = (-1) ** n * (sum(window[: n + 1 : 2]) - sum(window[1 : n + 1 : 2]))
            if chi != chi_t:
                notes.append(f"delta={defect}: chi(E) = {chi} != (-1)^{n} chi(E({-n}h)) = {chi_t}")
        return notes

    def sift(
        self, count: int, column_of: Callable[[int, list[int] | None], Iterable[CohVector]]
    ) -> tuple[Sequence[int], dict[int, list[CohVector]], tuple[int, ...]]:
        """Filter candidates condition-major: one pass per check, over the survivors.

        The candidates are the indices ``0, ..., count - 1``; the survivors are
        ``None``, meaning all of them, until a check rejects one, and then the
        list of the indices that passed every check so far.
        ``column_of(t, survivors)`` is the rows at twist t of the survivors, in
        index order, possibly a lazy iterator; it is called once per twist, by
        the first check that reads it, and the column is kept.  After each check
        that rejects a candidate the survivors and every kept column drop it, so
        a candidate meets exactly the checks that running its list alone, up to
        the first failure, would reach, and no row is read twice.  Returns the
        indices of the candidates that pass every check, their kept columns by
        twist, and per check the number it rejected: the candidates whose first
        failing condition it is.
        """
        survivors: list[int] | None = None
        columns: dict[int, list[CohVector]] = {}
        rejected = []

        def column(t: int) -> list[CohVector]:
            if t not in columns:
                columns[t] = list(column_of(t, survivors))
            return columns[t]

        for check in self.checks:
            keep = self.passes(check, column)
            dropped = keep.count(False)
            rejected.append(dropped)
            if dropped:
                survivors = list(compress(range(count) if survivors is None else survivors, keep))
                columns = {t: list(compress(rows, keep)) for t, rows in columns.items()}
        return range(count) if survivors is None else survivors, columns, tuple(rejected)


#: immutable: one list per (n, defect); typed, so ``True`` or ``1.0`` reaches the
#: constructor's refusal instead of the list cached for 1
_conditions = functools.lru_cache(maxsize=None, typed=True)(InstantonConditions)


def check_instanton(table: CohomologyTable) -> InstantonVerdict:
    """Run the finite instanton condition list for both defects.

    The window must cover ``[-n, 0]``; a smaller table raises
    :class:`WindowError` naming the missing twists.  Both admissible pairs
    are reported when both condition sets pass.
    """
    n = table.dimension
    table.require(-n, 0)
    window = tuple(chain.from_iterable(map(_dims, table.rows[-n - table.tmin : 1 - table.tmin])))
    admissible: list[tuple[int, int]] = []
    notes: list[str] = []
    for defect in (0, 1):
        fails = _conditions(n, defect).notes(window)
        notes += fails
        if not fails:
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
    table.require(defect - n, -1)
    return all(len(row.dims) - row.dims.count(0) <= 1 for row in map(table.row, range(defect - n, 0)))
