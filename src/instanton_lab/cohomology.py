"""Exact line-bundle cohomology engines and cohomology tables.

One closed-form engine per catalog family, each listed in one table,
:data:`ENGINES`, keyed by the entry's ``kind``:

* projective space -- Borel-Weil-Bott for GL(n+1) (:func:`bott_gl`), for ``O(t)``
  and the twisted differentials ``Omega^p(t)``;
* quadrics and prime Fano 3-folds -- one Kodaira-Serre rule on their own h^0;
* products of projective spaces -- Kunneth convolution;
* the flag 3-fold -- Borel-Weil-Bott for GL(3), the same :func:`bott_gl`;
* scrolls over P^1 -- the symmetric-power splitting of the pushforward, with
  Serre duality below the vanishing window;
* curves -- one Brill-Noether rule on the degree and the genus, exact at
  genus 0 and on a twist ``theta + s h`` of a non-effective
  theta-characteristic, the degree ``g - 1 + s deg h`` of
  :func:`catalog.theta_coords`.

Line bundles reach the engines through one memo per catalog entry value
(``_rows``), keyed by checked coordinates: a miss calls the kind's engine
once and keeps the vector for the life of the process, so scans, tables and
:func:`line_bundle_cohomology` share every bundle any of them has computed.
The memo holds each line bundle visited: about 2 500 vectors after the
sweeps of boxes 4-10 on the two sextic del Pezzo 3-folds.

Tables collect the cohomology of one bundle over a twist window and are the
raw material the instanton checker consumes.  A table stores the window's
first twist and its ``dims``, one plain int tuple ``(h^0, ..., h^n)`` per
twist, so the window cannot disagree with its rows; ``rows`` shows them as
``CohVector`` values on request.  :func:`build_table` works on the whole
window at once: each summand's keys come from one ``zip`` of shifted
coordinate ranges, its column from one ``map`` over the memo, and the
summands are scaled and summed in one flat pass that is split into rows.
The constructor checks every row, whoever made it, in set passes over the
window.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Sequence
from functools import partial, reduce
from math import comb

from . import rr
from .catalog import VarietyCatalogEntry, check_coords, entry_ring, line_bundle_class
from .errors import (
    MalformedDataError,
    UnknownVarietyError,
    UnsupportedBundleError,
    VarietyMismatchError,
    WindowError,
)
from .rr import ChernData
from .util import FrozenValue, binom


class CohVector(FrozenValue):
    """The tuple ``(h^0, ..., h^n)`` of one twist; entries are nonnegative."""

    __slots__ = _fields = ("dims",)

    def __init__(self, dims: tuple[int, ...]):
        if type(dims) is not tuple:
            raise MalformedDataError(f"cohomology dimensions must be a tuple, got {dims!r}")
        try:
            negative = dims and min(dims) < 0
        except TypeError:  # a dimension that does not compare with 0
            raise MalformedDataError(f"cohomology dimensions must be ints, got {dims!r}") from None
        if negative:
            raise MalformedDataError(f"negative cohomology dimension in {dims}")
        object.__setattr__(self, "dims", dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __len__(self) -> int:
        return len(self.dims)

    def __add__(self, other: "CohVector") -> "CohVector":
        if len(self.dims) != len(other.dims):
            raise MalformedDataError("cohomology vectors of different lengths")
        return CohVector(tuple(a + b for a, b in zip(self.dims, other.dims)))

    def scale(self, m: int) -> "CohVector":
        if m < 0:
            raise MalformedDataError("multiplicities must be nonnegative")
        return CohVector(tuple(m * d for d in self.dims))

    def chi(self) -> int:
        return sum(self.dims[::2]) - sum(self.dims[1::2])

    def is_zero(self) -> bool:
        return not any(self.dims)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.dims) if d)


#: a vector's dims, read in C by :func:`build_table`
_dims = operator.attrgetter("dims")


def zero_vector(n: int) -> CohVector:
    return CohVector((0,) * (n + 1))


def serre_dual_vector(v: CohVector) -> CohVector:
    """The reversed vector; callers pair it with the dual-twist bookkeeping."""
    return CohVector(tuple(reversed(v.dims)))


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------


def bott_gl(weight: Sequence[int], dim: int) -> CohVector:
    """Borel-Weil-Bott for GL(m): the cohomology of the homogeneous bundle of highest
    weight ``weight = (w_1, ..., w_m)`` on a flag variety of GL(m) of dimension ``dim``.

    With ``rho = (m-1, ..., 1, 0)``, a repeated entry of ``weight + rho`` makes the
    bundle acyclic; otherwise the only nonzero group sits in the degree that counts
    the inversions of ``weight + rho`` and carries Weyl's dimension, the product of
    ``(mu_i - mu_j) / (j - i)`` over ``i < j`` on the decreasing sort ``mu``.
    """
    m = len(weight)
    shifted = [w + m - 1 - i for i, w in enumerate(weight)]
    dims = [0] * (dim + 1)
    if len(set(shifted)) == m:
        num = den = 1
        for (i, a), (j, b) in itertools.combinations(enumerate(sorted(shifted, reverse=True)), 2):
            num *= a - b
            den *= j - i
        dims[sum(a < b for a, b in itertools.combinations(shifted, 2))] = num // den
    return CohVector(tuple(dims))


def coh_projective_space(n: int, t: int) -> CohVector:
    """Cohomology of ``O(t)`` on P^n: the GL(n+1) weight ``(t, 0, ..., 0)``."""
    if n < 1:
        raise UnknownVarietyError("n >= 1")
    return bott_gl((t,) + (0,) * n, n)


def bott_pn(n: int, p: int, t: int) -> CohVector:
    """Bott's formula for ``Omega^p(t)`` on P^n: the GL(n+1) weight ``(t-p, 1^p, 0^(n-p))``.

    Nonzero only in degree 0 for ``t > p``, in degree p for ``t = 0`` (a
    single class), and in degree n for ``t < p - n``.
    """
    if not 0 <= p <= n:
        raise UnsupportedBundleError("0 <= p <= n")
    return bott_gl((t - p,) + (1,) * p + (0,) * (n - p), n)


def _kodaira_serre(n: int, index: int, h0: Callable[[int], int], t: int) -> CohVector:
    """Cohomology of ``O(t)`` on an n-fold with ``omega = O(-index)`` and no intermediate
    cohomology: ``h0(t)`` sections for ``t >= 0``, ``h^n = h0(-index - t)`` by Serre
    duality for ``t <= -index``, and zero in every other group."""
    dims = [0] * (n + 1)
    if t >= 0:
        dims[0] = h0(t)
    if t <= -index:
        dims[n] = h0(-index - t)
    return CohVector(tuple(dims))


def coh_quadric(n: int, t: int) -> CohVector:
    """Cohomology of ``O(t)`` on a smooth n-dimensional quadric, of index n.

    Sections come from the ambient restriction sequence; the rest is
    :func:`_kodaira_serre`.
    """
    if n < 2:
        raise UnknownVarietyError("n >= 2")
    return _kodaira_serre(n, n, lambda k: binom(k + n + 1, n + 1) - binom(k + n - 1, n + 1), t)


def coh_product(factors: list[tuple[int, int]]) -> CohVector:
    """Kunneth convolution for ``O(t_1, ..., t_r)`` on a product of projective spaces.

    ``O(t)`` on P^n has cohomology in one degree (0 or n) only, so the
    convolution has a single term: the product of the factors' binomials in
    the sum of their degrees.
    """
    if not factors:
        raise UnknownVarietyError("at least one factor")
    dim = degree = 0
    h = 1
    for n, t in factors:
        if n < 1:
            raise UnknownVarietyError("n >= 1")
        dim += n
        if t >= 0:
            h *= binom(t + n, n)
        elif t <= -n - 1:
            h *= binom(-t - 1, n)
            degree += n
        else:
            h = 0
    dims = [0] * (dim + 1)
    dims[degree] = h
    return CohVector(tuple(dims))


def coh_flag3(a1: int, a2: int) -> CohVector:
    """Cohomology of ``O(a1 h1 + a2 h2)`` on the flag 3-fold: the GL(3) weight ``(a1 + a2, a2, 0)``.

    The fundamental-weight order is fixed so that ``O(h1)`` has three sections;
    swapping h1 and h2 is a symmetry of the output.
    """
    return bott_gl((a1 + a2, a2, 0), 3)


#: split degrees -> ``count[k][s]``, the size-k multisets of those degrees with
#: degree sum s, for every k up to the largest size counted so far
_COUNTS: dict[tuple[int, ...], list[list[int]]] = {}


def _multiset_counts(degrees: tuple[int, ...], size: int) -> list[int]:
    """The size-``size`` multisets of the split degrees, counted by degree sum.

    One table per degree tuple is kept for the process.  A size it does not
    reach rebuilds it at least twice as tall, with one pass per split degree,
    so a window of twists counts a few times at most, not once per twist.
    """
    count = _COUNTS.get(degrees)
    if count is None or size >= len(count):
        sizes = max(size, 2 * len(count) if count else 0)
        top = sizes * max(degrees)
        count = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(sizes)]
        for x in degrees:
            for k in range(1, sizes + 1):
                count[k] = list(map(operator.add, count[k], [0] * x + count[k - 1][: top + 1 - x]))
        _COUNTS[degrees] = count
    return count[size]


def coh_scroll_p1(degrees: tuple[int, ...], t: int, a: int) -> CohVector:
    """Cohomology of ``O(t h + a f)`` on the scroll P(O(a_0)+...+O(a_{n-1})) over P^1.

    For ``t >= 0`` the pushforward splits into line bundles on P^1 indexed by
    degree-t multisets of the split degrees, counted here by degree sum; for
    ``1-n <= t <= -1`` everything vanishes; below that, Serre duality against
    ``omega = O(-n h + (d-2) f)`` reads the size ``-n-t`` multisets.
    """
    n = len(degrees)
    if n < 2 or any(x < 1 for x in degrees):
        raise UnknownVarietyError("need >= 2 split degrees, all >= 1")
    if 1 - n <= t <= -1:
        return zero_vector(n)
    size, b = (t, a) if t >= 0 else (-n - t, sum(degrees) - 2 - a)
    # sum h^0 and h^1 of O(b + s) on P^1 over the degree sums s
    h0 = h1 = 0
    for s, mult in enumerate(_multiset_counts(tuple(degrees), size)):
        if mult:
            deg = b + s
            if deg >= 0:
                h0 += mult * (deg + 1)
            else:
                h1 -= mult * (deg + 1)
    zeros = (0,) * (n - 1)
    return CohVector((h0, h1) + zeros if t >= 0 else zeros + (h1, h0))


def coh_curve(g: int, d: int) -> CohVector:
    """Cohomology of a degree-d line bundle on a genus-g curve.

    The general Brill-Noether value; it is exact at g = 0, where the curve is the line.
    """
    if g < 0:
        raise UnknownVarietyError("genus >= 0")
    return CohVector((max(0, d - g + 1), max(0, g - 1 - d)))


def coh_curve_theta_shift(g: int, deg_h: int, s: int) -> CohVector:
    """Cohomology of ``O(theta + s h)`` for a generic non-effective theta.

    Exact consequence of genericity: ``chi = s deg(h)`` and one-sided
    vanishing, so ``h^0 = max(s, 0) deg(h)`` and ``h^1 = max(-s, 0) deg(h)``.
    :func:`coh_curve` gives it at :func:`catalog.theta_coords`.
    """
    if deg_h < 1:
        raise UnknownVarietyError("polarization degree >= 1")
    return CohVector((max(s, 0) * deg_h, max(-s, 0) * deg_h))


def coh_cyclic_fano_index1(g: int, m: int) -> CohVector:
    """Cohomology of ``O(m H)`` on a prime Fano 3-fold of genus g.

    Kodaira vanishing kills the middle groups for every twist, so
    ``h^0 = chi`` for ``m >= 0`` and :func:`_kodaira_serre` at index 1 does the rest.
    ``chi(O(k H)) = (g - 1) k (k + 1) (2k + 1) / 6 + 2k + 1`` is Riemann-Roch
    with ``H^3 = 2g - 2``, ``K = -H`` and ``c_2(Omega) . H = 24``, written in
    closed form so that the engine stays independent of :func:`rr.chi`.
    """
    if g < 3:
        raise UnknownVarietyError("prime Fano 3-folds have genus >= 3")
    return _kodaira_serre(3, 1, lambda k: (g - 1) * k * (k + 1) * (2 * k + 1) // 6 + 2 * k + 1, m)


# --------------------------------------------------------------------------
# Bundle descriptors and tables
# --------------------------------------------------------------------------


def _coh_scroll_generic(entry: VarietyCatalogEntry, coords: tuple[int, ...]) -> CohVector:
    if 1 - entry.dimension <= coords[0] <= -1:
        return zero_vector(entry.dimension)
    raise UnsupportedBundleError("only the vanishing window is exact on generic scrolls; use chi_scroll_line")


class _EngineTable(dict):
    def __missing__(self, kind: str):
        raise UnsupportedBundleError(f"no engine for {kind}")


#: ``ENGINES[entry.kind](entry, coords)`` on checked coordinates, called on a memo miss
#: only; the public engines are read as module globals at call time, so rebinding one
#: here reaches every later miss
ENGINES = _EngineTable({
    "projective_space": lambda e, c: coh_projective_space(e.dimension, c[0]),
    "quadric": lambda e, c: coh_quadric(e.dimension, c[0]),
    "prime_fano": lambda e, c: coh_cyclic_fano_index1(e.genus, c[0]),
    "flag3": lambda e, c: coh_flag3(*c),
    "triple_p1": lambda e, c: coh_product([(1, c[0]), (1, c[1]), (1, c[2])]),
    "scroll_p1": lambda e, c: coh_scroll_p1(e.degrees, c[0], c[1]),
    "scroll_generic": _coh_scroll_generic,
    "curve": lambda e, c: coh_curve(e.genus, c[0]),
})


class _LineBundleRows(dict):
    """One entry's line-bundle cohomology keyed by checked coordinates, each computed on first read.

    A miss calls the kind's engine; an engine that raises stores nothing.
    """

    def __init__(self, entry: VarietyCatalogEntry):
        super().__init__()
        self.entry = entry

    def __missing__(self, coords: tuple[int, ...]) -> CohVector:
        vec = self[coords] = ENGINES[self.entry.kind](self.entry, coords)
        return vec


#: one memo per catalog entry value, kept for the life of the process: entries are
#: frozen, and equal entries have equal engines
_ROWS: dict[VarietyCatalogEntry, _LineBundleRows] = {}


def _rows(entry: VarietyCatalogEntry) -> _LineBundleRows:
    """The entry's line-bundle memo: the one way to an engine."""
    rows = _ROWS.get(entry)
    if rows is None:
        rows = _ROWS[entry] = _LineBundleRows(entry)
    return rows


def line_bundle_cohomology(entry: VarietyCatalogEntry, coords: tuple[int, ...]) -> CohVector:
    """Check the coordinates once, then read the entry's memo."""
    return _rows(entry)[check_coords(entry, coords)]


def chi_scroll_line(entry: VarietyCatalogEntry, t: int, a: int) -> int:
    """Exact ``chi(O(t h + a f))`` on any scroll (deg a = a on the base curve).

    For ``t >= 0`` this is Riemann-Roch for the symmetric power of the
    defining bundle; inside the vanishing window it is zero; below, Serre
    duality maps ``(t, a)`` to ``(-n - t, d - 2 + 2g - a)`` and the sign
    ``(-1)^n``.  Certified for both the split and the generic scroll model.
    """
    n, d, g = entry.dimension, entry.deg_g, entry.genus
    if 1 - n <= t <= -1:
        return 0
    sign = 1
    if t < 0:
        t, a, sign = -n - t, d - 2 + 2 * g - a, (-1) ** n
    return sign * (comb(t + n - 1, n - 1) * (1 - g + a) + d * comb(t + n - 1, n))


Bundles = list[tuple[tuple[int, ...], int]]

#: a JSON row's twist and dimensions
_twist_of, _dims_of = operator.itemgetter("t"), operator.itemgetter("h")


class CohomologyTable(FrozenValue):
    """One sheaf's cohomology ``dims``, one int tuple ``(h^0, ..., h^n)`` per twist of the window
    from ``tmin``, which give the window's end and n; ``rows`` and :meth:`row` show them as
    ``CohVector`` values.  The constructor is the one place a table is checked, in set passes over
    the whole window.  Its variety id resolves through :func:`catalog.entry_ring`, which refuses
    an id that is not a string; a rank or tmin that is not an int, a rank below 1, dims that are
    not a non-empty tuple of tuples ``(h^0, ..., h^n)`` of nonnegative ints on that variety,
    assumptions that are not a tuple of strings, and Chern data that are not ``ChernData`` or are
    of another rank raise ``MalformedDataError``; an unknown variety raises
    ``UnknownVarietyError`` and Chern data on another ring ``VarietyMismatchError``."""

    __slots__ = _fields = ("variety_id", "rank", "tmin", "dims", "chern", "assumptions")

    def __init__(
        self,
        variety_id: str,
        rank: int,
        tmin: int,
        dims: tuple[tuple[int, ...], ...],
        chern: ChernData | None = None,
        assumptions: tuple[str, ...] = (),
    ):
        ring = entry_ring(variety_id)
        n = ring.top_degree
        if type(rank) is not int or type(tmin) is not int:
            raise MalformedDataError(f"rank and tmin must be ints, got {rank!r} and {tmin!r}")
        if rank < 1:
            raise MalformedDataError("rank must be positive")
        if not dims:
            raise MalformedDataError("empty window")
        if type(dims) is not tuple or set(map(type, dims)) != {tuple}:
            raise MalformedDataError("dims must be a tuple of int tuples, one per twist")
        if set(map(len, dims)) != {n + 1}:
            raise MalformedDataError(f"rows on {variety_id} must list h^0, ..., h^{n}")
        flat = tuple(itertools.chain.from_iterable(dims))
        if set(map(type, flat)) != {int}:
            raise MalformedDataError(f"cohomology dimensions on {variety_id} must be ints")
        if min(flat) < 0:
            raise MalformedDataError(f"negative cohomology dimension in {next(d for d in dims if min(d) < 0)}")
        if type(assumptions) is not tuple or assumptions and set(map(type, assumptions)) != {str}:
            raise MalformedDataError(f"assumptions must be a tuple of strings, got {assumptions!r}")
        if chern is not None:
            if type(chern) is not ChernData:
                raise MalformedDataError(f"the chern block must be ChernData or None, got {chern!r}")
            if chern.rank != rank:
                raise MalformedDataError(f"the chern block's rank {chern.rank!r} is not the table's rank {rank}")
            if chern.c1.ring is not ring:
                raise VarietyMismatchError(f"Chern data on {chern.variety_id!r} does not live on {variety_id!r}")
        object.__setattr__(self, "variety_id", variety_id)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "tmin", tmin)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "chern", chern)
        object.__setattr__(self, "assumptions", assumptions)

    @property
    def rows(self) -> tuple[CohVector, ...]:
        return tuple(map(CohVector, self.dims))

    @property
    def tmax(self) -> int:
        return self.tmin + len(self.dims) - 1

    @property
    def dimension(self) -> int:
        return len(self.dims[0]) - 1

    def covers(self, a: int, b: int) -> bool:
        return self.tmin <= a and b < self.tmin + len(self.dims)

    def require(self, lo: int, hi: int) -> None:
        """Raise ``WindowError`` naming the twists of ``[lo, hi]`` the table does not cover."""
        if lo > hi or self.covers(lo, hi):
            return
        missing = tuple(t for t in range(lo, hi + 1) if not self.tmin <= t <= self.tmax)
        raise WindowError(f"table window [{self.tmin}, {self.tmax}] is missing twists {list(missing)}", missing)

    def _at(self, t: int) -> tuple[int, ...]:
        i = t - self.tmin
        if not 0 <= i < len(self.dims):
            self.require(t, t)
        return self.dims[i]

    def row(self, t: int) -> CohVector:
        return CohVector(self._at(t))

    def h(self, i: int, t: int) -> int:
        return self._at(t)[i]

    def chi_at(self, t: int) -> int:
        dims = self._at(t)
        return sum(dims[::2]) - sum(dims[1::2])

    def twists(self) -> range:
        return range(self.tmin, self.tmin + len(self.dims))

    def to_json(self) -> dict:
        out: dict = {
            "variety": self.variety_id,
            "rank": self.rank,
            "window": {"tmin": self.tmin, "tmax": self.tmax},
            "rows": [{"t": t, "h": list(dims)} for t, dims in zip(self.twists(), self.dims)],
        }
        if self.chern is not None:
            out["chern"] = self.chern.to_json()
        if self.assumptions:
            out["assumptions"] = list(self.assumptions)
        return out

    @staticmethod
    def from_json(data: dict) -> "CohomologyTable":
        """Read a table, checking only what the JSON alone has: its keys, window ends and twists
        that are ints and enumerate the window, each row's ``h`` that is a list, and ``assumptions``
        that is a list.  The variety id resolves in :func:`catalog.entry_ring`, and the constructors
        check the rest."""
        try:
            variety_id, rank = data["variety"], data["rank"]
            tmin, tmax = data["window"]["tmin"], data["window"]["tmax"]
            rows_sorted = sorted(data["rows"], key=_twist_of)
            twists = list(map(_twist_of, rows_sorted))
            hs = list(map(_dims_of, rows_sorted))
            assumptions = data.get("assumptions", [])
            chern = ChernData.from_json(variety_id, data["chern"]) if "chern" in data else None
        except (KeyError, TypeError) as exc:
            raise MalformedDataError(f"malformed cohomology table ({type(exc).__name__}: {exc})") from None
        if set(map(type, itertools.chain((tmin, tmax), twists))) != {int}:
            raise MalformedDataError("window and twists must be ints")
        if set(map(type, hs)) - {list}:
            raise MalformedDataError(f"a row's h must be a list, got {next(h for h in hs if type(h) is not list)!r}")
        if type(assumptions) is not list:
            raise MalformedDataError("assumptions must be a list")
        # the row count first, so the window's width sets no work
        if len(twists) != tmax - tmin + 1 or twists != list(range(tmin, tmax + 1)):
            raise MalformedDataError("rows do not enumerate a non-empty window")
        return CohomologyTable(
            variety_id=variety_id,
            rank=rank,
            tmin=tmin,
            dims=tuple(map(tuple, hs)),
            chern=chern,
            assumptions=tuple(assumptions),
        )


def build_table(
    entry: VarietyCatalogEntry,
    bundles: Bundles | tuple[int, ...],
    window: tuple[int, int],
    with_chern: bool = True,
) -> CohomologyTable:
    """Table of a direct sum of line bundles over a twist window.

    ``bundles`` is either a single coordinate tuple or a list of
    ``(coordinates, multiplicity)`` pairs.  Rank and Chern data are filled in
    whenever derivable; generic curve models record their assumption.
    """
    if isinstance(bundles, tuple):
        bundles = [(bundles, 1)]
    if not bundles:
        raise UnsupportedBundleError("empty bundle descriptor")
    # the whole descriptor and the window are checked before any engine runs for them
    bundles = [(check_coords(entry, coords), mult) for coords, mult in bundles]
    if any(mult < 0 for _, mult in bundles):
        raise MalformedDataError("multiplicities must be nonnegative")
    rank = sum(mult for _, mult in bundles)
    if rank < 1:
        raise MalformedDataError("rank must be positive")
    tmin, tmax = window
    if tmin > tmax:
        raise MalformedDataError(f"window ({tmin}, {tmax}) has tmin > tmax")
    size, read, step = tmax - tmin + 1, _rows(entry).__getitem__, entry.h_coords
    columns = []
    for coords, mult in bundles:
        # the summand's keys over the window: each coordinate c moves by its h coordinate v per twist
        ranges = [
            range(c + tmin * v, c + (tmax + 1) * v, v) if v else itertools.repeat(c, size)
            for c, v in zip(coords, step)
        ]
        values = itertools.chain.from_iterable(map(_dims, map(read, zip(*ranges))))
        columns.append(map(operator.mul, values, itertools.repeat(mult)))
    # one flat pass sums the scaled columns; it is split into rows of n + 1 as it runs
    flat = reduce(partial(map, operator.add), columns)
    dims = tuple(zip(*[flat] * (entry.dimension + 1)))
    chern = None
    if with_chern:
        chern = rr.chern_of_line_bundle_sum([(line_bundle_class(entry, c), m) for c, m in bundles])
    assumptions = ("generic Brill-Noether position",) if entry.curve_model == "generic" else ()
    return CohomologyTable(
        variety_id=entry.variety_id,
        rank=rank,
        tmin=tmin,
        dims=dims,
        chern=chern,
        assumptions=assumptions,
    )

