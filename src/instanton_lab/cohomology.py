"""Exact line-bundle cohomology engines and cohomology tables.

One closed-form engine per catalog family, each listed in one table,
:data:`ENGINES`, keyed by the entry's ``kind``:

* projective space -- Borel-Weil-Bott for GL(n+1) (:func:`bott_gl`), for ``O(t)``
  and the twisted differentials ``Omega^p(t)``;
* quadrics -- the restriction sequence from the ambient projective space;
* products of projective spaces -- Kunneth convolution;
* the flag 3-fold -- Borel-Weil-Bott for GL(3), the same :func:`bott_gl`;
* scrolls over P^1 -- the symmetric-power splitting of the pushforward, with
  Serre duality below the vanishing window;
* curves -- exact genus-0 values and the generic Brill-Noether model, each
  exact on a twist ``theta + s h`` of a non-effective theta-characteristic,
  the degree ``g - 1 + s deg h`` of :func:`catalog.theta_coords`.

Line bundles reach the engines through one memo per catalog entry value
(``_rows``), keyed by checked coordinates: a miss calls the kind's engine
once and keeps the vector for the life of the process, so scans, tables and
:func:`line_bundle_cohomology` share every bundle any of them has computed.
The memo holds each line bundle visited: about 2 500 vectors after the
sweeps of boxes 4-10 on the two sextic del Pezzo 3-folds.

Tables collect the cohomology vectors of one bundle over a twist window and
are the raw material the instanton checker consumes.  A table reads each
summand's column over the window from the memo, twist by twist, and sums the
columns as plain integers.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from . import rr
from .catalog import (
    VarietyCatalogEntry,
    check_coords,
    entry_ring,
    line_bundle_class,
    polarization_coords,
)
from .errors import MalformedDataError, UnsupportedBundleError, WindowError
from .rr import ChernData
from .util import binom


@dataclass(frozen=True)
class CohVector:
    """The tuple ``(h^0, ..., h^n)`` of one twist; entries are nonnegative."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dims and min(self.dims) < 0:
            raise ValueError(f"negative cohomology dimension in {self.dims}")

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __len__(self) -> int:
        return len(self.dims)

    def __add__(self, other: "CohVector") -> "CohVector":
        if len(self.dims) != len(other.dims):
            raise ValueError("cohomology vectors of different lengths")
        return CohVector(tuple(a + b for a, b in zip(self.dims, other.dims)))

    def scale(self, m: int) -> "CohVector":
        if m < 0:
            raise ValueError("multiplicities must be nonnegative")
        return CohVector(tuple(m * d for d in self.dims))

    def chi(self) -> int:
        return sum(self.dims[::2]) - sum(self.dims[1::2])

    def is_zero(self) -> bool:
        return not any(self.dims)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.dims) if d)


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
        raise ValueError("n >= 1")
    return bott_gl((t,) + (0,) * n, n)


def bott_pn(n: int, p: int, t: int) -> CohVector:
    """Bott's formula for ``Omega^p(t)`` on P^n: the GL(n+1) weight ``(t-p, 1^p, 0^(n-p))``.

    Nonzero only in degree 0 for ``t > p``, in degree p for ``t = 0`` (a
    single class), and in degree n for ``t < p - n``.
    """
    if not 0 <= p <= n:
        raise ValueError("0 <= p <= n")
    return bott_gl((t - p,) + (1,) * p + (0,) * (n - p), n)


def coh_quadric(n: int, t: int) -> CohVector:
    """Cohomology of ``O(t)`` on a smooth n-dimensional quadric.

    Sections come from the ambient restriction sequence, the top degree from
    Serre duality with ``omega = O(-n)``; everything in between vanishes.
    """
    if n < 2:
        raise ValueError("n >= 2")
    dims = [0] * (n + 1)
    if t >= 0:
        dims[0] = binom(t + n + 1, n + 1) - binom(t + n - 1, n + 1)
    elif t <= -n:
        s = -n - t
        dims[n] = binom(s + n + 1, n + 1) - binom(s + n - 1, n + 1)
    return CohVector(tuple(dims))


def coh_product(factors: list[tuple[int, int]]) -> CohVector:
    """Kunneth convolution for ``O(t_1, ..., t_r)`` on a product of projective spaces.

    ``O(t)`` on P^n has cohomology in one degree (0 or n) only, so the
    convolution has a single term: the product of the factors' binomials in
    the sum of their degrees.
    """
    if not factors:
        raise ValueError("at least one factor")
    dim = degree = 0
    h = 1
    for n, t in factors:
        if n < 1:
            raise ValueError("n >= 1")
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
        raise ValueError("need >= 2 split degrees, all >= 1")
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


def coh_curve(g: int, d: int, model: str) -> CohVector:
    """Cohomology of a degree-d line bundle on a genus-g curve.

    ``exact_p1`` is exact on the line; ``generic`` returns the general Brill-Noether value.
    """
    if g < 0:
        raise ValueError("genus >= 0")
    if model == "exact_p1":
        if g != 0:
            raise ValueError("exact_p1 requires genus 0")
        return CohVector((max(0, d + 1), max(0, -d - 1)))
    if model == "generic":
        return CohVector((max(0, d - g + 1), max(0, g - 1 - d)))
    raise ValueError(f"unknown curve model {model!r}")


def coh_curve_theta_shift(g: int, deg_h: int, s: int) -> CohVector:
    """Cohomology of ``O(theta + s h)`` for a generic non-effective theta.

    Exact consequence of genericity: ``chi = s deg(h)`` and one-sided
    vanishing, so ``h^0 = max(s, 0) deg(h)`` and ``h^1 = max(-s, 0) deg(h)``.
    :func:`coh_curve` gives it on either model at :func:`catalog.theta_coords`.
    """
    if deg_h < 1:
        raise ValueError("polarization degree >= 1")
    return CohVector((max(s, 0) * deg_h, max(-s, 0) * deg_h))


def coh_cyclic_fano_index1(entry: VarietyCatalogEntry, m: int) -> CohVector:
    """Cohomology of ``O(m H)`` on a prime Fano 3-fold of genus g.

    Kodaira vanishing kills the middle groups for every twist, so
    ``h^0 = chi`` for ``m >= 0`` and ``h^3 = h^0(O((-1-m) H))`` by duality.
    ``chi(O(k H)) = (g - 1) k (k + 1) (2k + 1) / 6 + 2k + 1`` is Riemann-Roch
    with ``H^3 = 2g - 2``, ``K = -H`` and ``c_2(Omega) . H = 24``, written in
    closed form so that the engine stays independent of :func:`rr.chi`.
    """
    if entry.kind != "prime_fano":
        raise ValueError("entry must be a prime Fano 3-fold")

    def h0(k: int) -> int:
        if k < 0:
            return 0
        return (entry.genus - 1) * k * (k + 1) * (2 * k + 1) // 6 + 2 * k + 1

    return CohVector((h0(m), 0, 0, h0(-1 - m)))


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
    "prime_fano": lambda e, c: coh_cyclic_fano_index1(e, c[0]),
    "flag3": lambda e, c: coh_flag3(*c),
    "triple_p1": lambda e, c: coh_product([(1, c[0]), (1, c[1]), (1, c[2])]),
    "scroll_p1": lambda e, c: coh_scroll_p1(e.degrees, c[0], c[1]),
    "scroll_generic": _coh_scroll_generic,
    "curve": lambda e, c: coh_curve(e.genus, c[0], e.curve_model),
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
    duality.  Certified for both the split and the generic scroll model.
    """
    n, d, g = entry.dimension, entry.deg_g, entry.genus or 0
    if 1 - n <= t <= -1:
        return 0
    if t >= 0:
        rank = binom(t + n - 1, n - 1)
        deg = d * binom(t + n - 1, n)
        return rank * (1 - g + a) + deg
    return (-1) ** n * chi_scroll_line(entry, -n - t, d - 2 + 2 * g - a)


Bundles = list[tuple[tuple[int, ...], int]]


@dataclass(frozen=True)
class CohomologyTable:
    """Cohomology vectors of one sheaf over an inclusive twist window."""

    variety_id: str
    dimension: int
    rank: int
    tmin: int
    tmax: int
    rows: tuple[CohVector, ...]
    chern: ChernData | None = None
    assumptions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tmin > self.tmax:
            raise ValueError("empty window")
        if len(self.rows) != self.tmax - self.tmin + 1:
            raise ValueError("row count does not match the window")
        for row in self.rows:
            if len(row) != self.dimension + 1:
                raise ValueError("row length does not match the dimension")

    def covers(self, a: int, b: int) -> bool:
        return self.tmin <= a and b <= self.tmax

    def require(self, twists: list[int]) -> None:
        missing = tuple(sorted(t for t in set(twists) if not self.tmin <= t <= self.tmax))
        if missing:
            raise WindowError(
                f"table window [{self.tmin}, {self.tmax}] is missing twists {list(missing)}",
                missing,
            )

    def row(self, t: int) -> CohVector:
        if not self.tmin <= t <= self.tmax:
            self.require([t])
        return self.rows[t - self.tmin]

    def h(self, i: int, t: int) -> int:
        return self.row(t)[i]

    def chi_at(self, t: int) -> int:
        return self.row(t).chi()

    def twists(self) -> range:
        return range(self.tmin, self.tmax + 1)

    def to_json(self) -> dict:
        out: dict = {
            "variety": self.variety_id,
            "rank": self.rank,
            "window": {"tmin": self.tmin, "tmax": self.tmax},
            "rows": [{"t": t, "h": list(row.dims)} for t, row in zip(self.twists(), self.rows)],
        }
        if self.chern is not None:
            out["chern"] = self.chern.to_json()
        if self.assumptions:
            out["assumptions"] = list(self.assumptions)
        return out

    @staticmethod
    def from_json(data: dict) -> "CohomologyTable":
        try:
            variety_id, rank = data["variety"], data["rank"]
            if type(variety_id) is not str:
                raise MalformedDataError(f"the variety must be a catalog id string, not {variety_id!r}")
            ring = entry_ring(variety_id)
            tmin, tmax = data["window"]["tmin"], data["window"]["tmax"]
            rows_sorted = sorted(data["rows"], key=lambda r: r["t"])
            twists = [r["t"] for r in rows_sorted]
            rows = tuple(CohVector(tuple(r["h"])) for r in rows_sorted)
            assumptions = data.get("assumptions", [])
            chern = ChernData.from_json(ring.variety_id, data["chern"]) if data.get("chern") else None
        except (KeyError, TypeError) as exc:
            raise MalformedDataError(f"malformed cohomology table ({type(exc).__name__}: {exc})") from None
        numbers = itertools.chain((rank, tmin, tmax), twists, *(row.dims for row in rows))
        if set(map(type, numbers)) != {int} or rank < 1:
            raise MalformedDataError("rank, window, twists and dimensions must be ints, the rank positive")
        if type(assumptions) is not list or set(map(type, assumptions)) - {str}:
            raise MalformedDataError("assumptions must be a list of strings")
        if chern is not None and (type(chern.rank) is not int or chern.rank != rank):
            raise MalformedDataError(f"the chern block's rank {chern.rank!r} is not the table's rank {rank}")
        if not rows or twists != list(range(tmin, tmax + 1)):
            raise MalformedDataError("rows do not enumerate a non-empty window")
        n = ring.top_degree
        if any(len(row) != n + 1 for row in rows):
            raise MalformedDataError(f"rows on {variety_id} must list h^0, ..., h^{n}")
        return CohomologyTable(
            variety_id=variety_id,
            dimension=n,
            rank=rank,
            tmin=tmin,
            tmax=tmax,
            rows=rows,
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
    tmin, tmax = window
    n = entry.dimension
    twists = range(tmin, tmax + 1)
    sums = [[0] * (n + 1) for _ in twists]
    rows, step = _rows(entry), polarization_coords(entry)
    for coords, mult in bundles:
        coords = check_coords(entry, coords)
        column = [rows[tuple([c + t * v for c, v in zip(coords, step)])].dims for t in twists]
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        for acc, dims in zip(sums, column):
            for i, h in enumerate(dims):
                acc[i] += mult * h
    rows = tuple(CohVector(tuple(acc)) for acc in sums)
    chern = None
    if with_chern:
        chern = rr.chern_of_line_bundle_sum([(line_bundle_class(entry, c), m) for c, m in bundles])
    assumptions = ("generic Brill-Noether position",) if entry.curve_model == "generic" else ()
    return CohomologyTable(
        variety_id=entry.variety_id,
        dimension=n,
        rank=sum(m for _, m in bundles),
        tmin=tmin,
        tmax=tmax,
        rows=rows,
        chern=chern,
        assumptions=assumptions,
    )

