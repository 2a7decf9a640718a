"""The polarized-variety catalog.

Every computation in the package happens on one of these entries: projective
spaces, smooth quadrics (numerical model), the flag 3-fold, the triple
product of projective lines, rational normal scrolls over P^1, scrolls over
a generic curve (Euler characteristics only), smooth curves, and prime Fano
3-folds parameterized by their genus.

An entry packages the Chow-ring presentation together with the polarization
class h and the total Chern class c(T_X) of the tangent bundle, declared once
per family: the canonical class is K_X = -c_1(T_X), and Riemann-Roch reads
the Todd class, chi(O_X) included, off the same class.  Entries are
immutable values.

Line bundles are written as integer coordinates over the ring's degree-one
generators, so the Picard rank is the number of generators, and the twist
vector and the canonical coordinates are read off the degree-one
coefficients of h and K_X; nothing per variety kind is tabulated twice.
"""

from __future__ import annotations

import operator
from functools import cache, cached_property
from typing import TYPE_CHECKING

from . import chow
from .chow import ChowClass, ChowRingPresentation
from .errors import MalformedDataError, UnknownVarietyError, UnsupportedBundleError
from .util import FrozenValue, parse_int

if TYPE_CHECKING:
    from fractions import Fraction


class VarietyCatalogEntry(FrozenValue):
    """One polarized catalog variety; ``tangent`` is the total Chern class c(T_X)
    (a rational c_2 on prime Fano entries).  The dimension is the top degree of
    the ring, and the repr leaves out the ring."""

    _fields = ("variety_id", "kind", "ring", "polarization", "tangent", "is_acm",
               "degrees", "genus", "deg_g", "curve_model", "deg_h")
    _unshown = ("ring",)

    def __init__(
        self,
        variety_id: str,
        kind: str,
        ring: ChowRingPresentation,
        polarization: ChowClass,
        tangent: ChowClass,
        is_acm: bool = True,
        degrees: tuple[int, ...] | None = None,
        genus: int | None = None,
        deg_g: int | None = None,
        curve_model: str | None = None,
        deg_h: int | None = None,
    ):
        object.__setattr__(self, "variety_id", variety_id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "polarization", polarization)
        object.__setattr__(self, "tangent", tangent)
        object.__setattr__(self, "is_acm", is_acm)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "deg_g", deg_g)
        object.__setattr__(self, "curve_model", curve_model)
        object.__setattr__(self, "deg_h", deg_h)
        if self.hn() <= 0:
            raise UnknownVarietyError(f"polarization of {self.variety_id} is not numerically ample")

    def __hash__(self) -> int:  # the id's hash, cached by str; equality still reads every field
        return hash(self.variety_id)

    @cached_property
    def dimension(self) -> int:
        return self.ring.top_degree

    @cached_property
    def _h_powers(self) -> tuple[ChowClass, ...]:
        powers = [self.ring.one()]
        for _ in range(self.dimension):
            powers.append(powers[-1] * self.polarization)
        return tuple(powers)

    def h_power(self, k: int) -> ChowClass:
        """``h^k``; the powers ``0 <= k <= n`` are computed once per entry."""
        return self._h_powers[k] if 0 <= k <= self.dimension else self.polarization**k

    def hn(self) -> int:
        """Degree of the polarization, ``integrate(h^n)``, computed once per entry."""
        return self._hn

    @cached_property
    def _hn(self) -> int:
        return chow.integrate(self.h_power(self.dimension))

    @cached_property
    def _h_weights(self) -> tuple[int, ...]:
        ring, h_top = self.ring, self.h_power(self.dimension - 1)
        return tuple(chow.integrate(ring.from_dict({b: 1}) * h_top) for b in ring.basis)

    def h_degree(self, cls: ChowClass) -> int | Fraction:
        """``cls . h^(n-1)``: one dot product with the weights ``integrate(b h^(n-1))`` over the
        ring basis ``b``, computed once per entry.  The one place a class meets ``h^(n-1)``: slopes,
        normalization twists and the slope condition read it.  A class on another ring raises
        ``VarietyMismatchError``."""
        cls._check(self.polarization)
        return sum(map(operator.mul, cls.coeffs, self._h_weights))

    def picard_rank(self) -> int:
        """Picard rank as modeled (the length of line-bundle coordinate tuples)."""
        return len(self.ring.generators)

    def _degree_one_coords(self, cls: ChowClass) -> tuple[int, ...]:
        ring = self.ring
        return tuple(cls.coefficient(ring.monomial(**{g: 1})) for g in ring.generators)

    @cached_property
    def _divisor_columns(self) -> tuple[tuple[int, ...], ...]:
        """The degree-one generators' coefficients at each basis index, one column per index."""
        return tuple(zip(*(g.coeffs for g in self.ring.gens())))

    @cached_property
    def canonical(self) -> ChowClass:
        """The canonical class ``K_X = -c_1(T_X)``."""
        return -self.tangent.part(1)

    @cached_property
    def h_coords(self) -> tuple[int, ...]:
        """Coordinates of h in the entry's divisor basis."""
        return self._degree_one_coords(self.polarization)


def projective_space(n: int, u: int = 1) -> VarietyCatalogEntry:
    """P^n, polarized by O(u)."""
    if n < 1 or u < 1:
        raise UnknownVarietyError(f"projective_space({n}) with h=O({u}) is not a catalog entry")
    ring = chow.projective_space_ring(n)
    H = ring.gen("H")
    entry_id = ring.variety_id if u == 1 else f"projective_space({n};h={u})"
    return VarietyCatalogEntry(
        variety_id=entry_id,
        kind="projective_space",
        ring=ring,
        polarization=u * H,
        tangent=(ring.one() + H) ** (n + 1),
    )


def quadric(n: int, u: int = 1) -> VarietyCatalogEntry:
    """Smooth quadric hypersurface in P^(n+1), numerical Chow model."""
    if n < 2 or u < 1:
        raise UnknownVarietyError(f"quadric({n}) with h=O({u}) is not a catalog entry")
    ring = chow.quadric_ring(n)
    H = ring.gen("H")
    entry_id = ring.variety_id if u == 1 else f"quadric({n};h={u})"
    return VarietyCatalogEntry(
        variety_id=entry_id,
        kind="quadric",
        ring=ring,
        polarization=u * H,
        # (1 + H)^(n+2) / (1 + 2H), the inverse a series truncated by the ring
        tangent=(ring.one() + H) ** (n + 2) * ring.from_dict({(j,): (-2) ** j for j in range(n + 1)}),
    )


@cache  # one object per process: scans reach their memo without comparing fields
def flag3() -> VarietyCatalogEntry:
    """The flag 3-fold (incidence divisor in P^2 x P^2), h = h1 + h2."""
    ring = chow.flag3_ring()
    one, h1, h2 = ring.one(), ring.gen("h1"), ring.gen("h2")
    return VarietyCatalogEntry(
        variety_id="flag3",
        kind="flag3",
        ring=ring,
        polarization=h1 + h2,
        # one factor per positive root of SL(3)
        tangent=(one + 2 * h1 - h2) * (one + 2 * h2 - h1) * (one + h1 + h2),
    )


@cache  # one object per process, as flag3
def triple_p1() -> VarietyCatalogEntry:
    """P^1 x P^1 x P^1 with h = h1 + h2 + h3."""
    ring = chow.triple_p1_ring()
    one, h1, h2, h3 = ring.one(), *(ring.gen(g) for g in ring.generators)
    return VarietyCatalogEntry(
        variety_id="triple_p1",
        kind="triple_p1",
        ring=ring,
        polarization=h1 + h2 + h3,
        tangent=(one + 2 * h1) * (one + 2 * h2) * (one + 2 * h3),
    )


def _scroll_tangent(ring: ChowRingPresentation, n: int, deg_g: int, genus: int) -> ChowClass:
    """``[(1 + h)^n - deg_g f (1 + h)^(n-1)] (1 + (2 - 2g) f)``: the relative tangent
    bundle of a rank-n scroll over a genus-g curve, times the curve's tangent bundle."""
    one, h, f = ring.one(), ring.gen("h"), ring.gen("f")
    return (one + h) ** (n - 1) * (one + h - deg_g * f) * (one + (2 - 2 * genus) * f)


def scroll_p1(degrees: tuple[int, ...]) -> VarietyCatalogEntry:
    """Rational normal scroll P(O(a_0) + ... + O(a_{n-1})) over P^1."""
    degrees = tuple(sorted(degrees))
    n = len(degrees)
    if n < 2 or any(a < 1 for a in degrees):
        raise UnknownVarietyError(f"scroll over P^1 needs >= 2 split degrees, all >= 1: {degrees}")
    d = sum(degrees)
    ring = chow.scroll_ring(n, d)
    return VarietyCatalogEntry(
        variety_id=f"scroll_p1({','.join(map(str, degrees))})",
        kind="scroll_p1",
        ring=ring,
        polarization=ring.gen("h"),
        tangent=_scroll_tangent(ring, n, d, 0),
        degrees=degrees,
        genus=0,
        deg_g=d,
    )


def scroll_generic(n: int, genus: int, deg_g: int) -> VarietyCatalogEntry:
    """Scroll over a genus-g curve; only Euler characteristics are certified exact."""
    if n < 2 or genus < 0 or deg_g < 1:
        raise UnknownVarietyError(f"scroll({n}) over genus {genus} of degree {deg_g} is not admissible")
    ring = chow.scroll_ring(n, deg_g)
    return VarietyCatalogEntry(
        variety_id=f"scroll_generic({n};g={genus};deg={deg_g})",
        kind="scroll_generic",
        ring=ring,
        polarization=ring.gen("h"),
        tangent=_scroll_tangent(ring, n, deg_g, genus),
        is_acm=False,
        genus=genus,
        deg_g=deg_g,
    )


def curve(genus: int, deg_h: int, model: str = "generic") -> VarietyCatalogEntry:
    """Smooth curve of the given genus with a polarization of degree ``deg_h``.

    ``model`` is ``exact_p1`` (genus 0, everything exact) or ``generic``
    (general Brill-Noether position; flagged as an assumption on outputs).
    """
    if model not in ("exact_p1", "generic"):
        raise UnknownVarietyError(f"unknown curve model {model!r}")
    if model == "exact_p1" and genus != 0:
        raise UnknownVarietyError("the exact_p1 curve model requires genus 0")
    if genus < 0 or deg_h < 1:
        raise UnknownVarietyError(f"curve(genus={genus}, deg_h={deg_h}) is not admissible")
    ring = chow.curve_ring(genus)
    P = ring.gen("H")
    return VarietyCatalogEntry(
        variety_id=f"curve({genus};deg={deg_h};{model})",
        kind="curve",
        ring=ring,
        polarization=deg_h * P,
        tangent=ring.one() + (2 - 2 * genus) * P,
        genus=genus,
        deg_h=deg_h,
        curve_model=model,
    )


def prime_fano(genus: int) -> VarietyCatalogEntry:
    """Prime Fano 3-fold of index 1 and genus g (h^3 = 2g - 2), numerical model.

    The tangent class is ``1 + H + (24 / (2g - 2)) H^2``: c_1 = -K_X = H, and
    c_2 is the class with c_2 . H = 24, whose coefficient is a Fraction since
    2g - 2 need not divide 24.  c_3 is not modeled; the Todd class never reads
    it.
    """
    from fractions import Fraction  # imported here only: importing catalog stays light

    if genus < 3:
        raise UnknownVarietyError("prime Fano 3-folds have genus >= 3")
    ring = chow.prime_fano_ring(genus)
    return VarietyCatalogEntry(
        variety_id=ring.variety_id,
        kind="prime_fano",
        ring=ring,
        polarization=ring.gen("H"),
        tangent=ring.from_dict({(0,): 1, (1,): 1, (2,): Fraction(24, 2 * genus - 2)}),
        genus=genus,
    )


#: entry-id name -> the family's constructor; the names are the entries' kinds
_CONSTRUCTORS = dict(
    projective_space=projective_space, quadric=quadric, flag3=flag3, triple_p1=triple_p1, curve=curve,
    scroll_p1=lambda *degrees: scroll_p1(degrees), scroll_generic=scroll_generic, prime_fano=prime_fano,
)


def entry_ring(entry_id: str) -> ChowRingPresentation:
    """Chow ring of the catalog entry with this id, the one place a table's or a Chern block's
    variety id is resolved: the constructor the id names rebuilds the entry from its arguments
    (:func:`chow.read_id`), and the id is accepted only when the entry's id is the same string.
    An id that is not a ``str`` raises :class:`MalformedDataError` before anything hashes it, any
    other id :class:`UnknownVarietyError` (a constructor's own one passes through)."""
    if type(entry_id) is not str:
        raise MalformedDataError(f"the variety must be a catalog id string, not {entry_id!r}")
    return _entry_ring(entry_id)


@cache  # every table checks its id here; an id that raises is not kept
def _entry_ring(entry_id: str) -> ChowRingPresentation:
    name, args = chow.read_id(entry_id)
    try:
        entry = _CONSTRUCTORS[name](*args) if name in _CONSTRUCTORS else None
    except TypeError:  # arguments of the wrong count or type
        entry = None
    if entry is None or entry.variety_id != entry_id:
        raise UnknownVarietyError(f"unknown variety key {entry_id!r}")
    return entry.ring


# --------------------------------------------------------------------------
# Line-bundle coordinates
#
# Coordinates follow the entry's divisor basis: (t) on cyclic entries
# (meaning O(t H)), (a1, a2) on the flag, (a1, a2, a3) on the triple product,
# (t, a) meaning t*h + a*f on scrolls, and the plain degree (d) on curves.
# --------------------------------------------------------------------------


def check_coords(entry: VarietyCatalogEntry, coords: tuple[int, ...]) -> tuple[int, ...]:
    """``coords`` as a tuple of ints of the entry's Picard rank, or ``MalformedDataError``: bools and
    numeric strings pass through ``int()``, a number it would change (1.9, ``Fraction(5, 2)``) is refused."""
    if type(coords) is tuple and len(coords) == entry.picard_rank() and all(type(c) is int for c in coords):
        return coords
    raw = tuple(coords)
    coords = tuple(map(parse_int, raw))
    for c, k in zip(raw, coords):
        if k != c and not isinstance(c, str):
            raise MalformedDataError(f"line-bundle coordinate {c!r} on {entry.variety_id} is not an integer")
    if len(coords) != entry.picard_rank():
        raise MalformedDataError(
            f"{entry.variety_id} expects {entry.picard_rank()} line-bundle coordinates, got {coords}"
        )
    return coords


def twist_coords(entry: VarietyCatalogEntry, coords: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Coordinates of ``L(t h)``."""
    coords = check_coords(entry, coords)
    return tuple([c + t * v for c, v in zip(coords, entry.h_coords)])


def theta_coords(entry: VarietyCatalogEntry, s: int) -> tuple[int, ...]:
    """Coordinates of ``O(theta + s h)`` on a curve, theta a theta-characteristic: ``(g - 1 + s deg h,)``."""
    if entry.kind != "curve":
        raise UnsupportedBundleError("theta twists only exist on curve entries")
    return (entry.genus - 1 + s * entry.deg_h,)


def canonical_coords(entry: VarietyCatalogEntry) -> tuple[int, ...]:
    """Coordinates of K_X in the entry's divisor basis."""
    return entry._degree_one_coords(entry.canonical)


def line_bundle_class(entry: VarietyCatalogEntry, coords: tuple[int, ...]) -> ChowClass:
    """First Chern class of the line bundle with the given coordinates."""
    coords = check_coords(entry, coords)
    return ChowClass(entry.ring, tuple([sum(map(operator.mul, coords, col)) for col in entry._divisor_columns]))


def parse_variety(text: str) -> VarietyCatalogEntry:
    """Resolve a short CLI-style variety name to a catalog entry.

    Examples: ``p3``, ``p3:h=2``, ``q4``, ``flag3``, ``triple-p1``,
    ``scroll-p1:1,1,2``, ``scroll:n=3,g=1,deg=4``, ``curve:g=2,deg=4``,
    ``curve:g=2,deg=4,model=generic``, ``curve:g=0,deg=2,model=exact_p1``,
    ``fano:g=5``.  The head and the option keys are read case-insensitively
    with ``_`` as ``-``; option values are taken as written.
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.lower().replace("_", "-")
    opts: dict[str, str] = {}
    plain: list[str] = []
    for chunk in filter(None, rest.split(",")):
        if "=" in chunk:
            k, _, v = chunk.partition("=")
            opts[k.lower().replace("_", "-")] = v
        else:
            plain.append(chunk)
    missing = [k for k in {"scroll": ("n", "deg"), "fano": ("g",)}.get(head, ()) if k not in opts]
    if missing:
        raise UnknownVarietyError(f"variety {text!r} needs {missing[0]}=")
    if head in ("flag3", "flag"):
        return flag3()
    if head in ("triple-p1", "p1p1p1", "p1xp1xp1"):
        return triple_p1()
    if head.startswith("p") and head[1:].isdigit():
        return projective_space(parse_int(head[1:]), u=parse_int(opts.get("h", 1)))
    if head == "pn" and plain:
        return projective_space(parse_int(plain[0]), u=parse_int(opts.get("h", 1)))
    if head.startswith("q") and head[1:].isdigit():
        return quadric(parse_int(head[1:]), u=parse_int(opts.get("h", 1)))
    if head == "quadric" and plain:
        return quadric(parse_int(plain[0]), u=parse_int(opts.get("h", 1)))
    if head == "scroll-p1":
        degrees = tuple(map(parse_int, plain))
        return scroll_p1(degrees)
    if head == "scroll":
        return scroll_generic(parse_int(opts["n"]), parse_int(opts.get("g", 0)), parse_int(opts["deg"]))
    if head == "curve":
        return curve(parse_int(opts.get("g", 0)), parse_int(opts.get("deg", 1)), opts.get("model", "generic"))
    if head == "fano":
        return prime_fano(parse_int(opts["g"]))
    raise UnknownVarietyError(f"cannot parse variety {text!r}")
