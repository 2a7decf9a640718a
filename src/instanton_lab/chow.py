"""Exact graded-ring arithmetic in the Chow rings of the variety catalog.

Each catalog variety gets a finite presentation of (the numerical shadow of)
its Chow ring: degree-one generators, monomial rewrite rules, and a degree
map on the top graded piece.  The rules define the ring: the normal-form
monomials of degree at most the variety dimension (those no rule divides)
form a basis of it as a free Z-module, with at most a dozen elements.

When a presentation is registered it tabulates itself once: its sorted
basis, an integer structure-constant table giving the product of every pair
of basis monomials as a sparse basis vector (one rewrite per pair), and the
degree of each basis monomial.  A :class:`ChowClass` is its presentation
plus a coefficient vector over that basis, so :func:`multiply` is a
contraction with the table, :func:`integrate` a dot product with the degree
vector, and sums and scalar multiples are index arithmetic; a linear
combination ``sum s a`` of any length is one pass over the coefficient
vectors (:func:`combine`), and a homogeneity test one look at the basis
indices of the other degrees.  Only
:meth:`ChowRingPresentation.from_dict` (which reads JSON and arbitrary
monomials) rewrites per call.

There is one presentation object per ring id, and classes combine only when
they hold the same object.  A ring id, written once by its builder, is read
back from JSON (:func:`preset_ring`) by rebuilding the ring it names.

The presentations shipped here are complete rewrite systems: rewriting any
monomial of degree above the variety dimension reaches zero, and all rewrite
orders agree (the test suite checks both by reducing every monomial in every
rewrite order, and tests the table against
:meth:`ChowRingPresentation.normalize_monomial`).
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import MalformedDataError, UnknownVarietyError, VarietyMismatchError
from .util import FrozenValue

#: Exponent vector over a presentation's generators.
Monomial = tuple[int, ...]

Terms = tuple[tuple[Monomial, int], ...]


class RewriteRule(FrozenValue):
    """A monomial rewrite rule ``lhs -> sum(coeff * monomial)``.

    Both sides are homogeneous of the same degree; the right-hand side is a
    normal-form combination.
    """

    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: Monomial, rhs: Terms):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def divides(self, mono: Monomial) -> bool:
        return all(l <= e for l, e in zip(self.lhs, mono))

    def apply(self, mono: Monomial) -> dict[Monomial, int]:
        quot = tuple(e - l for l, e in zip(self.lhs, mono))
        out: dict[Monomial, int] = {}
        for m, c in self.rhs:
            key = tuple(a + b for a, b in zip(m, quot))
            out[key] = out.get(key, 0) + c
        return out


class ChowRingPresentation(FrozenValue):
    """Presentation of the (numerical) Chow ring of one catalog variety.

    Presentations compare by identity: the registry keeps one per ring id,
    and a copy or an unpickled presentation is the registered one for its id
    (:func:`preset_ring`).  The basis, the multiplication table and the
    degree vector are computed once, on first use, and kept in the instance
    ``__dict__``.
    """

    _fields = ("variety_id", "generators", "relations", "top_degree", "degree_map")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        variety_id: str,
        generators: tuple[str, ...],
        relations: tuple[RewriteRule, ...],
        top_degree: int,
        degree_map: Terms,
    ):
        object.__setattr__(self, "variety_id", variety_id)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "degree_map", degree_map)

    def __reduce__(self) -> tuple:
        return preset_ring, (self.variety_id,)

    @cached_property
    def basis(self) -> tuple[Monomial, ...]:
        """Normal-form monomials of degree at most ``top_degree``, sorted."""
        n = self.top_degree
        candidates = itertools.product(range(n + 1), repeat=len(self.generators))
        return tuple(m for m in candidates if sum(m) <= n and self.is_normal(m))

    @cached_property
    def index(self) -> dict[Monomial, int]:
        """Position of each basis monomial."""
        return {m: k for k, m in enumerate(self.basis)}

    @cached_property
    def grades(self) -> tuple[int, ...]:
        """Degree of each basis monomial."""
        return tuple(map(sum, self.basis))

    @cached_property
    def off_grade(self) -> dict[int, tuple[int, ...]]:
        """``off_grade[r]``: the basis indices of degree other than r, for ``0 <= r <= top_degree``."""
        return {r: tuple(k for k, g in enumerate(self.grades) if g != r) for r in range(self.top_degree + 1)}

    @cached_property
    def table(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """``table[i][j]``: basis monomial i times basis monomial j, as ``((k, coeff), ...)``.

        Built with one :meth:`normalize_monomial` call per pair.
        """
        index, basis = self.index, self.basis

        def product(mi: Monomial, mj: Monomial) -> tuple[tuple[int, int], ...]:
            form = self.normalize_monomial(tuple(map(operator.add, mi, mj)))
            return tuple(sorted((index[m], c) for m, c in form.items()))

        return tuple(tuple(product(mi, mj) for mj in basis) for mi in basis)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """``integrate`` of each basis monomial: the degree map, 0 below the top degree."""
        values = dict(self.degree_map)
        if set(values) != {m for m, g in zip(self.basis, self.grades) if g == self.top_degree}:
            raise ValueError(f"the degree map of {self.variety_id!r} does not cover its top normal forms")
        return tuple(values.get(m, 0) for m in self.basis)

    def monomial(self, **exponents: int) -> Monomial:
        exps = [0] * len(self.generators)
        for name, e in exponents.items():
            exps[self.generators.index(name)] = e
        return tuple(exps)

    def gen(self, name: str) -> "ChowClass":
        return self.from_dict({self.monomial(**{name: 1}): 1})

    def gens(self) -> tuple["ChowClass", ...]:
        return self._gens

    @cached_property
    def _gens(self) -> tuple["ChowClass", ...]:
        return tuple(self.gen(name) for name in self.generators)

    def one(self) -> "ChowClass":
        return self._one

    def zero(self) -> "ChowClass":
        return self._zero

    @cached_property
    def _one(self) -> "ChowClass":
        return self.from_dict({(0,) * len(self.generators): 1})

    @cached_property
    def _zero(self) -> "ChowClass":
        return ChowClass(self, (0,) * len(self.basis))

    def from_dict(self, terms: Mapping[Monomial, int]) -> "ChowClass":
        """The class ``sum(coeff * mono)``, rewriting monomials outside the basis.

        Raises :class:`MalformedDataError` on a monomial that is not an
        exponent vector over the generators.
        """
        index = self.index
        coeffs = [0] * len(self.basis)
        for mono, coeff in terms.items():
            k = index.get(mono)
            if k is not None:
                coeffs[k] += coeff
                continue
            if len(mono) != len(self.generators) or any(not isinstance(e, int) or e < 0 for e in mono):
                raise self.not_exponents(mono)
            for m, c in self.normalize_monomial(mono).items():
                coeffs[index[m]] += c * coeff
        return ChowClass(self, tuple(coeffs))

    def not_exponents(self, mono: tuple) -> MalformedDataError:
        return MalformedDataError(
            f"{list(mono)} is not an exponent vector over {list(self.generators)} on {self.variety_id!r}"
        )

    def is_normal(self, mono: Monomial) -> bool:
        return not any(rule.divides(mono) for rule in self.relations)

    def normalize_monomial(self, mono: Monomial) -> dict[Monomial, int]:
        """Reduce ``mono`` to a combination of normal-form monomials.

        Applies the first applicable rule at each step (a fixed order, so the
        result is deterministic; confluence of the presets is a separate
        tested invariant).  Components of degree above ``top_degree`` are
        dropped, which is how every preset behaves anyway.
        """
        pending: dict[Monomial, int] = {mono: 1}
        done: dict[Monomial, int] = {}
        guard = 0
        while pending:
            guard += 1
            if guard > 100_000:
                raise RuntimeError(f"rewrite did not terminate on {self.variety_id}")
            m, c = pending.popitem()
            if c == 0:
                continue
            if sum(m) > self.top_degree:
                continue
            for rule in self.relations:
                if rule.divides(m):
                    for m2, c2 in rule.apply(m).items():
                        pending[m2] = pending.get(m2, 0) + c * c2
                    break
            else:
                done[m] = done.get(m, 0) + c
        return {m: c for m, c in done.items() if c != 0}


class ChowClass(FrozenValue):
    """Exact combination of normal-form monomials, graded by degree.

    ``coeffs[k]`` is the coefficient of ``ring.basis[k]``: an int, or a
    :class:`fractions.Fraction` on a rational class such as c_2 of a prime
    Fano 3-fold (:func:`integrate` then returns a Fraction).
    """

    __slots__ = _fields = ("ring", "coeffs")

    def __init__(self, ring: ChowRingPresentation, coeffs: tuple[int, ...]):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def variety_id(self) -> str:
        return self.ring.variety_id

    @property
    def terms(self) -> Terms:
        """The nonzero ``(monomial, coefficient)`` pairs in monomial order."""
        return tuple((m, c) for m, c in zip(self.ring.basis, self.coeffs) if c)

    def coefficient(self, mono: Monomial) -> int:
        k = self.ring.index.get(mono)
        return 0 if k is None else self.coeffs[k]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_homogeneous(self, r: int) -> bool:
        """No coefficient off degree r is nonzero (so the zero class is homogeneous of every degree)."""
        coeffs, others = self.coeffs, self.ring.off_grade.get(r)
        return not any(coeffs if others is None else map(coeffs.__getitem__, others))

    def part(self, r: int) -> "ChowClass":
        """The degree-r component, such as c_r of a total Chern class."""
        return ChowClass(self.ring, tuple(c if g == r else 0 for g, c in zip(self.ring.grades, self.coeffs)))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        return ChowClass(self.ring, tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "ChowClass | int | Fraction") -> "ChowClass":
        if type(other) is ChowClass:
            return multiply(self, other)
        _check_scalar(other)
        return ChowClass(self.ring, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ChowClass":
        if k < 0:
            raise MalformedDataError("negative powers are not defined in the Chow ring")
        out = self.ring.one()
        for _ in range(k):
            out = multiply(out, self)
        return out

    def _check(self, other: "ChowClass") -> None:
        if self.ring is not other.ring:
            raise VarietyMismatchError(
                f"classes on {self.variety_id!r} and {other.variety_id!r} cannot be combined"
            )

    def to_json(self) -> list[list]:
        """``[[exponents, coefficient], ...]``; a coefficient that is not an integer is a ``"p/q"`` string."""
        return [
            [list(m), c if type(c) is int else c.numerator if c.denominator == 1 else str(c)]
            for m, c in zip(self.ring.basis, self.coeffs)
            if c
        ]

    @staticmethod
    def from_json(variety_id: str, data: Iterable) -> "ChowClass":
        """Parse ``[[exponents, coefficient], ...]``, the inverse of :meth:`to_json`.

        Raises :class:`MalformedDataError` on a term that is not such a pair,
        exponents that are not ints (a float or bool would hash like one), a
        repeated monomial or a coefficient that is neither an integer nor a
        ``"p/q"`` string; :meth:`ChowRingPresentation.from_dict` checks the
        exponent vectors' length and signs.
        """
        ring = ring_for(variety_id)
        terms: dict[Monomial, int] = {}
        for term in data:
            try:
                m, c = term
                mono = tuple(m)
            except (TypeError, ValueError):
                raise MalformedDataError(f"{term!r} is not an [exponents, coefficient] pair") from None
            if set(map(type, mono)) != {int}:
                raise ring.not_exponents(mono)
            if mono in terms:
                raise MalformedDataError(f"monomial {list(mono)} is repeated on {variety_id!r}")
            if type(c) is str and re.fullmatch(r"-?[0-9]+/0*[1-9][0-9]*", c):
                from fractions import Fraction  # loaded only where a rational class is read

                c = Fraction(c)
            elif isinstance(c, bool) or not isinstance(c, int):
                raise MalformedDataError(f"coefficient {c!r} of {list(mono)} is not an integer or 'p/q'")
            terms[mono] = c
        return ring.from_dict(terms)

    def __str__(self) -> str:
        ring = self.ring
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.terms:
            names = "*".join(
                f"{g}^{e}" if e > 1 else g for g, e in zip(ring.generators, m) if e
            )
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        return " + ".join(parts).replace("+ -", "- ")


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in the Chow ring: a contraction with the ring's multiplication table."""
    a._check(b)
    ring = a.ring
    table = ring.table
    acc = [0] * len(ring.basis)
    b_terms = [(j, c) for j, c in enumerate(b.coeffs) if c]
    for i, ci in enumerate(a.coeffs):
        if ci:
            row = table[i]
            for j, cj in b_terms:
                cij = ci * cj
                for k, t in row[j]:
                    acc[k] += cij * t
    return ChowClass(ring, tuple(acc))


def _check_scalar(s: object) -> None:
    """Refuse a scalar that is not exact: an int (``True`` included) or a Fraction."""
    if not isinstance(s, int):
        from fractions import Fraction  # loaded only where a rational class is built

        if not isinstance(s, Fraction):
            raise TypeError(f"Chow classes scale by exact scalars (int or Fraction), not {s!r}")


def combine(terms: Sequence[tuple["int | Fraction", ChowClass]]) -> ChowClass:
    """The linear combination ``sum s a`` of one or more ``(s, a)`` pairs with exact scalars ``s``.

    Each term is checked as it is chained, before any coefficient is computed: a scalar that is
    not exact raises ``*``'s ``TypeError``, a class on another ring than the first one ``+``'s
    ``VarietyMismatchError``.  The scaled vectors are then summed in one pass over the basis,
    through one chain of lazy maps.  An empty list raises ``MalformedDataError``."""
    if not terms:
        raise MalformedDataError("a linear combination needs at least one (scalar, class) pair")
    (s, first), *rest = terms
    _check_scalar(s)
    ring = first.ring
    acc = map(operator.mul, first.coeffs, itertools.repeat(s))
    for s, a in rest:
        _check_scalar(s)
        if a.ring is not ring:
            first._check(a)
        acc = map(operator.add, acc, map(operator.mul, a.coeffs, itertools.repeat(s)))
    return ChowClass(ring, tuple(acc))


def integrate(a: ChowClass) -> "int | Fraction":
    """Degree of the top-dimensional component of ``a``; lower degrees are ignored."""
    return sum(map(operator.mul, a.coeffs, a.ring.degrees))


# --------------------------------------------------------------------------
# Preset rings
# --------------------------------------------------------------------------

_REGISTRY: dict[str, ChowRingPresentation] = {}


def _register(ring: ChowRingPresentation) -> ChowRingPresentation:
    """Keep one presentation per ring id: the first one registered wins.

    The kept ring builds its multiplication table and degree vector here,
    once.
    """
    kept = _REGISTRY.setdefault(ring.variety_id, ring)
    if kept is ring:
        ring.table, ring.degrees  # computed now, cached on the ring
    return kept


def cyclic_numerical_ring(n: int, top_value: int, variety_id: str) -> ChowRingPresentation:
    """``Z[H]/(H^(n+1))`` with ``deg(H^n) = top_value``.

    The shared numerical model for projective spaces, quadrics and other
    cyclic entries: only powers of the ample generator are represented.
    """
    return _register(
        ChowRingPresentation(
            variety_id=variety_id,
            generators=("H",),
            relations=(RewriteRule((n + 1,), ()),),
            top_degree=n,
            degree_map=(((n,), top_value),),
        )
    )


def projective_space_ring(n: int) -> ChowRingPresentation:
    return cyclic_numerical_ring(n, 1, f"projective_space({n})")


def quadric_ring(n: int) -> ChowRingPresentation:
    return cyclic_numerical_ring(n, 2, f"quadric({n})")


def curve_ring(genus: int) -> ChowRingPresentation:
    return cyclic_numerical_ring(1, 1, f"curve({genus})")


def prime_fano_ring(genus: int) -> ChowRingPresentation:
    return cyclic_numerical_ring(3, 2 * genus - 2, f"prime_fano({genus})")


def flag3_ring() -> ChowRingPresentation:
    # Z[h1,h2]/(h1^3, h2^3, h1^2 - h1 h2 + h2^2); normal forms have h1-exponent <= 1.
    return _register(
        ChowRingPresentation(
            variety_id="flag3",
            generators=("h1", "h2"),
            relations=(
                RewriteRule((3, 0), ()),
                RewriteRule((0, 3), ()),
                RewriteRule((2, 0), (((0, 2), -1), ((1, 1), 1))),
            ),
            top_degree=3,
            degree_map=(((1, 2), 1),),
        )
    )


def triple_p1_ring() -> ChowRingPresentation:
    return _register(
        ChowRingPresentation(
            variety_id="triple_p1",
            generators=("h1", "h2", "h3"),
            relations=(
                RewriteRule((2, 0, 0), ()),
                RewriteRule((0, 2, 0), ()),
                RewriteRule((0, 0, 2), ()),
            ),
            top_degree=3,
            degree_map=(((1, 1, 1), 1),),
        )
    )


def scroll_ring(n: int, deg_g: int) -> ChowRingPresentation:
    # Z[h,f]/(f^2, h^n - deg_g * f h^(n-1)); the intersection numbers are
    # h^n = deg_g, f h^(n-1) = 1, f^2 = 0.
    return _register(
        ChowRingPresentation(
            variety_id=f"scroll({n},{deg_g})",
            generators=("h", "f"),
            relations=(
                RewriteRule((0, 2), ()),
                RewriteRule((n, 0), (((n - 1, 1), deg_g),)),
            ),
            top_degree=n,
            degree_map=(((n - 1, 1), 1),),
        )
    )


#: ring-id name -> (builder, lower bound of each integer argument)
_PRESETS = {
    "projective_space": (projective_space_ring, (1,)),
    "quadric": (quadric_ring, (2,)),
    "flag3": (flag3_ring, ()),
    "triple_p1": (triple_p1_ring, ()),
    "scroll": (scroll_ring, (2, 1)),
    "curve": (curve_ring, (0,)),
    "prime_fano": (prime_fano_ring, (3,)),
}


def _read_arg(text: str) -> "int | str":
    word = text.rpartition("=")[2]
    try:
        return int(word) if str(int(word)) == word else word
    except ValueError:  # a word, or more digits than int() reads
        return word


def read_id(text: str) -> tuple[str, tuple["int | str", ...]]:
    """The one id splitter: a ring or entry id ``name`` or ``name(a;b,c;k=v)`` as its name and
    arguments, with ``k=`` dropped and ints read from their own spelling.  Loose, never raising:
    a caller accepts an id only when the value it rebuilds from it has the same id."""
    name, _, rest = text.partition("(")
    return name, tuple(map(_read_arg, rest.removesuffix(")").replace(";", ",").split(","))) if rest else ()


def preset_ring(variety_id: str) -> ChowRingPresentation:
    """Presentation for a ring id: the registered one, or the ring its named builder makes from
    its arguments (:func:`read_id`) if that ring has this id; else :class:`UnknownVarietyError`.
    The builders write ``projective_space(n)``, ``quadric(n)``, ``flag3``, ``triple_p1``,
    ``scroll(n,deg_g)``, ``curve(g)`` and ``prime_fano(g)``, whose degree maps fix ``h^n = 1``
    on projective space, ``2`` on the quadric, ``6`` on the two sextic del Pezzo entries,
    ``deg_g`` on scrolls and ``2g - 2`` on prime Fano 3-folds."""
    ring = _REGISTRY.get(variety_id)
    if ring is None:
        name, args = read_id(variety_id)
        build, lower = _PRESETS.get(name, (None, ()))
        if build and len(args) == len(lower) and all(type(a) is int and a >= lo for a, lo in zip(args, lower)):
            ring = build(*args)
    if ring is None or ring.variety_id != variety_id:
        raise UnknownVarietyError(f"unknown variety key {variety_id!r}")
    return ring


#: the name :meth:`ChowClass.from_json` resolves ring ids through;
#: ``bench/tracing.py`` counts its calls
ring_for = preset_ring
