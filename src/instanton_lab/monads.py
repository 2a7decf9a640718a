"""Monad shapes attached to instanton bundles, and their dimension formulas.

A monad is a three-term complex ``M^-1 -> M^0 -> M^1``, exact except in the
middle, whose middle cohomology is the bundle of interest.  On projective
space the terms are forced by Beilinson's theorem; on aCM varieties the
outer terms are forced and the middle term is an aCM bundle constrained by a
short list of integer equations.  This module synthesizes the term shapes
and multiplicity formulas from rank/defect/quantum data; it never constructs
differentials.  On P^n, :func:`rank_from_chi` states the rank of the monad's
cohomology, linear in (chi, q), and :func:`chi_from_rank` inverts it; the
low-scroll filtrations take one Euler pairing per quotient.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# Only errors and util are imported here: the catalog and cohomology modules
# are imported by the one function that runs them, monad_acm, so `monad pn`
# compiles neither.
from .errors import InfeasibleError, MalformedDataError, UnknownVarietyError, UnsupportedBundleError
from .util import FrozenValue, binom, fields_json

if TYPE_CHECKING:
    from .catalog import VarietyCatalogEntry


class Summand(FrozenValue):
    """A named summand ``label^multiplicity`` with its rank per copy.

    ``c1_each`` carries the first Chern class per copy under the
    identification ``A^1(P^n) = Z`` where that makes sense (used for the
    bookkeeping identities); None elsewhere.  A ``rank`` of None marks a
    symbolic term (the undetermined middle bundle of an aCM monad).
    """

    __slots__ = _fields = ("label", "rank", "multiplicity", "c1_each")

    def __init__(self, label: str, rank: int | None, multiplicity: int, c1_each: int | None = None):
        if multiplicity < 0:
            raise InfeasibleError(f"negative multiplicity for {label}: {multiplicity}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "c1_each", c1_each)

    def total_rank(self) -> int | None:
        return None if self.rank is None else self.rank * self.multiplicity

    def __str__(self) -> str:
        if self.multiplicity == 1:
            return self.label
        return f"{self.label}^{self.multiplicity}"

    def to_json(self) -> dict:
        out: dict = {
            "summand": self.label,
            "rank": self.rank,
            "multiplicity": self.multiplicity,
        }
        if self.c1_each is not None:
            out["c1"] = self.c1_each
        return out


class Constraint(FrozenValue):
    """A named integer equation the middle term must satisfy."""

    __slots__ = _fields = ("name", "description", "value")

    def __init__(self, name: str, description: str, value: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "value", value)

    to_json = fields_json


class MonadShape(FrozenValue):
    """The three terms ``M^-1 -> M^0 -> M^1`` of a monad, with the constraints on its middle term."""

    __slots__ = _fields = ("terms", "constraints", "notes")

    def __init__(
        self,
        terms: tuple[tuple[Summand, ...], tuple[Summand, ...], tuple[Summand, ...]],
        constraints: tuple[Constraint, ...] = (),
        notes: tuple[str, ...] = (),
    ):
        if len(terms) != 3:
            raise MalformedDataError(f"a monad shape has 3 terms, got {len(terms)}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "notes", notes)

    def term_rank(self, i: int) -> int | None:
        ranks = [s.total_rank() for s in self.terms[i]]
        return None if None in ranks else sum(ranks)

    def cohomology_rank(self) -> int | None:
        """rk(M^0) - rk(M^-1) - rk(M^1), when all terms are determined."""
        ranks = [self.term_rank(i) for i in range(3)]
        if any(r is None for r in ranks):
            return None
        return ranks[1] - ranks[0] - ranks[2]

    def alternating_c1(self) -> int | None:
        """c1(M^0) - c1(M^-1) - c1(M^1) under ``A^1 = Z``, when available."""
        totals = []
        for term in self.terms:
            acc = 0
            for s in term:
                if s.c1_each is None:
                    return None
                acc += s.c1_each * s.multiplicity
            totals.append(acc)
        return totals[1] - totals[0] - totals[2]

    def render(self) -> str:
        def side(term: tuple[Summand, ...]) -> str:
            parts = [str(s) for s in term if s.multiplicity or s.rank is None]
            return " + ".join(parts) if parts else "0"

        return " -> ".join(side(t) for t in self.terms)

    to_json = fields_json

    def to_markdown(self) -> str:
        lines = [f"`{self.render()}`"]
        if self.constraints:
            lines.append("")
            lines.append("| constraint | value |")
            lines.append("|---|---|")
            for c in self.constraints:
                lines.append(f"| {c.description} | {c.value} |")
        for note in self.notes:
            lines.append(f"- {note}")
        return "\n".join(lines)


def _O(t: int, mult: int) -> Summand:
    label = "O" if t == 0 else f"O({t})"
    return Summand(label, 1, mult, c1_each=t)


def _rank_weights(n: int, defect: int) -> tuple[int, int]:
    """``(a, b)`` with ``rank = a chi + b q`` on P^n: the rank of :func:`monad_pn`'s cohomology,
    ``rk M^0 - rk M^-1 - rk M^1``, with its two Omega summands of rank n (one when n = 2)."""
    if n < 2:
        raise UnsupportedBundleError("monads are synthesized for n >= 2")
    if defect == 0:
        return 1, n - 1
    return 2, 2 if n == 2 else 2 * n


def rank_from_chi(n: int, defect: int, quantum: int, chi0: int) -> int:
    """Generic rank of an instanton sheaf on P^n from chi and the quantum number."""
    a, b = _rank_weights(n, defect)
    return a * chi0 + b * quantum


def chi_from_rank(n: int, defect: int, quantum: int, rank: int) -> int:
    """chi(E) of an instanton sheaf on P^n from its rank: the inverse of :func:`rank_from_chi`."""
    if defect and rank % 2:
        raise InfeasibleError("non-ordinary rank must be even")
    a, b = _rank_weights(n, defect)
    return (rank - b * quantum) // a


def monad_pn(
    n: int,
    defect: int,
    quantum: int,
    chi0: int,
    h0E: int | None = None,
    hnE: int | None = None,
) -> MonadShape:
    """Beilinson monad shape of an instanton sheaf on P^n.

    Ordinary: ``O(-1)^q -> O^(chi + (n+1) q) -> O(1)^q``.  Non-ordinary: the
    four-summand middle term with ``b0 = h^0(E)`` and ``b1 = h^n(E(-n))``
    taken maximal (isomorphic outer summands may still cancel; see notes),
    and the rank-(n-1) twisted differential dropped when n = 2 since it
    coincides with the rank-1 one there.
    """
    if n < 2:
        raise UnsupportedBundleError("monads are synthesized for n >= 2")
    if defect not in (0, 1):
        raise MalformedDataError("defect must be 0 or 1")
    if defect == 0:
        if h0E is not None or hnE is not None:
            raise MalformedDataError("h^0(E) and h^n(E(-n)) are inputs of the non-ordinary shape only")
        middle = chi0 + (n + 1) * quantum
        if middle < 0:
            raise InfeasibleError(f"middle multiplicity chi + (n+1) q = {middle} is negative")
        return MonadShape(
            (
                (_O(-1, quantum),),
                (_O(0, middle),),
                (_O(1, quantum),),
            )
        )
    if h0E is None or hnE is None:
        raise MalformedDataError("the non-ordinary shape needs h^0(E) and h^n(E(-n))")
    b0, b1 = h0E, hnE
    if b1 - chi0 < 0 or b0 - chi0 < 0:
        raise InfeasibleError("b0, b1 must be at least chi(E)")
    omega1 = Summand("Omega^1(1)", n, quantum, c1_each=-1)
    middle = [_O(0, b0), omega1]
    if n >= 3:
        middle.append(Summand(f"Omega^{n - 1}({n - 1})", n, quantum, c1_each=1 - n))
    middle.append(_O(-1, b1))
    return MonadShape(
        (
            (_O(-1, b1 - chi0),),
            tuple(middle),
            (_O(0, b0 - chi0),),
        ),
        notes=(
            "b0 = h^0(E) and b1 = h^n(E(-n)) are the maximal choices; isomorphic"
            " outer summands may cancel",
        ),
    )


def monad_acm(
    entry: VarietyCatalogEntry,
    defect: int,
    quantum: int,
    h1E: int = 0,
    hn1E: int = 0,
) -> MonadShape:
    """Monad shape ``A -> B -> C`` on an aCM variety of dimension >= 3.

    ``A = omega((n - defect) h)^q (+) omega((n + 1 - defect) h)^a`` and
    ``C = O^c (+) O(h)^q`` with ``a = defect h^(n-1)(E(-n h))`` and
    ``c = defect h^1(E)``; the middle term is an undetermined aCM bundle
    subject to the emitted constraints, whose right-hand sides are computed
    by the exact cohomology engines.  With defect 0 a note says that A is the
    Ulrich dual of C, and that B is Ulrich when the first two constraints,
    h^0(B(-h)) and h^n(B(-n h)), are both 0.
    """
    from .catalog import canonical_coords, twist_coords
    from .cohomology import line_bundle_cohomology

    n = entry.dimension
    if n < 3:
        raise UnsupportedBundleError("aCM monads need dimension >= 3")
    if not entry.is_acm:
        raise UnsupportedBundleError(f"{entry.variety_id} is not flagged aCM")
    a = defect * hn1E
    c = defect * h1E
    A = (
        Summand(f"omega_X(({n - defect})h)", 1, quantum),
        Summand(f"omega_X(({n + 1 - defect})h)", 1, a),
    )
    C = (Summand("O", 1, c), Summand("O(h)", 1, quantum))
    B = (Summand("B_aCM", None, 1),)
    K = canonical_coords(entry)
    h0_w1 = line_bundle_cohomology(entry, twist_coords(entry, K, n - 1 - defect))[0]
    h0_w2 = line_bundle_cohomology(entry, twist_coords(entry, K, n - defect))[0]
    zero_coords = tuple([0] * entry.picard_rank())
    chi_O0 = line_bundle_cohomology(entry, zero_coords).chi()
    chi_On = line_bundle_cohomology(entry, twist_coords(entry, zero_coords, -n)).chi()
    constraints = [
        Constraint(
            "h0_B_minus_h",
            "h^0(B(-h)) = q h^0(omega((n-1-defect)h)) + a h^0(omega((n-defect)h))",
            quantum * h0_w1 + a * h0_w2,
        ),
        Constraint(
            "hn_B_low",
            "h^n(B((defect-n)h)) = q h^0(omega((n-1-defect)h)) + c h^0(omega((n-defect)h))",
            quantum * h0_w1 + c * h0_w2,
        ),
        Constraint(
            "chi_B_symmetry",
            "defect (chi(B) - (-1)^n chi(B(-n h))) = defect (c - a)(chi(O) - (-1)^n chi(O(-n h)))",
            defect * (c - a) * (chi_O0 - (-1) ** n * chi_On),
        ),
    ]
    notes = ()
    if defect == 0:
        note = "A = C^{U,h}: the ordinary monad is Ulrich-dual-symmetric"
        if constraints[0].value == constraints[1].value == 0:
            note += " and B is Ulrich"
        notes = (note,)
    return MonadShape((A, B, C), tuple(constraints), notes)


def spinor_rank(n: int) -> int:
    """Rank ``2^[(n-1)/2]`` of a spinor bundle on an n-dimensional quadric."""
    return 2 ** ((n - 1) // 2)


class SpinorMultiplicities(FrozenValue):
    """Spinor multiplicities of the ordinary quadric monad ``O^k -> S(h)^s -> O(h)^k``.

    On even-dimensional quadrics only the sum s' + s'' is determined by rank
    and quantum number; the split needs the Euler pairings against the two
    spinor bundles and is None when those are not supplied.
    """

    __slots__ = _fields = ("total", "split")

    def __init__(self, total: int, split: tuple[int, int] | None = None):
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "split", split)


def monad_quadric_ordinary(
    n: int,
    rank: int,
    quantum: int,
    spinor_chi: tuple[int, int] | None = None,
) -> SpinorMultiplicities:
    """Spinor multiplicities for ordinary instanton bundles on the n-quadric.

    ``s = (rank + 2 quantum) / 2^[(n-1)/2]``; divisibility failure means no
    such monad exists.  For even n, ``spinor_chi`` supplies
    ``(h^0 - h^1)(E (x) S')`` and ``(h^0 - h^1)(E (x) S'')`` to resolve the
    split (swapped when n = 2 mod 4); anything but a pair of ints there, and a pair given on odd
    n, where there is no split, raises ``MalformedDataError``.
    """
    if n < 3:
        raise UnsupportedBundleError("quadric monads need n >= 3")
    if spinor_chi is not None and not (
        isinstance(spinor_chi, (tuple, list)) and len(spinor_chi) == 2 and all(type(x) is int for x in spinor_chi)
    ):
        raise MalformedDataError(f"spinor_chi must be a pair of ints, got {spinor_chi!r}")
    if spinor_chi is not None and n % 2:
        raise MalformedDataError(f"spinor_chi splits the spinor multiplicity on even n only, not on n = {n}")
    if rank % 2:
        raise InfeasibleError("ordinary instanton bundles on quadrics have even rank")
    denom = spinor_rank(n)
    num = rank + 2 * quantum
    if num % denom:
        raise InfeasibleError(f"rank + 2q = {num} is not divisible by the spinor rank {denom}")
    total = num // denom
    if n % 2 == 1:
        return SpinorMultiplicities(total)
    split = None
    if spinor_chi is not None:
        x1, x2 = spinor_chi
        if n % 4 == 0:
            split = (x1 + denom * quantum, x2 + denom * quantum)
        else:
            split = (x2 + denom * quantum, x1 + denom * quantum)
        if split[0] + split[1] != total or min(split) < 0:
            raise InfeasibleError(f"spinor split {split} inconsistent with total {total}")
    return SpinorMultiplicities(total, split)


def monad_quadric_ordinary_shape(n: int, rank: int, quantum: int) -> MonadShape:
    """The shape ``O^q -> S(h)^s -> O(h)^q`` (odd n)."""
    if n % 2 == 0:
        raise UnsupportedBundleError("the ordinary quadric monad shape needs odd n")
    s = monad_quadric_ordinary(n, rank, quantum).total
    return MonadShape(
        (
            (Summand("O", 1, quantum),),
            (Summand("S(h)", spinor_rank(n), s),),
            (Summand("O(h)", 1, quantum),),
        )
    )


def monad_space_nonordinary(n: int, rank: int, quantum: int, a: int, c: int) -> MonadShape:
    """Quasi-linear monad of a non-ordinary instanton bundle on P^n (n >= 3).

    ``O(-2)^q (+) O(-1)^a -> O(-1)^b0 (+) O^b1 -> O^c (+) O(1)^q`` with
    ``b0 = r/2 + q + a`` and ``b1 = r/2 + q + c``.
    """
    if n < 3:
        raise UnsupportedBundleError("n >= 3")
    if rank % 2:
        raise InfeasibleError("non-ordinary instanton bundles on P^n have even rank")
    if a < 0 or c < 0:
        raise InfeasibleError("a and c are cohomology dimensions, hence nonnegative")
    b0 = rank // 2 + quantum + a
    b1 = rank // 2 + quantum + c
    return MonadShape(
        (
            (_O(-2, quantum), _O(-1, a)),
            (_O(-1, b0), _O(0, b1)),
            (_O(0, c), _O(1, quantum)),
        )
    )


def monad_quadric_nonordinary(n: int, rank: int, quantum: int, a: int, c: int, b: int) -> int:
    """Spinor multiplicity of the non-ordinary quadric monad (odd n).

    The shape is ``O(-h)^q (+) O^a -> O^b (+) S^s (+) S(h)^s -> O^c (+) O(h)^q``
    with ``s = (rank + 2 quantum + a + c - b) / 2^[(n+1)/2]``; with
    ``s = a = c = 0`` it degenerates to the symmetric linear monad.
    """
    if n < 3 or n % 2 == 0:
        raise UnsupportedBundleError("the explicit non-ordinary quadric monad needs odd n >= 3")
    if min(a, c, b) < 0:
        raise InfeasibleError("multiplicities are nonnegative")
    denom = 2 ** ((n + 1) // 2)
    num = rank + 2 * quantum + a + c - b
    if num < 0 or num % denom:
        raise InfeasibleError(
            f"rank + 2q + a + c - b = {num} is not a nonnegative multiple of {denom}"
        )
    return num // denom


def monad_quadric_nonordinary_shape(
    n: int, rank: int, quantum: int, a: int, c: int, b: int
) -> MonadShape:
    s = monad_quadric_nonordinary(n, rank, quantum, a, c, b)
    rk_s = spinor_rank(n)
    return MonadShape(
        (
            (Summand("O(-h)", 1, quantum), Summand("O", 1, a)),
            (Summand("O", 1, b), Summand("S", rk_s, s), Summand("S(h)", rk_s, s)),
            (Summand("O", 1, c), Summand("O(h)", 1, quantum)),
        )
    )


class ScrollMonadReport(FrozenValue):
    """Ulrich-filtration multiplicities of the middle term on a low scroll.

    ``relative_cotangent_h1`` is h^1 of the dual relative cotangent sheaf
    twisted by O(-h): the only nonzero group, of dimension deg - 3 on
    3-dimensional scrolls.
    """

    __slots__ = _fields = ("multiplicities", "relation", "relative_cotangent_h1")

    def __init__(self, multiplicities: tuple[int, ...], relation: str, relative_cotangent_h1: int | None = None):
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "relative_cotangent_h1", relative_cotangent_h1)


def _filtration(
    rank: int, quantum: int, inputs: tuple[int, ...], count: int
) -> tuple[tuple[int, ...], str]:
    """Multiplicities ``(s_1, ..., s_count)`` of an Ulrich filtration with ``count = k + 1`` quotients,
    and their relation: ``s_i = x_i``, plus 2q on the first and the last input, and
    ``sum_i C(k, i - 1) s_i = rank + 2 quantum``."""
    if len(inputs) != count:
        names = ",".join(f"x{i}" for i in range(1, count + 1))
        raise MalformedDataError(f"the filtration takes {count} inputs {names}, got {len(inputs)}")
    k = count - 1
    s = tuple(x + 2 * quantum if i in (0, k) else x for i, x in enumerate(inputs))
    if min(s) < 0:
        raise InfeasibleError(f"negative multiplicity in {s}")
    weights = [binom(k, i) for i in range(count)]
    lhs = " + ".join(f"{w} s{i}" if w > 1 else f"s{i}" for i, w in enumerate(weights, 1))
    total = sum(w * x for w, x in zip(weights, s))
    if total != rank + 2 * quantum:
        raise InfeasibleError(f"{lhs} = {total} != rank + 2q = {rank + 2 * quantum}")
    return s, f"{lhs} = rank + 2 quantum"


def monad_scroll3(d: int, rank: int, quantum: int, s_inputs: tuple[int, ...]) -> ScrollMonadReport:
    """Filtration multiplicities (s1, s2, s3) on a degree-d 3-fold scroll over P^1.

    The three inputs are the Euler pairings ``(h^0 - h^1)(E(f - h))``,
    ``h^1(E(f - 2h))`` and ``(h^3 - h^2)(E(-3h - f))``;
    the multiplicities are ``s1 = x1 + 2q``, ``s2 = x2``, ``s3 = x3 + 2q``
    and must satisfy ``s1 + 2 s2 + s3 = rank + 2 quantum``.
    """
    if d < 3:
        raise UnknownVarietyError("a 3-dimensional scroll over P^1 has degree >= 3")
    return ScrollMonadReport(*_filtration(rank, quantum, s_inputs, 3), relative_cotangent_h1=d - 3)


def monad_p1p3(rank: int, quantum: int, s_inputs: tuple[int, ...]) -> ScrollMonadReport:
    """Filtration multiplicities (s1, s2, s3, s4) on the Segre P^1 x P^3.

    ``s1 = x1 + 2q``, ``s2 = x2``, ``s3 = x3``, ``s4 = x4 + 2q`` from the four
    pairings of E against the filtration quotients, constrained by
    ``s1 + 3 s2 + 3 s3 + s4 = rank + 2 quantum``.
    """
    return ScrollMonadReport(*_filtration(rank, quantum, s_inputs, 4))
