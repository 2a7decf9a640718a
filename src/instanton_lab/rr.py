"""Riemann-Roch Euler characteristics, slopes and Chern-class arithmetic.

Everything here is exact: Euler characteristics are integers computed with
:class:`fractions.Fraction` intermediates, slopes are exact rationals, and
the bracket ``[x]`` appearing in normalization twists is the floor.
``Fraction`` is imported inside the functions that build rationals (the
Bernoulli numbers, log td(X) and the Riemann-Roch weights :func:`_twisted_weights`,
:func:`slope` and :func:`quantum_chern_identity`; :func:`chi_twisted` only to
report a value that is not an integer), not at module level, so a call that
builds no rational, such as the ``cohom`` and ``check`` commands, never loads
:mod:`fractions` and :mod:`decimal`.

Every Riemann-Roch Euler characteristic comes from one formula,
``chi(E(t h)) = int ch(E) exp(t h) td(T_X)`` in the entry's Chow ring
(:func:`chi_twisted`; :func:`chi` is its t = 0 view).  The Todd class is
Hirzebruch's ``exp(sum_k lambda_k p_k(T_X))``, read off the tangent class the
entry declares, in any dimension; the Chern characters of T_X and E come from
the same Newton's identities.  ``exp(t h) td(T_X)`` is one exponential,
``exp(t h + sum_k lambda_k p_k(T_X))``, and enters as one integer vector of
weights over the ring basis per entry and twist, built once and kept (the
exponent's log td(X) is kept per entry, so a new twist costs one exponential);
``n! ch(E)`` is taken from the power sums of E on the first call and kept on
the :class:`ChernData`.  Each power sum ``p_k`` and ``n! ch(E)`` is one pass of
:func:`chow.combine` over the coefficient vectors of its terms, and so are
log td(X) and the exponential's sum, so the first call builds one class per
``p_k`` and one for ``n! ch(E)`` besides its ``n(n-1)/2`` products.  So a later
call is one dot product and one exact division, and no call builds the Chern
data of ``E(t h)``.
:class:`ChernData` stops at c_3, so :func:`chi_twisted` takes sheaves on
entries of dimension at most 3; higher-dimensional Euler characteristics come
from the cohomology engines instead.

The Chern-class arithmetic covers Whitney sums, twists, duals and the rank-two
Serre construction on a codimension-two cycle (:func:`serre_construction_chern`).
A sum of line bundles ``(+) O(D_i)^m_i`` has ``c = prod (1 + D_i)^m_i``
(:func:`chern_of_line_bundle_sum`): the classes are multiplied by ``1 + D`` in
place, one copy at a time, and one :class:`ChernData` is built at the end.
Slopes, normalization twists and the slope condition pair c_1 and K_X with
``h^(n-1)`` through :meth:`VarietyCatalogEntry.h_degree`, one dot product with
weights kept per entry, and read ``h^n`` (:meth:`VarietyCatalogEntry.hn`), kept
per entry too.
"""

from __future__ import annotations

import operator
from functools import cache
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING

from . import chow
from .catalog import VarietyCatalogEntry, entry_ring
from .chow import ChowClass
from .errors import InfeasibleError, MalformedDataError, UnsupportedBundleError, VarietyMismatchError
from .util import FrozenValue, binom

if TYPE_CHECKING:
    from fractions import Fraction


class ChernData(FrozenValue):
    """Rank and Chern classes of a sheaf on one catalog variety.

    ``c2`` may be omitted on curves and ``c3`` below 3-folds.
    """

    #: ``_ch`` is n! ch(E) over the ring basis, kept by :func:`chi_twisted` on its first call:
    #: it follows from the fields, so it is neither compared nor shown
    __slots__ = ("rank", "c1", "c2", "c3", "_ch")
    _fields = ("rank", "c1", "c2", "c3")

    def __init__(self, rank: int, c1: ChowClass, c2: ChowClass | None = None, c3: ChowClass | None = None):
        if type(rank) is not int:
            raise MalformedDataError(f"the Chern rank must be an int, got {rank!r}")
        if rank < 1:
            raise MalformedDataError("rank must be positive")
        if not c1.is_homogeneous(1):
            raise MalformedDataError("c1 must be homogeneous of degree 1")
        for cls, deg in ((c2, 2), (c3, 3)):
            if cls is not None:
                if cls.ring is not c1.ring:
                    raise VarietyMismatchError("Chern classes live on different varieties")
                if not cls.is_homogeneous(deg):
                    raise MalformedDataError(f"c{deg} must be homogeneous of degree {deg}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "_ch", None)

    @property
    def variety_id(self) -> str:
        return self.c1.variety_id

    def to_json(self) -> dict:
        out: dict = {"rank": self.rank, "c1": self.c1.to_json()}
        if self.c2 is not None:
            out["c2"] = self.c2.to_json()
        if self.c3 is not None:
            out["c3"] = self.c3.to_json()
        return out

    @staticmethod
    def from_json(variety_id: str, data: dict) -> "ChernData":
        """Read :meth:`to_json`'s block on the catalog entry ``variety_id``, any id
        :func:`catalog.entry_ring` resolves.  A block that is not a dict with ``rank`` and ``c1``
        raises ``MalformedDataError``; the constructors check the values."""
        ring_id = entry_ring(variety_id).variety_id

        def cls(key: str) -> ChowClass | None:
            return ChowClass.from_json(ring_id, data[key]) if key in data else None

        try:
            return ChernData(data["rank"], ChowClass.from_json(ring_id, data["c1"]), cls("c2"), cls("c3"))
        except (KeyError, TypeError) as exc:
            raise MalformedDataError(f"malformed Chern data ({type(exc).__name__}: {exc})") from None


def whitney_sum(a: ChernData, b: ChernData) -> ChernData:
    """Chern data of ``A (+) B``: ``c(A (+) B) = c(A) c(B)`` through c3.

    A class missing on either side is missing from the sum.
    """
    c2 = c3 = None
    if a.c2 is not None and b.c2 is not None:
        c2 = a.c2 + a.c1 * b.c1 + b.c2
        if a.c3 is not None and b.c3 is not None:
            c3 = a.c3 + a.c2 * b.c1 + a.c1 * b.c2 + b.c3
    return ChernData(a.rank + b.rank, a.c1 + b.c1, c2, c3)


def chern_of_line_bundle_sum(summands: list[tuple[ChowClass, int]]) -> ChernData:
    """Chern data of a direct sum of line bundles ``(+) O(D_i)^m_i``: the product
    ``prod (1 + D_i)^m_i`` through c3, taken in place from the first copy on, one copy at a
    time (``c3 += c2 D``, ``c2 += c1 D``, ``c1 += D``), with one :class:`ChernData` at the end.

    Summands are checked in order: a negative multiplicity and a D that is not homogeneous of
    degree 1 (at any multiplicity, 0 included) raise ``MalformedDataError``, and a copy on a ring
    other than the first copy's raises ``VarietyMismatchError``; a multiplicity-0 summand adds
    nothing.  An empty list or total rank 0 raises ``MalformedDataError``.
    """
    if not summands:
        raise MalformedDataError("empty direct sum has no Chern data")
    rank, c = 0, None
    for D, m in summands:
        if m < 0:
            raise MalformedDataError("multiplicities must be nonnegative")
        if not D.is_homogeneous(1):
            raise MalformedDataError("c1 must be homogeneous of degree 1")
        if not m:
            continue
        rank += m
        if c is None:
            # the first copy: c = 1 + D, c_k for 1 <= k <= min(n, 3)
            c, m = [D] + [D.ring.zero()] * (min(D.ring.top_degree, 3) - 1), m - 1
        for _ in range(m):
            for k in range(len(c) - 1, 0, -1):
                c[k] = c[k] + chow.multiply(c[k - 1], D)
            c[0] = c[0] + D
    if c is None:
        raise MalformedDataError("rank must be positive")
    return ChernData(rank, *c)


def twist(c: ChernData, D: ChowClass) -> ChernData:
    """Chern data of ``E (x) O(D)``."""
    r = c.rank
    c1 = c.c1 + r * D
    c2 = None
    if c.c2 is not None:
        c2 = c.c2 + (r - 1) * D * c.c1 + binom(r, 2) * D * D
    c3 = None
    if c.c3 is not None:
        if c.c2 is None:
            raise MalformedDataError("c3 without c2")
        c3 = c.c3 + (r - 2) * D * c.c2 + binom(r - 1, 2) * D * D * c.c1 + binom(r, 3) * D * D * D
    return ChernData(r, c1, c2, c3)


def dual(c: ChernData) -> ChernData:
    """Chern data of the dual sheaf."""
    return ChernData(c.rank, -c.c1, c.c2, -c.c3 if c.c3 is not None else None)


def ulrich_dual_chern(entry: VarietyCatalogEntry, c: ChernData, defect: int = 0) -> ChernData:
    """Chern data of ``E^v((n+1)h + K_X - defect*h)``."""
    D = (entry.dimension + 1 - defect) * entry.polarization + entry.canonical
    return twist(dual(c), D)


def serre_construction_chern(
    entry: VarietyCatalogEntry, D: ChowClass, detE: ChowClass, Zclass: ChowClass
) -> ChernData:
    """Chern data of the rank-two bundle of the Serre construction on a codimension-two cycle.

    A section vanishing on ``Z`` (class ``Zclass``) along the divisor ``D``
    with determinant ``detE`` gives ``c1 = detE`` and
    ``c2 = D (detE - D) + [Z]``.
    """
    for cls, deg, name in ((D, 1, "D"), (detE, 1, "det"), (Zclass, 2, "Z")):
        if not cls.is_homogeneous(deg):
            raise MalformedDataError(f"{name} must be homogeneous of degree {deg}")
    c2 = chow.multiply(D, detE - D) + Zclass
    c3 = entry.ring.zero() if entry.dimension >= 3 else None
    return ChernData(2, detE, c2, c3)


# --------------------------------------------------------------------------
# Euler characteristics
# --------------------------------------------------------------------------


def _power_sums(c: tuple[ChowClass, ...]) -> list[ChowClass]:
    """Power sums ``p_1, ..., p_n`` of the Chern roots, from ``c = (c_1, ..., c_n)`` by Newton's
    identities ``p_k = sum_(i<k) (-1)^(i-1) c_i p_(k-i) + (-1)^(k-1) k c_k``: each p_k is one
    :func:`chow.combine` of its ``k - 1`` products and ``c_k``."""
    p: list[ChowClass] = []
    for k in range(1, len(c) + 1):
        terms = [((-1) ** (k - 1) * k, c[k - 1])]
        terms += [((-1) ** (i - 1), chow.multiply(c[i - 1], p[k - i - 1])) for i in range(1, k)]
        p.append(chow.combine(terms))
    return p


@cache
def _bernoulli(m: int) -> Fraction:
    """The Bernoulli number ``B_m`` (``B_1 = -1/2``), from ``sum_(j<=m) C(m+1, j) B_j = 0``."""
    from fractions import Fraction

    return -sum(binom(m + 1, j) * _bernoulli(j) for j in range(m)) / Fraction(m + 1) if m else Fraction(1)


@cache
def _log_td(entry: VarietyCatalogEntry) -> ChowClass:
    """``log td(X) = sum_k lambda_k p_k(T_X)`` of the declared tangent class, once per entry.

    ``lambda_k`` is the coefficient of x^k in ``log(x / (1 - e^-x))``: 1/2 for k = 1, otherwise
    ``-B_k / (k k!)``, zero for odd k > 1.
    """
    from fractions import Fraction

    p = _power_sums(tuple(entry.tangent.part(r) for r in range(1, entry.dimension + 1)))
    return chow.combine(
        [(Fraction(1, 2) if k == 1 else -_bernoulli(k) / (k * factorial(k)), pk) for k, pk in enumerate(p, 1)]
    )


@cache
def _twisted_weights(entry: VarietyCatalogEntry, t: int) -> tuple[tuple[int, ...], int]:
    """``(w, D)``: integers ``w_k = D int b_k exp(t h) td(X)`` over the ring basis ``b_k``, reduced
    by their gcd, with Hirzebruch's Todd class ``td(X) = exp(sum_k lambda_k p_k(T_X))`` of the
    declared tangent class; the two exponentials are one, ``exp(t h + log td(X))``, and log td(X)
    (:func:`_log_td`) is kept per entry, so a new twist costs one exponential.

    ``w_0 / D = int exp(t h) td_n`` is chi(O_X(t h)), Noether's formula at t = 0.
    """
    from fractions import Fraction

    ring, n = entry.ring, entry.dimension
    exponent = t * entry.polarization + _log_td(entry)
    # x = L exponent is integral, and n! L^n exp(exponent) = sum_j (n!/j!) L^(n-j) x^j: int products only
    L = lcm(*(Fraction(c).denominator for c in exponent.coeffs))
    x = ChowClass(ring, tuple(int(c * L) for c in exponent.coeffs))
    powers = [ring.one()]
    for _ in range(n):
        powers.append(chow.multiply(powers[-1], x))
    total = chow.combine([(factorial(n) // factorial(j) * L ** (n - j), xj) for j, xj in enumerate(powers)])
    w, D = [chow.integrate(ring.from_dict({b: 1}) * total) for b in ring.basis], factorial(n) * L**n
    g = gcd(D, *w)
    return tuple(v // g for v in w), D // g


def chi_twisted(entry: VarietyCatalogEntry, c: ChernData, t: int) -> int:
    """Hirzebruch-Riemann-Roch ``chi(E(t h)) = int ch(E) exp(t h) td(X)`` with
    ``ch(E) = rank + sum_k p_k(E) / k!``, paired with the weights of ``exp(t h) td(X)``
    (:func:`_twisted_weights`, kept per entry and t) and divided once.  No Chern data of
    ``E(t h)`` is built: the first call on ``c`` takes the power sums of E and keeps
    ``n! ch(E)`` on it, and every call is then one dot product.

    The Chern data must live on the entry's own ring (``VarietyMismatchError`` otherwise) and
    carry c_1, ..., c_n, which :class:`ChernData` holds through n = 3 (``UnsupportedBundleError``
    otherwise); both are checked before any weight is built.  A value that is not an integer
    raises ``InfeasibleError``.
    """
    if c.c1.ring is not entry.ring:
        raise VarietyMismatchError(
            f"Chern data on {c.variety_id!r} does not live on {entry.variety_id!r}"
        )
    n = entry.dimension
    if n > 3 or (n > 1 and c.c2 is None) or (n > 2 and c.c3 is None):
        raise UnsupportedBundleError(f"Riemann-Roch on {entry.variety_id} needs c1 to c{n}")
    ch = c._ch
    if ch is None:
        # n! ch(E) = n! rank + sum_k (n!/k!) p_k(E), once per Chern data
        p = _power_sums((c.c1, c.c2, c.c3)[:n])
        terms = [(factorial(n) * c.rank, entry.ring.one())]
        ch = chow.combine(terms + [(factorial(n) // factorial(k), pk) for k, pk in enumerate(p, 1)]).coeffs
        object.__setattr__(c, "_ch", ch)
    weights, D = _twisted_weights(entry, t)
    num = sum(map(operator.mul, ch, weights))
    chi_value, rest = divmod(num, factorial(n) * D)
    if rest:
        from fractions import Fraction

        raise InfeasibleError(f"chi is not an integer: {Fraction(num, factorial(n) * D)}")
    return chi_value


def chi(entry: VarietyCatalogEntry, c: ChernData) -> int:
    """``chi(E) = int ch(E) td(X)``: :func:`chi_twisted` at t = 0, with the same checks."""
    return chi_twisted(entry, c, 0)


# --------------------------------------------------------------------------
# Slopes, normalization and first-Chern-class constraints
# --------------------------------------------------------------------------


def slope(entry: VarietyCatalogEntry, c: ChernData) -> Fraction:
    """mu_h(E) = c1(E) . h^(n-1) / rank, exact."""
    from fractions import Fraction

    return Fraction(entry.h_degree(c.c1), c.rank)


def normalization_twist(entry: VarietyCatalogEntry, c: ChernData) -> int:
    """The unique t with ``-rank h^n < c1(E(t h)) . h^(n-1) <= 0``.

    Equals the floor of ``-mu_h(E) / h^n``.  Conventions: the defining pairing
    is against ``h^(n-1)`` (the only reading producing an integer of the
    right size), and the bracket is the floor, so that e.g. ``c1 = 3h`` on an
    index-one Fano 3-fold normalizes by ``floor(-3/2) = -2``.
    """
    return -entry.h_degree(c.c1) // (c.rank * entry.hn())


def slope_condition(entry: VarietyCatalogEntry, c: ChernData, defect: int) -> bool:
    """Exact test of ``2 c1 . h^(n-1) = rank ((n+1-defect) h^n + K h^(n-1))``."""
    n = entry.dimension
    rhs = c.rank * ((n + 1 - defect) * entry.hn() + entry.h_degree(entry.canonical))
    return 2 * entry.h_degree(c.c1) == rhs


def cyclic_c1(rank: int, defect: int, u: int, v: int, n: int) -> int | None:
    """Forced c1 multiple on a cyclic n-fold with h = uH and omega = vH.

    Returns epsilon with ``c1 = epsilon H``, or None when the parity
    obstruction makes the first Chern class infeasible.
    """
    twice = rank * (u * (n + 1 - defect) + v)
    if twice % 2:
        return None
    return twice // 2


def chern_poly_instanton_pn(n: int, rank: int, defect: int, quantum: int) -> tuple[int, ...]:
    """Chern classes ``(c1, ..., cn)`` of an instanton sheaf on P^n.

    Expands the rational Chern polynomial of the defining monad as a power
    series in ``t = H`` in the Chow ring of P^n, which truncates it in degree
    n (``A^i(P^n) = Z``): ``1/(1-t^2)^q`` for defect 0,
    ``(1-t)^(r/2+q) (1+t)^(-q) (1-2t)^(-q)`` for defect 1 on n >= 3, and
    ``(1-t)^(r/2) (1-t^2)^(-q)`` for defect 1 on the plane.
    """
    if defect not in (0, 1):
        raise MalformedDataError("defect must be 0 or 1")
    if n < 2:
        raise UnsupportedBundleError("Chern polynomials are synthesized for n >= 2")
    if defect and rank % 2:
        raise InfeasibleError("non-ordinary instanton sheaves on P^n have even rank")

    ring = chow.projective_space_ring(n)

    def series_binomial(scale: int, exponent: int, step: int = 1) -> ChowClass:
        # power series of (1 + scale*H^step)^exponent in A(P^n)
        return ring.from_dict({(j * step,): binom(exponent, j) * scale**j for j in range(n // step + 1)})

    if defect == 0:
        total = series_binomial(-1, -quantum, step=2)
    elif n >= 3:
        total = series_binomial(-1, rank // 2 + quantum)
        total = total * series_binomial(1, -quantum) * series_binomial(-2, -quantum)
    else:
        total = series_binomial(-1, rank // 2) * series_binomial(-1, -quantum, step=2)
    return tuple(total.coefficient((k,)) for k in range(1, n + 1))


def quantum_chern_identity(
    entry: VarietyCatalogEntry, c: ChernData, defect: int, chi_list: list[int]
) -> int:
    """Solve the surface-restriction identity for the quantum number.

    ``chi_list`` supplies ``chi(O_X(-i h))`` for ``0 <= i <= n-2``; the
    identity reads

        eps q = (c2 - c1 (c1 - K - (n-2) h) / 2) . h^(n-2)
                + rank (h^n / (1+defect) - sum_i (-1)^i C(n-2, i) chi_list[i])

    with eps = 1 on surfaces and 1 + defect above.  A non-integral solution
    signals inconsistent inputs.
    """
    from fractions import Fraction

    n = entry.dimension
    if n < 2:
        raise UnsupportedBundleError("the identity needs dimension >= 2")
    if c.c2 is None:
        raise UnsupportedBundleError("c2 is required")
    if len(chi_list) != n - 1:
        raise MalformedDataError(f"chi_list must have {n - 1} entries chi(O(-i h)), 0 <= i <= n-2")
    eps = 1 if n == 2 else 1 + defect
    hpow = entry.h_power(n - 2)
    K = entry.canonical
    corr = c.c1 * (c.c1 - K - (n - 2) * entry.polarization)
    geom = Fraction(chow.integrate(c.c2 * hpow)) - Fraction(chow.integrate(corr * hpow), 2)
    euler = Fraction(entry.hn(), 1 + defect) - sum(
        (-1) ** i * binom(n - 2, i) * chi_list[i] for i in range(n - 1)
    )
    q = (geom + c.rank * euler) / eps
    if q.denominator != 1:
        raise InfeasibleError(f"quantum number came out non-integral: {q}")
    return int(q)
