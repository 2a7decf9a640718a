from __future__ import annotations

import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, strategies as st

from instanton_lab import catalog, chow, rr
from instanton_lab.cohomology import build_table, coh_projective_space
from instanton_lab.errors import (
    InfeasibleError,
    MalformedDataError,
    UnknownVarietyError,
    UnsupportedBundleError,
    VarietyMismatchError,
)
from instanton_lab.replays import prime_fano_family
from instanton_lab.rr import ChernData
from instanton_lab.util import binom


def line_chern(entry, coords):
    return rr.chern_of_line_bundle_sum([(catalog.line_bundle_class(entry, coords), 1)])


def test_chi_curve_examples():
    p1 = catalog.curve(0, 1, "exact_p1")
    P = p1.ring.gen("H")
    assert rr.chi(p1, ChernData(1, 0 * P)) == 1
    for g in (0, 2, 5):
        cg = catalog.curve(g, 1, "exact_p1" if g == 0 else "generic")
        Pg = cg.ring.gen("H")
        for d in range(-3, 4):
            assert rr.chi(cg, ChernData(2, d * Pg)) == 2 * (1 - g) + d
        # a theta-characteristic has degree g - 1 and chi = 0
        assert rr.chi(cg, ChernData(1, (g - 1) * Pg)) == 0


def test_chi_surface_against_engine():
    p2 = catalog.projective_space(2)
    for t in range(-5, 6):
        c = line_chern(p2, (t,))
        assert rr.chi(p2, c) == coh_projective_space(2, t).chi()


@pytest.mark.parametrize("defect", [0, 1])
def test_chi_surface_matches_mukai_quantum(defect):
    """chi(E(-h)) = -q for the rank-two surface construction, on the plane."""
    p2 = catalog.projective_space(2)
    H = p2.ring.gen("H")
    K = p2.canonical
    h2 = 1
    Kh = chow.integrate(K * H)
    for deg_D in range(0, 12):
        c1 = (3 - defect) * H + K
        c = ChernData(2, c1, deg_D * H * H)
        q = Fraction(deg_D - 2 * 1) - Fraction((defect**2 - 4 * defect + 5) * h2 + (3 - defect) * Kh, 2)
        assert q.denominator == 1
        assert rr.chi(p2, rr.twist(c, -p2.polarization)) == -int(q)


def test_chi_threefold_examples():
    p3 = catalog.projective_space(3)
    H = p3.ring.gen("H")
    assert rr.chi(p3, ChernData(1, 0 * H, 0 * H * H, 0 * H**3)) == 1
    for t in range(-6, 7):
        assert rr.chi_twisted(p3, line_chern(p3, (0,)), t) == coh_projective_space(3, t).chi()
    for q in range(0, 6):
        c = ChernData(2, 0 * H, q * H * H, 0 * H**3)
        assert rr.chi_twisted(p3, c, -1) == -q


THREEFOLDS = [
    catalog.projective_space(3),
    catalog.quadric(3),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 1, 1)),
    catalog.scroll_p1((1, 1, 2)),
    catalog.scroll_p1((1, 2, 3)),
]


@pytest.mark.parametrize("entry", THREEFOLDS, ids=lambda e: e.variety_id)
def test_chi_threefold_against_engines(entry):
    rank = entry.picard_rank()
    for coords in itertools.product(range(-3, 4), repeat=rank):
        c = line_chern(entry, coords)
        for t in (-2, -1, 0, 1):
            engine = build_table(entry, coords, (t, t)).row(t).chi()
            assert rr.chi_twisted(entry, c, t) == engine, (entry.variety_id, coords, t)


def test_chi_dimension_gate():
    p4 = catalog.projective_space(4)
    with pytest.raises(ValueError):
        rr.chi(p4, line_chern(p4, (0,)))


def test_chi_refuses_a_non_integral_value():
    """Rank 1, c_1 = H and c_2 = H^2/2 on P^2: chi = 1 + c_1 (c_1 - K) / 2 - c_2 = 1 + 2 - 1/2 = 5/2."""
    p2 = catalog.projective_space(2)
    H = p2.ring.gen("H")
    with pytest.raises(ValueError, match="^chi is not an integer: 5/2$"):
        rr.chi(p2, ChernData(1, H, Fraction(1, 2) * H * H))


@pytest.mark.parametrize(
    "entry, other",
    [
        (catalog.curve(2, 3), catalog.projective_space(1)),
        (catalog.curve(2, 3), catalog.curve(1, 3)),
        (catalog.projective_space(2), catalog.quadric(2)),
        (catalog.quadric(2), catalog.scroll_p1((1, 2))),
        (catalog.flag3(), catalog.triple_p1()),
        (catalog.projective_space(3), catalog.quadric(3)),
    ],
    ids=lambda e: e.variety_id,
)
def test_chi_rejects_chern_data_from_another_variety(entry, other):
    c = line_chern(other, (1,) * other.picard_rank())
    with pytest.raises(VarietyMismatchError, match=re.escape(entry.variety_id)):
        rr.chi(entry, c)
    with pytest.raises(VarietyMismatchError):
        rr.chi_twisted(entry, c, -1)
    # the same bundle on its own variety
    assert rr.chi(other, c) == build_table(other, (1,) * other.picard_rank(), (0, 0)).row(0).chi()


#: every catalog kind of dimension at most 3
TWO_ROUTE_ENTRIES = [
    *(catalog.projective_space(n, u) for n in (1, 2, 3) for u in (1, 2)),
    catalog.quadric(2),
    catalog.quadric(3),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 3)),
    catalog.scroll_p1((1, 1, 2)),
    catalog.scroll_p1((1, 2, 3)),
    catalog.curve(0, 2, "exact_p1"),
    *(catalog.curve(g, g + 1, "generic") for g in range(4)),
    *(catalog.prime_fano(g) for g in range(3, 13)),
]


@pytest.mark.parametrize("entry", TWO_ROUTE_ENTRIES, ids=lambda e: e.variety_id)
def test_chi_twisted_against_twisted_chern_data_and_the_engine(entry):
    """chi(E(t h)) three ways on seeded sums of one to three line bundles, t in [-6, 6]: the
    twisted weights, chi of the twisted Chern data, and the engine table (exact on every entry
    here).  On prime Fano 3-folds the rank-two members with rational c2 take the first two."""
    rng = random.Random(entry.variety_id)
    for rank in (1, 2, 3):
        for _ in range(2):
            bundles = [(tuple(rng.randint(-3, 3) for _ in range(entry.picard_rank())), 1) for _ in range(rank)]
            c = rr.chern_of_line_bundle_sum([(catalog.line_bundle_class(entry, co), m) for co, m in bundles])
            table = build_table(entry, bundles, (-6, 6), with_chern=False)
            for t in range(-6, 7):
                got = rr.chi_twisted(entry, c, t)
                assert got == rr.chi(entry, rr.twist(c, t * entry.polarization)) == table.chi_at(t), (bundles, t)
    if entry.kind == "prime_fano":
        H = entry.ring.gen("H")
        for k in range(3):
            rep = prime_fano_family(entry.genus, k)
            c = ChernData(rep.rank, rep.c1_mult * H, Fraction(rep.c2_dot_h, entry.hn()) * H * H, 0 * H**3)
            for t in range(-6, 7):
                assert rr.chi_twisted(entry, c, t) == rr.chi(entry, rr.twist(c, t * entry.polarization)), (k, t)


@pytest.mark.parametrize("entry", TWO_ROUTE_ENTRIES, ids=lambda e: e.variety_id)
def test_untwisted_weights_are_the_todd_weights(entry):
    """At t = 0 the weights are those of the Todd class as the textbook polynomials give it
    through dimension 3, ``1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24`` in the Chern classes of T_X,
    a route that takes no power sum, Bernoulli number or exponential."""
    ring, c1, c2 = entry.ring, entry.tangent.part(1), entry.tangent.part(2)
    td = ring.one() + Fraction(1, 2) * c1 + Fraction(1, 12) * (c1 * c1 + c2) + Fraction(1, 24) * (c1 * c2)
    weights, denominator = rr._twisted_weights(entry, 0)
    for b, w in zip(ring.basis, weights):
        assert Fraction(w, denominator) == chow.integrate(ring.from_dict({b: 1}) * td), b


@pytest.mark.parametrize(
    "entry",
    [catalog.curve(2, 3), catalog.quadric(2), catalog.flag3(), catalog.triple_p1(), catalog.prime_fano(7)],
    ids=lambda e: e.variety_id,
)
def test_chi_twisted_builds_no_twisted_chern_data(entry, monkeypatch):
    """With the weights of each twist cached, chi(E(t h)) on an n-fold multiplies only for the
    power sums of E, on the first call: at most n(n-1)/2 Chow-ring products, then none, and
    no call of ``twist``."""
    coords = [(1,) * entry.picard_rank(), (-2,) + (1,) * (entry.picard_rank() - 1), (0,) * entry.picard_rank()]
    c = rr.chern_of_line_bundle_sum([(catalog.line_bundle_class(entry, co), 1) for co in coords])
    twists = range(-4, 5)
    expected = [rr.chi(entry, rr.twist(c, t * entry.polarization)) for t in twists]
    for t in twists:
        rr._twisted_weights(entry, t)
    products = []
    multiply = chow.multiply

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    def refused(*args):
        raise AssertionError("chi_twisted built twisted Chern data")

    monkeypatch.setattr(chow, "multiply", counted)
    monkeypatch.setattr(rr, "twist", refused)
    n = entry.dimension
    for i, (t, value) in enumerate(zip(twists, expected)):
        products.clear()
        assert rr.chi_twisted(entry, c, t) == value
        assert len(products) <= (n * (n - 1) // 2 if i == 0 else 0), (t, len(products))


@pytest.mark.parametrize(
    "entry",
    [catalog.projective_space(3), catalog.flag3(), catalog.scroll_p1((1, 1, 2)), catalog.prime_fano(7)],
    ids=lambda e: e.variety_id,
)
def test_power_sums_are_taken_once_per_chern_data(entry, monkeypatch):
    """chi(E(t h)) for t = -n, ..., 0 on one Chern data takes the power sums of E once: the
    first call keeps n! ch(E) on the data, and every twist after it is a dot product.  On the
    prime Fano 3-fold the rank-two members with rational c2 are among the data."""
    n, H = entry.dimension, entry.polarization
    rng = random.Random(entry.variety_id)
    data = [
        rr.chern_of_line_bundle_sum(
            [(catalog.line_bundle_class(entry, tuple(rng.randint(-3, 3) for _ in range(entry.picard_rank()))), 1)
             for _ in range(rank)]
        )
        for rank in (1, 2, 3)
    ]
    if entry.kind == "prime_fano":
        for k in range(3):
            rep = prime_fano_family(entry.genus, k)
            data.append(ChernData(rep.rank, rep.c1_mult * H, Fraction(rep.c2_dot_h, entry.hn()) * H * H, 0 * H**3))
        assert any(isinstance(v, Fraction) and v.denominator > 1 for c in data for v in c.c2.coeffs)
    twists = range(-n, 1)
    expected = [[rr.chi(entry, rr.twist(c, t * entry.polarization)) for t in twists] for c in data]
    for t in twists:
        rr._twisted_weights(entry, t)
    calls = []
    power_sums = rr._power_sums

    def counted(chern):
        calls.append(chern)
        return power_sums(chern)

    monkeypatch.setattr(rr, "_power_sums", counted)
    for c, values in zip(data, expected):
        calls.clear()
        assert [rr.chi_twisted(entry, c, t) for t in twists] == values
        assert rr.chi(entry, c) == values[-1]
        assert len(calls) == 1, (c, len(calls))


@pytest.mark.parametrize(
    "entry",
    [catalog.projective_space(3), catalog.flag3(), catalog.scroll_p1((1, 1, 2)), catalog.prime_fano(7)],
    ids=lambda e: e.variety_id,
)
def test_log_td_is_taken_once_per_entry(entry, monkeypatch):
    """New twists of one entry, from cold caches, take the power sums of the tangent class once:
    log td(X) is kept per entry, and each twist adds t h to it.  The weights are unchanged."""
    twists = range(-2, 3)
    expected = [rr._twisted_weights(entry, t) for t in twists]
    monkeypatch.setattr(rr, "_log_td", cache(rr._log_td.__wrapped__))
    monkeypatch.setattr(rr, "_twisted_weights", cache(rr._twisted_weights.__wrapped__))
    tangent = tuple(entry.tangent.part(r) for r in range(1, entry.dimension + 1))
    calls = []
    power_sums = rr._power_sums

    def counted(chern):
        calls.append(chern)
        return power_sums(chern)

    monkeypatch.setattr(rr, "_power_sums", counted)
    assert [rr._twisted_weights(entry, t) for t in twists] == expected
    assert calls == [tangent]


def test_chi_errors_are_typed_and_raised_before_any_weight():
    """Missing Chern classes raise ``UnsupportedBundleError`` and another variety's data
    ``VarietyMismatchError``, both before a weight is built or ch(E) is kept on the data; a
    value that is not an integer raises ``InfeasibleError``.  All three are ``ValueError``s.  A
    twist that is not an exact scalar raises ``*``'s ``TypeError``."""
    p2, p3, p4 = catalog.projective_space(2), catalog.projective_space(3), catalog.projective_space(4)
    H, H3 = p2.ring.gen("H"), p3.ring.gen("H")
    missing, no_c3, foreign = ChernData(1, H), ChernData(2, 2 * H3, H3 * H3), line_chern(p4, (1,))
    rr._twisted_weights.cache_clear()
    with pytest.raises(UnsupportedBundleError, match=r"^Riemann-Roch on projective_space\(4\) needs c1 to c4$"):
        rr.chi_twisted(p4, foreign, 2)
    with pytest.raises(UnsupportedBundleError, match=r"^Riemann-Roch on projective_space\(2\) needs c1 to c2$"):
        rr.chi(p2, missing)
    with pytest.raises(UnsupportedBundleError, match=r"^Riemann-Roch on projective_space\(3\) needs c1 to c3$"):
        rr.chi_twisted(p3, no_c3, -1)
    with pytest.raises(VarietyMismatchError):
        rr.chi_twisted(p2, foreign, -1)
    assert rr._twisted_weights.cache_info().currsize == 0
    assert missing._ch is None and no_c3._ch is None and foreign._ch is None
    with pytest.raises(InfeasibleError, match="^chi is not an integer: 5/2$"):
        rr.chi(p2, ChernData(1, H, Fraction(1, 2) * H * H))
    with pytest.raises(InfeasibleError, match="^chi is not an integer: 1/2$"):
        rr.chi_twisted(p2, ChernData(1, H, Fraction(1, 2) * H * H), -1)
    for t in (2.5, "1"):
        with pytest.raises(TypeError, match=rf"^Chow classes scale by exact scalars \(int or Fraction\), not {t!r}$"):
            rr.chi_twisted(p2, ChernData(1, H, H * H), t)
    assert issubclass(UnsupportedBundleError, ValueError) and issubclass(InfeasibleError, ValueError)


@pytest.mark.parametrize(
    "entry",
    [catalog.scroll_p1((1, 1, 2)), catalog.scroll_generic(3, 2, 5), catalog.projective_space(3, u=2),
     catalog.quadric(4, u=3), catalog.curve(2, 3, "generic"), catalog.flag3()],
    ids=lambda e: e.variety_id,
)
def test_chern_data_read_on_any_catalog_id(entry):
    """The Chern reader resolves a table's entry id, not only a ring id, through ``catalog.entry_ring``."""
    t = build_table(entry, [((-1,) + (0,) * (entry.picard_rank() - 1), 2)], (0, 0))
    assert ChernData.from_json(t.variety_id, t.chern.to_json()) == t.chern


def test_chern_data_and_its_builders_raise_typed_errors():
    p2, p3, q3 = catalog.projective_space(2), catalog.projective_space(3), catalog.quadric(3)
    H, Hq = p3.polarization, q3.polarization
    cases = [
        (MalformedDataError, "rank must be positive", lambda: ChernData(0, H)),
        (MalformedDataError, "the Chern rank must be an int, got True", lambda: ChernData(True, H)),
        (MalformedDataError, "the Chern rank must be an int, got 2.0", lambda: ChernData(2.0, H)),
        (MalformedDataError, "the Chern rank must be an int, got '1'", lambda: ChernData("1", H)),
        (MalformedDataError, "'x' is not an [exponents, coefficient] pair",
         lambda: ChernData.from_json(p3.variety_id, {"rank": 1, "c1": "x"})),
        # a block that is not a dict of the written keys
        (MalformedDataError, "malformed Chern data (TypeError: 'int' object is not iterable)",
         lambda: ChernData.from_json(p3.variety_id, {"rank": 1, "c1": 5})),
        (MalformedDataError, "malformed Chern data (KeyError: 'c1')",
         lambda: ChernData.from_json(p3.variety_id, {"rank": 1})),
        (MalformedDataError, "malformed Chern data (TypeError: ", lambda: ChernData.from_json(p3.variety_id, [1])),
        (MalformedDataError, "the variety must be a catalog id string, not 3",
         lambda: ChernData.from_json(3, {"rank": 1, "c1": [[[1], 1]]})),
        (UnknownVarietyError, "unknown variety key 'grassmannian(2,4)'",
         lambda: ChernData.from_json("grassmannian(2,4)", {"rank": 1, "c1": [[[1], 1]]})),
        (MalformedDataError, "c1 must be homogeneous of degree 1", lambda: ChernData(1, H * H)),
        (MalformedDataError, "c2 must be homogeneous of degree 2", lambda: ChernData(1, H, H)),
        (VarietyMismatchError, "Chern classes live on different varieties", lambda: ChernData(1, H, Hq * Hq)),
        (MalformedDataError, "c3 without c2", lambda: rr.twist(ChernData(2, H, None, H**3), H)),
        (MalformedDataError, "empty direct sum has no Chern data", lambda: rr.chern_of_line_bundle_sum([])),
        (MalformedDataError, "multiplicities must be nonnegative",
         lambda: rr.chern_of_line_bundle_sum([(H, 1), (H, -1)])),
        (MalformedDataError, "rank must be positive", lambda: rr.chern_of_line_bundle_sum([(H, 0)])),
        (UnsupportedBundleError, "the identity needs dimension >= 2",
         lambda: rr.quantum_chern_identity(catalog.curve(1, 3), ChernData(2, catalog.curve(1, 3).polarization), 0, [])),
        (UnsupportedBundleError, "c2 is required", lambda: rr.quantum_chern_identity(p3, ChernData(2, 0 * H), 0, [1, 0])),
        (MalformedDataError, "chi_list must have 1 entries",
         lambda: rr.quantum_chern_identity(p2, ChernData(2, 0 * p2.polarization, 0 * p2.polarization**2), 0, [1, 0])),
    ]
    for error, message, call in cases:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value).startswith(message)
    assert issubclass(MalformedDataError, ValueError) and issubclass(VarietyMismatchError, ValueError)


def test_chern_poly_instanton_pn_raises_typed_errors():
    cases = [
        (MalformedDataError, "defect must be 0 or 1", (3, 2, 2, 1)),
        (UnsupportedBundleError, "Chern polynomials are synthesized for n >= 2", (1, 2, 0, 1)),
    ]
    for error, message, args in cases:
        with pytest.raises(error) as exc:
            rr.chern_poly_instanton_pn(*args)
        assert type(exc.value) is error and str(exc.value) == message, args


def test_slope_examples():
    p3 = catalog.projective_space(3)
    H = p3.ring.gen("H")
    assert rr.slope(p3, ChernData(1, 2 * H)) == 2
    fl = catalog.flag3()
    assert rr.slope(fl, ChernData(2, 2 * fl.polarization)) == 6
    for g in (0, 1, 2):
        for d in (3, 4, 5):
            sc = catalog.scroll_generic(3, g, d)
            h, f = sc.ring.gen("h"), sc.ring.gen("f")
            c = ChernData(2, h + (d + 2 * g - 2) * f)
            assert rr.slope(sc, c) == d + g - 1


def test_normalization_twist_examples():
    pf = catalog.prime_fano(4)
    H = pf.ring.gen("H")
    assert rr.normalization_twist(pf, ChernData(2, 3 * H)) == -2
    p3 = catalog.projective_space(3)
    H3 = p3.ring.gen("H")
    assert rr.normalization_twist(p3, ChernData(2, 0 * H3)) == 0
    for eps in range(-6, 7):
        assert rr.normalization_twist(p3, ChernData(2, eps * H3)) == -((eps + 1) // 2)


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 4))
def test_normalization_twist_equivariance(c1_mult, s, rank):
    p3 = catalog.projective_space(3)
    H = p3.ring.gen("H")
    base = rr.normalization_twist(p3, ChernData(rank, c1_mult * H))
    shifted = rr.normalization_twist(p3, ChernData(rank, (c1_mult + rank * s) * H))
    assert shifted == base - s


def test_slope_condition_examples():
    p3 = catalog.projective_space(3)
    H = p3.ring.gen("H")
    assert rr.slope_condition(p3, ChernData(2, 0 * H), 0)
    q3 = catalog.quadric(3)
    Hq = q3.ring.gen("H")
    assert rr.slope_condition(q3, ChernData(2, 0 * Hq), 1)
    fl = catalog.flag3()
    h1, h2 = fl.ring.gen("h1"), fl.ring.gen("h2")
    for a in range(-6, 7):
        assert rr.slope_condition(fl, ChernData(1, -a * h1 + (a + 2) * h2), 0)


@pytest.mark.parametrize("entry", THREEFOLDS, ids=lambda e: e.variety_id)
@pytest.mark.parametrize("defect", [0, 1])
def test_slope_condition_ulrich_dual_invariance(entry, defect):
    """The slope condition is preserved by E -> E^{U,h}(-defect h) at Chern level."""
    rank = entry.picard_rank()
    for coords in itertools.product(range(-3, 4), repeat=rank):
        for rk in (1, 2):
            c = ChernData(rk, catalog.line_bundle_class(entry, coords) * rk)
            dualized = rr.ulrich_dual_chern(entry, ChernData(rk, c.c1), defect)
            assert rr.slope_condition(entry, c, defect) == rr.slope_condition(
                entry, dualized, defect
            ), (entry.variety_id, coords, rk)


def test_cyclic_c1_examples():
    assert rr.cyclic_c1(2, 0, 1, -1, 3) == 3
    assert rr.cyclic_c1(2, 0, 1, -3, 3) == 1
    assert rr.cyclic_c1(1, 0, 1, -1, 3) is None


def test_chern_poly_closed_forms():
    for n in (2, 3, 4):
        for r in (2, 4):
            for q in range(0, 3):
                for defect in (0, 1):
                    classes = rr.chern_poly_instanton_pn(n, r, defect, q)
                    eps = 1 if n == 2 else 1 + defect
                    assert classes[0] == -defect * r // 2
                    assert classes[1] == eps * q + defect * r * (r - 2) // 8


def test_chern_poly_parity_and_trivial():
    for n in (2, 3, 4):
        for q in range(0, 4):
            classes = rr.chern_poly_instanton_pn(n, 2, 0, q)
            assert all(c == 0 for c in classes[0::2])  # odd classes vanish
        assert all(c == 0 for c in rr.chern_poly_instanton_pn(n, 2, 0, 0))
    with pytest.raises(InfeasibleError):
        rr.chern_poly_instanton_pn(3, 3, 1, 1)


def test_chern_poly_higher_coefficient():
    # c4 of an ordinary instanton is the degree-4 coefficient of (1-t^2)^(-q)
    for q in range(0, 5):
        classes = rr.chern_poly_instanton_pn(4, 2, 0, q)
        assert classes[3] == binom(q + 1, 2)


#: (n, rank, defect, quantum) -> (c1, ..., cn), pinned from the previous
#: truncated-polynomial implementation
CHERN_POLY_PN = {
    (2, 2, 0, 0): (0, 0),
    (2, 2, 0, 1): (0, 1),
    (2, 2, 0, 2): (0, 2),
    (2, 2, 0, 3): (0, 3),
    (2, 4, 0, 0): (0, 0),
    (2, 4, 0, 1): (0, 1),
    (2, 4, 0, 2): (0, 2),
    (2, 4, 0, 3): (0, 3),
    (2, 2, 1, 0): (-1, 0),
    (2, 2, 1, 1): (-1, 1),
    (2, 2, 1, 2): (-1, 2),
    (2, 2, 1, 3): (-1, 3),
    (2, 4, 1, 0): (-2, 1),
    (2, 4, 1, 1): (-2, 2),
    (2, 4, 1, 2): (-2, 3),
    (2, 4, 1, 3): (-2, 4),
    (3, 2, 0, 0): (0, 0, 0),
    (3, 2, 0, 1): (0, 1, 0),
    (3, 2, 0, 2): (0, 2, 0),
    (3, 2, 0, 3): (0, 3, 0),
    (3, 4, 0, 0): (0, 0, 0),
    (3, 4, 0, 1): (0, 1, 0),
    (3, 4, 0, 2): (0, 2, 0),
    (3, 4, 0, 3): (0, 3, 0),
    (3, 2, 1, 0): (-1, 0, 0),
    (3, 2, 1, 1): (-1, 2, 0),
    (3, 2, 1, 2): (-1, 4, 0),
    (3, 2, 1, 3): (-1, 6, 0),
    (3, 4, 1, 0): (-2, 1, 0),
    (3, 4, 1, 1): (-2, 3, -2),
    (3, 4, 1, 2): (-2, 5, -4),
    (3, 4, 1, 3): (-2, 7, -6),
    (4, 2, 0, 0): (0, 0, 0, 0),
    (4, 2, 0, 1): (0, 1, 0, 1),
    (4, 2, 0, 2): (0, 2, 0, 3),
    (4, 2, 0, 3): (0, 3, 0, 6),
    (4, 4, 0, 0): (0, 0, 0, 0),
    (4, 4, 0, 1): (0, 1, 0, 1),
    (4, 4, 0, 2): (0, 2, 0, 3),
    (4, 4, 0, 3): (0, 3, 0, 6),
    (4, 2, 1, 0): (-1, 0, 0, 0),
    (4, 2, 1, 1): (-1, 2, 0, 4),
    (4, 2, 1, 2): (-1, 4, 0, 12),
    (4, 2, 1, 3): (-1, 6, 0, 24),
    (4, 4, 1, 0): (-2, 1, 0, 0),
    (4, 4, 1, 1): (-2, 3, -2, 4),
    (4, 4, 1, 2): (-2, 5, -4, 12),
    (4, 4, 1, 3): (-2, 7, -6, 24),
}


@pytest.mark.parametrize("key", CHERN_POLY_PN)
def test_chern_poly_pinned(key):
    assert rr.chern_poly_instanton_pn(*key) == CHERN_POLY_PN[key]


def test_quantum_chern_identity():
    p3 = catalog.projective_space(3)
    H = p3.ring.gen("H")
    chis = [coh_projective_space(3, -i).chi() for i in range(0, 2)]
    for q in range(0, 5):
        c = ChernData(2, 0 * H, q * H * H, 0 * H**3)
        assert rr.quantum_chern_identity(p3, c, 0, chis) == q
        c1m, c2m, _ = rr.chern_poly_instanton_pn(3, 2, 1, q)
        cd = ChernData(2, c1m * H, c2m * H * H, 0 * H**3)
        assert rr.quantum_chern_identity(p3, cd, 1, chis) == q
    p2 = catalog.projective_space(2)
    H2 = p2.ring.gen("H")
    for q in range(0, 5):
        c = ChernData(2, 0 * H2, q * H2 * H2)
        assert rr.quantum_chern_identity(p2, c, 0, [1]) == q
    # Ulrich data: quantum zero
    assert rr.quantum_chern_identity(p3, ChernData(2, 0 * H, 0 * H * H, 0 * H**3), 0, chis) == 0


def test_quantum_chern_identity_non_integral():
    q3 = catalog.quadric(3)
    H = q3.ring.gen("H")
    chis = [1, 0]
    with pytest.raises(InfeasibleError):
        rr.quantum_chern_identity(q3, ChernData(1, H, H * H, 0 * H**3), 1, chis)


def test_twist_transform_matches_table_chern():
    """Twisting the table bundle and twisting its Chern data agree."""
    fl = catalog.flag3()
    c = build_table(fl, [((-1, 3), 1), ((2, 0), 1)], (0, 0)).chern
    shifted = build_table(fl, [((0, 4), 1), ((3, 1), 1)], (0, 0)).chern
    assert rr.twist(c, fl.polarization) == shifted


def test_table_chern_rr_consistency():
    """Alternating row sums agree with Riemann-Roch whenever Chern data is present."""
    for entry in THREEFOLDS + [catalog.projective_space(2), catalog.curve(2, 2, "generic")]:
        rank = entry.picard_rank()
        for coords in itertools.product(range(-2, 3), repeat=rank):
            table = build_table(entry, coords, (-2, 1))
            for t in table.twists():
                assert table.row(t).chi() == rr.chi_twisted(entry, table.chern, t)


def test_prime_fano_engine_matches_riemann_roch():
    """The closed-form prime Fano engine against rr.chi with the rational c2(Omega).

    Genera 6, 8, 9, 10, 11 and 12 give a c2(Omega) that is not an integer
    multiple of H^2.
    """
    for g in range(3, 13):
        pf = catalog.prime_fano(g)
        for a in range(-4, 5):
            table = build_table(pf, (a,), (-6, 6))
            c = line_chern(pf, (a,))
            for t in table.twists():
                assert table.row(t).chi() == rr.chi_twisted(pf, c, t), (g, a, t)
        # the rank-two family members, with c2 = (c2 . h / h^3) H^2: chi(E(-h)) = -k
        H = pf.ring.gen("H")
        for k in range(0, 4):
            rep = prime_fano_family(g, k)
            c2 = Fraction(rep.c2_dot_h, pf.hn()) * H * H
            c = ChernData(rep.rank, rep.c1_mult * H, c2, 0 * H**3)
            assert rr.chi_twisted(pf, c, -1) == -k, (g, k)


def test_prime_fano_chi_needs_pairing():
    """c2 . H = 24 pins chi(O) and chi(O(1)) = g + 2 through the rational c2(Omega)."""
    pf = catalog.prime_fano(6)
    H = pf.ring.gen("H")
    zero2, zero3 = 0 * H * H, 0 * H**3
    assert rr.chi(pf, ChernData(1, 0 * H, zero2, zero3)) == 1
    assert rr.chi(pf, ChernData(1, H, zero2, zero3)) == 6 + 2  # g + 2 sections


def test_quantum_chern_identity_on_quadric():
    """The structure sheaf of the 3-quadric is non-ordinary with quantum 0."""
    q3 = catalog.quadric(3)
    H = q3.ring.gen("H")
    chis = [
        build_table(q3, (0,), (0, 0)).chi_at(0),
        build_table(q3, (-1,), (0, 0)).chi_at(0),
    ]
    c = ChernData(1, 0 * H, 0 * H * H, 0 * H**3)
    assert rr.quantum_chern_identity(q3, c, 1, chis) == 0


def test_rational_chern_data_round_trips_through_json():
    """The rank-two prime Fano member of genus 6 has c2 = (29/10) H^2, written as "29/10"."""
    pf = catalog.prime_fano(6)
    H = pf.ring.gen("H")
    rep = prime_fano_family(6, 0)
    c = ChernData(rep.rank, rep.c1_mult * H, Fraction(rep.c2_dot_h, pf.hn()) * H * H, 0 * H**3)
    assert c.c2 == Fraction(29, 10) * H * H
    data = json.loads(json.dumps(c.to_json()))
    assert data == {"rank": 2, "c1": [[[1], 3]], "c2": [[[2], "29/10"]], "c3": []}
    again = ChernData.from_json(pf.variety_id, data)
    assert again == c and again.c2.coefficient((2,)) == Fraction(29, 10)
    assert rr.chi_twisted(pf, again, -1) == 0
    assert chow.ChowClass.from_json(pf.variety_id, [[[2], "-3/06"]]) == Fraction(-1, 2) * H * H
    # an integral Fraction coefficient is written as a JSON int
    assert catalog.prime_fano(3).tangent.part(2).to_json() == [[[2], 6]]
    assert type(catalog.prime_fano(3).tangent.part(2).to_json()[0][1]) is int


@pytest.mark.parametrize(
    "coefficient",
    ["2", "1/0", "1/00", "1.5/2", " 1/2", "1/2 ", "1/2\n", "+1/2", "1/-2", "1//2", "1/2/3", None, [1, 2]],
)
def test_chow_json_reads_only_ints_and_p_over_q(coefficient):
    with pytest.raises(MalformedDataError, match="is not an integer or 'p/q'"):
        chow.ChowClass.from_json("prime_fano(6)", [[[2], coefficient]])


# --------------------------------------------------------------------------
# Line-bundle sums as (1 + D) products, and the pairing with h^(n-1)
# --------------------------------------------------------------------------


def whitney_fold(summands):
    """Chern data of ``(+) O(D_i)^m_i`` as a fold of :func:`rr.whitney_sum` over one rank-one
    :class:`ChernData` per copy: the reference for :func:`rr.chern_of_line_bundle_sum`."""
    if not summands:
        raise MalformedDataError("empty direct sum has no Chern data")
    total = None
    for D, m in summands:
        if m < 0:
            raise MalformedDataError("multiplicities must be nonnegative")
        n, zero = D.ring.top_degree, D.ring.zero()
        line = ChernData(1, D, zero if n >= 2 else None, zero if n >= 3 else None)
        for _ in range(m):
            total = line if total is None else rr.whitney_sum(total, line)
    if total is None:
        raise MalformedDataError("rank must be positive")
    return total


def generator_sum(entry, coords):
    """``sum c_i gen_i`` one generator at a time: the reference for :func:`catalog.line_bundle_class`."""
    acc = entry.ring.zero()
    for c, g in zip(coords, entry.ring.gens()):
        acc = acc + c * g
    return acc


def test_chern_of_line_bundle_sum_refusals_keep_type_and_message():
    """Each refusal keeps its type and message, checked in summand order: a non-homogeneous D is
    refused at every multiplicity, 0 included; a multiplicity-0 summand on another ring is accepted,
    and one with a copy is compared with the ring of the first copy."""
    p3, q3 = catalog.projective_space(3), catalog.quadric(3)
    H, Hq = p3.polarization, q3.polarization
    P1, P2 = catalog.curve(1, 3).polarization, catalog.curve(2, 3).polarization
    nonnegative, homogeneous = "multiplicities must be nonnegative", "c1 must be homogeneous of degree 1"
    cases = [
        (MalformedDataError, "empty direct sum has no Chern data", []),
        (MalformedDataError, nonnegative, [(H, 1), (H, -1)]),
        (MalformedDataError, nonnegative, [(H, -1), (H * H, 1)]),
        (MalformedDataError, homogeneous, [(H * H, 1), (H, -1)]),
        (MalformedDataError, homogeneous, [(H, 1), (H * H, 0)]),
        (MalformedDataError, homogeneous, [(H, 1), (Hq * Hq, 0)]),
        (MalformedDataError, homogeneous, [(H + p3.ring.one(), 2)]),
        (MalformedDataError, "rank must be positive", [(H, 0)]),
        (MalformedDataError, "rank must be positive", [(H, 0), (Hq, 0)]),
        (VarietyMismatchError, "classes on 'projective_space(3)' and 'quadric(3)' cannot be combined",
         [(H, 1), (Hq, 1)]),
        (VarietyMismatchError, "classes on 'projective_space(3)' and 'quadric(3)' cannot be combined",
         [(H, 1), (Hq, 1), (H, -1)]),
        (VarietyMismatchError, "classes on 'quadric(3)' and 'projective_space(3)' cannot be combined",
         [(H, 0), (Hq, 1), (H, 2)]),
        (VarietyMismatchError, "classes on 'curve(1)' and 'curve(2)' cannot be combined", [(P1, 1), (P2, 2)]),
    ]
    for error, message, summands in cases:
        with pytest.raises(error) as exc:
            rr.chern_of_line_bundle_sum(summands)
        assert type(exc.value) is error and str(exc.value) == message, summands
    line = rr.chern_of_line_bundle_sum([(H, 1)])
    assert rr.chern_of_line_bundle_sum([(Hq, 0), (H, 1)]) == line
    assert rr.chern_of_line_bundle_sum([(H, 1), (Hq, 0)]) == line
    assert rr.chern_of_line_bundle_sum([(Hq, 0), (H, 1), (P1, 0)]) == line


def test_the_h_pairing_refuses_a_class_on_another_ring():
    """Slopes, normalization twists and the slope condition refuse Chern data on another ring."""
    p3, q3 = catalog.projective_space(3), catalog.quadric(3)
    c = ChernData(1, q3.polarization)
    for call in (rr.slope, rr.normalization_twist, lambda e, c: rr.slope_condition(e, c, 0)):
        with pytest.raises(VarietyMismatchError) as exc:
            call(p3, c)
        assert str(exc.value) == "classes on 'quadric(3)' and 'projective_space(3)' cannot be combined"


#: every catalog kind at dimensions 1-6: the rational ring of prime_fano, both scroll families and
#: both curve models
EVERY_KIND = [
    *(catalog.projective_space(n, u) for n in range(1, 7) for u in (1, 2)),
    *(catalog.quadric(n) for n in range(2, 7)),
    catalog.flag3(),
    catalog.triple_p1(),
    *(catalog.scroll_p1(tuple(range(1, n + 1))) for n in range(2, 7)),
    *(catalog.scroll_generic(n, n % 4, n + 1) for n in range(2, 7)),
    catalog.curve(0, 2, "exact_p1"),
    *(catalog.curve(g, g + 1, "generic") for g in range(4)),
    *(catalog.prime_fano(g) for g in (3, 5, 12)),
]


@st.composite
def line_bundle_sums(draw):
    """An entry of :data:`EVERY_KIND` and 1-3 summands ``(coords, m)``, coordinates in [-3, 3] and
    multiplicities in [0, 3]."""
    entry = draw(st.sampled_from(EVERY_KIND))
    coords = st.tuples(*[st.integers(-3, 3)] * entry.picard_rank())
    return entry, draw(st.lists(st.tuples(coords, st.integers(0, 3)), min_size=1, max_size=3))


@given(line_bundle_sums())
def test_line_bundle_class_is_the_generator_sum(drawn):
    entry, summands = drawn
    for coords, _ in summands:
        got = catalog.line_bundle_class(entry, coords)
        assert got == generator_sum(entry, coords) and got.ring is entry.ring
        assert list(map(type, got.coeffs)) == [int] * len(entry.ring.basis)


@given(line_bundle_sums())
def test_chern_of_line_bundle_sum_is_the_whitney_fold(drawn):
    """Field by field, missing classes included, and in JSON."""
    entry, summands = drawn
    classes = [(catalog.line_bundle_class(entry, coords), m) for coords, m in summands]
    if not sum(m for _, m in summands):
        with pytest.raises(MalformedDataError, match="^rank must be positive$"):
            rr.chern_of_line_bundle_sum(classes)
        return
    got, ref = rr.chern_of_line_bundle_sum(classes), whitney_fold(classes)
    assert [getattr(got, f) for f in ChernData._fields] == [getattr(ref, f) for f in ChernData._fields]
    assert (got.c2 is None, got.c3 is None) == (entry.dimension < 2, entry.dimension < 3)
    assert got.to_json() == ref.to_json()


@given(line_bundle_sums(), st.integers(0, 1))
def test_the_h_pairings_are_the_integrate_route(drawn, defect):
    """Slopes, normalization twists and both sides of the slope condition, against
    ``integrate(x * h_power(n - 1))``, on the drawn sum and on a rank-two class that meets the condition."""
    entry, summands = drawn
    n, h_top = entry.dimension, entry.h_power(entry.dimension - 1)
    on_condition = ChernData(2, (n + 1 - defect) * entry.polarization + entry.canonical)
    drawn_sum = [(catalog.line_bundle_class(entry, coords), m + 1) for coords, m in summands]
    for c in (rr.chern_of_line_bundle_sum(drawn_sum), on_condition):
        c1h, Kh = chow.integrate(c.c1 * h_top), chow.integrate(entry.canonical * h_top)
        assert (entry.h_degree(c.c1), entry.h_degree(entry.canonical)) == (c1h, Kh)
        assert rr.slope(entry, c) == Fraction(c1h, c.rank)
        assert rr.normalization_twist(entry, c) == -c1h // (c.rank * entry.hn())
        assert rr.slope_condition(entry, c, defect) == (2 * c1h == c.rank * ((n + 1 - defect) * entry.hn() + Kh))
    assert rr.slope_condition(entry, on_condition, defect)


# --------------------------------------------------------------------------
# Power sums, n! ch(E), log td(X) and the weights as one linear combination each
# --------------------------------------------------------------------------


def chain_power_sums(c):
    """Newton's identities as a chain of ``ChowClass`` sums and scalar multiples, one temporary
    class per step: the reference for :func:`rr._power_sums`."""
    p = []
    for k in range(1, len(c) + 1):
        acc = (-1) ** (k - 1) * k * c[k - 1]
        for i in range(1, k):
            acc = acc + (-1) ** (i - 1) * (c[i - 1] * p[k - i - 1])
        p.append(acc)
    return p


def chain_ch(entry, c):
    """``n! ch(E)`` summed one class at a time from ``n! rank`` times the class 1: the reference
    for the coefficients :func:`rr.chi_twisted` keeps on the data."""
    n = entry.dimension
    total = math.factorial(n) * c.rank * entry.ring.from_dict({(0,) * len(entry.ring.generators): 1})
    for k, pk in enumerate(chain_power_sums((c.c1, c.c2, c.c3)[:n]), 1):
        total = total + math.factorial(n) // math.factorial(k) * pk
    return total.coeffs


def chain_log_td(entry):
    """``sum_k lambda_k p_k(T_X)`` summed one class at a time: the reference for :func:`rr._log_td`."""
    n, log_td = entry.dimension, chow.ChowClass(entry.ring, (0,) * len(entry.ring.basis))
    for k, pk in enumerate(chain_power_sums(tuple(entry.tangent.part(r) for r in range(1, n + 1))), 1):
        lam = Fraction(1, 2) if k == 1 else -rr._bernoulli(k) / (k * math.factorial(k))
        log_td = log_td + lam * pk
    return log_td


def chain_twisted_weights(entry, t):
    """The weights of ``exp(t h + log td(X))`` with the exponential summed one power at a time:
    the reference for :func:`rr._twisted_weights`."""
    ring, n = entry.ring, entry.dimension
    exponent = t * entry.polarization + chain_log_td(entry)
    L = math.lcm(*(Fraction(c).denominator for c in exponent.coeffs))
    x = chow.ChowClass(ring, tuple(int(c * L) for c in exponent.coeffs))
    total, power = chow.ChowClass(ring, (0,) * len(ring.basis)), ring.from_dict({(0,) * len(ring.generators): 1})
    for j in range(n + 1):
        total, power = total + math.factorial(n) // math.factorial(j) * L ** (n - j) * power, power * x
    w, D = [chow.integrate(ring.from_dict({b: 1}) * total) for b in ring.basis], math.factorial(n) * L**n
    g = math.gcd(D, *w)
    return tuple(v // g for v in w), D // g


def chain_combination(terms):
    """``sum s a`` as a chain of ``+`` and scalar ``*``: the reference for :func:`chow.combine`."""
    (s, a), *rest = terms
    acc = s * a
    for s, a in rest:
        acc = acc + s * a
    return acc


def generator_is_homogeneous(cls, r):
    """The reference for :meth:`ChowClass.is_homogeneous`: every nonzero coefficient sits in degree r."""
    return all(g == r for g, c in zip(cls.ring.grades, cls.coeffs) if c)


#: every catalog kind of dimension 1-3, where Riemann-Roch applies; prime_fano's classes are rational
RR_KINDS = [
    *(catalog.projective_space(n, u) for n in range(1, 4) for u in (1, 2)),
    catalog.quadric(2),
    catalog.quadric(3),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 2)),
    catalog.scroll_p1((1, 1, 2)),
    catalog.scroll_generic(2, 1, 3),
    catalog.scroll_generic(3, 2, 4),
    catalog.curve(0, 2, "exact_p1"),
    *(catalog.curve(g, g + 1, "generic") for g in range(3)),
    *(catalog.prime_fano(g) for g in (3, 5, 12)),
]

#: the coefficients of drawn classes: mostly zero, ints of both signs and rationals
COEFFICIENTS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def rr_chern_data(draw):
    """An entry of :data:`RR_KINDS` and fresh Chern data on it with c_1, ..., c_n: a line-bundle
    sum (1-3 summands of multiplicity 1-2) or a Serre construction (a Z with rational coefficients
    allowed), then 0-2 of a twist by a line bundle, the dual and a JSON round trip."""
    entry = draw(st.sampled_from(RR_KINDS))

    def line():
        return catalog.line_bundle_class(entry, draw(st.tuples(*[st.integers(-3, 3)] * entry.picard_rank())))

    if draw(st.booleans()):
        c = rr.chern_of_line_bundle_sum([(line(), draw(st.integers(1, 2))) for _ in range(draw(st.integers(1, 3)))])
    else:
        grades = entry.ring.grades
        Z = chow.ChowClass(entry.ring, tuple(draw(COEFFICIENTS) if g == 2 else 0 for g in grades))
        c = rr.serre_construction_chern(entry, line(), line(), Z)
    for step in draw(st.lists(st.sampled_from(["twist", "dual", "json"]), max_size=2)):
        if step == "twist":
            c = rr.twist(c, line())
        elif step == "dual":
            c = rr.dual(c)
        else:
            c = ChernData.from_json(entry.variety_id, json.loads(json.dumps(c.to_json())))
    return entry, c


@given(rr_chern_data())
def test_power_sums_and_the_kept_ch_are_the_chains(drawn):
    """The first call keeps the reference ``n! ch(E)`` on the data, and chi is the reference
    coefficients paired with the weights (or refused as not an integer)."""
    entry, c = drawn
    n = entry.dimension
    chern = (c.c1, c.c2, c.c3)[:n]
    assert rr._power_sums(chern) == chain_power_sums(chern)
    assert c._ch is None
    ch = chain_ch(entry, c)
    weights, D = rr._twisted_weights(entry, 0)
    num = sum(map(operator.mul, ch, weights))
    if num % (math.factorial(n) * D):
        with pytest.raises(InfeasibleError):
            rr.chi(entry, c)
    else:
        assert rr.chi(entry, c) == num // (math.factorial(n) * D)
    assert c._ch == ch and len(c._ch) == len(entry.ring.basis)


@pytest.mark.parametrize("entry", RR_KINDS, ids=lambda e: e.variety_id)
def test_log_td_and_the_weights_are_the_chains(entry):
    assert rr._log_td.__wrapped__(entry) == chain_log_td(entry)
    for t in range(-6, 7):
        assert rr._twisted_weights.__wrapped__(entry, t) == chain_twisted_weights(entry, t), t


@given(rr_chern_data(), st.data())
def test_is_homogeneous_is_the_generator(drawn, data):
    """On the drawn Chern classes, their power sums, the tangent class, 0, 1 and a drawn class,
    for every degree in [-1, n + 1]: the zero class is homogeneous of each."""
    entry, c = drawn
    ring, n = entry.ring, entry.dimension
    drawn_class = chow.ChowClass(ring, tuple(data.draw(COEFFICIENTS) for _ in ring.basis))
    classes = [c.c1, c.c2, c.c3, *rr._power_sums((c.c1, c.c2, c.c3)[:n]), entry.tangent, ring.one(), drawn_class]
    for cls in [x for x in classes if x is not None] + [ring.zero()]:
        for r in range(-1, n + 2):
            assert cls.is_homogeneous(r) == generator_is_homogeneous(cls, r), (cls, r)
    assert all(ring.zero().is_homogeneous(r) for r in range(-1, n + 2))


@given(st.sampled_from(RR_KINDS), st.data())
def test_combine_is_the_chain_of_sums_and_scalar_multiples(entry, data):
    ring = entry.ring
    count = data.draw(st.integers(1, 5))
    terms = [
        (data.draw(COEFFICIENTS), chow.ChowClass(ring, tuple(data.draw(COEFFICIENTS) for _ in ring.basis)))
        for _ in range(count)
    ]
    got = chow.combine(terms)
    assert got == chain_combination(terms) and got.ring is ring


def test_combine_refuses_mixed_rings_as_plus_does():
    """A class on another ring than the first term's raises ``+``'s error, wherever it sits."""
    H, Hq = catalog.projective_space(3).polarization, catalog.quadric(3).polarization
    P1, P2 = catalog.curve(1, 3).polarization, catalog.curve(2, 3).polarization
    for terms in ([(1, H), (2, Hq)], [(1, H), (1, H), (3, Hq)], [(2, Hq), (1, H)], [(1, P1), (1, P2), (1, P1)]):
        with pytest.raises(VarietyMismatchError) as got:
            chow.combine(terms)
        with pytest.raises(VarietyMismatchError) as ref:
            chain_combination(terms)
        assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value), terms


def test_combine_scales_by_exact_scalars_as_times_does():
    """A scalar that is not an int or a Fraction raises ``*``'s ``TypeError``, wherever it sits,
    before any coefficient is computed; ``True`` is an int, as in ``True * H``.  An empty
    combination raises ``MalformedDataError``."""
    H = catalog.projective_space(2).polarization
    for bad in (2.5, "2", None):
        with pytest.raises(TypeError) as ref:
            bad * H
        for terms in ([(bad, H), (1, H)], [(1, H), (bad, H)], [(bad, H)]):
            with pytest.raises(TypeError) as got:
                chow.combine(terms)
            assert str(got.value) == str(ref.value), terms
    assert chow.combine([(True, H), (Fraction(1, 2), H)]) == True * H + Fraction(1, 2) * H
    with pytest.raises(MalformedDataError):
        chow.combine([])


@pytest.mark.parametrize("entry", [catalog.flag3(), catalog.projective_space(3)], ids=lambda e: e.variety_id)
def test_the_first_chi_call_makes_three_products_and_the_h_pairings_integrate_nothing(entry, monkeypatch):
    """With the weights of each twist cached, the first chi on a fresh rank-2 Chern data makes
    the n(n-1)/2 = 3 products of Newton's identities and later twists none; once the entry has
    been used, normalization twists, slopes and the slope condition make no ``integrate`` call."""
    twists = range(-3, 4)
    for t in twists:
        rr._twisted_weights(entry, t)
    rho = entry.picard_rank()
    lines = [catalog.line_bundle_class(entry, (1,) * rho), catalog.line_bundle_class(entry, (-2,) * rho)]
    rr.normalization_twist(entry, rr.chern_of_line_bundle_sum([(lines[0], 1)]))
    products, integrals = [], []
    multiply, integrate = rr.chow.multiply, rr.chow.integrate
    monkeypatch.setattr(rr.chow, "multiply", lambda a, b: products.append((a, b)) or multiply(a, b))
    monkeypatch.setattr(rr.chow, "integrate", lambda a: integrals.append(a) or integrate(a))
    c = rr.chern_of_line_bundle_sum([(lines[0], 1), (lines[1], 1)])
    assert c.rank == 2 and c._ch is None
    products.clear()
    rr.chi_twisted(entry, c, twists[0])
    assert len(products) == 3
    for t in twists:
        products.clear()
        rr.chi_twisted(entry, c, t)
        assert products == [], t
    rr.normalization_twist(entry, c)
    rr.slope(entry, c)
    rr.slope_condition(entry, c, 0)
    assert integrals == []
    assert entry.ring.one() is entry.ring.one() and entry.ring.zero() is entry.ring.zero()
