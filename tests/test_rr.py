from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from instanton_lab import catalog, chow, rr
from instanton_lab.cohomology import build_table, coh_projective_space
from instanton_lab.errors import InfeasibleError, MalformedDataError, VarietyMismatchError
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
        assert rr.chi(p2, rr.twist_by_h(p2, c, -1)) == -int(q)


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
    assert rr.twist_by_h(fl, c, 1) == shifted


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
