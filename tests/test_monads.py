from __future__ import annotations

import itertools

import pytest

from instanton_lab import catalog, rr
from instanton_lab.errors import InfeasibleError, MalformedDataError, UnknownVarietyError, UnsupportedBundleError
from instanton_lab.monads import (
    chi_from_rank,
    monad_acm,
    monad_p1p3,
    monad_pn,
    monad_quadric_nonordinary,
    monad_quadric_nonordinary_shape,
    monad_quadric_ordinary,
    monad_quadric_ordinary_shape,
    monad_scroll3,
    monad_space_nonordinary,
    rank_from_chi,
    spinor_rank,
)
from instanton_lab.rr import serre_construction_chern


def test_monad_pn_ordinary():
    for k in range(0, 5):
        chi0 = 2 - 2 * k  # rank-two inversion on P^3
        shape = monad_pn(3, 0, k, chi0)
        mids = shape.terms[1]
        assert mids[0].multiplicity == chi0 + 4 * k == 2 + 2 * k
        assert shape.cohomology_rank() == 2
        assert shape.alternating_c1() == 0
    trivial = monad_pn(3, 0, 0, 7)
    assert trivial.terms[0][0].multiplicity == 0
    assert trivial.terms[1][0].multiplicity == 7
    assert trivial.render() == "0 -> O^7 -> 0"


def test_monad_pn_rank_and_c1_bookkeeping():
    for n in (2, 3, 4):
        for defect in (0, 1):
            for q in range(0, 4):
                for rank in (2, 4, 6):
                    if defect == 0:
                        chi0 = rank - (n - 1) * q
                        shape = monad_pn(n, 0, q, chi0)
                    else:
                        chi0 = rank // 2 - (n if n >= 3 else 1) * q
                        h0 = max(chi0, 0) + q + 1
                        hn = max(chi0, 0) + q + 2
                        shape = monad_pn(n, 1, q, chi0, h0, hn)
                    assert shape.cohomology_rank() == rank, (n, defect, q, rank)
                    c1 = rr.chern_poly_instanton_pn(n, rank, defect, q)[0]
                    assert shape.alternating_c1() == c1, (n, defect, q, rank)


def test_monad_pn_errors():
    with pytest.raises(InfeasibleError):
        monad_pn(3, 0, 0, -1)
    only = "h^0(E) and h^n(E(-n)) are inputs of the non-ordinary shape only"
    cases = [
        (UnsupportedBundleError, "monads are synthesized for n >= 2", (1, 0, 1, 0)),
        (MalformedDataError, "defect must be 0 or 1", (3, 2, 1, 0)),
        (MalformedDataError, "the non-ordinary shape needs h^0(E) and h^n(E(-n))", (3, 1, 1, 0)),
        # h0/hn belong to the non-ordinary shape
        *((MalformedDataError, only, (3, 0, 1, 0, *extra)) for extra in ((7, 9), (7, None), (None, 9))),
    ]
    for error, message, args in cases:
        with pytest.raises(error) as exc:
            monad_pn(*args)
        assert type(exc.value) is error and str(exc.value) == message, args


def test_rank_and_chi_invert_each_other():
    """``chi_from_rank`` inverts ``rank_from_chi``, and the rank is that of the cohomology of
    ``monad_pn``'s shape."""
    for n, defect, q in itertools.product(range(2, 7), (0, 1), range(4)):
        for rank in range(0, 10, 1 + defect):
            chi0 = chi_from_rank(n, defect, q, rank)
            assert rank_from_chi(n, defect, q, chi0) == rank, (n, defect, q, rank)
            outer = (max(chi0, 0),) * 2 if defect else ()
            assert monad_pn(n, defect, q, chi0, *outer).cohomology_rank() == rank, (n, defect, q, rank)


def test_monad_pn_nonordinary_shape_n2_drops_high_differential():
    shape = monad_pn(2, 1, 2, 0, 3, 3)
    labels = [s.label for s in shape.terms[1]]
    assert labels.count("Omega^1(1)") == 1
    assert all(lab == "Omega^1(1)" or lab.startswith("O") for lab in labels)


def test_monad_acm_ordinary():
    for entry in (catalog.quadric(3), catalog.flag3(), catalog.scroll_p1((1, 1, 1))):
        shape = monad_acm(entry, 0, 3)
        # A = omega(n h)^q = C^{U,h} with C = O(h)^q: the Ulrich-dual pair
        assert shape.terms[0][0].label == "omega_X((3)h)"
        assert shape.terms[0][0].multiplicity == 3
        assert shape.terms[0][1].multiplicity == 0
        assert shape.terms[2][0].multiplicity == 0
        assert shape.terms[2][1].label == "O(h)"
        assert shape.terms[2][1].multiplicity == 3
        if entry.kind != "flag3":  # Q^3 and scroll_p1(1,1,1), where h^0(B(-h)) = h^n(B(-n h)) = 0
            assert any("B is Ulrich" in note for note in shape.notes)


def test_monad_acm_quadric_forces_ulrich_middle():
    """With defect 0 on the quadric, h^0(omega((n-1)h)) = 0 forces B Ulrich."""
    shape = monad_acm(catalog.quadric(3), 0, 5)
    by_name = {c.name: c.value for c in shape.constraints}
    assert by_name["h0_B_minus_h"] == 0
    assert by_name["hn_B_low"] == 0
    assert by_name["chi_B_symmetry"] == 0


@pytest.mark.parametrize("entry", [catalog.flag3(), catalog.triple_p1()], ids=lambda e: e.variety_id)
@pytest.mark.parametrize("quantum", [1, 2, 3])
def test_monad_acm_calls_b_ulrich_only_where_its_constraints_vanish(entry, quantum):
    """At defect 0, B is Ulrich only if h^0(B(-h)) and h^n(B(-n h)) are 0; on the flag and the
    triple product both are q h^0(omega(2h)) = q, so the note keeps only the dual symmetry."""
    shape = monad_acm(entry, 0, quantum)
    by_name = {c.name: c.value for c in shape.constraints}
    assert by_name["h0_B_minus_h"] == by_name["hn_B_low"] == quantum
    assert shape.notes == ("A = C^{U,h}: the ordinary monad is Ulrich-dual-symmetric",)
    for ulrich in (catalog.quadric(3), catalog.scroll_p1((1, 1, 1))):
        assert monad_acm(ulrich, 0, quantum).notes == (shape.notes[0] + " and B is Ulrich",)


def test_monad_acm_pn_defect1_matches_quasilinear():
    """On P^n the aCM monad outer terms are the quasi-linear ones."""
    entry = catalog.projective_space(3)
    shape = monad_acm(entry, 1, 2, h1E=1, hn1E=1)
    assert shape.terms[0][0].label == "omega_X((2)h)"  # = O(-2)
    assert shape.terms[0][1].label == "omega_X((3)h)"  # = O(-1)
    assert shape.terms[0][0].multiplicity == 2
    assert shape.terms[0][1].multiplicity == 1
    assert shape.terms[2][0].multiplicity == 1  # O^c with c = h^1(E)


def test_monad_acm_requires_acm_entry():
    with pytest.raises(UnsupportedBundleError) as exc:
        monad_acm(catalog.scroll_generic(3, 1, 4), 0, 1)
    assert type(exc.value) is UnsupportedBundleError
    assert str(exc.value) == "scroll_generic(3;g=1;deg=4) is not flagged aCM"


def test_monad_input_errors_are_typed():
    """Each shape refuses an input outside its family with a typed error; every message is kept."""
    cases = [
        (UnsupportedBundleError, "aCM monads need dimension >= 3", monad_acm, (catalog.quadric(2), 0, 1)),
        (UnsupportedBundleError, "quadric monads need n >= 3", monad_quadric_ordinary, (2, 2, 1)),
        (UnsupportedBundleError, "n >= 3", monad_space_nonordinary, (2, 2, 1, 0, 0)),
        (UnsupportedBundleError, "the explicit non-ordinary quadric monad needs odd n >= 3",
         monad_quadric_nonordinary, (4, 2, 1, 0, 0, 0)),
        (UnsupportedBundleError, "the explicit non-ordinary quadric monad needs odd n >= 3",
         monad_quadric_nonordinary, (1, 2, 1, 0, 0, 0)),
        (UnknownVarietyError, "a 3-dimensional scroll over P^1 has degree >= 3", monad_scroll3, (2, 2, 0, (2, 0, 0))),
        # one S(h)^s term on an even quadric would merge the two spinor bundles S' and S''
        *((UnsupportedBundleError, "the ordinary quadric monad shape needs odd n", monad_quadric_ordinary_shape,
           (n, 2, 1)) for n in (4, 6)),
        # each filtration takes one pairing per quotient
        (MalformedDataError, "the filtration takes 3 inputs x1,x2,x3, got 2", monad_scroll3, (3, 2, 0, (1, 2))),
        (MalformedDataError, "the filtration takes 3 inputs x1,x2,x3, got 4", monad_scroll3, (3, 2, 0, (1, 2, 3, 4))),
        (MalformedDataError, "the filtration takes 4 inputs x1,x2,x3,x4, got 3", monad_p1p3, (2, 0, (1, 2, 3))),
        (MalformedDataError, "the filtration takes 4 inputs x1,x2,x3,x4, got 5", monad_p1p3, (2, 0, (1, 2, 3, 4, 5))),
        # the parity refusal comes before the n >= 2 one, as `monad pn --rank` has always read
        (InfeasibleError, "non-ordinary rank must be even", chi_from_rank, (3, 1, 0, 3)),
        (InfeasibleError, "non-ordinary rank must be even", chi_from_rank, (1, 1, 0, 3)),
        (UnsupportedBundleError, "monads are synthesized for n >= 2", chi_from_rank, (1, 0, 0, 2)),
        (UnsupportedBundleError, "monads are synthesized for n >= 2", rank_from_chi, (1, 1, 0, 1)),
        (InfeasibleError, "b0, b1 must be at least chi(E)", monad_pn, (3, 1, 1, 2, 1, 3)),
        (InfeasibleError, "spinor split (2, 2) inconsistent with total 2", monad_quadric_ordinary,
         (4, 2, 1, (0, 0))),
        (InfeasibleError, "non-ordinary instanton bundles on P^n have even rank", monad_space_nonordinary,
         (3, 3, 1, 0, 0)),
        (InfeasibleError, "multiplicities are nonnegative", monad_quadric_nonordinary, (3, 2, 1, -1, 0, 0)),
    ]
    for error, message, fn, args in cases:
        with pytest.raises(error) as exc:
            fn(*args)
        assert type(exc.value) is error and str(exc.value) == message, (fn.__name__, args)


def test_filtration_relations_and_messages():
    """Both filtrations weight s_i by C(k, i - 1) over k + 1 quotients; the relation and the two
    refusals read as written."""
    assert monad_scroll3(4, 4, 1, (0, 1, 0)).relation == "s1 + 2 s2 + s3 = rank + 2 quantum"
    assert monad_p1p3(8, 0, (2, 1, 1, 0)).relation == "s1 + 3 s2 + 3 s3 + s4 = rank + 2 quantum"
    cases = [
        ("negative multiplicity in (-1, 0, 2)", monad_scroll3, (3, 2, 1, (-3, 0, 0))),
        ("negative multiplicity in (2, -1, 0, 2)", monad_p1p3, (2, 1, (0, -1, 0, 0))),
        ("s1 + 2 s2 + s3 = 8 != rank + 2q = 4", monad_scroll3, (3, 2, 1, (1, 1, 1))),
        ("s1 + 3 s2 + 3 s3 + s4 = 5 != rank + 2q = 4", monad_p1p3, (2, 1, (1, 0, 0, 0))),
    ]
    for message, fn, args in cases:
        with pytest.raises(InfeasibleError) as exc:
            fn(*args)
        assert type(exc.value) is InfeasibleError and str(exc.value) == message, (fn.__name__, args)


def test_monad_quadric_ordinary_counts():
    for k in range(0, 11):
        assert monad_quadric_ordinary(3, 2, k).total == k + 1
    assert monad_quadric_ordinary(5, 2, 1).total == 1
    assert monad_quadric_ordinary(4, 2, 1).total == 2
    res = monad_quadric_ordinary(4, 2, 1, spinor_chi=(-1, -1))
    assert res.split == (1, 1)
    with pytest.raises(InfeasibleError):
        monad_quadric_ordinary(5, 2, 2)  # 2 + 4 = 6 not divisible by 4
    with pytest.raises(InfeasibleError):
        monad_quadric_ordinary(3, 3, 1)  # odd rank
    shape = monad_quadric_ordinary_shape(3, 2, 1)
    assert shape.cohomology_rank() == 2


def test_spinor_split_swaps_the_pairings_when_n_is_2_mod_4():
    """``(h^0 - h^1)(E (x) S')`` pairs with ``s'`` when 4 divides n, with ``s''`` when n = 2 mod 4."""
    assert monad_quadric_ordinary(4, 2, 1, spinor_chi=(0, -2)).split == (2, 0)
    assert monad_quadric_ordinary(6, 2, 1, spinor_chi=(-4, -3)).split == (1, 0)


@pytest.mark.parametrize("spinor_chi", [(1, 2, 3), (1,), (1.5, 2), (True, 0), "ab", 7], ids=repr)
def test_spinor_chi_must_be_a_pair_of_ints(spinor_chi):
    with pytest.raises(MalformedDataError) as exc:
        monad_quadric_ordinary(4, 2, 1, spinor_chi=spinor_chi)
    assert str(exc.value) == f"spinor_chi must be a pair of ints, got {spinor_chi!r}"


@pytest.mark.parametrize("n, quantum", [(3, 1), (5, 1), (7, 3)])
def test_spinor_chi_is_refused_on_odd_n(n, quantum):
    """Odd quadrics have one spinor bundle and no split; the pair checks and n >= 3 come first."""
    with pytest.raises(MalformedDataError) as exc:
        monad_quadric_ordinary(n, 2, quantum, spinor_chi=(0, 0))
    assert str(exc.value) == f"spinor_chi splits the spinor multiplicity on even n only, not on n = {n}"
    with pytest.raises(MalformedDataError, match=r"^spinor_chi must be a pair of ints, got \(1, 2, 3\)$"):
        monad_quadric_ordinary(n, 2, quantum, spinor_chi=(1, 2, 3))
    with pytest.raises(UnsupportedBundleError, match="^quadric monads need n >= 3$"):
        monad_quadric_ordinary(1, 2, 1, spinor_chi=(0, 0))
    assert monad_quadric_ordinary(n, 2, quantum) == monad_quadric_ordinary(n, 2, quantum, spinor_chi=None)


def test_an_undetermined_middle_term_leaves_rank_and_c1_open():
    """The aCM middle term ``B_aCM`` has no rank or c1, so neither alternating sum is determined."""
    shape = monad_acm(catalog.quadric(3), 0, 2)
    assert shape.terms[1][0].rank is None and shape.terms[1][0].c1_each is None
    assert shape.term_rank(1) is None
    assert shape.cohomology_rank() is None and shape.alternating_c1() is None


def test_monad_space_nonordinary():
    for k in range(0, 4):
        shape = monad_space_nonordinary(3, 2, k, 0, 0)
        b0 = shape.terms[1][0].multiplicity
        b1 = shape.terms[1][1].multiplicity
        assert b0 == b1 == 1 + k
        assert shape.cohomology_rank() == 2
    with pytest.raises(InfeasibleError):
        monad_space_nonordinary(3, 2, 1, -1, 0)


def test_monad_space_nonordinary_equals_shifted_sum():
    """A(-1) (+) A for an ordinary rank-two instanton on P^3 gives the quasi-linear shape."""
    for k in range(0, 4):
        chiA = 2 - 2 * k
        ordinary = monad_pn(3, 0, k, chiA)
        mid = ordinary.terms[1][0].multiplicity
        combined = monad_space_nonordinary(3, 4, k, k, k)
        # M^-1: O(-2)^k (+) O(-1)^k matches the shifted plus unshifted kernels
        assert combined.terms[0][0].multiplicity == k
        assert combined.terms[0][1].multiplicity == k
        # middle: O(-1)^(chi+4k) (+) O^(chi+4k)
        assert combined.terms[1][0].multiplicity == mid
        assert combined.terms[1][1].multiplicity == mid
        assert combined.terms[2][0].multiplicity == k
        assert combined.terms[2][1].multiplicity == k
        assert combined.cohomology_rank() == 4


def test_monad_quadric_nonordinary():
    # degenerates to the symmetric linear monad when s = a = c = 0
    assert monad_quadric_nonordinary(3, 2, 1, 0, 0, 2 + 2) == 0
    assert monad_quadric_nonordinary(3, 2, 1, 0, 0, 0) == 1
    shape = monad_quadric_nonordinary_shape(3, 2, 1, 0, 0, 0)
    assert shape.cohomology_rank() == 2
    with pytest.raises(InfeasibleError):
        monad_quadric_nonordinary(3, 2, 1, 0, 0, 5)  # b > r + 2k + a + c


def test_monad_scroll3():
    rep = monad_scroll3(3, 2, 0, (2, 0, 0))
    assert rep.multiplicities == (2, 0, 0)
    assert rep.relative_cotangent_h1 == 0
    rep = monad_scroll3(5, 2, 1, (0, 0, 0))
    assert rep.multiplicities == (2, 0, 2)
    assert rep.relative_cotangent_h1 == 2
    rep = monad_scroll3(4, 4, 1, (0, 1, 0))
    assert rep.multiplicities == (2, 1, 2)
    with pytest.raises(InfeasibleError):
        monad_scroll3(3, 2, 1, (1, 1, 1))  # relation violated


def test_monad_p1p3():
    rep = monad_p1p3(8, 0, (2, 1, 1, 0))
    assert rep.multiplicities == (2, 1, 1, 0)
    rep = monad_p1p3(6, 1, (-1, 1, 1, -1))
    assert rep.multiplicities == (1, 1, 1, 1)
    rep = monad_p1p3(2, 1, (0, 0, 0, 0))
    assert rep.multiplicities == (2, 0, 0, 2)
    with pytest.raises(InfeasibleError):
        monad_p1p3(2, 1, (1, 0, 0, 0))
    with pytest.raises(InfeasibleError):
        monad_p1p3(2, 1, (-3, 0, 0, 1))


def test_multiplicity_linearity():
    """All multiplicity formulas are affine in (rank, quantum, a, b, c)."""

    def probe(r, k):
        return monad_quadric_ordinary(3, r, k).total

    # affine in k and r: check by interpolation at two points
    for r in (2, 4):
        d1 = probe(r, 1) - probe(r, 0)
        for k in range(0, 5):
            assert probe(r, k) == probe(r, 0) + d1 * k

    def probe_s(n, r, k, a, c, b):
        return monad_quadric_nonordinary(n, r, k, a, c, b)

    base = probe_s(3, 4, 0, 0, 0, 0)
    dk = probe_s(3, 4, 2, 0, 0, 0) - base
    assert probe_s(3, 4, 4, 0, 0, 0) == base + 2 * dk


def test_serre_construction_chern_scroll():
    entry = catalog.scroll_generic(3, 2, 5)  # genus 2, degree 5
    ring = entry.ring
    h, f = ring.gen("h"), ring.gen("f")
    g, d = 2, 5
    theta_deg = g - 1
    D = (d + theta_deg) * f
    detE = h + (d + 2 * g - 2) * f
    for k in range(0, 4):
        c = serre_construction_chern(entry, D, detE, k * (h * f))
        assert c.rank == 2 and c.c1 == detE
        from instanton_lab import chow

        assert chow.integrate(c.c2 * h) == d + g - 1 + k


def test_serre_construction_chern_triple():
    entry = catalog.triple_p1()
    ring = entry.ring
    h1, h2, h3 = (ring.gen(g) for g in ring.generators)
    h = h1 + h2 + h3
    c = serre_construction_chern(entry, h1 + 3 * h3, 2 * h, 0 * (h2 * h3))
    assert c.c1 == 2 * h
    zero = serre_construction_chern(entry, 0 * h1, 0 * h, 0 * (h2 * h3))
    assert zero.c2.is_zero()
    with pytest.raises(MalformedDataError, match=r"^D must be homogeneous of degree 1$"):
        serre_construction_chern(entry, h1 * h2, 2 * h, 0 * (h2 * h3))


def test_spinor_rank():
    assert [spinor_rank(n) for n in (2, 3, 4, 5, 6)] == [1, 2, 2, 4, 4]


def test_monad_shape_has_three_terms():
    from instanton_lab.monads import MonadShape

    terms = monad_pn(3, 0, 2, -2).terms
    for bad in (terms[:2], terms + ((),), ((), ())):
        with pytest.raises(MalformedDataError, match=rf"^a monad shape has 3 terms, got {len(bad)}$"):
            MonadShape(bad)
