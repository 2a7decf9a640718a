from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from instanton_lab import chow
from instanton_lab.chow import integrate, multiply, preset_ring
from instanton_lab.errors import MalformedDataError, UnknownVarietyError, VarietyMismatchError
from instanton_lab.rr import chern_of_line_bundle_sum

PRESETS = [
    "projective_space(2)",
    "projective_space(3)",
    "projective_space(4)",
    "quadric(3)",
    "quadric(4)",
    "flag3",
    "triple_p1",
    "scroll(3,3)",
    "scroll(3,4)",
    "scroll(4,4)",
    "curve(2)",
]


def monomials_up_to(ring, max_total):
    k = len(ring.generators)
    for exps in itertools.product(range(max_total + 1), repeat=k):
        if sum(exps) <= max_total:
            yield exps


def all_normal_forms(ring, mono):
    """All fully reduced results of ``mono`` over every rewrite order.

    No truncation is performed; a confluent, degree-killing presentation
    returns a one-element set (the empty combination when the degree exceeds
    the top degree).
    """
    results = set()

    def reduce(terms):
        for m in sorted(terms):
            if terms[m] == 0:
                continue
            applicable = [r for r in ring.relations if r.divides(m)]
            if not applicable:
                continue
            for rule in applicable:
                nxt = dict(terms)
                c = nxt.pop(m)
                for m2, c2 in rule.apply(m).items():
                    nxt[m2] = nxt.get(m2, 0) + c * c2
                reduce(nxt)
            return
        results.add(tuple(sorted((m, c) for m, c in terms.items() if c != 0)))

    reduce({mono: 1})
    return results


def test_preset_degrees():
    assert integrate(preset_ring("projective_space(3)").gen("H") ** 3) == 1
    assert integrate(preset_ring("quadric(3)").gen("H") ** 3) == 2
    fl = preset_ring("flag3")
    h1, h2 = fl.gen("h1"), fl.gen("h2")
    assert integrate((h1 + h2) ** 3) == 6
    tp = preset_ring("triple_p1")
    assert integrate(sum(tp.gens(), start=tp.zero()) ** 3) == 6
    sc = preset_ring("scroll(3,3)")
    assert integrate(sc.gen("h") ** 3) == 3


def test_flag_degree_map_values():
    fl = preset_ring("flag3")
    h1, h2 = fl.gen("h1"), fl.gen("h2")
    assert integrate(h1 * h1 * h2) == 1
    assert integrate(h1 * h2 * h2) == 1
    assert integrate(h1**3) == 0
    assert integrate(h2**3) == 0


def test_scroll_relations():
    sc = preset_ring("scroll(3,3)")
    h, f = sc.gen("h"), sc.gen("f")
    assert integrate(h**3) == 3
    assert integrate(f * h * h) == 1
    assert (f * f).is_zero()
    assert integrate((h + f) * h * h) == 4


def test_multiply_examples():
    tp = preset_ring("triple_p1")
    h2 = tp.gen("h2")
    assert (h2 * h2).is_zero()
    fl = preset_ring("flag3")
    h1, h2f, = fl.gen("h1"), fl.gen("h2")
    prod = h1 * h1
    assert prod == fl.from_dict({(1, 1): 1, (0, 2): -1})


def test_quadric_alias():
    """No builder writes ``quadric_numerical(n)``, so it names no ring."""
    with pytest.raises(UnknownVarietyError):
        preset_ring("quadric_numerical(3)")


def test_unknown_variety():
    with pytest.raises(UnknownVarietyError):
        preset_ring("grassmannian(2,4)")
    with pytest.raises(UnknownVarietyError):
        preset_ring("prime_fano(2)")


#: ring ids of the builders, and spellings no builder writes
BUILT_RING_IDS = [
    *(f"projective_space({n})" for n in range(1, 6)), *(f"quadric({n})" for n in range(2, 6)), "flag3",
    "triple_p1", *(f"scroll({n},{d})" for n in range(2, 5) for d in range(1, 5)),
    *(f"curve({g})" for g in range(4)), *(f"prime_fano({g})" for g in range(3, 9)),
]
UNBUILT_RING_IDS = [
    "projective_space(03)", "projective_space(3;h=1)", "projective_space(n=3)", "projective_space(+3)",
    "projective_space(3 )", "projective_space(1_0)", "projective_space(3", "scroll(3, 3)", "scroll(3,3,)",
    "scroll(3;3)", "flag3()", "triple_p1(1)", "curve(2;deg=3;generic)", "scroll_p1(1,1,1)", "", "(", ")",
]


@pytest.mark.parametrize("ring_id", BUILT_RING_IDS)
def test_preset_ring_resolves_each_builder_id_to_itself(ring_id):
    assert preset_ring(ring_id).variety_id == ring_id


@pytest.mark.parametrize("ring_id", UNBUILT_RING_IDS, ids=range(len(UNBUILT_RING_IDS)))
def test_preset_ring_refuses_ids_no_builder_writes(ring_id):
    """The ring an id's arguments build must have that id, so no other spelling resolves."""
    with pytest.raises(UnknownVarietyError) as exc:
        preset_ring(ring_id)
    assert type(exc.value) is UnknownVarietyError and str(exc.value) == f"unknown variety key {ring_id!r}"


def test_read_id_reads_names_ints_and_words():
    assert chow.read_id("flag3") == ("flag3", ())
    assert chow.read_id("scroll(3,4)") == ("scroll", (3, 4))
    assert chow.read_id("curve(2;deg=3;generic)") == ("curve", (2, 3, "generic"))
    assert chow.read_id("projective_space(03;h=-2)") == ("projective_space", ("03", -2))
    assert chow.read_id("projective_space(" + "9" * 5000 + ")") == ("projective_space", ("9" * 5000,))


@given(st.text())
def test_read_id_never_raises(text):
    name, args = chow.read_id(text)
    assert type(name) is str and all(type(a) in (int, str) for a in args)


def test_preset_ring_needs_no_catalog_entry():
    """A fresh interpreter resolves a prime Fano ring id before any entry exists."""
    src = str(Path(chow.__file__).resolve().parents[1])
    code = "from instanton_lab.chow import preset_ring; print(preset_ring('prime_fano(7)').degree_map)"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "(((3,), 12),)"


def test_variety_mismatch():
    a = preset_ring("projective_space(3)").gen("H")
    b = preset_ring("quadric(3)").gen("H")
    with pytest.raises(VarietyMismatchError):
        multiply(a, b)


def test_negative_powers_are_refused():
    H = preset_ring("projective_space(3)").gen("H")
    assert H**0 == H.ring.one()
    with pytest.raises(MalformedDataError) as exc:
        H**-1
    assert str(exc.value) == "negative powers are not defined in the Chow ring"


def test_scalars_are_exact():
    """Classes scale by an int or a Fraction only, and rational classes integrate exactly."""
    H = preset_ring("projective_space(3)").gen("H")
    for bad in (lambda: H * 0.5, lambda: 0.5 * H, lambda: H * "2"):
        with pytest.raises(TypeError):
            bad()
    half = Fraction(1, 2) * H
    assert half == H * Fraction(1, 2) and half.coeffs == (0, Fraction(1, 2), 0, 0)
    assert all(type(c) is Fraction for c in half.coeffs)
    top = integrate(half**3)
    assert type(top) is Fraction and top == Fraction(1, 8)


@pytest.mark.parametrize("key", PRESETS)
def test_confluence_and_truncation(key):
    """All rewrite orders agree, and degree > n monomials reduce to zero by rules alone."""
    ring = preset_ring(key)
    n = ring.top_degree
    for mono in monomials_up_to(ring, n + 1):
        forms = all_normal_forms(ring, mono)
        assert len(forms) == 1, (key, mono, forms)
        (form,) = forms
        if sum(mono) > n:
            assert form == (), (key, mono, form)
        deterministic = ring.normalize_monomial(mono)
        assert tuple(sorted(deterministic.items())) == form


@pytest.mark.parametrize("key", PRESETS)
def test_normal_top_monomials_have_degree_values(key):
    ring = preset_ring(key)
    n = ring.top_degree
    tops = [m for m in monomials_up_to(ring, n) if sum(m) == n and ring.is_normal(m)]
    mapped = {m for m, _ in ring.degree_map}
    assert set(tops) == mapped
    assert any(v != 0 for _, v in ring.degree_map)


@pytest.mark.parametrize("key", PRESETS)
def test_commutativity_associativity(key):
    ring = preset_ring(key)
    gens = list(ring.gens()) + [ring.one()]
    for a, b, c in itertools.product(gens, repeat=3):
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@st.composite
def random_class(draw, key):
    ring = preset_ring(key)
    gens = ring.gens()
    acc = ring.zero()
    for g in gens:
        acc = acc + draw(st.integers(-4, 4)) * g
    if draw(st.booleans()):
        acc = multiply(acc, gens[0] + draw(st.integers(-2, 2)) * gens[-1])
    return acc


@given(data=st.data(), key=st.sampled_from(PRESETS))
def test_integrate_product_symmetric(data, key):
    a = data.draw(random_class(key))
    b = data.draw(random_class(key))
    assert integrate(multiply(a, b)) == integrate(multiply(b, a))


def test_class_str_and_json_roundtrip():
    fl = preset_ring("flag3")
    h1, h2 = fl.gen("h1"), fl.gen("h2")
    cls = 2 * h1 * h2 - 3 * h2 * h2
    again = chow.ChowClass.from_json("flag3", cls.to_json())
    assert again == cls
    assert "h1" in str(cls)


# --------------------------------------------------------------------------
# The multiplication table against the rewrite rules it is built from
# --------------------------------------------------------------------------


def basis_class(ring, k):
    return chow.ChowClass(ring, tuple(int(i == k) for i in range(len(ring.basis))))


def rewrite_product(a, b):
    """Reference product: rewrite every raw term pair with ``normalize_monomial``."""
    ring = a.ring
    acc = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            raw = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            for m, c in ring.normalize_monomial(raw).items():
                acc[m] = acc.get(m, 0) + c1 * c2 * c
    return tuple(sorted((m, c) for m, c in acc.items() if c))


@pytest.mark.parametrize("key", PRESETS)
def test_basis_is_the_sorted_normal_forms(key):
    ring = preset_ring(key)
    normal = [m for m in monomials_up_to(ring, ring.top_degree) if ring.is_normal(m)]
    assert list(ring.basis) == sorted(normal)
    assert ring.grades == tuple(sum(m) for m in ring.basis)


@pytest.mark.parametrize("key", PRESETS)
def test_table_products_are_rewritten_exponent_sums(key):
    ring = preset_ring(key)
    for i, mi in enumerate(ring.basis):
        for j, mj in enumerate(ring.basis):
            raw = tuple(a + b for a, b in zip(mi, mj))
            product = multiply(basis_class(ring, i), basis_class(ring, j))
            assert dict(product.terms) == ring.normalize_monomial(raw), (key, mi, mj)


@pytest.mark.parametrize("key", PRESETS)
def test_integrate_is_the_degree_map_sum(key):
    ring = preset_ring(key)
    values = dict(ring.degree_map)
    for k, m in enumerate(ring.basis):
        expected = values[m] if sum(m) == ring.top_degree else 0
        assert integrate(basis_class(ring, k)) == expected


@given(data=st.data(), key=st.sampled_from(PRESETS))
def test_multiply_equals_rewrite_reference(data, key):
    a = data.draw(random_class(key))
    b = data.draw(random_class(key))
    assert multiply(a, b).terms == rewrite_product(a, b)
    assert integrate(multiply(a, b)) == sum(
        c * dict(a.ring.degree_map).get(m, 0) for m, c in rewrite_product(a, b)
    )


def test_products_never_rewrite(monkeypatch):
    """Once the rings are built, a product only reads the table."""
    rings = [preset_ring(key) for key in PRESETS]
    bases = [[basis_class(ring, k) for k in range(len(ring.basis))] for ring in rings]

    def refuse(self, mono):
        raise AssertionError(f"{self.variety_id}: rewrote {mono} during a product")

    monkeypatch.setattr(chow.ChowRingPresentation, "normalize_monomial", refuse)
    for ring, basis in zip(rings, bases):
        for a, b in itertools.product(basis, repeat=2):
            integrate(multiply(a, b))
        gens = ring.gens()
        integrate(sum(gens, start=ring.zero()) ** ring.top_degree)


@pytest.mark.parametrize("data", [[[[1, 0, 0], 1]], [[[1], 1]], [[[2, -1], 3]], [[["1", 0], 1]]])
def test_from_json_rejects_malformed_monomials(data):
    with pytest.raises(MalformedDataError):
        chow.ChowClass.from_json("flag3", data)


@pytest.mark.parametrize(
    "data, match",
    [
        ([[[1, 0], 1], [[1, 0], 2]], r"monomial \[1, 0\] is repeated"),
        ([[[1, 0], 1.5]], "1.5 of \\[1, 0\\] is not an integer"),
        ([[[0, 1], 2.0]], "not an integer"),
        ([[[0, 1], True]], "not an integer"),
        ([[[0, 1], "2"]], "not an integer"),
    ],
)
def test_from_json_rejects_repeated_monomials_and_non_integer_coefficients(data, match):
    with pytest.raises(MalformedDataError, match=match):
        chow.ChowClass.from_json("flag3", data)


@pytest.mark.parametrize("data", ["x", [[[1], 1, 2]], [[[1]]], [5], [[5, 1]]])
def test_from_json_refuses_a_term_that_is_not_an_exponents_coefficient_pair(data):
    with pytest.raises(MalformedDataError, match=r"is not an \[exponents, coefficient\] pair$"):
        chow.ChowClass.from_json("projective_space(3)", data)


@pytest.mark.parametrize(
    "ring, data, mono",
    [
        ("projective_space(3)", [[[1.0], 1]], "[1.0]"),
        ("projective_space(3)", [[[True], 2]], "[True]"),
        ("flag3", [[[0, True], 1]], "[0, True]"),
    ],
)
def test_from_json_refuses_exponents_that_are_not_ints(ring, data, mono):
    """A float or bool exponent hashes like an int and would hit a basis monomial."""
    with pytest.raises(MalformedDataError, match=rf"^{re.escape(mono)} is not an exponent vector over "):
        chow.ChowClass.from_json(ring, data)


def test_from_json_rewrites_non_normal_monomials():
    fl = preset_ring("flag3")
    h1, h2 = fl.gens()
    assert chow.ChowClass.from_json("flag3", [[[2, 0], 1], [[0, 4], 5]]) == h1 * h1


# Literals copied from the rewrite-based implementation that preceded the
# table: (label, to_json(), str()).
PINNED = [
    ('flag3: (h1+h2)^2', [[[1, 1], 3]], '3*h1*h2'),
    ('flag3: h1^2', [[[0, 2], -1], [[1, 1], 1]], '-h2^2 + h1*h2'),
    ('flag3: 2*h1*h2 - 3*h2^2 + h1', [[[0, 2], -3], [[1, 0], 1], [[1, 1], 2]], '-3*h2^2 + h1 + 2*h1*h2'),
    ('flag3: c2 of O(h1-h2)^2 + O(2h2)', [[[0, 2], -4], [[1, 1], 3]], '-4*h2^2 + 3*h1*h2'),
    ('flag3: c3 of O(h1-h2)^2 + O(2h2)', [[[1, 2], -2]], '-2*h1*h2^2'),
    ('triple_p1: (g1+g2+g3)^2', [[[0, 1, 1], 2], [[1, 0, 1], 2], [[1, 1, 0], 2]], '2*h2*h3 + 2*h1*h3 + 2*h1*h2'),
    ('triple_p1: c2', [[[0, 1, 1], 4], [[1, 0, 1], 2], [[1, 1, 0], -4]], '4*h2*h3 + 2*h1*h3 - 4*h1*h2'),
    ('triple_p1: c3', [[[1, 1, 1], -4]], '-4*h1*h2*h3'),
    ('scroll(3,3): h^3 + h*f - 1', [[[0, 0], -1], [[1, 1], 1], [[2, 1], 3]], '-1 + h*f + 3*h^2*f'),
    ('scroll(3,3): c2', [[[1, 1], -2], [[2, 0], 1]], '-2*h*f + h^2'),
    ('scroll(3,3): c3', [[[2, 1], 1]], 'h^2*f'),
    ('projective_space(3): (1+H)^4', [[[0], 1], [[1], 4], [[2], 6], [[3], 4]], '1 + 4*H + 6*H^2 + 4*H^3'),
    ('projective_space(3): c3', [[[3], 5]], '5*H^3'),
    ('curve(2): (2+3H)^2', [[[0], 4], [[1], 12]], '4 + 12*H'),
    ('curve(2): H^2', [], '0'),
]


def pinned_classes():
    fl = preset_ring("flag3")
    h1, h2 = fl.gens()
    c_fl = chern_of_line_bundle_sum([(h1 - h2, 2), (2 * h2, 1)])
    tp = preset_ring("triple_p1")
    g1, g2, g3 = tp.gens()
    c_tp = chern_of_line_bundle_sum([(g1 + 2 * g2 - g3, 1), (g3 - g1, 2)])
    sc = preset_ring("scroll(3,3)")
    h, f = sc.gens()
    c_sc = chern_of_line_bundle_sum([(h - 2 * f, 2), (f, 1)])
    p3 = preset_ring("projective_space(3)")
    H = p3.gen("H")
    cu = preset_ring("curve(2)")
    Hc = cu.gen("H")
    return [
        (h1 + h2) ** 2,
        h1 * h1,
        2 * h1 * h2 - 3 * h2 * h2 + h1,
        c_fl.c2,
        c_fl.c3,
        (g1 + g2 + g3) ** 2,
        c_tp.c2,
        c_tp.c3,
        h**3 + h * f - sc.one(),
        c_sc.c2,
        c_sc.c3,
        (p3.one() + H) ** 4,
        chern_of_line_bundle_sum([(-H, 3), (2 * H, 1)]).c3,
        (2 * cu.one() + 3 * Hc) ** 2,
        Hc**2,
    ]


@pytest.mark.parametrize("index", range(len(PINNED)), ids=[label for label, _, _ in PINNED])
def test_json_and_str_pinned(index):
    _, as_json, as_str = PINNED[index]
    cls = pinned_classes()[index]
    assert cls.to_json() == as_json
    assert str(cls) == as_str
    assert chow.ChowClass.from_json(cls.variety_id, as_json) == cls


def test_gens_are_built_once_per_ring():
    ring = preset_ring("triple_p1")
    assert ring.gens() is ring.gens()
    assert [g.to_json() for g in ring.gens()] == [[[[1, 0, 0], 1]], [[[0, 1, 0], 1]], [[[0, 0, 1], 1]]]
