from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from instanton_lab import chow
from instanton_lab.chow import all_normal_forms, integrate, multiply, preset_ring
from instanton_lab.errors import UnknownVarietyError, VarietyMismatchError

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
    assert preset_ring("quadric_numerical(3)").variety_id == "quadric(3)"


def test_unknown_variety():
    with pytest.raises(UnknownVarietyError):
        preset_ring("grassmannian(2,4)")
    with pytest.raises(UnknownVarietyError):
        preset_ring("prime_fano(2)")


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
