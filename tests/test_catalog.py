from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from instanton_lab import catalog, chow, rr
from instanton_lab.cohomology import ENGINES, chi_scroll_line, line_bundle_cohomology
from instanton_lab.errors import MalformedDataError, UnknownVarietyError

ENTRIES = [
    catalog.projective_space(3),
    catalog.projective_space(3, u=2),
    catalog.quadric(4),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 1, 2)),
    catalog.scroll_generic(3, 2, 5),
    catalog.curve(2, 3, "generic"),
    catalog.curve(0, 2, "exact_p1"),
    catalog.prime_fano(5),
]

#: entries over a small grid of every constructor's arguments
GRID = (
    [catalog.projective_space(n, u) for n in range(1, 5) for u in range(1, 4)]
    + [catalog.quadric(n, u) for n in range(2, 6) for u in range(1, 4)]
    + [catalog.flag3(), catalog.triple_p1()]
    + [catalog.scroll_p1(d) for d in [(1, 1), (2, 1), (1, 3), (3, 1, 2), (1, 1, 1), (2, 2, 1, 1), (1, 1, 1, 1, 1)]]
    + [catalog.scroll_generic(n, g, d) for n in range(2, 5) for g in range(3) for d in range(1, 4)]
    + [catalog.curve(0, d, "exact_p1") for d in range(1, 4)]
    + [catalog.curve(g, d) for g in range(4) for d in range(1, 4)]
    + [catalog.prime_fano(g) for g in range(3, 9)]
)

#: literal (picard rank, coordinates of h, coordinates of K_X) per entry
COORDS = {
    "projective_space(3)": (1, (1,), (-4,)),
    "projective_space(3;h=2)": (1, (2,), (-4,)),
    "quadric(4)": (1, (1,), (-4,)),
    "flag3": (2, (1, 1), (-2, -2)),
    "triple_p1": (3, (1, 1, 1), (-2, -2, -2)),
    "scroll_p1(1,1,2)": (2, (1, 0), (-3, 2)),
    "scroll_generic(3;g=2;deg=5)": (2, (1, 0), (-3, 7)),
    "curve(2;deg=3;generic)": (1, (3,), (2,)),
    "curve(0;deg=2;exact_p1)": (1, (2,), (-2,)),
    "prime_fano(5)": (1, (1,), (-1,)),
}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.variety_id)
def test_polarization_numerically_ample(entry):
    assert entry.hn() > 0


def test_scroll_degree_is_sum_of_splits():
    for degrees in ((1, 1, 1), (1, 2, 3), (2, 2), (1, 1, 1, 1)):
        entry = catalog.scroll_p1(degrees)
        assert entry.hn() == sum(degrees)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.variety_id)
def test_canonical_coords_match_canonical_class(entry):
    assert catalog.line_bundle_class(entry, catalog.canonical_coords(entry)) == entry.canonical


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.variety_id)
def test_coords_match_literals(entry):
    rank, h, K = COORDS[entry.variety_id]
    assert entry.picard_rank() == rank
    assert catalog.twist_coords(entry, (0,) * rank, 1) == h
    assert catalog.canonical_coords(entry) == K


@pytest.mark.parametrize(
    "entry", ENTRIES + [e for e in GRID if e not in ENTRIES], ids=lambda e: e.variety_id
)
def test_entry_ring_inverts_entry_ids(entry):
    assert catalog.entry_ring(entry.variety_id) is entry.ring


@pytest.mark.parametrize(
    "entry_id",
    [
        "projective_space(3;h=0)",
        "scroll_p1(0,1)",
        "scroll_p1(2)",
        "scroll_generic(1;g=0;deg=3)",
        "curve(2;deg=3;theta)",
        "curve(-1;deg=3;generic)",
        "prime_fano(2)",
        "grassmannian(2,4)",
        # spellings no constructor writes: a default polarization, unsorted degrees, exact_p1
        # above genus 0, a padded integer, the ring-only ids and the old quadric alias
        "projective_space(3;h=1)",
        "scroll_p1(2,1)",
        "curve(2;deg=3;exact_p1)",
        "projective_space(03)",
        "scroll(3,3)",
        "curve(2)",
        "quadric_numerical(3)",
        "quadric(3;u=2)",
        "scroll_generic(3,2,5)",
        "curve(2;3;generic)",
        "flag3()",
        "prime_fano(5;h=1)",
    ],
)
def test_entry_ring_rejects_other_ids(entry_id):
    with pytest.raises(UnknownVarietyError) as exc:
        catalog.entry_ring(entry_id)
    assert type(exc.value) is UnknownVarietyError


def test_entry_ring_refuses_an_integer_too_long_for_int():
    """A 5 000-digit argument is read as a word: the id is refused as unknown, not with int()'s
    ``ValueError``, by the entry reader and the ring reader alike."""
    for resolve in (catalog.entry_ring, chow.preset_ring):
        for entry_id in ("projective_space(" + "9" * 5000 + ")", "curve(2;deg=" + "9" * 5000 + ";generic)"):
            with pytest.raises(UnknownVarietyError) as exc:
                resolve(entry_id)
            assert type(exc.value) is UnknownVarietyError
            assert str(exc.value) == f"unknown variety key {entry_id!r}"


def test_the_constructor_names_are_the_engine_kinds():
    """An entry id's name is its kind, and ``entry_ring`` knows a constructor for every engine."""
    assert all(chow.read_id(entry.variety_id)[0] == entry.kind for entry in GRID)
    assert set(catalog._CONSTRUCTORS) == set(ENGINES) == {entry.kind for entry in GRID}


def _rebuilt_entry(entry_id):
    """The entry that the public constructor an id names builds from the id's arguments."""
    name, args = chow.read_id(entry_id)
    return catalog.scroll_p1(args) if name == "scroll_p1" else getattr(catalog, name)(*args)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([e.variety_id for e in GRID]), st.integers(0, 10**6), st.sampled_from(["del", "ins", "sub"]),
       st.sampled_from("0123456789-(),;=_ hgdeqxp\u0663"))
def test_an_edited_id_names_its_own_entry_or_is_unknown(entry_id, at, edit, char):
    """One character deleted, inserted or replaced: the id resolves only to the ring of an entry
    whose id is exactly the edited string, and is otherwise refused as unknown."""
    at %= len(entry_id) + 1
    rest = entry_id[at:] if edit == "ins" else entry_id[at + 1:]
    edited = entry_id[:at] + ("" if edit == "del" else char) + rest
    try:
        ring = catalog.entry_ring(edited)
    except UnknownVarietyError as exc:
        assert type(exc) is UnknownVarietyError
        return
    entry = _rebuilt_entry(edited)
    assert entry.variety_id == edited and ring is entry.ring


def test_canonical_twist_coords():
    """``omega_X(m h)`` is the canonical coordinates twisted by m."""

    def canonical_twist(entry, m):
        return catalog.twist_coords(entry, catalog.canonical_coords(entry), m)

    assert canonical_twist(catalog.projective_space(3), 3) == (-1,)
    assert canonical_twist(catalog.flag3(), 2) == (0, 0)
    assert canonical_twist(catalog.scroll_p1((1, 1, 1)), 3) == (0, 1)


TANGENT_ENTRIES = (
    [catalog.projective_space(n) for n in range(1, 7)]
    + [catalog.quadric(n) for n in range(2, 7)]
    + [catalog.flag3(), catalog.triple_p1()]
    + [
        catalog.scroll_p1(d)
        for d in [(1, 1), (1, 3), (1, 1, 1), (1, 2, 3), (1, 1, 2, 2), (2, 3, 3, 4), (1, 1, 1, 2, 5),
                  (1, 2, 2, 3, 3), (1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 5, 6)]
    ]
    + [catalog.scroll_generic(n, g, d) for g in (0, 1, 3) for n, d in ((2, 3), (3, 4), (4, 2))]
    + [catalog.curve(0, 2, "exact_p1"), catalog.curve(1, 3), catalog.curve(2, 3), catalog.curve(5, 1)]
    + [catalog.prime_fano(g) for g in range(3, 13)]
)

#: literal (coordinates of K_X, c_2 of the cotangent sheaf as JSON on 3-folds) per entry,
#: the values the entries declared before c(T_X) replaced them
TANGENT_REFERENCE = {
    "projective_space(1)": ((-2,), None),
    "projective_space(2)": ((-3,), None),
    "projective_space(3)": ((-4,), [[[2], 6]]),
    "projective_space(4)": ((-5,), None),
    "projective_space(5)": ((-6,), None),
    "projective_space(6)": ((-7,), None),
    "quadric(2)": ((-2,), None),
    "quadric(3)": ((-3,), [[[2], 4]]),
    "quadric(4)": ((-4,), None),
    "quadric(5)": ((-5,), None),
    "quadric(6)": ((-6,), None),
    "flag3": ((-2, -2), [[[1, 1], 6]]),
    "triple_p1": ((-2, -2, -2), [[[0, 1, 1], 4], [[1, 0, 1], 4], [[1, 1, 0], 4]]),
    "scroll_p1(1,1)": ((-2, 0), None),
    "scroll_p1(1,3)": ((-2, 2), None),
    "scroll_p1(1,1,1)": ((-3, 1), [[[2, 0], 3]]),
    "scroll_p1(1,2,3)": ((-3, 4), [[[1, 1], -6], [[2, 0], 3]]),
    "scroll_p1(1,1,2,2)": ((-4, 4), None),
    "scroll_p1(2,3,3,4)": ((-4, 10), None),
    "scroll_p1(1,1,1,2,5)": ((-5, 8), None),
    "scroll_p1(1,2,2,3,3)": ((-5, 9), None),
    "scroll_p1(1,1,1,1,1,1)": ((-6, 4), None),
    "scroll_p1(1,2,3,4,5,6)": ((-6, 19), None),
    "scroll_generic(2;g=0;deg=3)": ((-2, 1), None),
    "scroll_generic(3;g=0;deg=4)": ((-3, 2), [[[1, 1], -2], [[2, 0], 3]]),
    "scroll_generic(4;g=0;deg=2)": ((-4, 0), None),
    "scroll_generic(2;g=1;deg=3)": ((-2, 3), None),
    "scroll_generic(3;g=1;deg=4)": ((-3, 4), [[[1, 1], -8], [[2, 0], 3]]),
    "scroll_generic(4;g=1;deg=2)": ((-4, 2), None),
    "scroll_generic(2;g=3;deg=3)": ((-2, 7), None),
    "scroll_generic(3;g=3;deg=4)": ((-3, 8), [[[1, 1], -20], [[2, 0], 3]]),
    "scroll_generic(4;g=3;deg=2)": ((-4, 6), None),
    "curve(0;deg=2;exact_p1)": ((-2,), None),
    "curve(1;deg=3;generic)": ((0,), None),
    "curve(2;deg=3;generic)": ((2,), None),
    "curve(5;deg=1;generic)": ((8,), None),
    "prime_fano(3)": ((-1,), [[[2], 6]]),
    "prime_fano(4)": ((-1,), [[[2], 4]]),
    "prime_fano(5)": ((-1,), [[[2], 3]]),
    "prime_fano(6)": ((-1,), [[[2], "12/5"]]),
    "prime_fano(7)": ((-1,), [[[2], 2]]),
    "prime_fano(8)": ((-1,), [[[2], "12/7"]]),
    "prime_fano(9)": ((-1,), [[[2], "3/2"]]),
    "prime_fano(10)": ((-1,), [[[2], "4/3"]]),
    "prime_fano(11)": ((-1,), [[[2], "6/5"]]),
    "prime_fano(12)": ((-1,), [[[2], "12/11"]]),
}


@pytest.mark.parametrize("entry", TANGENT_ENTRIES, ids=lambda e: e.variety_id)
def test_tangent_class_gives_noether_canonical_and_c2(entry):
    """One declared c(T_X) per entry: Noether's int td_n = chi(O_X) against the engine
    (1 - g on generic scrolls, which have no engine at t = 0), K_X = -c_1(T_X), and on
    3-folds c_2(T_X) = c_2(Omega)."""
    K, c2 = TANGENT_REFERENCE[entry.variety_id]
    if entry.kind == "scroll_generic":
        chi_O = 1 - entry.genus
    else:
        chi_O = line_bundle_cohomology(entry, (0,) * entry.picard_rank()).chi()
    weights, denominator = rr._twisted_weights(entry, 0)
    assert Fraction(weights[0], denominator) == chi_O
    assert -entry.tangent.part(1) == catalog.line_bundle_class(entry, K) == entry.canonical
    if entry.dimension == 3:
        assert entry.tangent.part(2).to_json() == c2
    assert entry.tangent.coefficient((0,) * entry.picard_rank()) == 1


@pytest.mark.parametrize("entry", TANGENT_ENTRIES, ids=lambda e: e.variety_id)
def test_twisted_weights_give_chi_of_every_twist_of_the_structure_sheaf(entry):
    """The weight of the basis monomial 1 is int exp(t h) td(X) = chi(O_X(t h)): Riemann-Roch
    against the engine for t in [-8, 8] in dimensions 1-6 (``chi_scroll_line`` on generic
    scrolls, which have no engine outside the vanishing window)."""
    zero = (0,) * entry.picard_rank()
    for t in range(-8, 9):
        weights, denominator = rr._twisted_weights(entry, t)
        if entry.kind == "scroll_generic":
            expected = chi_scroll_line(entry, t, 0)
        else:
            expected = line_bundle_cohomology(entry, catalog.twist_coords(entry, zero, t)).chi()
        assert Fraction(weights[0], denominator) == expected, t


def test_check_coords():
    p3, fl = catalog.projective_space(3), catalog.flag3()
    coords = (2, -1)
    assert catalog.check_coords(fl, coords) is coords
    # other inputs are converted to a tuple of plain ints
    for raw, expected in (([2, -1], (2, -1)), ((True, 3), (1, 3)), ([False, "4"], (0, 4))):
        out = catalog.check_coords(fl, raw)
        assert out == expected and type(out) is tuple
        assert all(type(c) is int for c in out)
    message = r"^projective_space\(3\) expects 1 line-bundle coordinates, got \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        catalog.check_coords(p3, (1, 2))
    with pytest.raises(ValueError, match=r"^flag3 expects 2 line-bundle coordinates, got \(1,\)$"):
        catalog.check_coords(fl, [True])
    with pytest.raises(ValueError, match="invalid literal"):
        catalog.check_coords(p3, ("x",))
    # a number int() would change is refused, not truncated
    for raw, shown in (((2, 2.7), "2.7"), ((Fraction(5, 2), 0), "Fraction(5, 2)"), ([1.9, 1], "1.9")):
        with pytest.raises(ValueError, match=rf"^line-bundle coordinate {re.escape(shown)} on flag3 is not an integer$"):
            catalog.check_coords(fl, raw)
    assert catalog.check_coords(fl, (2.0, Fraction(4, 2))) == (2, 2)


#: literal dimension per entry
DIMENSIONS = {
    "projective_space(3)": 3,
    "projective_space(3;h=2)": 3,
    "quadric(4)": 4,
    "flag3": 3,
    "triple_p1": 3,
    "scroll_p1(1,1,2)": 3,
    "scroll_generic(3;g=2;deg=5)": 3,
    "curve(2;deg=3;generic)": 1,
    "curve(0;deg=2;exact_p1)": 1,
    "prime_fano(5)": 3,
}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.variety_id)
def test_entries_derive_their_dimension(entry):
    """The dimension is the top degree of the entry's ring, not a stored field; the
    polarization multiple is read off h, so no field keeps it either."""
    assert not {"dimension", "u"} & set(catalog.VarietyCatalogEntry._fields)
    assert entry.dimension == entry.ring.top_degree == DIMENSIONS[entry.variety_id]
    assert "dimension=" not in repr(entry)


def test_polarization_multiple():
    e = catalog.projective_space(3, u=2)
    assert e.variety_id == "projective_space(3;h=2)"
    assert e.hn() == 8
    assert catalog.twist_coords(e, (1,), -1) == (-1,)


def test_parse_variety():
    assert catalog.parse_variety("p3").variety_id == "projective_space(3)"
    assert catalog.parse_variety("p3:h=2").h_coords == (2,)
    assert catalog.parse_variety("q4").variety_id == "quadric(4)"
    assert catalog.parse_variety("flag3").kind == "flag3"
    assert catalog.parse_variety("triple-p1").kind == "triple_p1"
    assert catalog.parse_variety("scroll-p1:1,1,2").degrees == (1, 1, 2)
    assert catalog.parse_variety("scroll:n=3,g=1,deg=4").kind == "scroll_generic"
    assert catalog.parse_variety("curve:g=2,deg=4").deg_h == 4
    assert catalog.parse_variety("fano:g=5").genus == 5
    assert catalog.parse_variety("pn:3") == catalog.projective_space(3)
    assert catalog.parse_variety("pn:3,h=2") == catalog.projective_space(3, u=2)
    with pytest.raises(UnknownVarietyError):
        catalog.parse_variety("grassmannian")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: catalog.curve(0, 2, "theta-model"), "unknown curve model 'theta-model'"),
        (lambda: catalog.curve(1, 2, "exact_p1"), "the exact_p1 curve model requires genus 0"),
        (lambda: catalog.scroll_p1((0, 1, 1)), "scroll over P^1 needs >= 2 split degrees, all >= 1: (0, 1, 1)"),
        (lambda: catalog.prime_fano(2), "prime Fano 3-folds have genus >= 3"),
        (lambda: catalog.projective_space(0), "projective_space(0) with h=O(1) is not a catalog entry"),
        (lambda: catalog.quadric(1), "quadric(1) with h=O(1) is not a catalog entry"),
        (lambda: catalog.scroll_generic(1, 0, 3), "scroll(1) over genus 0 of degree 3 is not admissible"),
        (lambda: catalog.curve(-1, 1), "curve(genus=-1, deg_h=1) is not admissible"),
    ],
    ids=["curve-model", "exact-p1-genus", "scroll-p1-degree", "fano-genus", "pn-dimension", "quadric-dimension",
         "scroll-generic-rank", "curve-genus"],
)
def test_invalid_entries_rejected(call, message):
    with pytest.raises(UnknownVarietyError) as exc:
        call()
    assert type(exc.value) is UnknownVarietyError and str(exc.value) == message


@pytest.mark.parametrize("entry_id", [["x"], 5, None, b"flag3"], ids=repr)
def test_entry_ring_refuses_an_id_that_is_not_a_string(entry_id):
    """The id is checked before the cache hashes it, so an unhashable one is refused too."""
    with pytest.raises(MalformedDataError) as exc:
        catalog.entry_ring(entry_id)
    assert str(exc.value) == f"the variety must be a catalog id string, not {entry_id!r}"


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.variety_id)
def test_h_powers_are_cached_powers_of_h(entry):
    for k in range(entry.dimension + 2):
        assert entry.h_power(k) == entry.polarization**k
    assert entry.h_power(entry.dimension) is entry.h_power(entry.dimension)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.variety_id)
def test_entries_hash_by_id_and_compare_every_field(entry, rebuild):
    """Memo lookups hash the id alone; equality still reads every field."""
    assert "__hash__" in vars(catalog.VarietyCatalogEntry)
    assert hash(entry) == hash(entry.variety_id)
    twin = rebuild(entry)
    assert twin is not entry and twin == entry and hash(twin) == hash(entry)
    for change in ({"kind": "mystery"}, {"tangent": 2 * entry.tangent}, {"is_acm": not entry.is_acm}):
        other = rebuild(entry, **change)
        assert hash(other) == hash(entry) and other != entry
        assert len({entry: 0, other: 1}) == 2
