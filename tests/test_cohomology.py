from __future__ import annotations

import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from instanton_lab import catalog, classify, cohomology, instanton, rr
from instanton_lab.cohomology import (
    CohomologyTable,
    CohVector,
    bott_gl,
    bott_pn,
    build_table,
    chi_scroll_line,
    coh_curve,
    coh_curve_theta_shift,
    coh_flag3,
    coh_product,
    coh_projective_space,
    coh_quadric,
    coh_scroll_p1,
    line_bundle_cohomology,
    serre_dual_vector,
)
from instanton_lab.errors import (
    MalformedDataError,
    UnknownVarietyError,
    UnsupportedBundleError,
    VarietyMismatchError,
    WindowError,
)
from instanton_lab.util import binom
from test_acceptance import serre_dual_coords


def test_coh_projective_space_examples():
    assert coh_projective_space(3, 2).dims == (10, 0, 0, 0)
    assert coh_projective_space(3, -2).dims == (0, 0, 0, 0)
    assert coh_projective_space(3, -4).dims == (0, 0, 0, 1)


def test_bott_examples():
    assert bott_pn(3, 1, 0).dims == (0, 1, 0, 0)
    assert bott_pn(3, 1, 1).dims == (0, 0, 0, 0)
    assert bott_pn(3, 2, 2).dims == (0, 0, 0, 0)
    # omega = Omega^n is O(-n-1)
    for n in (2, 3, 4):
        for t in range(-4, 5):
            assert bott_pn(n, n, t).dims == coh_projective_space(n, t - n - 1).dims
    # Omega^0 is the structure sheaf
    for t in range(-6, 7):
        assert bott_pn(3, 0, t).dims == coh_projective_space(3, t).dims


def chi_omega_koszul(n: int, p: int, t: int) -> int:
    """Independent chi oracle for Omega^p(t) from the exterior-power Euler sequences."""
    if p == 0:
        return binom(t + n, n)
    return binom(n + 1, p) * binom(t - p + n, n) - chi_omega_koszul(n, p - 1, t)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bott_chi_against_koszul(n):
    for p in range(n + 1):
        for t in range(-n - 4, n + 5):
            assert bott_pn(n, p, t).chi() == chi_omega_koszul(n, p, t), (n, p, t)


def test_bott_single_degree():
    for n in (2, 3, 4):
        for p in range(n + 1):
            for t in range(-n - 4, n + 5):
                assert len(bott_pn(n, p, t).support()) <= 1


def test_coh_quadric_examples():
    assert coh_quadric(3, 1).dims == (5, 0, 0, 0)
    assert coh_quadric(3, -2).dims == (0, 0, 0, 0)
    assert coh_quadric(3, -3).dims == (0, 0, 0, 1)
    # the surface quadric is P^1 x P^1 with O(t, t)
    for t in range(-5, 6):
        assert coh_quadric(2, t).chi() == coh_product([(1, t), (1, t)]).chi()


def test_coh_product_examples():
    assert coh_product([(1, 0), (1, 1), (1, -2)]).dims == (0, 2, 0, 0)
    assert coh_product([(1, 1), (1, 1), (1, 1)]).dims == (8, 0, 0, 0)
    for b, c in itertools.product(range(-3, 4), repeat=2):
        assert coh_product([(1, -1), (1, b), (1, c)]).is_zero()


def kunneth_convolution(factors):
    """``O(t_1, ..., t_r)`` by convolving the factors' P^n vectors."""
    acc = [1]
    for n, t in factors:
        vec = coh_projective_space(n, t)
        nxt = [0] * (len(acc) + n)
        for i, x in enumerate(acc):
            for q in range(n + 1):
                nxt[i + q] += x * vec[q]
        acc = nxt
    return tuple(acc)


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-7, 5)), min_size=1, max_size=4))
def test_coh_product_matches_kunneth_convolution(factors):
    assert coh_product(factors).dims == kunneth_convolution(factors)


def test_coh_product_rejects_bad_factors():
    with pytest.raises(ValueError, match=r"^at least one factor$"):
        coh_product([])
    # a vanishing factor does not excuse a later bad one
    for factors in ([(0, 1)], [(1, -1), (0, 2)], [(2, 1), (1, -1), (-1, 0)]):
        with pytest.raises(ValueError, match=r"^n >= 1$"):
            coh_product(factors)


def test_coh_flag3_examples():
    assert coh_flag3(0, 0).dims == (1, 0, 0, 0)
    assert coh_flag3(-2, 2).dims == (0, 3, 0, 0)
    assert coh_flag3(1, 1).dims == (8, 0, 0, 0)
    assert coh_flag3(1, 0).dims == (3, 0, 0, 0)


def test_flag_swap_symmetry():
    """The two rulings play symmetric roles; the engine fixes an order and the swap is a symmetry."""
    for a1, a2 in itertools.product(range(-5, 6), repeat=2):
        assert coh_flag3(a1, a2).dims == coh_flag3(a2, a1).dims


def test_flag_kunneth_chi_identity():
    """chi on the flag equals the difference of ambient P^2 x P^2 chis across the (1,1) divisor."""
    for a, b in itertools.product(range(-6, 7), repeat=2):
        ambient = coh_product([(2, a), (2, b)]).chi()
        shifted = coh_product([(2, a - 1), (2, b - 1)]).chi()
        assert coh_flag3(a, b).chi() == ambient - shifted, (a, b)


def check_pn_against_kunneth():
    for n, t in itertools.product(range(1, 7), range(-12, 13)):
        assert coh_projective_space(n, t) == coh_product([(n, t)]), (n, t)


def check_omega_against_koszul():
    for n in range(1, 7):
        for p, t in itertools.product(range(n + 1), range(-10, 11)):
            vec = bott_pn(n, p, t)
            assert vec.chi() == chi_omega_koszul(n, p, t), (n, p, t)
            degree = (0,) if t > p else (p,) if t == 0 else (n,) if t < p - n else ()
            assert vec.support() == degree, (n, p, t)


def check_flag3_against_riemann_roch():
    flag = catalog.flag3()
    for coords in itertools.product(range(-10, 11), repeat=2):
        vec = coh_flag3(*coords)
        chern = rr.chern_of_line_bundle_sum([(catalog.line_bundle_class(flag, coords), 1)])
        assert len(vec.support()) <= 1 and vec.chi() == rr.chi_twisted(flag, chern, 0), coords


def check_grassmannian_g24_against_quadric():
    for t in range(-15, 16):
        assert bott_gl((t, t, 0, 0), 4) == coh_quadric(4, t), t


@pytest.mark.parametrize(
    "check",
    [check_pn_against_kunneth, check_omega_against_koszul, check_flag3_against_riemann_roch,
     check_grassmannian_g24_against_quadric],
    ids=["pn-kunneth", "omega-koszul", "flag3-rr", "g24-quadric"],
)
def test_bott_gl_against_independent_references(check):
    """Each view of :func:`bott_gl` against a route that does not pass through it:
    Kunneth binomials on P^n, the Koszul chi and Bott's stated degree on Omega^p(t),
    Riemann-Roch on the flag 3-fold, and the quadric engine on G(2,4) = Q^4."""
    check()


def test_coh_scroll_examples():
    assert coh_scroll_p1((1, 1, 1), 1, 0).dims == (6, 0, 0, 0)
    assert coh_scroll_p1((1, 1, 1), -1, 5).is_zero()
    assert coh_scroll_p1((1, 1, 1), 0, -1).is_zero()


def test_scroll_vanishing_window():
    for degrees in [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1)]:
        n = len(degrees)
        for t in range(1 - n, 0):
            for a in range(-5, 6):
                assert coh_scroll_p1(degrees, t, a).is_zero(), (degrees, t, a)


def test_scroll_chi_consistency():
    for degrees in [(1, 1, 1), (1, 1, 2), (2, 2, 3), (1, 1, 1, 1)]:
        entry = catalog.scroll_p1(degrees)
        for t in range(-6, 5):
            for a in range(-4, 5):
                assert coh_scroll_p1(degrees, t, a).chi() == chi_scroll_line(entry, t, a)


def recursive_chi_scroll_line(entry, t, a):
    """``chi_scroll_line`` by its definition: Riemann-Roch for the symmetric power at ``t >= 0``,
    zero inside the vanishing window, and below it a recursive call at the Serre-dual twist."""
    n, d, g = entry.dimension, entry.deg_g, entry.genus
    if 1 - n <= t <= -1:
        return 0
    if t >= 0:
        return binom(t + n - 1, n - 1) * (1 - g + a) + d * binom(t + n - 1, n)
    return (-1) ** n * recursive_chi_scroll_line(entry, -n - t, d - 2 + 2 * g - a)


#: split scrolls of dimension 2-6 and generic scrolls of dimension 2-6 over curves of genus 0-3
CHI_SCROLLS = [catalog.scroll_p1((1,) * (n - 2) + (2, 3)) for n in range(2, 7)] + [
    catalog.scroll_generic(n, g, n + g) for n in range(2, 7) for g in range(4)
]


@pytest.mark.parametrize("entry", CHI_SCROLLS, ids=lambda e: e.variety_id)
def test_chi_scroll_line_is_its_recursive_definition(entry):
    grid = list(itertools.product(range(-15, 16), range(-20, 21)))
    expected = [recursive_chi_scroll_line(entry, t, a) for t, a in grid]
    assert [chi_scroll_line(entry, t, a) for t, a in grid] == expected


def _product(*dims):
    """``O(t_1, ..., t_r)`` on ``P^dims[0] x ...``, the engine as a line-bundle oracle."""
    return lambda coords: coh_product(list(zip(dims, coords)))


#: (entry, isomorphic variety, coordinate map, box half-width): the variety is a catalog
#: entry or an engine on coordinates, and the map sends the entry's coordinates to its own
ISOMORPHISMS = [
    # P(O(1)^n) = P^1 x P^(n-1), with O(t h + a f) = O(t + a, t)
    *[(catalog.scroll_p1((1,) * n), _product(1, n - 1), lambda t, a: (t + a, t), 12) for n in (2, 3, 4)],
    (catalog.quadric(2), catalog.scroll_p1((1, 1)), lambda t: (t, 0), 12),
    *[(catalog.curve(0, d, "exact_p1"), catalog.curve(0, d, "generic"), lambda t: (t,), 10) for d in (1, 2, 3)],
    (catalog.projective_space(1), catalog.curve(0, 1, "exact_p1"), lambda t: (t,), 10),
]


@pytest.mark.parametrize(
    "entry, other, to_other, box",
    ISOMORPHISMS,
    ids=[f"{e.variety_id}~{o.variety_id if isinstance(o, catalog.VarietyCatalogEntry) else 'product'}"
         for e, o, _, _ in ISOMORPHISMS],
)
def test_isomorphic_entries_agree_on_line_bundles(entry, other, to_other, box):
    """Two models of one polarized variety give every line bundle in the box the same
    cohomology; between two catalog entries, the same h^n and Riemann-Roch chi too."""
    is_entry = isinstance(other, catalog.VarietyCatalogEntry)
    coh_other = (lambda c: line_bundle_cohomology(other, c)) if is_entry else other
    boxed = list(itertools.product(range(-box, box + 1), repeat=entry.picard_rank()))
    assert [c for c in boxed if line_bundle_cohomology(entry, c) != coh_other(to_other(*c))] == []
    if is_entry:
        assert entry.hn() == other.hn()

        def rr_chi(e, c):
            return rr.chi(e, rr.chern_of_line_bundle_sum([(catalog.line_bundle_class(e, c), 1)]))

        assert [c for c in boxed if rr_chi(entry, c) != rr_chi(other, to_other(*c))] == []


def test_scroll_engine_is_polynomial_in_the_twist():
    """C(47, 7) ~ 6e7 multisets: only counting by degree sum finishes here."""
    degrees = (1, 1, 2, 2, 3, 3, 4, 5)
    entry = catalog.scroll_p1(degrees)
    assert coh_scroll_p1(degrees, 40, -60).chi() == chi_scroll_line(entry, 40, -60)


def brute_scroll(degrees: tuple[int, ...], t: int, a: int) -> tuple[int, ...]:
    """``O(t h + a f)`` on a split scroll by enumerating the multisets one by one."""
    n, d = len(degrees), sum(degrees)
    if 1 - n <= t <= -1:
        return (0,) * (n + 1)
    if t < 0:
        return tuple(reversed(brute_scroll(degrees, -n - t, d - 2 - a)))
    h0 = h1 = 0
    for multiset in itertools.combinations_with_replacement(degrees, t):
        deg = a + sum(multiset)
        h0 += max(deg + 1, 0)
        h1 += max(-deg - 1, 0)
    return (h0, h1) + (0,) * (n - 1)


@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=5),
    st.integers(-8, 8),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_scroll_window_matches_multiset_enumeration(degrees, a, below, above):
    """Every window here spans the Serre side, the vanishing window and t >= 0."""
    n = len(degrees)
    for t in range(-n - below, above + 1):
        assert coh_scroll_p1(degrees, t, a).dims == brute_scroll(tuple(degrees), t, a), t


@given(
    st.lists(st.integers(1, 3), min_size=2, max_size=5),
    st.integers(-8, 8),
    st.lists(st.integers(-10, 6), max_size=6),
)
def test_scroll_window_takes_any_twist_list(degrees, a, twists):
    for t in twists:
        assert coh_scroll_p1(degrees, t, a).dims == brute_scroll(tuple(degrees), t, a), t


class _CountingDict(dict):
    """A dict that counts its stores."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("window, passes", [((-40, 26), 1), ((0, 26), 5)])
def test_cold_scroll_window_shares_one_multiset_count(monkeypatch, window, passes):
    """A cold table on a wide scroll window counts multisets a few times, not once per twist.

    The table reads its twists from tmin up.  From -40 the first read is the
    largest size (the Serre side's 34), so one count serves all 67 twists;
    from 0 up the sizes grow one by one and the count table doubles in height,
    so 27 twists take 5 counts.
    """
    counts = _CountingDict()
    monkeypatch.setattr(cohomology, "_COUNTS", counts)
    monkeypatch.setattr(cohomology, "_ROWS", {})
    entry = catalog.scroll_p1((1, 2, 3, 4, 5, 6))
    table = build_table(entry, (0, 0), window, with_chern=False)
    assert counts.stores == passes
    assert [table.row(t).chi() for t in table.twists()] == [chi_scroll_line(entry, t, 0) for t in table.twists()]


def test_scroll_window_rejects_bad_degrees():
    for degrees in [(2,), (0, 1), (1, -1, 2)]:
        for t in range(-3, 3):
            with pytest.raises(ValueError, match=r"^need >= 2 split degrees, all >= 1$"):
                coh_scroll_p1(degrees, t, 0)


def test_tables_derive_their_dimension():
    """A table's dimension is read off its rows ``(h^0, ..., h^n)``; rows that do not list
    ``h^0, ..., h^n`` for the variety's n are refused."""
    assert "dimension" not in CohomologyTable._fields
    for entry in (catalog.curve(2, 3), catalog.quadric(4), catalog.scroll_p1((1, 1, 2, 3))):
        table = build_table(entry, (0,) * entry.picard_rank(), (-1, 1))
        assert table.dimension == entry.dimension
        assert CohomologyTable.from_json(table.to_json()).dimension == entry.dimension
    with pytest.raises(ValueError, match=r"^rows on projective_space\(2\) must list h\^0, \.\.\., h\^2$"):
        CohomologyTable("projective_space(2)", 1, 0, ((1, 0, 0), (3, 0)))


def test_tables_derive_their_window_end():
    """A table stores ``tmin`` and one row per twist; ``tmax`` is read off the row count."""
    assert "tmax" not in CohomologyTable._fields
    table = CohomologyTable("projective_space(2)", 1, -2, ((1, 0, 0),) * 3)
    assert (table.tmax, list(table.twists())) == (0, [-2, -1, 0])
    assert table.covers(-2, 0) and not table.covers(-3, 0) and not table.covers(-2, 1)
    for t in (-3, 1):
        with pytest.raises(WindowError):
            table.row(t)
    assert CohomologyTable.from_json(table.to_json()) == table
    with pytest.raises(TypeError):
        CohomologyTable("projective_space(2)", 1, -2, tmax=0, dims=table.dims)
    with pytest.raises(ValueError, match=r"^empty window$"):
        CohomologyTable("projective_space(2)", 1, 0, ())
    data = table.to_json()
    data["window"]["tmax"] = 1
    with pytest.raises(MalformedDataError, match=r"^rows do not enumerate a non-empty window$"):
        CohomologyTable.from_json(data)


@pytest.mark.parametrize(
    "change, error, message",
    [
        (dict(variety=["flag3"]), MalformedDataError, "the variety must be a catalog id string, not ['flag3']"),
        (dict(variety=5), MalformedDataError, "the variety must be a catalog id string, not 5"),
        (dict(variety="grassmannian(2,4)"), UnknownVarietyError, "unknown variety key 'grassmannian(2,4)'"),
        (dict(assumptions=[1]), MalformedDataError, "assumptions must be a tuple of strings, got (1,)"),
        (dict(assumptions="ab"), MalformedDataError, "assumptions must be a list"),
        (dict(chern={"rank": 2}), MalformedDataError, "malformed Chern data (KeyError: 'c1')"),
    ],
    ids=["list-variety", "int-variety", "unknown-variety", "int-assumption", "string-assumptions", "chern-keys"],
)
def test_the_table_reader_leaves_each_rule_to_its_owner(change, error, message):
    """The reader checks JSON shape alone: the variety id is refused by ``catalog.entry_ring``
    (with or without a Chern block), an assumption's type by the constructor and a Chern block's
    keys by its own reader, each in its owner's words."""
    for with_chern in (True, False):
        data = build_table(catalog.flag3(), [((1, 0), 1), ((0, 1), 1)], (-3, 0), with_chern).to_json()
        with pytest.raises(error) as exc:
            CohomologyTable.from_json(data | change)
        assert type(exc.value) is error and str(exc.value) == message


def test_the_window_width_sets_no_work_in_from_json():
    """Four rows that claim the window [-3, 10^6] are refused by their count, before any range is built."""
    data = build_table(catalog.projective_space(3), (0,), (-3, 0)).to_json()
    data["window"]["tmax"] = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(MalformedDataError, match=r"^rows do not enumerate a non-empty window$"):
            CohomologyTable.from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "h, message",
    [
        ([1, -1, 0], "negative cohomology dimension in (1, -1, 0)"),
        ([1, "a", 0], "cohomology dimensions on projective_space(2) must be ints"),
        ([1, True, 0], "cohomology dimensions on projective_space(2) must be ints"),
        ([1, 0.5, 0], "cohomology dimensions on projective_space(2) must be ints"),
        ([1, json.loads("NaN"), 0], "cohomology dimensions on projective_space(2) must be ints"),
        ("100", "a row's h must be a list, got '100'"),
        ([1, 0], "rows on projective_space(2) must list h^0, ..., h^2"),
        (5, "a row's h must be a list, got 5"),
        ({"a": 1}, "a row's h must be a list, got {'a': 1}"),
        (None, "a row's h must be a list, got None"),
    ],
    ids=["negative", "string", "bool", "float", "nan", "string-h", "short", "int-h", "object-h", "null-h"],
)
def test_the_table_reader_refuses_a_malformed_row(h, message):
    """A malformed middle row is refused in the words of the value that owns its rule: the reader
    for ``h`` that is not a JSON list, the constructor for a negative, non-int or incomparable
    dimension and for a short row."""
    data = build_table(catalog.projective_space(2), (0,), (-1, 1)).to_json()
    data["rows"][1]["h"] = h
    with pytest.raises(MalformedDataError) as exc:
        CohomologyTable.from_json(data)
    assert type(exc.value) is MalformedDataError and str(exc.value) == message


@pytest.mark.parametrize("chern, message", [
    ({}, "malformed Chern data (KeyError: 'rank')"),
    ([], "malformed Chern data (TypeError: list indices must be integers or slices, not str)"),
    (0, "malformed Chern data (TypeError: 'int' object is not subscriptable)"),
    (False, "malformed Chern data (TypeError: 'bool' object is not subscriptable)"),
    ("", "malformed Chern data (TypeError: string indices must be integers, not 'str')"),
    (None, "malformed Chern data (TypeError: 'NoneType' object is not subscriptable)"),
], ids=["dict", "list", "zero", "false", "empty-string", "null"])
def test_the_table_reader_reads_every_chern_block_it_is_given(chern, message):
    """A falsy ``chern`` value is a block ``ChernData.from_json`` refuses, not a table without one."""
    data = build_table(catalog.projective_space(2), (0,), (-1, 1)).to_json() | {"chern": chern}
    with pytest.raises(MalformedDataError) as exc:
        CohomologyTable.from_json(data)
    assert type(exc.value) is MalformedDataError and str(exc.value) == message


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 10**30)] * (n + 1)), min_size=1, max_size=6)
))
def test_the_table_reader_makes_the_constructor_rows(dims):
    """``from_json`` on nonnegative rows gives the table built from the same dims."""
    dims = tuple(dims)
    n = len(dims[0]) - 1
    table = CohomologyTable(catalog.projective_space(n).variety_id, 1, -2, dims)
    again = CohomologyTable.from_json(json.loads(json.dumps(table.to_json())))
    assert again == table and again.dims == dims and again.rows == tuple(map(CohVector, dims))


def test_table_ops_make_no_vectors_on_a_warm_memo(monkeypatch):
    """On a warm memo ``build_table``, ``from_json``, ``to_json`` and ``check_instanton`` make no
    ``CohVector`` at all: a table keeps plain int rows from the memo's vectors to its JSON.  No
    module names ``__new__`` (``test_no_module_makes_values_without_their_constructor``), so every
    vector passes ``CohVector.__init__``, which is counted here."""
    entry = catalog.scroll_p1((1, 2, 2))
    bundles = [((0, 1), 1), ((1, 0), 2)]
    table = build_table(entry, bundles, (-7, 5))
    data = json.loads(json.dumps(table.to_json()))
    verdict = instanton.check_instanton(table)
    made = []
    init = CohVector.__init__

    def counted_init(self, dims):
        made.append(dims)
        init(self, dims)

    monkeypatch.setattr(CohVector, "__init__", counted_init)
    assert build_table(entry, bundles, (-7, 5)) == table
    assert CohomologyTable.from_json(data) == table
    assert table.to_json() == data
    assert instanton.check_instanton(table) == verdict
    assert made == []
    assert table.row(0) == CohVector(table.dims[7]) and len(made) == 2


def test_prime_fano_engine_takes_the_genus():
    assert cohomology.coh_cyclic_fano_index1(5, 1) == line_bundle_cohomology(catalog.prime_fano(5), (1,))
    with pytest.raises(ValueError, match=r"^prime Fano 3-folds have genus >= 3$"):
        cohomology.coh_cyclic_fano_index1(2, 0)


def test_coh_curve_examples():
    assert coh_curve(0, 3).dims == (4, 0)
    assert coh_curve(3, 5).dims == (3, 0)
    with pytest.raises(ValueError, match="^genus >= 0$"):
        coh_curve(-1, 1)


def test_theta_shift_engine():
    # chi(theta + s h) = s deg h, with one-sided vanishing
    for g in (0, 2, 3):
        for dh in (1, 2, 3):
            for s in range(-4, 5):
                v = coh_curve_theta_shift(g, dh, s)
                assert v.chi() == s * dh
                assert v[0] == 0 or v[1] == 0


def test_theta_twists_are_curve_degrees():
    """``O(theta + s h)`` is the degree ``g - 1 + s deg h`` bundle on either curve model."""
    for g, model in [(0, "exact_p1"), (0, "generic"), (2, "generic"), (3, "generic")]:
        for dh in (1, 2, 3):
            entry = catalog.curve(g, dh, model)
            for s in range(-4, 5):
                assert catalog.theta_coords(entry, s) == (g - 1 + s * dh,)
                vec = line_bundle_cohomology(entry, catalog.theta_coords(entry, s))
                assert vec == coh_curve_theta_shift(g, dh, s), (entry.variety_id, s)


def test_serre_dual_vector():
    assert serre_dual_vector(CohVector((1, 0, 0, 0))).dims == (0, 0, 0, 1)
    assert serre_dual_vector(CohVector((0, 3, 0, 0))).dims == (0, 0, 3, 0)
    assert serre_dual_vector(CohVector((2, 5))).dims == (5, 2)


SERRE_ENTRIES = [
    catalog.projective_space(2),
    catalog.projective_space(3),
    catalog.projective_space(4),
    catalog.quadric(3),
    catalog.quadric(4),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 1, 1)),
    catalog.scroll_p1((1, 2, 3)),
    catalog.scroll_p1((1, 1, 1, 1)),
    catalog.curve(0, 1, "exact_p1"),
    catalog.curve(2, 3, "generic"),
    catalog.prime_fano(4),
]


@pytest.mark.parametrize("entry", SERRE_ENTRIES, ids=lambda e: e.variety_id)
def test_serre_duality(entry):
    """coh(L) reversed equals coh(K - L) on a coordinate box."""
    rank = entry.picard_rank()
    box = range(-4, 5)
    for coords in itertools.product(box, repeat=rank):
        lhs = serre_dual_vector(line_bundle_cohomology(entry, coords))
        rhs = line_bundle_cohomology(entry, serre_dual_coords(entry, coords))
        assert lhs.dims == rhs.dims, (entry.variety_id, coords)


def test_prime_fano_engine():
    entry = catalog.prime_fano(5)
    # sections of the fundamental bundle embed into P^(g+1)
    assert line_bundle_cohomology(entry, (1,))[0] == 7
    assert line_bundle_cohomology(entry, (0,)).dims == (1, 0, 0, 0)
    assert line_bundle_cohomology(entry, (-1,)).dims == (0, 0, 0, 1)


def test_build_table_p3_structure_sheaf():
    entry = catalog.projective_space(3)
    table = build_table(entry, (0,), (-4, 0))
    for t in range(-4, 1):
        assert table.row(t).dims == coh_projective_space(3, t).dims
    assert table.rank == 1
    assert table.chern is not None and table.chern.c1.is_zero()


def test_build_table_triple_example():
    table = build_table(catalog.triple_p1(), (-1, 1, 3), (-3, 0))
    assert table.row(-1)[1] == 3


def test_build_table_theta_family():
    # O(theta + h) (+) O(theta) on a genus-2 curve of degree 2: the exact
    # theta-shift model gives chi(E(t h)) = (2t + 1) deg h, so rows are
    # nonzero at every twist; frozen values below.
    entry = catalog.curve(2, 2, "generic")
    table = build_table(entry, theta_bundles(entry, [((1,), 1), ((0,), 1)]), (-1, 0))
    assert table.row(-1).dims == (0, 2)
    assert table.row(0).dims == (2, 0)
    assert "generic Brill-Noether position" in table.assumptions


def theta_bundles(entry, shifts):
    """The summands ``O(theta + s h)^m`` for ``((s,), m)`` in ``shifts``, or for one ``(s,)``."""
    if isinstance(shifts, tuple):
        return catalog.theta_coords(entry, shifts[0])
    return [(catalog.theta_coords(entry, s), m) for (s,), m in shifts]


def per_twist_table_rows(entry, bundles, window, theta=False):
    """Rows summed twist by twist from ``line_bundle_cohomology``; theta shifts ``(s,)``
    from :func:`coh_curve_theta_shift` at ``s + t``."""
    rows = []
    for t in range(window[0], window[1] + 1):
        acc = CohVector((0,) * (entry.dimension + 1))
        for coords, mult in bundles:
            if theta:
                vec = coh_curve_theta_shift(entry.genus, entry.deg_h, coords[0] + t)
            else:
                vec = line_bundle_cohomology(entry, catalog.twist_coords(entry, coords, t))
            acc = acc + vec.scale(mult)
        rows.append(acc)
    return tuple(rows)


FAMILY_TABLES = [
    (catalog.projective_space(3), [((0,), 1), ((-2,), 2)], (-6, 4), False),
    (catalog.projective_space(2, u=2), [((1,), 1)], (-4, 3), False),
    (catalog.quadric(4), [((0,), 2), ((1,), 1)], (-7, 3), False),
    (catalog.flag3(), [((-1, 3), 1), ((0, 2), 2)], (-5, 3), False),
    (catalog.triple_p1(), [((-1, 1, 3), 1), ((0, 0, -2), 3)], (-5, 3), False),
    (catalog.scroll_p1((1, 1, 2)), [((0, 1), 1), ((-1, 0), 2)], (-12, 9), False),
    (catalog.scroll_p1((1, 2, 3, 3)), [((1, -4), 2), ((0, 5), 1), ((-2, 0), 1)], (-15, 12), False),
    (catalog.scroll_generic(3, 2, 5), [((0, 1), 1), ((0, -7), 2)], (-2, -1), False),
    (catalog.curve(0, 2, "exact_p1"), [((1,), 1), ((-3,), 2)], (-5, 4), False),
    (catalog.curve(2, 3, "generic"), [((2,), 1), ((-1,), 1)], (-4, 4), False),
    (catalog.curve(2, 3, "generic"), [((1,), 2), ((0,), 1)], (-4, 4), True),
    (catalog.prime_fano(5), [((1,), 1), ((-1,), 1)], (-4, 3), False),
]


@pytest.mark.parametrize(
    "entry, bundles, window, theta",
    FAMILY_TABLES,
    ids=[e.variety_id + ("-theta" if theta else "") for e, _, _, theta in FAMILY_TABLES],
)
def test_build_table_sums_line_bundle_cohomology(entry, bundles, window, theta):
    table = build_table(entry, theta_bundles(entry, bundles) if theta else bundles, window)
    assert table.rows == per_twist_table_rows(entry, bundles, window, theta)


#: entries whose h coordinates include 0 (scrolls), exceed 1 (P^3 with h = O(2)) or are all 1
ROW_ENTRIES = [
    catalog.scroll_p1((1, 2)),
    catalog.scroll_p1((1, 1, 3)),
    catalog.projective_space(3, u=2),
    catalog.quadric(3),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.curve(1, 2, "generic"),
]


@st.composite
def table_cases(draw):
    """An entry, 1-3 summands of multiplicity 0-3 and total rank at least 1, and a window of 1-7 twists."""
    entry = draw(st.sampled_from(ROW_ENTRIES))
    coords = st.tuples(*[st.integers(-4, 4)] * entry.picard_rank())
    bundles = draw(
        st.lists(st.tuples(coords, st.integers(0, 3)), min_size=1, max_size=3).filter(
            lambda b: sum(m for _, m in b) >= 1
        )
    )
    tmin = draw(st.integers(-8, 3))
    return entry, bundles, (tmin, tmin + draw(st.integers(0, 6)))


@given(table_cases())
@example((catalog.scroll_p1((1, 2)), [((0, 1), 0), ((1, -2), 2)], (3, 3)))
@example((catalog.projective_space(3, u=2), [((1,), 1), ((-3,), 0)], (-4, 2)))
@settings(max_examples=80, deadline=None)
def test_build_table_rows_are_the_per_twist_sums(case):
    entry, bundles, window = case
    assert build_table(entry, bundles, window).rows == per_twist_table_rows(entry, bundles, window)


@pytest.mark.parametrize(
    "entry, bundles",
    [
        (catalog.scroll_p1((1, 2, 2)), [((0, 1), 1), ((-1, 0), 0), ((2, -3), 2)]),
        (catalog.projective_space(3, u=2), [((1,), 1), ((-2,), 3)]),
        (catalog.flag3(), [((1, -1), 2), ((0, 0), 1)]),
    ],
    ids=lambda value: value.variety_id if isinstance(value, catalog.VarietyCatalogEntry) else None,
)
def test_build_table_reads_each_summand_twist_once(monkeypatch, entry, bundles):
    """Each (summand, twist) key reaches the memo exactly once per table, multiplicity 0 included."""
    window = (-4, 3)
    reads = []

    class Watched(cohomology._LineBundleRows):
        def __getitem__(self, coords):
            reads.append(coords)
            return super().__getitem__(coords)

    monkeypatch.setitem(cohomology._ROWS, entry, Watched(entry))
    build_table(entry, bundles, window)
    keys = [catalog.twist_coords(entry, coords, t) for coords, _ in bundles for t in range(window[0], window[1] + 1)]
    assert Counter(reads) == Counter(keys)


@pytest.mark.parametrize("width", [1, 5, 20, 40])
def test_scroll_table_reads_the_entry_memo(monkeypatch, width):
    """A split-scroll table fills the entry's memo with each twisted summand, and
    rebuilding it calls no engine."""
    entry = catalog.scroll_p1((1, 2, 2))
    bundles = [((0, 1), 1), ((-1, 0), 2), ((2, -3), 1)]
    window = (-3 - width, width)
    monkeypatch.setitem(cohomology._ROWS, entry, cohomology._LineBundleRows(entry))
    table = build_table(entry, bundles, window)
    twisted = {(t0 + t, a) for (t0, a), _ in bundles for t in range(window[0], window[1] + 1)}
    assert set(cohomology._rows(entry)) == twisted

    def engine(*args):
        raise AssertionError("a warm table asked an engine")

    monkeypatch.setitem(cohomology.ENGINES, "scroll_p1", engine)
    monkeypatch.setattr(cohomology, "coh_scroll_p1", engine)
    assert build_table(entry, bundles, window) == table


@pytest.mark.parametrize(
    "entry, bundles, window, theta, error, message",
    [
        (catalog.projective_space(3), [((1, 2), 1)], (-3, 3), False, MalformedDataError,
         "projective_space(3) expects 1 line-bundle coordinates, got (1, 2)"),
        (catalog.scroll_p1((1, 2, 2)), [((0, 1), 1), ((1,), 1)], (-3, 3), False, MalformedDataError,
         "scroll_p1(1,2,2) expects 2 line-bundle coordinates, got (1,)"),
        (catalog.projective_space(3), [((1,), -1)], (-3, 3), False, MalformedDataError,
         "multiplicities must be nonnegative"),
        (catalog.scroll_p1((1, 2, 2)), [((1, 0), -1)], (-3, 3), False, MalformedDataError,
         "multiplicities must be nonnegative"),
        (catalog.projective_space(3), [((1,), 1)], (-3, 3), True, UnsupportedBundleError,
         "theta twists only exist on curve entries"),
        (catalog.scroll_generic(3, 2, 5), [((0, 1), 1)], (-2, 0), False, UnsupportedBundleError,
         "only the vanishing window is exact on generic scrolls; use chi_scroll_line"),
        (catalog.projective_space(3), [((1,), 0)], (-3, 3), False, MalformedDataError, "rank must be positive"),
        (catalog.scroll_p1((1, 2, 2)), [((1, 0), 0)], (-3, 3), False, MalformedDataError,
         "rank must be positive"),
        # a summand of multiplicity 0 is still read, so its engine's refusal stands
        (catalog.scroll_generic(3, 2, 5), [((0, 1), 1), ((3, -7), 0)], (-2, -1), False, UnsupportedBundleError,
         "only the vanishing window is exact on generic scrolls; use chi_scroll_line"),
        (catalog.projective_space(3), [], (-3, 3), False, UnsupportedBundleError, "empty bundle descriptor"),
    ],
    ids=["coord-count", "scroll-coord-count", "negative-mult", "scroll-negative-mult", "theta-non-curve",
         "scroll-generic-outside", "zero-rank", "scroll-zero-rank", "scroll-generic-zero-mult-read", "empty"],
)
def test_build_table_errors(entry, bundles, window, theta, error, message):
    with pytest.raises(error) as exc:
        build_table(entry, theta_bundles(entry, bundles) if theta else bundles, window)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "entry, bundles, window",
    [
        (catalog.projective_space(3), [((41,), 1), ((2,), -1)], (-3, 3)),
        (catalog.scroll_p1((1, 2, 2)), [((1, 0), -1)], (17, 19)),
        (catalog.scroll_generic(3, 2, 5), [((0, 1), -1)], (-2, 0)),
    ],
    ids=["pn-second-summand", "scroll", "scroll-generic-outside"],
)
def test_build_table_checks_multiplicities_before_any_engine_runs(entry, bundles, window):
    """A negative multiplicity is refused before the memo is read, so no engine runs and none wins."""
    before = dict(cohomology._rows(entry))
    with pytest.raises(MalformedDataError) as exc:
        build_table(entry, bundles, window)
    assert type(exc.value) is MalformedDataError and str(exc.value) == "multiplicities must be nonnegative"
    assert dict(cohomology._rows(entry)) == before


def test_build_table_refuses_a_reversed_window_before_any_chern_or_memo_work(monkeypatch):
    """``tmin > tmax`` is refused with the descriptor checks: no Chern data is built and the
    entry's memo is not read."""
    entry = catalog.flag3()
    chern_calls, reads = [], []

    def counted(summands):
        chern_calls.append(summands)
        raise AssertionError("a reversed window built Chern data")

    class Watched(cohomology._LineBundleRows):
        def __getitem__(self, coords):
            reads.append(coords)
            return super().__getitem__(coords)

    monkeypatch.setattr(rr, "chern_of_line_bundle_sum", counted)
    monkeypatch.setitem(cohomology._ROWS, entry, Watched(entry))
    with pytest.raises(MalformedDataError) as exc:
        build_table(entry, (1, 1), (2, 0))
    assert type(exc.value) is MalformedDataError and str(exc.value) == "window (2, 0) has tmin > tmax"
    assert chern_calls == [] and reads == []


def test_cohomology_errors_are_typed_and_keep_their_messages():
    """Malformed values raise ``MalformedDataError``, engine parameters outside the catalog
    ``UnknownVarietyError`` and Bott's p out of range ``UnsupportedBundleError``; all are
    ``ValueError``s.  A table is refused where it is built: an unknown variety, a rank below 1,
    rows that are not ``(h^0, ..., h^n)`` on its variety and Chern data of another rank; fields
    of the wrong type are refused there too (``test_a_table_refuses_fields_of_the_wrong_type``)."""
    rank_two = build_table(catalog.projective_space(3), [((0,), 2)], (0, 0))
    cases = [
        (lambda: CohVector((1, -1)), MalformedDataError, "negative cohomology dimension in (1, -1)"),
        (lambda: CohVector(("a", 0)), MalformedDataError, "cohomology dimensions must be ints, got ('a', 0)"),
        # a list would make the table unhashable
        (lambda: CohVector([1, 0, 0, 0]), MalformedDataError,
         "cohomology dimensions must be a tuple, got [1, 0, 0, 0]"),
        (lambda: CohVector((1,)) + CohVector((1, 0)), MalformedDataError, "cohomology vectors of different lengths"),
        (lambda: CohVector((1,)).scale(-1), MalformedDataError, "multiplicities must be nonnegative"),
        (lambda: CohomologyTable("projective_space(2)", 1, 0, ()), MalformedDataError, "empty window"),
        (lambda: CohomologyTable("projective_space(3)", 1, -4, ((1, 0),) * 5), MalformedDataError,
         "rows on projective_space(3) must list h^0, ..., h^3"),
        (lambda: CohomologyTable("no_such_variety", 1, 0, ((1, 0),)), UnknownVarietyError,
         "unknown variety key 'no_such_variety'"),
        (lambda: CohomologyTable("projective_space(3)", 0, 0, ((1, 0, 0, 0),)), MalformedDataError,
         "rank must be positive"),
        (lambda: CohomologyTable("projective_space(3)", 1, 0, ((1, 0, 0, 0),), rank_two.chern),
         MalformedDataError, "the chern block's rank 2 is not the table's rank 1"),
        (lambda: coh_projective_space(0, 1), UnknownVarietyError, "n >= 1"),
        (lambda: coh_quadric(1, 1), UnknownVarietyError, "n >= 2"),
        (lambda: coh_product([]), UnknownVarietyError, "at least one factor"),
        (lambda: coh_product([(0, 1)]), UnknownVarietyError, "n >= 1"),
        (lambda: coh_scroll_p1((1,), 0, 0), UnknownVarietyError, "need >= 2 split degrees, all >= 1"),
        (lambda: coh_curve(-1, 0), UnknownVarietyError, "genus >= 0"),
        (lambda: coh_curve_theta_shift(2, 0, 1), UnknownVarietyError, "polarization degree >= 1"),
        (lambda: cohomology.coh_cyclic_fano_index1(2, 0), UnknownVarietyError, "prime Fano 3-folds have genus >= 3"),
        (lambda: bott_pn(3, 4, 0), UnsupportedBundleError, "0 <= p <= n"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message
        assert isinstance(exc.value, ValueError)


P3_ROW = (1, 0, 0, 0)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(dims=(CohVector(P3_ROW),)), "dims must be a tuple of int tuples, one per twist"),
        (dict(dims=[P3_ROW]), "dims must be a tuple of int tuples, one per twist"),
        (dict(dims=([1, 0, 0, 0],)), "dims must be a tuple of int tuples, one per twist"),
        (dict(rank=True), "rank and tmin must be ints, got True and 0"),
        (dict(tmin=-3.0), "rank and tmin must be ints, got 1 and -3.0"),
        (dict(assumptions="ab"), "assumptions must be a tuple of strings, got 'ab'"),
        (dict(assumptions=(1,)), "assumptions must be a tuple of strings, got (1,)"),
        (dict(dims=(P3_ROW, (1.5, 0, 0, 0))), "cohomology dimensions on projective_space(3) must be ints"),
        (dict(dims=((True, 0, 0, 0),)), "cohomology dimensions on projective_space(3) must be ints"),
        (dict(dims=(P3_ROW, (1, 0, -1, 0), (0, -2, 0, 0))), "negative cohomology dimension in (1, 0, -1, 0)"),
        (dict(variety_id=3), "the variety must be a catalog id string, not 3"),
        (dict(variety_id=["projective_space(3)"]),
         "the variety must be a catalog id string, not ['projective_space(3)']"),
        (dict(chern="c1"), "the chern block must be ChernData or None, got 'c1'"),
    ],
)
def test_a_table_refuses_fields_of_the_wrong_type(fields, message):
    """Each field is checked where the table is built, so no table reaches a check or JSON
    with vectors or lists as rows, float, bool or negative dimensions, a bool rank, a float
    window, a string split into assumptions, a variety id that is not a string or Chern data
    that are not ``ChernData``."""
    args = dict(variety_id="projective_space(3)", rank=1, tmin=0, dims=(P3_ROW,)) | fields
    with pytest.raises(MalformedDataError) as exc:
        CohomologyTable(**args)
    assert str(exc.value) == message


def test_a_table_refuses_chern_data_of_another_variety():
    """Chern data on another ring are refused where the table is built, in ``rr.chi_twisted``'s
    words, so no table writes JSON that its own reader refuses."""
    flag = build_table(catalog.flag3(), [((1, 0), 1), ((0, 1), 1)], (-3, 0))
    with pytest.raises(VarietyMismatchError) as exc:
        CohomologyTable("projective_space(3)", 2, -3, flag.dims, chern=flag.chern)
    assert str(exc.value) == "Chern data on 'flag3' does not live on 'projective_space(3)'"
    with pytest.raises(VarietyMismatchError) as chi_exc:
        rr.chi_twisted(catalog.projective_space(3), flag.chern, 0)
    assert str(chi_exc.value) == str(exc.value)
    assert CohomologyTable.from_json(flag.to_json()) == flag


def test_window_error_names_missing_twists():
    entry = catalog.projective_space(3)
    table = build_table(entry, (0,), (-2, 0))
    with pytest.raises(WindowError) as exc:
        table.row(-4)
    assert exc.value.missing == (-4,)
    assert table.row(-2) == table.rows[0] and table.row(0) == table.rows[-1]
    for t in (-3, 1):
        with pytest.raises(WindowError, match=rf"^table window \[-2, 0\] is missing twists \[{t}\]$") as exc:
            table.row(t)
        assert exc.value.missing == (t,)
    table.require(-2, 0)
    with pytest.raises(WindowError, match=r"^table window \[-2, 0\] is missing twists \[-4, -3, 1\]$") as exc:
        table.require(-4, 1)
    assert exc.value.missing == (-4, -3, 1)


def test_scroll_generic_gives_window_only():
    entry = catalog.scroll_generic(3, 1, 4)
    assert line_bundle_cohomology(entry, (-1, 3)).is_zero()
    with pytest.raises(UnsupportedBundleError):
        line_bundle_cohomology(entry, (0, 3))


def test_table_json_roundtrip():
    entry = catalog.flag3()
    table = build_table(entry, [((-1, 3), 1), ((0, 2), 2)], (-3, 1))
    again = CohomologyTable.from_json(table.to_json())
    assert again == table


ROUND_TRIPS = [
    (catalog.scroll_p1((1, 1, 2)), [((0, 1), 1), ((-1, 0), 2)], (-4, 1), False),
    (catalog.scroll_generic(3, 2, 5), (0, 1), (-2, -1), False),
    (catalog.curve(2, 3, "generic"), (2,), (-2, 1), False),
    (catalog.curve(2, 3, "generic"), (1,), (-2, 1), True),
    (catalog.curve(0, 2, "exact_p1"), (1,), (-2, 1), False),
    (catalog.projective_space(3, u=2), (1,), (-4, 1), False),
    (catalog.quadric(4, u=2), [((0,), 1), ((1,), 1)], (-5, 1), False),
    (catalog.prime_fano(5), (1,), (-4, 1), False),
]


@pytest.mark.parametrize(
    "entry, bundles, window, theta",
    ROUND_TRIPS,
    ids=[e.variety_id + ("-theta" if theta else "") for e, _, _, theta in ROUND_TRIPS],
)
def test_table_json_roundtrip_on_entry_ids(entry, bundles, window, theta):
    """Entry ids that are not ring ids resolve to the entry's ring."""
    table = build_table(entry, theta_bundles(entry, bundles) if theta else bundles, window)
    data = json.loads(json.dumps(table.to_json()))
    again = CohomologyTable.from_json(data)
    assert again.to_json() == table.to_json()
    assert again == table


#: the table_io families: split scrolls of 2-6 split degrees, P^4, Q^4 and two curve models
TABLE_IO_ENTRIES = [
    catalog.scroll_p1((1, 2)),
    catalog.scroll_p1((1, 1, 2)),
    catalog.scroll_p1((1, 2, 2, 3)),
    catalog.scroll_p1((1, 1, 2, 3, 3)),
    catalog.scroll_p1((1, 1, 1, 2, 2, 3)),
    catalog.projective_space(4),
    catalog.quadric(4),
    catalog.curve(0, 2, "exact_p1"),
    catalog.curve(2, 3, "generic"),
]


def table_io_bundles(entry):
    """One summand of multiplicity 1 or 2 at each coordinate tuple in [-1, 1], then each pair of
    distinct tuples with a multiplicity pair from 0-2 taken in turn, total rank at least 1."""
    coords = list(itertools.product((-1, 0, 1), repeat=entry.picard_rank()))
    singles = [[(c, m)] for c in coords for m in (1, 2)]
    mults = itertools.cycle([(0, 1), (1, 1), (2, 1), (1, 0), (1, 2), (2, 2), (0, 2), (2, 0)])
    pairs = [[(a, ma), (b, mb)] for (a, b), (ma, mb) in zip(itertools.combinations(coords, 2), mults)]
    return singles + pairs


#: SHA-256 of each grid table's JSON, its verdict's JSON and the JSON of its round trip
TABLE_IO_SHA256 = "62b3d3b4b7df54f3ba6dd2def3b637733f43cab5c980e71b6f80e0fddf354c3d"


def test_table_io_tables_are_byte_identical_to_their_golden():
    """Tables on the table_io families over the windows (-n - w, w), w in {0, 6, 9}: each table's
    JSON, its verdict's JSON and the JSON of the table read back from its serialized JSON."""
    out = []
    for entry in TABLE_IO_ENTRIES:
        n = entry.dimension
        for w in (0, 6, 9):
            for bundles in table_io_bundles(entry):
                table = build_table(entry, bundles, (-n - w, w))
                again = CohomologyTable.from_json(json.loads(json.dumps(table.to_json())))
                out.append([table.to_json(), instanton.check_instanton(table).to_json(), again.to_json()])
    assert len(out) == 918
    blob = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == TABLE_IO_SHA256


@given(st.lists(st.integers(0, 9), min_size=2, max_size=6))
def test_serre_dual_vector_involution(dims):
    v = CohVector(tuple(dims))
    assert serre_dual_vector(serre_dual_vector(v)) == v


ENGINE_RR_ENTRIES = [
    catalog.projective_space(2),
    catalog.projective_space(3),
    catalog.quadric(3),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 1, 2)),
    catalog.curve(0, 1, "exact_p1"),
    catalog.curve(3, 2, "generic"),
]


@pytest.mark.parametrize("entry", ENGINE_RR_ENTRIES, ids=lambda e: e.variety_id)
def test_single_entry_rows_match_chi(entry):
    """When a row has at most one nonzero entry it is pinned by the alternating sum."""
    from instanton_lab import rr

    rank = entry.picard_rank()
    for coords in itertools.product(range(-3, 4), repeat=rank):
        table = build_table(entry, coords, (-2, 2))
        for t in table.twists():
            row = table.row(t)
            support = row.support()
            if len(support) == 1 and entry.dimension <= 3:
                chi = rr.chi_twisted(entry, table.chern, t)
                (i,) = support
                assert row[i] == (-1) ** i * chi, (entry.variety_id, coords, t)


#: one sample entry per catalog constructor
CONSTRUCTED = {
    "projective_space": catalog.projective_space(3, u=2),
    "quadric": catalog.quadric(3),
    "flag3": catalog.flag3(),
    "triple_p1": catalog.triple_p1(),
    "scroll_p1": catalog.scroll_p1((1, 2)),
    "scroll_generic": catalog.scroll_generic(3, 1, 4),
    "curve": catalog.curve(2, 3),
    "prime_fano": catalog.prime_fano(5),
}


def test_every_constructed_kind_has_an_engine():
    constructors = {
        name for name, fn in vars(catalog).items()
        if callable(fn) and getattr(fn, "__annotations__", {}).get("return") == "VarietyCatalogEntry"
    } - {"parse_variety"}
    assert constructors == set(CONSTRUCTED)
    assert {entry.kind for entry in CONSTRUCTED.values()} == set(cohomology.ENGINES)


#: each kind's engine called with the family's own arguments
DIRECT = {
    "projective_space": lambda e, c: coh_projective_space(e.dimension, c[0]),
    "quadric": lambda e, c: coh_quadric(e.dimension, c[0]),
    "flag3": lambda e, c: coh_flag3(c[0], c[1]),
    "triple_p1": lambda e, c: coh_product([(1, a) for a in c]),
    "scroll_p1": lambda e, c: coh_scroll_p1(e.degrees, c[0], c[1]),
    "scroll_generic": lambda e, c: CohVector((0,) * (e.dimension + 1)),
    "curve": lambda e, c: coh_curve(e.genus, c[0]),
    "prime_fano": lambda e, c: cohomology.coh_cyclic_fano_index1(e.genus, c[0]),
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCTED))
def test_line_bundle_cohomology_is_the_kinds_engine(kind):
    entry = CONSTRUCTED[kind]
    engine = cohomology.ENGINES[kind]
    for coords in itertools.product(range(-5, 6), repeat=entry.picard_rank()):
        if kind == "scroll_generic" and not 1 - entry.dimension <= coords[0] <= -1:
            for call in (line_bundle_cohomology, engine):
                with pytest.raises(UnsupportedBundleError, match="vanishing window"):
                    call(entry, coords)
            continue
        vec = line_bundle_cohomology(entry, list(coords))
        assert vec == engine(entry, coords) == DIRECT[kind](entry, coords), coords


#: the public engine each kind's memo miss calls, by its module-global name
ENGINE_NAMES = {
    "projective_space": "coh_projective_space",
    "quadric": "coh_quadric",
    "flag3": "coh_flag3",
    "triple_p1": "coh_product",
    "scroll_p1": "coh_scroll_p1",
    "curve": "coh_curve",
    "prime_fano": "coh_cyclic_fano_index1",
}


def test_a_memo_miss_calls_the_kinds_public_engine(monkeypatch):
    """Per-engine tracing wraps these module globals, so a miss must reach them by name."""
    assert set(ENGINE_NAMES) == set(cohomology.ENGINES) - {"scroll_generic"}
    calls = []

    def counting(name, engine):
        def counted(*args):
            calls.append(name)
            return engine(*args)
        return counted

    for name in ENGINE_NAMES.values():
        monkeypatch.setattr(cohomology, name, counting(name, getattr(cohomology, name)))
    monkeypatch.setattr(cohomology, "_ROWS", {})
    for kind, name in ENGINE_NAMES.items():
        entry, coords = CONSTRUCTED[kind], (1,) * CONSTRUCTED[kind].picard_rank()
        calls.clear()
        vec = line_bundle_cohomology(entry, coords)
        assert calls == [name], kind
        assert line_bundle_cohomology(entry, coords) == vec and calls == [name], kind


def test_dispatch_rejects_theta_off_curves_and_unknown_kinds(rebuild):
    for entry in CONSTRUCTED.values():
        if entry.kind != "curve":
            with pytest.raises(UnsupportedBundleError, match="theta twists only exist on curve entries"):
                catalog.theta_coords(entry, 0)
    unknown = rebuild(catalog.projective_space(2), kind="mystery")
    with pytest.raises(UnsupportedBundleError, match="^no engine for mystery$"):
        line_bundle_cohomology(unknown, (1,))
    with pytest.raises(UnsupportedBundleError, match="^no engine for mystery$"):
        build_table(unknown, (1,), (-1, 1))


def test_memo_holds_the_engines_values_after_scans_and_tables():
    """Scans and tables share one memo per entry; every vector it stores is the
    family's engine called directly, so the table-route oracles stay anchored."""
    flag, segre = catalog.flag3(), catalog.triple_p1()
    for defect in (0, 1):
        classify.classify_lines(flag, 8, defect)
        classify.classify_lines(segre, 8, defect)
    tables = {
        catalog.projective_space(4): [((1,), 1), ((-2,), 2)],
        catalog.quadric(4): [((0,), 1), ((-1,), 1)],
        catalog.curve(2, 3): [((1,), 2), ((-4,), 1)],
    }
    for entry, bundles in tables.items():
        build_table(entry, bundles, (-8, 6))
    for entry in (flag, segre, *tables):
        rows = cohomology._rows(entry)
        assert rows
        for coords, vec in rows.items():
            assert vec == DIRECT[entry.kind](entry, coords), (entry.variety_id, coords)
    for entry, bundles in tables.items():
        for coords, _ in bundles:
            assert {catalog.twist_coords(entry, coords, t) for t in range(-8, 7)} <= set(cohomology._rows(entry))


def test_unequal_entries_keep_their_own_memo(rebuild):
    p2 = catalog.projective_space(2)
    assert line_bundle_cohomology(p2, (1,)).dims == (3, 0, 0)
    assert cohomology._rows(p2)[(1,)].dims == (3, 0, 0)
    unknown = rebuild(p2, kind="mystery")
    with pytest.raises(UnsupportedBundleError, match="^no engine for mystery$"):
        line_bundle_cohomology(unknown, (1,))
    with pytest.raises(UnsupportedBundleError, match="^no engine for mystery$"):
        build_table(unknown, (1,), (-1, 1))
    assert not cohomology._rows(unknown)


def test_a_raising_engine_stores_nothing():
    entry = catalog.scroll_generic(3, 1, 4)
    for _ in range(2):
        with pytest.raises(UnsupportedBundleError, match="vanishing window"):
            line_bundle_cohomology(entry, (0, 1))
    assert (0, 1) not in cohomology._rows(entry)
    assert line_bundle_cohomology(entry, (-1, 1)).is_zero()
    rows = cohomology._rows(entry)
    assert (-1, 1) in rows and all(1 - entry.dimension <= t <= -1 for t, _ in rows)


def test_binom_matches_the_product_form():
    for m in range(-30, 61):
        for k in range(-3, 41):
            product = 0 if k < 0 else math.prod(range(m - k + 1, m + 1)) // math.factorial(k)
            assert binom(m, k) == product, (m, k)
