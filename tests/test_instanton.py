from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from instanton_lab import catalog, instanton, replays, rr
from instanton_lab.cohomology import CohomologyTable, CohVector, build_table
from instanton_lab.errors import (
    InfeasibleError,
    MalformedDataError,
    UnknownVarietyError,
    UnsupportedBundleError,
    VarietyMismatchError,
    WindowError,
)
from instanton_lab.instanton import check_instanton, natural_cohomology_window
from instanton_lab.monads import rank_from_chi
from instanton_lab.replays import (
    BettiShape,
    betti_shape_check,
    chi_polynomial,
    direct_sum,
    horrocks_gate,
    pushforward_model,
    regularity_report,
    restriction_transform,
    ulrich_dual_table,
    veronese_quantum,
)
from test_cohomology import TABLE_IO_ENTRIES, table_io_bundles


def flag_table(a1, a2, window=(-4, 1)):
    return build_table(catalog.flag3(), (a1, a2), window)


def triple_table(coords, window=(-4, 1)):
    return build_table(catalog.triple_p1(), coords, window)


def test_check_instanton_triple_example():
    verdict = check_instanton(triple_table((-1, 1, 3)))
    assert verdict.admissible == ((0, 3),)
    assert not verdict.is_ulrich and verdict.natural_window


def test_check_instanton_p3_structure_sheaf():
    table = build_table(catalog.projective_space(3), (0,), (-3, 0))
    verdict = check_instanton(table)
    assert verdict.admissible == ((0, 0),)
    assert verdict.is_ulrich and verdict.is_wic


def test_check_instanton_quadric_structure_sheaf():
    table = build_table(catalog.quadric(3), (0,), (-3, 0))
    verdict = check_instanton(table)
    assert verdict.admissible == ((1, 0),)
    assert not verdict.is_ulrich and verdict.is_wic


def test_check_instanton_window_error():
    table = build_table(catalog.projective_space(3), (0,), (-2, 0))
    with pytest.raises(WindowError) as exc:
        check_instanton(table)
    assert exc.value.missing == (-3,)


def test_check_instanton_notes_failures():
    table = build_table(catalog.projective_space(3), (1,), (-3, 0))
    verdict = check_instanton(table)
    assert not verdict.admissible
    assert any("h^0" in note for note in verdict.notes)


def test_curve_theta_family():
    entry = catalog.curve(2, 2, "generic")
    theta = catalog.theta_coords
    table = build_table(entry, [(theta(entry, 1), 1), (theta(entry, 0), 1)], (-1, 0))
    verdict = check_instanton(table)
    assert verdict.admissible == ((1, 2),)
    # the ordinary curve instanton is the Ulrich twist family
    table0 = build_table(entry, [(theta(entry, 1), 3)], (-1, 0))
    assert check_instanton(table0).admissible == ((0, 0),)


def test_natural_cohomology_window():
    assert natural_cohomology_window(triple_table((0, 1, 2)), 0)
    assert natural_cohomology_window(triple_table((-1, 1, 3)), 0)
    bad = CohomologyTable("projective_space(3)", 1, -3, ((1, 1, 0, 0),) * 4)
    assert not natural_cohomology_window(bad, 0)


def test_chi_polynomial_branches():
    # q = -chi(E(-h)) on P^3
    for q in range(0, 5):
        for chi0 in range(-3, 4):
            assert chi_polynomial(3, 0, q, chi0, -1) == -q
    # the (2,1) branch
    for q in range(0, 4):
        for chi0 in range(-2, 3):
            for t in range(-4, 4):
                assert chi_polynomial(2, 1, q, chi0, t) == (chi0 + q) * (t + 1) ** 2 - q
    # curves
    for chi0 in range(-3, 4):
        for t in range(-4, 4):
            assert chi_polynomial(1, 0, 0, chi0, t) == chi0 * (t + 1)
            assert chi_polynomial(1, 1, 0, chi0, t) == chi0 * (2 * t + 1)


def test_chi_polynomial_defect_symmetry():
    """For defect 1 the formula forces chi(E) = (-1)^n chi(E(-n h))."""
    for n in (2, 3, 4, 5):
        for q in range(0, 4):
            for chi0 in range(-4, 5):
                assert chi_polynomial(n, 1, q, chi0, 0) == (-1) ** n * chi_polynomial(
                    n, 1, q, chi0, -n
                )


def test_rank_from_chi():
    assert rank_from_chi(3, 0, 0, 7) == 7
    for q in range(0, 5):
        assert rank_from_chi(3, 0, q, 2 - 2 * q) == 2
    assert rank_from_chi(2, 1, 3, 1) == 2 + 6
    assert rank_from_chi(4, 1, 1, 0) == 8


def test_restriction_transform():
    r = restriction_transform(4, 0, 5)
    assert (r.defect, r.quantum) == (0, 5) and not r.extension_valid
    r = restriction_transform(3, 1, 5)
    assert (r.defect, r.quantum) == (1, 10)
    r = restriction_transform(3, 0, 0)
    assert (r.defect, r.quantum) == (0, 0)
    assert restriction_transform(5, 1, 2).extension_valid
    with pytest.raises(ValueError):
        restriction_transform(2, 0, 1)


def test_pushforward_preserves_verdict():
    fl_table = flag_table(-1, 3)
    pushed = pushforward_model(fl_table, 6)
    assert pushed.rank == 6
    assert pushed.variety_id == "projective_space(3)"
    assert check_instanton(pushed).admissible == check_instanton(fl_table).admissible


def test_pushforward_identity_at_degree_one():
    table = build_table(catalog.projective_space(3), (0,), (-3, 0))
    assert pushforward_model(table, 1).rows == table.rows


def test_direct_sum_adds_quanta():
    t1, t2 = triple_table((-1, 1, 3)), triple_table((-2, 1, 4))
    q1 = check_instanton(t1).quantum(0)
    q2 = check_instanton(t2).quantum(0)
    total = check_instanton(direct_sum(t1, t2))
    assert total.quantum(0) == q1 + q2
    # Ulrich (+) Ulrich is Ulrich
    u = direct_sum(triple_table((0, 1, 2)), triple_table((1, 0, 2)))
    assert check_instanton(u).is_ulrich


def test_direct_sum_with_zero_window_mismatch():
    t1 = triple_table((-1, 1, 3), window=(-4, 0))
    t2 = triple_table((0, 1, 2), window=(-4, 0))
    s = direct_sum(t1, t2)
    assert s.tmin == -4 and s.tmax == 0 and s.rank == 2
    with pytest.raises(Exception):
        direct_sum(t1, build_table(catalog.projective_space(3), (0,), (-4, 0)))


WHITNEY_SUMS = [
    (catalog.flag3(), [((-1, 3), 1)], [((0, 2), 2), ((1, -1), 1)]),
    (catalog.triple_p1(), [((-1, 1, 3), 2)], [((0, 1, 2), 1)]),
    (catalog.scroll_p1((1, 1, 2)), [((0, 1), 1)], [((-1, 2), 1), ((1, -1), 1)]),
    (catalog.scroll_p1((1, 2, 3, 3)), [((1, -2), 1), ((0, 1), 1)], [((-1, 3), 2)]),
]


@pytest.mark.parametrize("entry, b1, b2", WHITNEY_SUMS, ids=[e.variety_id for e, _, _ in WHITNEY_SUMS])
def test_direct_sum_chern_is_whitney(entry, b1, b2):
    w = (-entry.dimension - 1, 1)
    summed = direct_sum(build_table(entry, b1, w), build_table(entry, b2, w))
    assert summed.chern.to_json() == build_table(entry, b1 + b2, w).chern.to_json()


def test_ulrich_dual_table_p3_self_dual():
    table = build_table(catalog.projective_space(3), (0,), (-5, 1))
    dualized = ulrich_dual_table(table, catalog.projective_space(3), 0)
    for t in dualized.twists():
        assert dualized.row(t) == table.row(t)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_ulrich_dual_flag_family(a):
    entry = catalog.flag3()
    table = build_table(entry, (-a, a + 2), (-5, 1))
    dualized = ulrich_dual_table(table, entry, 0)
    # the Ulrich dual of L_a is the swap L_a with rulings exchanged: same rows
    for t in dualized.twists():
        assert dualized.row(t) == table.row(t)
    assert check_instanton(dualized).admissible == check_instanton(table).admissible
    # chern transform matches the swapped line bundle
    expected = build_table(entry, (a + 2, -a), (0, 0)).chern
    assert dualized.chern.c1 == expected.c1


def test_ulrich_dual_table_refuses_another_variety():
    """The entry must be the table's own variety, not one of the same dimension; on its own
    variety the Chern data are dualized whenever the table has them."""
    table = build_table(catalog.flag3(), (-1, 3), (-4, 0))
    with pytest.raises(VarietyMismatchError, match=r"^table on 'flag3' does not live on 'triple_p1'$"):
        ulrich_dual_table(table, catalog.triple_p1(), 0)
    for entry, coords in ((catalog.flag3(), (-1, 3)), (catalog.projective_space(3, u=2), (1,))):
        table = build_table(entry, coords, (-4, 0))
        for defect in (0, 1):
            dualized = ulrich_dual_table(table, entry, defect)
            assert dualized.chern == rr.ulrich_dual_chern(entry, table.chern, defect)
        bare = build_table(entry, coords, (-4, 0), with_chern=False)
        assert ulrich_dual_table(bare, entry, 0).chern is None


def test_ulrich_dual_involution():
    entry = catalog.triple_p1()
    for defect in (0, 1):
        table = build_table(entry, (-1, 1, 3), (-6, 2))
        twice = ulrich_dual_table(ulrich_dual_table(table, entry, defect), entry, defect)
        for t in twice.twists():
            assert twice.row(t) == table.row(t)


def test_regularity_report_ulrich():
    table = build_table(catalog.projective_space(3), (0,), (-3, 1))
    rep = regularity_report(table, 0)
    assert rep.w == 0
    assert not rep.violations and not rep.unverified
    assert rep.v == 0 and not rep.v_is_lower_bound


def test_regularity_report_triple_example():
    # w(E) = h^1(E(-h)) for an ordinary instanton: here the quantum number 3
    table = triple_table((-1, 1, 3), window=(-4, 3))
    rep = regularity_report(table, 0)
    assert rep.w == 3
    assert rep.v == 1  # O(0, 2, 4) is the first twist with sections
    assert not rep.violations and not rep.unverified


def test_regularity_report_flags_violation():
    dims = (
        (0, 1, 0, 0),
        (0, 1, 1, 0),  # h^2(E(-2h)) != 0 while w = 1+0 ... constructed
        (0, 1, 0, 0),
        (0, 1, 0, 0),
        (1, 1, 0, 0),
    )
    table = CohomologyTable("projective_space(3)", 1, -3, dims)
    rep = regularity_report(table, 0)
    assert rep.violations


def test_betti_shape_check():
    # the structure sheaf of P^3 in P^3: one generator in degree 0
    shape = BettiShape.from_dict(0, 0, 3, {(0, 0): 1})
    assert betti_shape_check(shape, lambda t: chi_polynomial(3, 0, 0, 1, t))
    # two-column natural-cohomology shape: O(-1) (+) O on P^2 in P^2;
    # chi(t) = C(t+2,2) + C(t+1,2) has resolution S(-1) + S <- S(-1)... use
    # the honest chi and a guessed two-column shape to exercise the probe
    shape_bad = BettiShape.from_dict(0, 0, 3, {(0, 1): 1})
    assert not betti_shape_check(shape_bad, lambda t: chi_polynomial(3, 0, 0, 1, t))
    outside = BettiShape.from_dict(0, 0, 3, {(0, 2): 1})
    assert not betti_shape_check(outside, lambda t: 0)


def test_betti_shape_two_column_instanton():
    """Natural cohomology restricts the columns to {v, v+1}.

    The classical rank-two member on P^3 with quantum number 1 has chi = 0,
    v = 1, w = 2, and its section module resolves linearly:
    0 -> S(-3) -> S(-2)^4 -> S(-1)^5 -> H^0_*(E) -> 0.  Solving the chi
    equations at t = 1..4 pins the Betti numbers (5, 4, 1) uniquely within
    the first column, and the alternating sum then matches chi at every
    probe twist.
    """
    q = 1
    chi0 = 2 - 2 * q

    def chi_oracle(t):
        return chi_polynomial(3, 0, q, chi0, t)

    shape = BettiShape.from_dict(1, 2, 3, {(0, 1): 5, (1, 1): 4, (2, 1): 1})
    assert betti_shape_check(shape, chi_oracle)
    # perturbing any multiplicity breaks the chi consistency
    wrong = BettiShape.from_dict(1, 2, 3, {(0, 1): 5, (1, 1): 3, (2, 1): 1})
    assert not betti_shape_check(wrong, chi_oracle)
    # a column outside [v, w] is rejected before the probe
    outside = BettiShape.from_dict(1, 2, 3, {(0, 1): 5, (1, 3): 4})
    assert not betti_shape_check(outside, chi_oracle)


def test_veronese_quantum():
    from fractions import Fraction

    for r in (1, 2, 3, 4):
        for d in (1, 3, 5):
            assert veronese_quantum(2, r, d, 1) == Fraction(r * (d * d - 1), 8)
    assert veronese_quantum(3, 2, 2, 2) == 2
    assert veronese_quantum(3, 2, 1, 5) == 0
    with pytest.raises(InfeasibleError):
        veronese_quantum(2, 2, 2, 1)  # (n+1)(d-1) = 3 odd
    with pytest.raises(ValueError):
        veronese_quantum(4, 2, 3, 1)
    # O(dh) must be ample, rank and h^n positive
    for rank, d, hn in ((2, -1, 1), (2, 0, 1), (-2, 3, 1), (0, 3, 1), (2, 3, 0)):
        with pytest.raises(ValueError):
            veronese_quantum(3, rank, d, hn)


def test_horrocks_gate():
    rep = horrocks_gate(5, 2, 1, 1, 0)
    assert rep.infeasible
    rep = horrocks_gate(6, 5, 1, 0, 0)
    assert rep.forced_ulrich
    rep = horrocks_gate(4, 100, 1, 3, 0)
    assert not (rep.forced_acm or rep.infeasible or rep.forced_ulrich)
    with pytest.raises(ValueError):
        horrocks_gate(3, 2, 1, 0, 0)


def test_quantum_equals_minus_chi_at_minus_one():
    """Natural cohomology pins q = -chi(E(-h)) = (-1)^(n-1) chi(E((defect-n)h))."""
    members = [
        (catalog.flag3(), (-2, 4), 0),
        (catalog.triple_p1(), (-1, 1, 3), 0),
        (catalog.flag3(), (-1, 2), 1),
        (catalog.quadric(3), (0,), 1),
    ]
    for entry, coords, defect in members:
        n = entry.dimension
        table = build_table(entry, coords, (-n, 0))
        verdict = check_instanton(table)
        q = verdict.quantum(defect)
        assert q is not None
        assert q == -table.chi_at(-1)
        assert q == (-1) ** (n - 1) * table.chi_at(defect - n)


def test_rank_from_chi_integral_on_catalog_members():
    members = [
        (catalog.flag3(), (-a, a + 2), 0) for a in range(0, 4)
    ] + [(catalog.triple_p1(), tuple(sorted((-a, 1, 2 + a))), 0) for a in range(0, 4)]
    for entry, coords, defect in members:
        table = build_table(entry, coords, (-3, 0))
        q = check_instanton(table).quantum(defect)
        rank = rank_from_chi(3, defect, q, table.chi_at(0))
        assert rank == table.rank * entry.hn()


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=20)
def test_direct_sum_quanta_property(a, b):
    entry = catalog.flag3()
    ta = build_table(entry, (-a, a + 2), (-3, 0))
    tb = build_table(entry, (-b, b + 2), (-3, 0))
    qa = check_instanton(ta).quantum(0)
    qb = check_instanton(tb).quantum(0)
    qs = check_instanton(direct_sum(ta, tb)).quantum(0)
    assert qs == qa + qb


def test_natural_cohomology_window_requires_shifts():
    table = build_table(catalog.triple_p1(), (-1, 1, 3), (-1, 0))
    with pytest.raises(WindowError):
        natural_cohomology_window(table, 0)


# Notes copied from the hand-written condition checker that preceded the
# condition list: (entry, coordinates, notes) on the window [-n, 0].
PINNED_NOTES = [
    (
        catalog.projective_space(3),
        (1,),
        (
            "delta=0: h^0(E(-1h)) = 1 != 0",
            "delta=1: h^0(E(-1h)) = 1 != 0",
            "delta=1: chi(E) = 4 != (-1)^3 chi(E(-3h)) = 0",
        ),
    ),
    (
        catalog.flag3(),
        (1, 1),
        (
            "delta=0: h^0(E(-1h)) = 1 != 0",
            "delta=0: h^3(E(-3h)) = 1 != 0",
            "delta=1: h^0(E(-1h)) = 1 != 0",
            "delta=1: chi(E) = 8 != (-1)^3 chi(E(-3h)) = 1",
        ),
    ),
    (
        catalog.flag3(),
        (-1, 3),
        (
            "delta=1: h^1(E(-h)) = 3 != h^2(E(-2h)) = 0",
            "delta=1: chi(E) = 0 != (-1)^3 chi(E(-3h)) = -3",
        ),
    ),
    (
        catalog.triple_p1(),
        (0, 0, 0),
        (
            "delta=0: h^3(E(-3h)) = 8 != 0",
            "delta=1: h^3(E(-2h)) = 1 != 0",
            "delta=1: chi(E) = 1 != (-1)^3 chi(E(-3h)) = 8",
        ),
    ),
    (
        catalog.curve(2, 4),
        (1,),
        (
            "delta=0: h^1(E(-1h)) = 4 != 0",
            "delta=0: h^1(E(-h)) = 4 != h^0(E(-1h)) = 0",
            "delta=1: h^1(E(-h)) = 4 != h^0(E(0h)) = 0",
            "delta=1: chi(E) = 0 != (-1)^1 chi(E(-1h)) = 4",
        ),
    ),
    (
        catalog.scroll_p1((1, 1, 1, 2)),
        (1, -3),
        (
            "delta=0: h^1(E(-h)) = 2 != h^3(E(-4h)) = 0",
            "delta=1: h^1(E(-h)) = 2 != h^3(E(-3h)) = 0",
            "delta=1: chi(E) = -3 != (-1)^4 chi(E(-4h)) = 0",
        ),
    ),
]


@pytest.mark.parametrize(
    "entry, coords, notes", PINNED_NOTES, ids=[f"{e.variety_id}{c}" for e, c, _ in PINNED_NOTES]
)
def test_check_instanton_notes_pinned(entry, coords, notes):
    n = entry.dimension
    verdict = check_instanton(build_table(entry, coords, (-n, 0), with_chern=False))
    assert verdict.notes == notes


def test_check_instanton_notes_pinned_every_condition_failing():
    """A 5-fold table that fails every condition, in list order."""
    dims = tuple(tuple(i + 1 - t for i in range(6)) for t in range(-5, 1))
    verdict = check_instanton(CohomologyTable("projective_space(5)", 1, -5, dims))
    assert verdict.notes == (
        "delta=0: h^0(E(-1h)) = 2 != 0",
        "delta=0: h^5(E(-5h)) = 11 != 0",
        "delta=0: h^1(E(-2h)) = 4 != 0",
        "delta=0: h^4(E(-4h)) = 9 != 0",
        "delta=0: h^2(E(-3h)) = 6 != 0",
        "delta=0: h^3(E(-3h)) = 7 != 0",
        "delta=0: h^3(E(-4h)) = 8 != 0",
        "delta=0: h^2(E(-2h)) = 5 != 0",
        "delta=0: h^1(E(-h)) = 3 != h^4(E(-5h)) = 10",
        "delta=1: h^0(E(-1h)) = 2 != 0",
        "delta=1: h^5(E(-4h)) = 10 != 0",
        "delta=1: h^1(E(-2h)) = 4 != 0",
        "delta=1: h^4(E(-3h)) = 8 != 0",
        "delta=1: h^2(E(-3h)) = 6 != 0",
        "delta=1: h^3(E(-2h)) = 6 != 0",
        "delta=1: h^3(E(-4h)) = 8 != 0",
        "delta=1: h^2(E(-1h)) = 4 != 0",
        "delta=1: h^2(E(-2h)) = 5 != 0",
        "delta=1: h^3(E(-3h)) = 7 != 0",
        "delta=1: h^1(E(-h)) = 3 != h^4(E(-4h)) = 9",
        "delta=1: chi(E) = -3 != (-1)^5 chi(E(-5h)) = 3",
    )


def test_condition_list_order():
    assert instanton.InstantonConditions(3, 0).checks == (
        ("zero", 0, -1), ("zero", 3, -3), ("zero", 1, -2), ("zero", 2, -2), ("q", 2, -3),
    )
    assert instanton.InstantonConditions(4, 1).checks == (
        ("zero", 0, -1), ("zero", 4, -3), ("zero", 1, -2), ("zero", 3, -2),
        ("zero", 2, -3), ("zero", 2, -1), ("zero", 2, -2), ("q", 3, -3), ("chi", 4, -4),
    )
    for n in range(1, 8):
        for defect in (0, 1):
            assert all(-n <= t <= 0 for _, _, t in instanton.InstantonConditions(n, defect).checks)
    with pytest.raises(ValueError):
        instanton.InstantonConditions(3, 2)


@pytest.mark.parametrize("n, defect", [(3.0, 0), (3, True), (3, 1.0), (True, 0), ("3", 0)])
def test_condition_lists_need_int_fields(n, defect):
    """A bool or float n or defect is refused by name, through the shared lists too, even
    once the list of the equal int pair is shared."""
    for shared in [(3, 0), (3, 1), (1, 0)]:
        instanton._conditions(*shared)
    for build in (instanton.InstantonConditions, instanton._conditions):
        with pytest.raises(MalformedDataError, match="^n and the defect must be ints, got "):
            build(n, defect)


def test_condition_list_stops_at_the_first_failure():
    """``sift`` reads a candidate's rows only up to its first failing condition."""
    p3 = catalog.projective_space(3)
    tables = {
        "O(1)": build_table(p3, (1,), (-3, 0)),  # fails h^0(E(-h)) = 0, the first check
        "O": build_table(p3, (0,), (-3, 0)),  # Ulrich
        "O(-1)": build_table(p3, (-1,), (-3, 0)),  # fails h^3(E(-3h)) = 0, the second check
    }
    read = []

    def row_of(name):
        def row(t):
            read.append((name, t))
            return tables[name].row(t)

        return row

    names = list(tables)

    def column_of(t, survivors):
        indices = range(len(names)) if survivors is None else survivors
        return [row_of(names[k])(t) for k in indices]

    conditions = instanton.InstantonConditions(3, 0)
    members, columns, rejected = conditions.sift(len(names), column_of)
    assert [names[k] for k in members] == ["O"]
    assert rejected == (1, 1, 0, 0, 0)
    assert [t for name, t in read if name == "O(1)"] == [-1]
    assert [t for name, t in read if name == "O(-1)"] == [-1, -3]
    # each twist is read once, by the first check that needs it, and kept
    assert [t for name, t in read if name == "O"] == [-1, -3, -2]
    assert columns == {t: [tables["O"].row(t)] for t in (-1, -3, -2)}
    # one pass per check: every read of a check precedes the reads of the next
    assert read[:3] == [("O(1)", -1), ("O", -1), ("O(-1)", -1)]
    assert conditions.sift(0, lambda t, survivors: ()) == (range(0), {-1: [], -3: [], -2: []}, (0, 0, 0, 0, 0))


def test_a_verdict_reads_one_flat_window(monkeypatch):
    """``check_instanton`` makes no ``CohVector`` and calls no ``InstantonConditions.passes``: it
    reads the rows of [-n, 0] once, as one flat tuple, through :meth:`InstantonConditions.notes`."""
    tables = [build_table(catalog.projective_space(3), coords, (-5, 2)) for coords in [(0,), (1,), (2,), (-1,)]]
    expected = [check_instanton(table) for table in tables]
    calls = []
    init, passes = CohVector.__init__, instanton.InstantonConditions.passes

    def counted_init(self, dims):
        calls.append("init")
        init(self, dims)

    def counted_passes(check, column):
        calls.append("passes")
        return passes(check, column)

    monkeypatch.setattr(CohVector, "__init__", counted_init)
    monkeypatch.setattr(instanton.InstantonConditions, "passes", staticmethod(counted_passes))
    assert [check_instanton(table) for table in tables] == expected
    assert calls == []
    # every failing condition of each failing defect is noted, in list order
    assert expected[0].is_ulrich and expected[2].notes == (
        "delta=0: h^0(E(-1h)) = 4 != 0",
        "delta=1: h^0(E(-1h)) = 4 != 0",
        "delta=1: chi(E) = 10 != (-1)^3 chi(E(-3h)) = 0",
    )


THREEFOLDS = (
    catalog.projective_space(3),
    catalog.quadric(3),
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.scroll_p1((1, 1, 2)),
)


@st.composite
def line_bundle_sums(draw):
    """The table over [-3, 0] of a sum of one to three line bundles on a 3-fold.

    Coordinates in [-2, 3] reach members of every family here (O on P^3 and
    Q^3, O(-1, 3) on the flag, O(0, 1, 2) on P^1 x P^1 x P^1, O(0, 3) on the scroll).
    """
    entry = draw(st.sampled_from(THREEFOLDS))
    coords = st.tuples(*[st.integers(-2, 3)] * entry.picard_rank())
    summands = draw(st.lists(st.tuples(coords, st.integers(1, 2)), min_size=1, max_size=3))
    return build_table(entry, summands, (-3, 0))


def holds(check, table):
    """One condition read off the table by its definition."""
    kind, i, t = check
    if kind == "zero":
        return table.h(i, t) == 0
    if kind == "q":
        return table.h(1, -1) == table.h(i, t)
    return table.chi_at(0) == (-1) ** i * table.chi_at(t)


@given(st.lists(line_bundle_sums(), max_size=8), st.sampled_from((0, 1)))
@settings(max_examples=60, deadline=None)
def test_sift_keeps_exactly_the_sheaves_without_failures(tables, defect):
    conditions = instanton.InstantonConditions(3, defect)
    indices = range(len(tables))
    members, _, rejected = conditions.sift(
        len(tables), lambda t, survivors: [tables[k].row(t) for k in (indices if survivors is None else survivors)]
    )
    failing = [[c for c in conditions.checks if not holds(c, table)] for table in tables]
    notes = [conditions.notes(flat_window(table)) for table in tables]
    assert list(members) == [k for k, table_notes in enumerate(notes) if not table_notes]
    assert list(map(len, notes)) == list(map(len, failing))
    for table_notes, checks in zip(notes, failing):
        if checks:
            kind, i, t = checks[0]
            assert (f"chi(E({t}h))" if kind == "chi" else f"h^{i}(E({t}h))") in table_notes[0]
    firsts = [checks[0] for checks in failing if checks]
    assert rejected == tuple(firsts.count(check) for check in conditions.checks)


def flat_window(table):
    """The table's rows at ``-n, ..., 0`` as one flat tuple, the input of :meth:`InstantonConditions.notes`."""
    n = table.dimension
    return tuple(itertools.chain.from_iterable(table.row(t).dims for t in range(-n, 1)))


def failures_loop(conditions, row):
    """A note for each failing condition of one sheaf, in list order, from one
    :meth:`InstantonConditions.passes` call per condition over a one-sheaf column and reading the
    rows again for the note: the reference for :meth:`InstantonConditions.notes`."""
    passes, defect, column = conditions.passes, conditions.defect, lambda t: (row(t),)
    notes = []
    for check in conditions.checks:
        if passes(check, column)[0]:
            continue
        kind, i, t = check
        if kind == "zero":
            notes.append(f"delta={defect}: h^{i}(E({t}h)) = {row(t).dims[i]} != 0")
        elif kind == "q":
            notes.append(f"delta={defect}: h^1(E(-h)) = {row(-1).dims[1]} != h^{i}(E({t}h)) = {row(t).dims[i]}")
        else:
            chi, chi_t = row(0).chi(), (-1) ** i * row(t).chi()
            notes.append(f"delta={defect}: chi(E) = {chi} != (-1)^{i} chi(E({t}h)) = {chi_t}")
    return notes


def reference_natural(table, defect):
    """:func:`natural_cohomology_window` over ``table.row``: its reference."""
    n = table.dimension
    table.require(defect - n, -1)
    return all(len(row.dims) - row.dims.count(0) <= 1 for row in map(table.row, range(defect - n, 0)))


def reference_verdict(table):
    """:func:`check_instanton` with the failures loop and :func:`reference_natural` over
    ``table.row``: its reference."""
    n = table.dimension
    table.require(-n, 0)
    admissible, notes = [], []
    for defect in (0, 1):
        fails = failures_loop(instanton.InstantonConditions(n, defect), table.row)
        if fails:
            notes.extend(fails)
        else:
            admissible.append((defect, table.h(1, -1)))
    is_wic = any(
        n == 1 or q == 0 and (d == 0 or (table.h(1, 0) == 0 and table.h(n - 1, -n) == 0)) for d, q in admissible
    )
    defects = [d for d, _ in admissible] or [0]
    natural = all(reference_natural(table, d) for d in defects)
    return instanton.InstantonVerdict(tuple(admissible), (0, 0) in admissible, is_wic, natural, tuple(notes))


def arbitrary_table(draw, n, tmin, tmax, rank=1):
    """A table on P^n over ``[tmin, tmax]`` with arbitrary nonnegative rows, geometric or not:
    sparse ones, which pass many conditions, or dense ones."""
    size = (tmax - tmin + 1) * (n + 1)
    values = st.integers(0, 3) | st.integers(0, 10**30)
    if draw(st.booleans()):
        flat = [0] * size
        for k, v in draw(st.dictionaries(st.integers(0, size - 1), values, max_size=4)).items():
            flat[k] = v
    else:
        flat = draw(st.lists(values, min_size=size, max_size=size))
    dims = tuple(tuple(flat[k : k + n + 1]) for k in range(0, size, n + 1))
    return CohomologyTable(catalog.projective_space(n).variety_id, rank, tmin, dims)


@st.composite
def window_tables(draw):
    """An :func:`arbitrary_table` on P^n, n in 1-6, over a window from at or below -n to at or above 0."""
    n = draw(st.integers(1, 6))
    return arbitrary_table(draw, n, draw(st.integers(-n - 3, -n)), draw(st.integers(0, 3)))


@given(window_tables())
@settings(max_examples=300, deadline=None)
def test_check_instanton_is_the_failures_loop(table):
    assert check_instanton(table) == reference_verdict(table)


def test_check_instanton_is_the_failures_loop_on_the_table_io_grid():
    """Engine-built sums on the table_io families, over windows from -n - w to w."""
    checked = passed = 0
    for entry in TABLE_IO_ENTRIES:
        n = entry.dimension
        for w in (0, 3):
            for bundles in table_io_bundles(entry):
                table = build_table(entry, bundles, (-n - w, w), with_chern=False)
                verdict = check_instanton(table)
                assert verdict == reference_verdict(table), (entry.variety_id, bundles, w)
                checked, passed = checked + 1, passed + bool(verdict.admissible)
    assert checked == 612 and 0 < passed < checked


def test_verdict_invariants_are_typed():
    """A verdict refuses a negative quantum number and an Ulrich flag without the pair (0, 0)."""
    cases = [
        (((0, -1),), False, "quantum numbers are nonnegative"),
        (((1, 0),), True, "Ulrich verdicts must contain the pair (0, 0)"),
    ]
    for admissible, is_ulrich, message in cases:
        with pytest.raises(MalformedDataError) as exc:
            instanton.InstantonVerdict(admissible, is_ulrich, False, True, ())
        assert type(exc.value) is MalformedDataError and str(exc.value) == message


def test_regularity_report_past_a_window_without_sections():
    """With no sections in the window, v is the first twist past it and only a lower bound; the
    bound's twists the window misses are listed as unverified."""
    rep = regularity_report(build_table(catalog.projective_space(3), (0,), (-1, -1)), 0)
    assert (rep.v, rep.v_is_lower_bound, rep.w) == (0, True, 0)
    assert rep.violations == () and rep.unverified == (-2, -3) and not rep.regularity_confirmed


def test_stability_cases_mark_unlisted_failures():
    """Failures outside the listed exceptions, on inputs no cyclic n-fold realizes, read ``unlisted``."""
    below_the_index = replays.cyclic_rank2_stability_cases(3, 1, -10, 0)
    assert (below_the_index.semistable_guaranteed, below_the_index.exception_semistable) == (False, "unlisted")
    assert below_the_index.exception_stable is None
    index_two_surface = replays.cyclic_rank2_stability_cases(2, 1, -2, 1)
    assert (index_two_surface.semistable_guaranteed, index_two_surface.stable_guaranteed) == (True, False)
    assert (index_two_surface.exception_semistable, index_two_surface.exception_stable) == (None, "unlisted")


def test_replay_refusals_are_typed_and_keep_their_messages():
    p3, flag = catalog.projective_space(3), catalog.flag3()
    structure_sheaf = build_table(p3, (0,), (0, 1))
    genus0 = dict(z=1, defect=1, q_irr=0, h1_Oh=0, N=0)
    cases = [
        (UnsupportedBundleError, "n >= 1", lambda: chi_polynomial(0, 0, 0, 1, 0)),
        (MalformedDataError, "the degree h^n is positive", lambda: pushforward_model(structure_sheaf, 0)),
        (WindowError, "the table windows do not overlap",
         lambda: direct_sum(structure_sheaf, build_table(p3, (0,), (3, 4)))),
        (MalformedDataError, "Betti numbers are nonnegative", lambda: BettiShape.from_dict(0, 1, 3, {(0, 0): -1})),
        *((UnsupportedBundleError, "need n >= 2, u >= 1, defect in {0, 1}", call) for call in (
            lambda: replays.classify_cyclic_lines(1, 1, -2, 0),
            lambda: replays.cyclic_rank2_stability_cases(3, 0, -4, 0),
        )),
        (UnsupportedBundleError, "the criterion is specific to rank two",
         lambda: replays.hoppe_rank2(p3, rr.chern_of_line_bundle_sum([(p3.polarization, 1)]), 0)),
        (UnsupportedBundleError, "the criterion needs a cyclic entry",
         lambda: replays.hoppe_rank2(flag, rr.chern_of_line_bundle_sum([(flag.polarization, 2)]), 0)),
        (MalformedDataError, "defect and epsilon lie in {0, 1}", lambda: replays.fano_instanton_bridge(1, 2, 0)),
        (MalformedDataError, "defect in {0, 1}", lambda: replays.curve_quantum(2, 3, 2)),
        (UnsupportedBundleError, "the construction lives on scroll entries",
         lambda: replays.scroll_construction_report(catalog.flag3(), 1)),
        (UnsupportedBundleError, "the construction needs scroll dimension >= 3",
         lambda: replays.scroll_construction_report((1, 1), 1)),
        (MalformedDataError, "k >= 0", lambda: replays.scroll_construction_report((1, 1, 1), -1)),
        (InfeasibleError, "negative quantum number -1: infeasible input",
         lambda: replays.surface_quantum_formulas("genus0", genus0)),
        (UnsupportedBundleError, "unknown surface construction 'k3'",
         lambda: replays.surface_quantum_formulas("k3", {})),
        (UnknownVarietyError, "need g_X >= 3 and k >= 0", lambda: replays.prime_fano_family(2, 0)),
        (MalformedDataError, "s >= 0", lambda: replays.segre_stable_example(-1)),
    ]
    for error, message, call in cases:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message


#: sha256 of the decisions' reprs over the grid below, taken on the five-way case analysis
CYCLIC_GRID_DIGEST = "763e20d30bf1800a296eb22c741fada0007f9c52692a66687671ba55f9505e45"


def test_cyclic_decisions_over_a_grid_are_pinned():
    """Every ``classify_cyclic_lines`` decision on n in [2, 15], u in [1, 39], v in [-60, 59] and
    both defects, assertion, witness and steps, hashes to the digest the case analysis had before
    the section bound's unreachable branches were removed."""
    digest = hashlib.sha256()
    for n, u, v, defect in itertools.product(range(2, 16), range(1, 40), range(-60, 60), (0, 1)):
        digest.update(repr(replays.classify_cyclic_lines(n, u, v, defect)).encode())
    assert digest.hexdigest() == CYCLIC_GRID_DIGEST



def assert_refusals(cases):
    for error, message, call in cases:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message


def test_surface_quantum_formulas_name_the_invariant_they_miss():
    assert_refusals([
        (MalformedDataError, "the mukai construction needs the invariant 'deg_D'",
         lambda: replays.surface_quantum_formulas("mukai", {})),
        (MalformedDataError, "the mukai construction needs the invariant 'Kh'",
         lambda: replays.surface_quantum_formulas("mukai", dict(deg_D=3, chi_O=1, h2=1, defect=0))),
        (MalformedDataError, "the genus0 construction needs the invariant 'z'",
         lambda: replays.surface_quantum_formulas("genus0", {})),
        (MalformedDataError, "the genus0 construction needs the invariant 'N'",
         lambda: replays.surface_quantum_formulas("genus0", dict(z=7, defect=1, q_irr=2, h1_Oh=0))),
        (UnsupportedBundleError, "unknown surface construction 'k3'",
         lambda: replays.surface_quantum_formulas("k3", {"z": 1})),
    ])


def test_curve_quantum_refuses_a_rank_below_one():
    assert_refusals([
        (MalformedDataError, "rank >= 1", lambda: replays.curve_quantum(-2, 3, 1)),
        (MalformedDataError, "rank >= 1", lambda: replays.curve_quantum(0, 3, 0)),
        (MalformedDataError, "defect in {0, 1}", lambda: replays.curve_quantum(-2, 3, 2)),
    ])
    assert replays.curve_quantum(1, 4, 1) == 2


def test_curve_quantum_refuses_inputs_that_are_not_ints():
    """Rank, deg and defect are each refused when not an int, bools included, before any other check."""
    assert_refusals([
        (MalformedDataError, "the curve rank must be an int, got 2.5", lambda: replays.curve_quantum(2.5, 2, 0)),
        (MalformedDataError, "the curve rank must be an int, got True", lambda: replays.curve_quantum(True, 2, 1)),
        (MalformedDataError, "the curve deg must be an int, got 4.0", lambda: replays.curve_quantum(2, 4.0, 1)),
        (MalformedDataError, "the curve deg must be an int, got False", lambda: replays.curve_quantum(2, False, 0)),
        (MalformedDataError, "the curve defect must be an int, got True", lambda: replays.curve_quantum(2, 4, True)),
        (MalformedDataError, "the curve defect must be an int, got '1'", lambda: replays.curve_quantum(2, 4, "1")),
        (MalformedDataError, "the curve rank must be an int, got -1.0", lambda: replays.curve_quantum(-1.0, 3, 2)),
    ])
    assert [replays.curve_quantum(2, 4, 1), replays.curve_quantum(3, 5, 0)] == [4, 0]


def test_surface_quantum_formulas_refuse_invariants_that_are_not_ints():
    """Each invariant is typed after every key is found, and the refusal names it."""
    genus0 = dict(z=7, defect=1, q_irr=2, h1_Oh=0, N=5)
    mukai = dict(deg_D=30, chi_O=2, h2=4, Kh=0, defect=0)
    assert_refusals([
        (MalformedDataError, "the genus0 invariant 'z' must be an int, got True",
         lambda: replays.surface_quantum_formulas("genus0", dict(z=True, defect=1, q_irr=1, h1_Oh=0, N=0))),
        (MalformedDataError, "the genus0 invariant 'N' must be an int, got 5.0",
         lambda: replays.surface_quantum_formulas("genus0", {**genus0, "N": 5.0})),
        (MalformedDataError, "the mukai invariant 'h2' must be an int, got 4.5",
         lambda: replays.surface_quantum_formulas("mukai", {**mukai, "h2": 4.5})),
        (MalformedDataError, "the mukai invariant 'defect' must be an int, got False",
         lambda: replays.surface_quantum_formulas("mukai", {**mukai, "defect": False})),
        (MalformedDataError, "the mukai construction needs the invariant 'Kh'",
         lambda: replays.surface_quantum_formulas("mukai", dict(deg_D=3.5, chi_O=1, h2=1, defect=0))),
    ])
    assert replays.surface_quantum_formulas("genus0", genus0) == 9
    assert replays.surface_quantum_formulas("mukai", mukai) == 16


def test_prime_fano_family_refuses_a_quantum_number_that_is_not_an_int():
    """Bools are refused too; k < 0 keeps its old refusal."""
    assert_refusals([
        (MalformedDataError, "the quantum number k must be an int, got True",
         lambda: replays.prime_fano_family(5, True)),
        (MalformedDataError, "the quantum number k must be an int, got 1.0",
         lambda: replays.prime_fano_family(5, 1.0)),
        (MalformedDataError, "the quantum number k must be an int, got '1'",
         lambda: replays.prime_fano_family(5, "1")),
        (UnknownVarietyError, "need g_X >= 3 and k >= 0", lambda: replays.prime_fano_family(5, -1)),
    ])
    assert replays.prime_fano_family(5, 0).quantum == 0
