from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from instanton_lab import catalog, classify, cohomology, instanton, replays
from instanton_lab.classify import classify_flag_lines, classify_segre_lines
from instanton_lab.replays import (
    classify_cyclic_lines,
    curve_quantum,
    cyclic_rank2_stability_cases,
    fano_instanton_bridge,
    hoppe_rank2,
    hoppe_rank2_from_eps,
    prime_fano_chi_check,
    prime_fano_family,
    scroll_construction_report,
    segre_stable_example,
    surface_quantum_formulas,
)
from instanton_lab.cohomology import build_table
from instanton_lab.errors import InfeasibleError
from instanton_lab.rr import ChernData


def test_classify_flag_defect0():
    report = classify_flag_lines(box=5, defect=0)
    coords = {f.coordinates: f.quantum for f in report.found}
    assert coords[(-1, 3)] == 3
    assert coords[(-2, 4)] == 8
    assert coords[(-3, 5)] == 15
    assert report.agreement == "superset"
    assert [f.coordinates for f in report.boundary] == [(0, 2)]
    assert report.quantum_formula_ok


def test_classify_flag_defect1():
    report = classify_flag_lines(box=5, defect=1)
    coords = {f.coordinates: f.quantum for f in report.found}
    assert coords[(-1, 2)] == 1
    assert coords[(-2, 3)] == 3
    assert report.agreement == "superset"
    assert [f.coordinates for f in report.boundary] == [(0, 1)]


def test_classify_segre():
    report = classify_segre_lines(box=5, defect=0)
    coords = {f.coordinates: f.quantum for f in report.found}
    assert coords[(-1, 1, 3)] == 3
    assert coords[(-2, 1, 4)] == 8
    assert report.agreement == "superset"
    assert [f.coordinates for f in report.boundary] == [(0, 1, 2)]
    empty = classify_segre_lines(box=5, defect=1)
    assert empty.agreement == "exact" and not empty.found


def test_classify_lines_needs_a_declared_family():
    for entry, defect in [(catalog.projective_space(3), 0), (catalog.flag3(), 2)]:
        with pytest.raises(ValueError, match="^no closed-form line-bundle family on "):
            classify.classify_lines(entry, 4, defect)
    assert classify.classify_lines(catalog.flag3(), 5, 1) == classify_flag_lines(5, 1)


@pytest.mark.parametrize(
    "box, message",
    [(True, "box must be an int, got True"), (5.0, "box must be an int, got 5.0"),
     ("6", "box must be an int, got '6'"), (None, "box must be an int, got None"), (3, "box >= 4")],
)
def test_classify_lines_checks_its_box(box, message):
    """The box is the one input a scan validates: its candidates are built from it."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify.classify_lines(catalog.flag3(), box, 0)


def reference_scan(entry, candidates, defect):
    """The members by the table route: one full table and verdict per candidate."""
    n = entry.dimension
    found = []
    for coords in candidates:
        table = build_table(entry, coords, (-n, 0), with_chern=False)
        q = instanton.check_instanton(table).quantum(defect)
        if q is not None:
            found.append(classify.FoundLine(coords, defect, q))
    return found


SCAN_ENTRIES = [
    catalog.flag3(),
    catalog.triple_p1(),
    catalog.projective_space(1),
    catalog.projective_space(2),
    catalog.projective_space(3, 2),
    catalog.projective_space(4),
    catalog.quadric(2),
    catalog.quadric(3, 2),
    catalog.quadric(4),
    catalog.scroll_p1((1, 1, 2)),
    # non-uniform h = (1, 0)
    catalog.scroll_p1((1, 2)),
    # dimension 1
    catalog.curve(0, 2, "exact_p1"),
    catalog.curve(2, 3, "generic"),
]


@st.composite
def scans(draw):
    """An entry, a candidate list that may be empty or repeat candidates, and a defect."""
    entry = draw(st.sampled_from(SCAN_ENTRIES))
    coords = st.tuples(*[st.integers(-4, 4)] * entry.picard_rank())
    candidates = draw(st.lists(coords, max_size=12))
    if candidates:
        candidates += draw(st.lists(st.sampled_from(candidates), max_size=4))
    return entry, draw(st.permutations(candidates)), draw(st.sampled_from((0, 1)))


@given(scans())
@settings(max_examples=60, deadline=None)
def test_scan_matches_the_table_reference(scan):
    entry, candidates, defect = scan
    assert classify._sift(entry, candidates, defect)[0] == reference_scan(entry, candidates, defect)


@pytest.mark.parametrize("defect", [0, 1])
@pytest.mark.parametrize("family, box", [("flag", 4), ("flag", 8), ("segre", 4), ("segre", 5)])
def test_classification_matches_the_table_reference(family, box, defect):
    """Members and their order against every sorted tuple of the box, checked by tables."""
    entry, classify_lines = {
        "flag": (catalog.flag3(), classify_flag_lines),
        "segre": (catalog.triple_p1(), classify_segre_lines),
    }[family]
    rng = range(-box, box + 1)
    candidates = sorted({tuple(sorted(c)) for c in itertools.product(rng, repeat=entry.picard_rank())})
    report = classify_lines(box, defect)
    assert list(report.found) == reference_scan(entry, candidates, defect)


@pytest.mark.parametrize("defect", [0, 1])
def test_segre_scan_computes_each_twisted_bundle_once(monkeypatch, defect):
    """From a cleared memo, a sweep over boxes 4-10 and both defects (``defect``
    first) calls the engine once per distinct twisted bundle."""
    engine = cohomology.ENGINES["triple_p1"]
    seen = []

    def counted(entry, coords):
        seen.append(coords)
        return engine(entry, coords)

    monkeypatch.setattr(cohomology, "_ROWS", {})
    monkeypatch.setitem(cohomology.ENGINES, "triple_p1", counted)
    for box in range(4, 11):
        for d in (defect, 1 - defect):
            classify_segre_lines(box, d)
    assert seen and len(seen) == len(set(seen))


def sweep():
    """The lattice_scan grid: boxes 4-10, both families, both defects."""
    return [
        classify_lines(box, defect)
        for classify_lines in (classify_flag_lines, classify_segre_lines)
        for box in range(4, 11)
        for defect in (0, 1)
    ]


def test_scans_check_no_candidate(monkeypatch):
    """A scan builds its candidates from the checked box, so neither a cold nor a
    warm sweep validates coordinates."""
    expected = sweep()

    def refuse(entry, coords):
        raise AssertionError(f"scan checked {coords} on {entry.variety_id}")

    for module in (catalog, cohomology, classify, instanton):
        if hasattr(module, "check_coords"):
            monkeypatch.setattr(module, "check_coords", refuse)
    assert sweep() == expected
    monkeypatch.setattr(cohomology, "_ROWS", {})
    assert sweep() == expected


def test_scanned_entries_are_one_object_per_process():
    assert catalog.flag3() is catalog.flag3()
    assert catalog.triple_p1() is catalog.triple_p1()


def test_a_sweep_leaves_one_memo_per_scanned_variety(monkeypatch):
    monkeypatch.setattr(cohomology, "_ROWS", {})
    sweep()
    flag, segre = cohomology._ROWS
    assert flag is catalog.flag3() and segre is catalog.triple_p1()


@pytest.mark.parametrize("defect", [0, 1])
@pytest.mark.parametrize("family", ["flag", "segre"])
def test_cold_and_warm_scans_agree(monkeypatch, family, defect):
    """A scan from an empty memo and the same scan after a sweep has filled it
    give the same bytes and the same rejection histogram."""
    classify_lines = {"flag": classify_flag_lines, "segre": classify_segre_lines}[family]
    monkeypatch.setattr(cohomology, "_ROWS", {})
    cold = classify_lines(7, defect)
    for box in (10, 5):
        for d in (0, 1):
            classify_lines(box, d)
    warm = classify_lines(7, defect)
    assert json.dumps(cold.to_json()) == json.dumps(warm.to_json())
    assert cold.rejections == warm.rejections


#: per condition, in list order, the candidates whose first failing condition
#: it is, and the member count, at box 10
REJECTIONS_AT_BOX_10 = {
    ("segre", 0): (
        {("zero", 0, -1): 220, ("zero", 3, -3): 363, ("zero", 1, -2): 495, ("zero", 2, -2): 594,
         ("q", 2, -3): 90},
        9,
    ),
    ("segre", 1): (
        {("zero", 0, -1): 220, ("zero", 3, -2): 286, ("zero", 1, -2): 495, ("zero", 2, -1): 550,
         ("q", 2, -2): 199, ("chi", 3, -3): 21},
        0,
    ),
    ("flag", 0): (
        {("zero", 0, -1): 55, ("zero", 3, -3): 77, ("zero", 1, -2): 36, ("zero", 2, -2): 54,
         ("q", 2, -3): 0},
        9,
    ),
    ("flag", 1): (
        {("zero", 0, -1): 55, ("zero", 3, -2): 66, ("zero", 1, -2): 36, ("zero", 2, -1): 45,
         ("q", 2, -2): 17, ("chi", 3, -3): 2},
        10,
    ),
}


@pytest.mark.parametrize("family, defect", REJECTIONS_AT_BOX_10)
def test_rejection_histogram(family, defect):
    counts, members = REJECTIONS_AT_BOX_10[family, defect]
    classify_lines, candidates = {
        "flag": (classify_flag_lines, 231),
        "segre": (classify_segre_lines, 1771),
    }[family]
    report = classify_lines(10, defect)
    assert report.rejections == tuple(counts.items())
    assert [check for check, _ in report.rejections] == list(instanton.InstantonConditions(3, defect).checks)
    assert len(report.found) == members
    assert sum(counts.values()) + members == candidates
    # the histogram stays out of the serialized report
    assert list(report.to_json()) == [
        "family", "defect", "box", "found", "expected", "boundary", "agreement", "diffs",
        "quantum_formula_ok",
    ]
    assert "rejections" not in report.to_markdown()


def lazy_pairs(entry, candidates, defect):
    """(candidate, check) pairs met when each candidate runs its list alone, up to the first failure."""
    conditions = instanton.InstantonConditions(entry.dimension, defect)
    pairs = []
    for coords in candidates:
        def row(t, coords=coords):
            return cohomology.line_bundle_cohomology(entry, catalog.twist_coords(entry, coords, t))

        for check in conditions.checks:
            pairs.append((coords, check))
            (left,), (right,) = conditions.sides(check, lambda t, row=row: (row(t),))
            if left != right:
                break
    return pairs


@pytest.mark.parametrize("defect", [0, 1])
@pytest.mark.parametrize("family, box", [("flag", 6), ("segre", 5)])
def test_scan_evaluates_only_the_checks_the_lazy_order_reaches(monkeypatch, family, box, defect):
    entry, classify_lines = {
        "flag": (catalog.flag3(), classify_flag_lines),
        "segre": (catalog.triple_p1(), classify_segre_lines),
    }[family]
    candidates = list(itertools.combinations_with_replacement(range(-box, box + 1), entry.picard_rank()))
    expected = lazy_pairs(entry, candidates, defect)

    class Tagged(list):
        """A column of rows that knows its candidates."""

        def __init__(self, candidates, rows):
            super().__init__(rows)
            self.candidates = list(candidates)

    sift, sides = instanton.InstantonConditions.sift, instanton.InstantonConditions.sides
    evaluated = []

    def tagging_sift(self, candidates, column_of):
        return sift(self, candidates, lambda t, survivors: Tagged(survivors, column_of(t, survivors)))

    def recording_sides(check, column):
        read = []

        def watched(t):
            read.append(column(t))
            return read[-1]

        result = sides(check, watched)
        evaluated.extend((candidate, check) for candidate in read[0].candidates)
        return result

    monkeypatch.setattr(instanton.InstantonConditions, "sift", tagging_sift)
    monkeypatch.setattr(instanton.InstantonConditions, "sides", staticmethod(recording_sides))
    classify_lines(box, defect)
    assert len(evaluated) == len(expected)
    assert sorted(evaluated) == sorted(expected)


def test_classify_cyclic_witnesses():
    for n in (2, 3, 4, 5, 6):
        assert classify_cyclic_lines(n, 1, -n - 1, 0).assertion == 1
    assert classify_cyclic_lines(3, 2, -4, 1).assertion == 2
    for n in (3, 4, 5, 6):
        assert classify_cyclic_lines(n, 1, -n, 1).assertion == 3
    assert classify_cyclic_lines(3, 1, -4, 0).witness == 0
    assert classify_cyclic_lines(3, 2, -4, 1).witness == 1


def test_classify_cyclic_none_off_pattern():
    for n in range(2, 7):
        for u in range(1, 5):
            for v in range(-n - 1, 1):
                for defect in (0, 1):
                    decision = classify_cyclic_lines(n, u, v, defect)
                    expected = None
                    if (u, v, defect) == (1, -n - 1, 0):
                        expected = 1
                    elif (n, u, v, defect) == (3, 2, -4, 1):
                        expected = 2
                    elif (u, v, defect) == (1, -n, 1) and n >= 3:
                        expected = 3
                    assert decision.assertion == expected, (n, u, v, defect)


def brute_force_cyclic(entry, defect, w_range=range(-12, 13)):
    hits = []
    n = entry.dimension
    for w in w_range:
        table = build_table(entry, (w,), (-n, 0), with_chern=False)
        verdict = instanton.check_instanton(table)
        if verdict.passes(defect):
            hits.append(w)
    return hits


def test_classify_cyclic_cross_validated():
    """The decision procedure agrees with brute force on P^n and quadric engines."""
    for n in (2, 3, 4):
        for u in (1, 2, 3, 4):
            for defect in (0, 1):
                decision = classify_cyclic_lines(n, u, -n - 1, defect)
                hits = brute_force_cyclic(catalog.projective_space(n, u=u), defect)
                expected = [decision.witness] if decision.assertion else []
                assert hits == expected, ("pn", n, u, defect, hits, decision)
    for n in (3, 4):
        for u in (1, 2, 3):
            for defect in (0, 1):
                decision = classify_cyclic_lines(n, u, -n, defect)
                hits = brute_force_cyclic(catalog.quadric(n, u=u), defect)
                expected = [decision.witness] if decision.assertion else []
                assert hits == expected, ("quadric", n, u, defect, hits, decision)


def test_hoppe_rank2():
    p3 = catalog.projective_space(3)
    H = p3.ring.gen("H")
    assert hoppe_rank2(p3, ChernData(2, 0 * H), 0).status == "stable"
    assert hoppe_rank2(p3, ChernData(2, 3 * H), 1).status == "unstable-possible"
    assert hoppe_rank2(p3, ChernData(2, 2 * H), 1, 0).status == "semistable"
    assert hoppe_rank2(p3, ChernData(2, 2 * H), 1, 2).status == "unstable-possible"
    assert hoppe_rank2_from_eps(0, 1, None).status == "undecided"


def test_stability_cases_witnesses():
    # trivial pairs witness strict semistability: (2a), (2b), (2c)
    r = cyclic_rank2_stability_cases(3, 1, -4, 0)
    assert r.semistable_guaranteed and not r.stable_guaranteed
    assert r.exception_stable == "2a"
    r = cyclic_rank2_stability_cases(3, 2, -4, 1)
    assert r.semistable_guaranteed and r.exception_stable == "2b"
    r = cyclic_rank2_stability_cases(4, 1, -4, 1)
    assert r.semistable_guaranteed and r.exception_stable == "2c"
    # semistability exceptions (1a), (1b)
    r = cyclic_rank2_stability_cases(4, 1, -5, 1)
    assert not r.semistable_guaranteed and r.exception_semistable == "1a"
    r = cyclic_rank2_stability_cases(2, 3, -3, 1)
    assert not r.semistable_guaranteed and r.exception_semistable == "1b"


def test_stability_cases_no_unlisted_exceptions():
    """Every failure of a guarantee on a geometric tuple is a named case.

    Cyclic smooth surfaces only occur with v = -3 (the plane) or v >= 0
    (e.g. Picard-rank-one K3s); the intermediate indices are excluded.  In
    dimension >= 3 every index in the box occurs.
    """
    for n in range(2, 7):
        for u in range(1, 5):
            for v in range(-n - 1, 1):
                if n == 2 and v not in (-3, 0):
                    continue
                for defect in (0, 1):
                    r = cyclic_rank2_stability_cases(n, u, v, defect)
                    assert r.exception_semistable != "unlisted", (n, u, v, defect)
                    assert r.exception_stable != "unlisted", (n, u, v, defect)


def test_fano_bridge():
    assert fano_instanton_bridge(1, 0, 1).q_eps == 0
    assert fano_instanton_bridge(4, 0, 0).q_eps == 2
    r = fano_instanton_bridge(1, 0, 1)
    assert r.backward_case == "2b" and r.backward_extra_vanishing == "h^0(E_norm(h)) = 0"
    r = fano_instanton_bridge(3, 1, 0)
    assert r.forward_case == "1b" and r.forward_extra_vanishing == "h^0(E) = 0"
    r = fano_instanton_bridge(2, 0, 0)
    assert r.forward_case == "1a" and r.backward_case == "2a"
    # normalization twists: q_X^{1-defect} - 2
    assert fano_instanton_bridge(1, 0, 0).t_norm == -2
    assert fano_instanton_bridge(4, 1, 0).t_norm == 0
    with pytest.raises(ValueError):
        fano_instanton_bridge(5, 0, 0)


def test_curve_quantum():
    assert curve_quantum(2, 4, 1) == 4
    assert curve_quantum(7, 9, 0) == 0
    for chi in range(1, 5):
        assert curve_quantum(2 * chi, 1, 1) == chi
    with pytest.raises(InfeasibleError):
        curve_quantum(1, 3, 1)


@pytest.mark.parametrize("degrees", [(1, 1, 1), (1, 1, 2)])
def test_scroll_construction_quantum_certified(degrees):
    d = sum(degrees)
    for k in range(0, 6):
        rep = scroll_construction_report(degrees, k)
        assert rep.quantum == k
        assert rep.exact
        assert rep.decomposable == (k == 0)
        assert rep.h1_end == 2 * d - 4 + 6 * k
        assert rep.chi_pieces["chi_O(-h+(g+theta)f)"] == 0
        assert rep.chi_pieces["chi_O(theta f)"] == 0
        assert "h1_O(h-gf)" in rep.engine_checked


def test_scroll_construction_examples():
    rep = scroll_construction_report((1, 1, 1), 1)
    assert rep.h1_end == 8
    assert rep.dimension_chain["h1_I_Z"] == 0
    rep0 = scroll_construction_report((1, 1, 1), 0)
    assert rep0.splitting == "O((g+theta)f) (+) O(h+theta f)"
    assert rep0.h1_end_ulrich_pair == 2  # (n-1) deg + (n+1)(g-1) + g at g=0, d=3
    # c2 pairing: (deg + g - 1 + k) against h
    from instanton_lab import chow

    entry = catalog.scroll_p1((1, 1, 1))
    h = entry.ring.gen("h")
    assert chow.integrate(rep.chern.c2 * h) == 3 + 0 - 1 + 1


def test_scroll_construction_generic():
    entry = catalog.scroll_generic(3, 2, 5)
    for k in (0, 1, 3):
        rep = scroll_construction_report(entry, k)
        assert rep.quantum == k and not rep.exact
        assert rep.h1_end == 2 * 5 + 4 * 1 + 6 * k
        assert rep.dimension_chain["h1_O(h-gf)"] == 2 * 5 + 3 * 1


def test_surface_quantum_formulas():
    # K3-like: chi = 2, Kh = 0
    for deg_D in (20, 30):
        for h2 in (2, 4):
            q = surface_quantum_formulas(
                "mukai", dict(deg_D=deg_D, chi_O=2, h2=h2, Kh=0, defect=0)
            )
            assert q == deg_D - 4 - 5 * h2 // 2
    with pytest.raises(InfeasibleError):
        surface_quantum_formulas("mukai", dict(deg_D=3, chi_O=2, h2=1, Kh=0, defect=0))
    # genus-0 type: defect 1 drops the h^1 term
    q = surface_quantum_formulas("genus0", dict(z=7, defect=1, q_irr=2, h1_Oh=0, N=5))
    assert q == 7 + 2 * (2 - 1)
    with pytest.raises(InfeasibleError):
        surface_quantum_formulas("genus0", dict(z=6, defect=0, q_irr=0, h1_Oh=0, N=5))


def test_prime_fano_family():
    rep = prime_fano_family(3, 0)
    assert rep.h1_end == 7 and rep.c2_dot_h == 14
    for g in (3, 4, 5, 6):
        for k in range(0, 4):
            a, b = prime_fano_family(g, k), prime_fano_family(g, k + 1)
            assert b.h1_end - a.h1_end == 2
            assert b.c2_dot_h - a.c2_dot_h == 1
            assert prime_fano_chi_check(g, k)
    assert prime_fano_family(5, 0).moduli_dim == 4 + 5


def test_segre_stable_example():
    for s in range(0, 5):
        rep = segre_stable_example(s)
        entry = catalog.triple_p1()
        assert rep.chern.c1 == 2 * entry.polarization
        assert rep.quantum_oracle == s + 2
        assert rep.claimed_quantum == s - 2
        assert rep.internally_consistent
        assert rep.h_vector_at_minus_1 == (0, s + 2, 0, 0)
        assert not rep.mu_semistable
        assert rep.pieces["slope_O(h1+3h3)"] == 8 and rep.pieces["slope_E"] == 6
    assert segre_stable_example(0).pieces["h1_O(0,-2,4)"] == 5


def test_discrepancy_probes_structure():
    probes = replays.discrepancy_probes()
    assert probes["flag_boundary_defect0"] == [
        {"coordinates": [0, 2], "defect": 0, "quantum": 0}
    ]
    assert probes["segre_boundary_defect0"] == [
        {"coordinates": [0, 1, 2], "defect": 0, "quantum": 0}
    ]
    family = probes["segre_stable_family"]
    assert [entry["quantum_oracle"] for entry in family] == [2, 3, 4, 5, 6]
    assert [entry["claimed_quantum"] for entry in family] == [-2, -1, 0, 1, 2]
