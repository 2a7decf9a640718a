from __future__ import annotations

import pytest

from instanton_lab import catalog, classify, instanton
from instanton_lab.classify import (
    classify_cyclic_lines,
    classify_flag_lines,
    classify_segre_lines,
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
    probes = classify.discrepancy_probes()
    assert probes["flag_boundary_defect0"] == [
        {"coordinates": [0, 2], "defect": 0, "quantum": 0}
    ]
    assert probes["segre_boundary_defect0"] == [
        {"coordinates": [0, 1, 2], "defect": 0, "quantum": 0}
    ]
    family = probes["segre_stable_family"]
    assert [entry["quantum_oracle"] for entry in family] == [2, 3, 4, 5, 6]
    assert [entry["claimed_quantum"] for entry in family] == [-2, -1, 0, 1, 2]
