"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact integer equality unless stated otherwise.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from instanton_lab import catalog, classify, instanton, monads, rr
from instanton_lab.cohomology import build_table, line_bundle_cohomology, serre_dual_vector
from instanton_lab.instanton import (
    check_instanton,
    chi_polynomial,
    direct_sum,
    pushforward_model,
    ulrich_dual_table,
    veronese_quantum,
)

REPORT_DIR = Path(__file__).resolve().parent.parent / "reports"


def serre_dual_coords(entry: catalog.VarietyCatalogEntry, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of ``K_X - L``; Serre duality pairs its vector with L's reversed."""
    return tuple(k - c for k, c in zip(catalog.canonical_coords(entry), coords))


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_flag_classification():
    with criterion(1, "flag classification, box 6, exact family + explicit boundary"):
        report = classify.classify_flag_lines(box=6, defect=0)
        found = {f.coordinates: f.quantum for f in report.found}
        expected = {(-a, a + 2): a * (a + 2) for a in range(1, 5)}
        boundary = {f.coordinates for f in report.boundary}
        assert boundary == {(0, 2)}
        assert found == {**expected, (0, 2): 0}
        assert report.agreement in ("exact", "superset")
        for a, q in ((1, 3), (2, 8), (3, 15)):
            assert found[(-a, a + 2)] == q == a * (a + 2) * (2 - 0) // 2


def test_criterion_2_segre_classification():
    with criterion(2, "Segre classification: defect 1 empty, defect 0 quanta 3, 8, 15"):
        empty = classify.classify_segre_lines(box=6, defect=1)
        assert not empty.found and empty.agreement == "exact"
        report = classify.classify_segre_lines(box=6, defect=0)
        found = {f.coordinates: f.quantum for f in report.found}
        for a in (1, 2, 3):
            assert found[tuple(sorted((-a, 1, 2 + a)))] == a * (a + 2)
        assert report.agreement in ("exact", "superset")
        assert {f.coordinates for f in report.boundary} == {(0, 1, 2)}


def _cyclic_pattern(n: int, u: int, v: int, defect: int) -> int | None:
    """The three assertion families of the cyclic line-bundle trichotomy."""
    if (u, v, defect) == (1, -n - 1, 0):
        return 1
    if (n, u, v, defect) == (3, 2, -4, 1):
        return 2
    if (u, v, defect) == (1, -n, 1) and n >= 3:
        return 3
    return None


def test_criterion_3_cyclic_decision():
    with criterion(3, "cyclic line decision: three witness assertions, none elsewhere, cross-validated"):
        assert classify.classify_cyclic_lines(3, 1, -4, 0).assertion == 1
        assert classify.classify_cyclic_lines(3, 2, -4, 1).assertion == 2
        assert classify.classify_cyclic_lines(3, 1, -3, 1).assertion == 3
        for n in range(2, 7):
            for u in range(1, 5):
                for v in range(-n - 1, 1):
                    for defect in (0, 1):
                        decision = classify.classify_cyclic_lines(n, u, v, defect)
                        assert decision.assertion == _cyclic_pattern(n, u, v, defect), (n, u, v, defect)
        # cross-validation on the engines for n <= 4
        for n in (2, 3, 4):
            for u in (1, 2, 3, 4):
                for defect in (0, 1):
                    decision = classify.classify_cyclic_lines(n, u, -n - 1, defect)
                    hits = []
                    entry = catalog.projective_space(n, u=u)
                    for w in range(-12, 13):
                        verdict = check_instanton(build_table(entry, (w,), (-n, 0), with_chern=False))
                        if verdict.passes(defect):
                            hits.append(w)
                    assert hits == ([decision.witness] if decision.assertion else [])
        for n in (3, 4):
            for u in (1, 2):
                for defect in (0, 1):
                    decision = classify.classify_cyclic_lines(n, u, -n, defect)
                    hits = []
                    entry = catalog.quadric(n, u=u)
                    for w in range(-12, 13):
                        verdict = check_instanton(build_table(entry, (w,), (-n, 0), with_chern=False))
                        if verdict.passes(defect):
                            hits.append(w)
                    assert hits == ([decision.witness] if decision.assertion else [])


def catalog_line_instantons():
    """Every line-bundle instanton surfaced by criteria 1-3, as (entry, coords, defect)."""
    members = []
    fl, tp = catalog.flag3(), catalog.triple_p1()
    for a in range(0, 4):
        members.append((fl, (-a, a + 2), 0))
        members.append((fl, (-a, a + 1), 1))
        members.append((tp, tuple(sorted((-a, 1, 2 + a))), 0))
    for n in (2, 3, 4):
        members.append((catalog.projective_space(n), (0,), 0))
    members.append((catalog.projective_space(3, u=2), (1,), 1))
    for n in (3, 4):
        members.append((catalog.quadric(n), (0,), 1))
    return members


def test_criterion_4_quantum_chi_identity():
    with criterion(4, "q = -chi(E(-h)) = (-1)^(n-1) chi(E((defect-n)h)) on all found line bundles"):
        for entry, coords, defect in catalog_line_instantons():
            n = entry.dimension
            table = build_table(entry, coords, (-n, 0), with_chern=False)
            q = check_instanton(table).quantum(defect)
            assert q is not None, (entry.variety_id, coords, defect)
            assert q == -table.chi_at(-1)
            assert q == (-1) ** (n - 1) * table.chi_at(defect - n)


def chi_polynomial_probes():
    members = catalog_line_instantons()
    # curve families (n = 1) and the (n, defect) = (2, 1) branch
    curve_entry = catalog.curve(2, 2, "generic")
    p2 = catalog.projective_space(2)
    theta = catalog.theta_coords
    extras = [
        ("curve theta pair", curve_entry, [(theta(curve_entry, 1), 1), (theta(curve_entry, 0), 1)], 1),
        ("curve ulrich", curve_entry, [(theta(curve_entry, 1), 2)], 0),
        ("plane (2,1) branch", p2, [((0,), 1), ((-1,), 1)], 1),
    ]
    return members, extras


def test_criterion_5_chi_polynomial():
    with criterion(5, "chi polynomial reproduces table sums on [-n-1, 2], including the (2,1) branch"):
        members, extras = chi_polynomial_probes()
        saw_21_branch = False
        for entry, coords, defect in members:
            n = entry.dimension
            table = build_table(entry, coords, (-n - 1, 2), with_chern=False)
            q = check_instanton(table).quantum(defect)
            chi0 = table.chi_at(0)
            for t in table.twists():
                assert chi_polynomial(n, defect, q, chi0, t) == table.chi_at(t), (
                    entry.variety_id,
                    coords,
                    defect,
                    t,
                )
        for label, entry, bundles, defect in extras:
            n = entry.dimension
            table = build_table(entry, bundles, (-n - 1, 2), with_chern=False)
            q = check_instanton(table).quantum(defect)
            assert q is not None, label
            chi0 = table.chi_at(0)
            if (n, defect) == (2, 1):
                saw_21_branch = True
                for t in table.twists():
                    assert chi_polynomial(2, 1, q, chi0, t) == (chi0 + q) * (t + 1) ** 2 - q
            for t in table.twists():
                assert chi_polynomial(n, defect, q, chi0, t) == table.chi_at(t), (label, t)
        assert saw_21_branch


def test_criterion_6_monad_arithmetic():
    with criterion(6, "quadric spinor counts s = k+1 (n=3), s = 1 (n=5, k=1); middle term chi + 4k"):
        for k in range(0, 11):
            assert monads.monad_quadric_ordinary(3, 2, k).total == k + 1
        assert monads.monad_quadric_ordinary(5, 2, 1).total == 1
        for k in range(0, 8):
            chi0 = 2 - 2 * k
            shape = monads.monad_pn(3, 0, k, chi0)
            assert shape.terms[1][0].multiplicity == chi0 + 4 * k


def test_criterion_7_veronese():
    with criterion(7, "veronese quantum numbers r(d^2-1)/8 on the plane and 2 on the 3-quadric"):
        from fractions import Fraction

        for r in (1, 2, 3, 4, 5):
            for d in (1, 3, 5, 7):
                assert veronese_quantum(2, r, d, 1) == Fraction(r * (d * d - 1), 8)
        assert veronese_quantum(3, 2, 2, 2) == 2


def test_criterion_8_scroll_construction():
    with criterion(8, "scroll construction: quantum = k, split at k = 0, h^1(End) = 2d - 4 + 6k"):
        for degrees in ((1, 1, 1), (1, 1, 2)):
            d = sum(degrees)
            for k in range(0, 6):
                rep = classify.scroll_construction_report(degrees, k)
                assert rep.quantum == k
                assert rep.exact
                assert rep.decomposable == (k == 0)
                assert rep.h1_end == 2 * d - 4 + 6 * k
        # substituted property-based acceptance for the existence statements:
        # the prime Fano family invariants satisfy chi(E(-h)) = -k
        for g in (3, 4, 5, 6, 7):
            for k in range(0, 6):
                assert classify.prime_fano_chi_check(g, k)
                rep = classify.prime_fano_family(g, k)
                assert rep.h1_end == 4 + g + 2 * k
                assert rep.c2_dot_h == 5 * g - 1 + k


def test_criterion_9_chern_polynomial():
    with criterion(9, "Chern polynomial series expansion vs closed form on the stated grid"):
        for r in (2, 4):
            for q in (0, 1, 2):
                for n in (2, 3, 4):
                    for defect in (0, 1):
                        classes = rr.chern_poly_instanton_pn(n, r, defect, q)
                        eps = 1 if n == 2 else 1 + defect
                        assert classes[0] == -defect * r // 2
                        assert classes[1] == eps * q + defect * r * (r - 2) // 8


def test_criterion_10_duality_transform_suite():
    with criterion(10, "duality/transform invariances over >= 500 catalog line bundles in < 10 s"):
        start = time.monotonic()
        entries = [
            catalog.projective_space(2),
            catalog.projective_space(3),
            catalog.projective_space(4),
            catalog.quadric(3),
            catalog.quadric(4),
            catalog.flag3(),
            catalog.triple_p1(),
            catalog.scroll_p1((1, 1, 1)),
            catalog.scroll_p1((1, 1, 2)),
            catalog.curve(2, 3, "generic"),
        ]
        checked = 0
        for entry in entries:
            for coords in itertools.product(range(-4, 5), repeat=entry.picard_rank()):
                lhs = serre_dual_vector(line_bundle_cohomology(entry, coords))
                rhs = line_bundle_cohomology(entry, serre_dual_coords(entry, coords))
                assert lhs == rhs, (entry.variety_id, coords)
                checked += 1
        assert checked >= 500

        # involution + verdict preservation of the Ulrich dual; verdict
        # preservation of the pushforward model; additivity of quanta
        members = catalog_line_instantons()
        for entry, coords, defect in members:
            n = entry.dimension
            table = build_table(entry, coords, (-2 * n - 2, n + 1))
            verdict = check_instanton(table)
            dualized = ulrich_dual_table(table, entry, defect)
            assert check_instanton(dualized).admissible == verdict.admissible
            twice = ulrich_dual_table(dualized, entry, defect)
            for t in twice.twists():
                assert twice.row(t) == table.row(t)
            pushed = pushforward_model(table, entry.hn())
            assert check_instanton(pushed).admissible == verdict.admissible
        fl = catalog.flag3()
        for a, b in itertools.product(range(0, 4), repeat=2):
            ta = build_table(fl, (-a, a + 2), (-3, 0))
            tb = build_table(fl, (-b, b + 2), (-3, 0))
            qa = check_instanton(ta).quantum(0)
            qb = check_instanton(tb).quantum(0)
            assert check_instanton(direct_sum(ta, tb)).quantum(0) == qa + qb
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"suite took {elapsed:.2f}s"


def test_criterion_11_discrepancy_probes():
    with criterion(11, "discrepancy probes recorded to reports/discrepancy_probes.json"):
        probes = classify.discrepancy_probes()
        REPORT_DIR.mkdir(exist_ok=True)
        out = REPORT_DIR / "discrepancy_probes.json"
        out.write_text(json.dumps(probes, indent=2, sort_keys=True))
        # only the oracle's internal consistency is asserted: the quantum
        # number is h^1(E(-h)) pinned by -chi with h^0 = h^2 = h^3 = 0
        for s in range(0, 5):
            rep = classify.segre_stable_example(s)
            assert rep.internally_consistent
            assert rep.h_vector_at_minus_1[0] == 0
            assert rep.h_vector_at_minus_1[2] == 0
            assert rep.h_vector_at_minus_1[3] == 0
            assert rep.quantum_oracle == rep.h_vector_at_minus_1[1]
        # boundary members exist in the report (outcome recorded, not judged)
        assert probes["flag_boundary_defect0"]
        assert probes["flag_boundary_defect1"]
        assert probes["segre_boundary_defect0"]
        assert out.exists()
