"""Rank-two constructions: scrolls over curves, surfaces, prime Fano 3-folds.

The scroll construction glues k fiber hyperplanes into a rank-two extension
whose quantum number is exactly k, certified by chi-additivity along the
defining sequences; it splits into the two Ulrich line bundles exactly when
k = 0.  The surface constructions and the prime Fano family are evaluated at
the level of their closed quantum/dimension formulas.
"""

from instanton_lab import (
    catalog,
    curve_quantum,
    prime_fano_family,
    scroll_construction_report,
    surface_quantum_formulas,
)
from instanton_lab.replays import prime_fano_chi_check

for degrees in ((1, 1, 1), (1, 1, 2)):
    print(f"scroll with split degrees {degrees}:")
    for k in range(0, 4):
        rep = scroll_construction_report(degrees, k)
        print(
            f"  k = {k}: quantum {rep.quantum}, decomposable {rep.decomposable},"
            f" h^1(End) = {rep.h1_end}"
        )

# Scrolls over a positive-genus base: chi-level certification.
entry = catalog.scroll_generic(3, 2, 5)
rep = scroll_construction_report(entry, 2)
print(f"genus-2 scroll, k = 2: quantum {rep.quantum} (exact: {rep.exact}), h^1(End) = {rep.h1_end}")

# Curves: the quantum number only sees defect, rank and degree.
print("curve rank 2, degree 4, non-ordinary:", curve_quantum(2, 4, 1))

# Surfaces: two constructions with displayed quantum numbers.
print(
    "K3-like surface (chi = 2, Kh = 0, h^2 = 4), deg D = 30:",
    surface_quantum_formulas("mukai", dict(deg_D=30, chi_O=2, h2=4, Kh=0, defect=0)),
)
print(
    "p_g = 0 surface, z = 7 points, defect 1, irregularity 2:",
    surface_quantum_formulas("genus0", dict(z=7, defect=1, q_irr=2, h1_Oh=0, N=5)),
)

# Prime Fano 3-folds of genus g: the rank-two family with quantum number k.
for g in (3, 5, 7):
    rep = prime_fano_family(g, 2)
    ok = prime_fano_chi_check(g, 2)
    print(
        f"prime Fano genus {g}, k = 2: c2 h = {rep.c2_dot_h}, h^1(End) = {rep.h1_end},"
        f" chi(E(-h)) = -k verified: {ok}"
    )
