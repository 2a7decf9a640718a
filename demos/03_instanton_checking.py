"""The instanton condition list and its table transforms.

An instanton sheaf with defect delta and quantum number q is recognized by a
finite list of vanishings and symmetries of its cohomology table on the
window [-n, 0].  Ulrich sheaves are the (0, 0) members; the conditions are
stable under finite pushforward, Ulrich duality and direct sums, and all
three transforms are exercised below.
"""

from instanton_lab import (
    build_table,
    check_instanton,
    curve,
    direct_sum,
    flag3,
    projective_space,
    pushforward_model,
    quadric,
    regularity_report,
    triple_p1,
    ulrich_dual_table,
)
from instanton_lab.catalog import theta_coords

# The structure sheaf of P^3 is Ulrich; on the quadric it is a non-ordinary
# instanton with quantum number zero (it has no intermediate cohomology).
for entry, name in ((projective_space(3), "O on P^3"), (quadric(3), "O on Q^3")):
    verdict = check_instanton(build_table(entry, (0,), (-3, 0)))
    print(f"{name}: admissible = {list(verdict.admissible)}, ulrich = {verdict.is_ulrich}, wic = {verdict.is_wic}")

# A quantum-number-3 member on the triple product of lines.
table = build_table(triple_p1(), (-1, 1, 3), (-5, 2))
verdict = check_instanton(table)
print("O(-1,1,3):", list(verdict.admissible), "natural window:", verdict.natural_window)

# The numerical pushforward to P^3 under the sextic projection keeps the verdict.
pushed = pushforward_model(table, 6)
print("pushforward rank:", pushed.rank, "verdict:", list(check_instanton(pushed).admissible))

# Ulrich duality E -> E^v((n+1)h + K) is an involution preserving verdicts.
dualized = ulrich_dual_table(table, triple_p1(), 0)
print("Ulrich dual verdict:", list(check_instanton(dualized).admissible))

# Quantum numbers add on direct sums.
t1 = build_table(flag3(), (-1, 3), (-3, 0))
t2 = build_table(flag3(), (-2, 4), (-3, 0))
s = direct_sum(t1, t2)
print("flag q=3 (+) q=8 ->", check_instanton(s).quantum(0))

# On a curve, the twists of a non-effective theta-characteristic produce the
# two basic families: O(theta+h)^r is Ulrich, O(theta+h) (+) O(theta) is
# non-ordinary with quantum number deg(h).
g2 = curve(2, 2, "generic")
pair = build_table(g2, [(theta_coords(g2, 1), 1), (theta_coords(g2, 0), 1)], (-1, 0))
print("theta pair on a genus-2 curve:", list(check_instanton(pair).admissible))

# Regularity bookkeeping: w(E) = h^1(E((defect-1)h)) + defect bounds the
# Castelnuovo-Mumford regularity, and E(w) is globally generated.
rep = regularity_report(build_table(triple_p1(), (-1, 1, 3), (-4, 4)), 0)
print(f"regularity: v = {rep.v}, w = {rep.w}, confirmed on window: {rep.regularity_confirmed}")
