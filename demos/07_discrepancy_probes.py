"""Boundary members and oracle-vs-claim probes, written to reports/.

Two places where the brute-force engines say more than the closed families:

* the a = 0 classification boundary members (Ulrich line bundles that pass
  every condition although the closed families are stated from a = 1), and
* the unstable rank-two family on the triple product, whose chi-additivity
  oracle pins the quantum number to s + 2 while the claimed value is s - 2.

The oracle's internal consistency (q = h^1(E(-h)) with all other groups
vanishing at that twist) is checked; both values are recorded side by side.
"""

import json
from pathlib import Path

from instanton_lab import segre_stable_example
from instanton_lab.replays import discrepancy_probes

probes = discrepancy_probes()

print("flag boundary members (defect 0):", probes["flag_boundary_defect0"])
print("flag boundary members (defect 1):", probes["flag_boundary_defect1"])
print("segre boundary members (defect 0):", probes["segre_boundary_defect0"])
print()
print("unstable family on the triple product:")
for s in range(0, 5):
    rep = segre_stable_example(s)
    print(
        f"  s = {s}: oracle quantum {rep.quantum_oracle}, claimed {rep.claimed_quantum},"
        f" h-vector at t = -1: {rep.h_vector_at_minus_1},"
        f" consistent: {rep.internally_consistent}"
    )

out_dir = Path(__file__).resolve().parent.parent / "reports"
out_dir.mkdir(exist_ok=True)
out = out_dir / "discrepancy_probes.json"
out.write_text(json.dumps(probes, indent=2, sort_keys=True))
print(f"\nwritten to {out}")
