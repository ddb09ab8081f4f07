"""Where does an entangled-pair key protocol stop working?

Sweeps the disturbance D caused by an individual attack and watches three
criteria: the one-way information advantage I(A;B) - I(A;E), the maximal
CHSH value of the pair state, and the positivity of its partial
transpose. The first two give way at the same disturbance, the third at
a larger one.

Run:  python demos/qkd_thresholds.py
"""

import numpy as np

from qclink import distill, qkd

print("D      I(A;B)   I(A;E)   CHSH    min PT eig  entangled")
for r in distill.equivalence_sweep(np.arange(0.0, 0.41, 0.025), n_max=None):
    print(f"{r.d:5.3f}  {r.i_ab:7.4f}  {r.i_ae:7.4f}  {r.chsh:6.4f}"
          f"  {r.min_pt_eigenvalue:+9.5f}   {r.entangled}")

print()
print("Critical disturbances (exact roots):")
one_way = qkd.threshold("one_way")
chsh = qkd.threshold("chsh")
ent = qkd.threshold("entanglement")
print(f"  one-way key agreement fails at D = {one_way!r}")
print(f"  CHSH violation stops at        D = {chsh!r}")
print(f"  entanglement survives up to    D = {ent!r}")
print()
print(f"  one-way and CHSH roots are one number: {one_way == chsh}")
print("  I(A;B) = 1 - h(D) meets I(A;E) = 1 - h(1/2 - sqrt(D(1-D))) where")
print("  2 sqrt(2) (1 - 2D) = 2, at D = (1 - 1/sqrt(2))/2; the pair stays")
print("  entangled while (1 - D)^2 > 1/2, up to D = 1 - 1/sqrt(2).")
print()
print("The one-way boundary coincides with the CHSH boundary: as long as")
print("the shared pair could still violate a Bell inequality, the sifted")
print("bits can be turned into a key without two-way post-processing.")
