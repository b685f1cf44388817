"""Fibers of normal covers: invariant sublattices of Z^2.

A normal subgroup of the link group combines a degree-n cover of the base
circle with a fiber sublattice L that the monodromy maps onto itself and
that contains (A^n - I)Z^2.  Prime-index fibers come from a quadratic
congruence mod the prime; general fibers are assembled one prime-primary
part at a time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import (
    Lattice2,
    Mat2,
    conjugate,
    induced_action,
    invariant_sublattices_between,
    power,
    prime_index_invariant_lattices,
    solve_quadratic_congruence,
)

a = Mat2(1640, 221, -141, -19)

# The index-3 sublattices of Z^2 as Hermite normal forms <(x,0), (y,z)> with
# x z = 3 and 0 <= y < x; A maps one onto itself when conjugating A by its
# basis stays integral.
index3 = [Lattice2(1, 0, 3)] + [Lattice2(3, y, 1) for y in range(3)]
print("index-3 sublattices of Z^2:", index3)
print("invariant under A:", [lat for lat in index3 if conjugate(a, lat.basis) is not None])

# Prime-index invariant lattices come from c t^2 + (d - a) t - b = 0 mod ell.
for ell in (2, 3, 541, 811, 1621):
    lats = prime_index_invariant_lattices(a, ell)
    print(f"ell = {ell}: {len(lats)} invariant lattice(s) {lats}")

# The congruence for ell = 541 pins t = 138: the fiber <(138,1),(541,0)>.
print("\nroots of 141 t^2 + 1659 t + 221 mod 541:",
      solve_quadratic_congruence(141, 1659, 221, 541))

# Conjugating by the fiber basis rewrites the monodromy on the fiber.
lat3 = prime_index_invariant_lattices(a, 3)[0]
print(f"action on {lat3}: {induced_action(lat3, a)}")

# Everything between (A^n - I)Z^2 and Z^2, for each base degree.
for n in (1, 2, 3):
    lats = invariant_sublattices_between(a, n)
    an = power(a, n)
    order = abs(Mat2(an.a - 1, an.b, an.c, an.d - 1).det)  # |Z^2 / (A^n - I)Z^2|
    print(f"\ndegree {n}: quotient order {order}, "
          f"{len(lats)} invariant lattices")
    print("  indices:", sorted(lat.index for lat in lats))
