"""Resolution cycles and their monodromy matrices.

The link of a cusp singularity is a torus bundle over the circle.  Its
monodromy is an integer matrix with determinant 1 and trace at least 3, and
up to conjugacy that matrix is a product of elementary factors
[[b, 1], [-1, 0]], one per vertex of the resolution cycle.  This demo walks
the translation in both directions.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import Cycle, Mat2, cycle_of, inverse, monodromy_of, mul, power

# From cycle to matrix: each entry contributes one elementary factor.
for entries in [(3,), (4, 2), (2, 3, 4)]:
    b = monodromy_of(entries)
    print(f"cycle {entries}: monodromy {b}, trace {b.trace}, det {b.det}")

# From matrix back to cycle.  The flagship example: a trace-1621 monodromy.
a = Mat2(1640, 221, -141, -19)
cycle = cycle_of(a)
print(f"\nmonodromy {a}")
print(f"has cycle {cycle} (canonical rotation of (8,2,4,3,12))")

# The two directions invert each other, up to rotation of the cycle.
assert cycle_of(monodromy_of(cycle)) == cycle

# Any conjugate carries the same cycle; the expansion behind cycle_of
# swallows a preperiod instead of requiring a reduced matrix.
u = Mat2(1, 5, 0, 1)
moved = mul(mul(inverse(u), a), u)
print(f"\nconjugate {moved} has cycle {cycle_of(moved)}")
assert cycle_of(moved) == cycle

# Powers of the monodromy repeat the cycle: a degree-n cover in the base.
b = monodromy_of((3,))
for n in (1, 2, 3):
    print(f"cycle of B^{n}: {cycle_of(power(b, n))}")
assert cycle_of(power(b, 3)) == Cycle((3, 3, 3))
