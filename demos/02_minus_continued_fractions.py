"""Minus-sign continued fractions, computed exactly.

A quadratic irrational (p + sqrt(d))/q expands as a0 - 1/(a1 - 1/(a2 - ...))
with digits a_i = ceil(x_i).  The expansion is eventually periodic, and the
period of the expanding fixed slope (a - d + sqrt(t^2 - 4))/(2b) of a
monodromy matrix [[a, b], [c, d]] of trace t is exactly its resolution
cycle.  Everything below runs on integers; no floating point is involved
even when d has 26 digits.
"""

import sys
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import Mat2, expand, power, step

# The golden ratio (1 + sqrt 5)/2 is the fixed slope of [[2, 1], [1, 1]]:
# p = 2 - 1, q = 2 * 1, d = 3^2 - 4.  One step runs on the integer state
# (p, q) with d and s = isqrt(d) fixed: the digit is the exact ceiling of x,
# and the next value is (p' + sqrt d)/q'.
g = Mat2(2, 1, 1, 1)
p, q, d = g.a - g.d, 2 * g.b, g.trace**2 - 4
digit, p2, q2 = step(p, q, d, isqrt(d))
print(f"fixed slope of {g}: x = ({p} + sqrt({d}))/{q}, ceil(x) = {digit}")
print(f"one step on (p, q) = ({p}, {q}): digit {digit}, next state ({p2}, {q2}),")
print(f"  next value ({p2} + sqrt({d}))/{q2}")
preperiod, period = expand(g)
print(f"expansion: preperiod {preperiod}, period {period}")
print(f"purely periodic? {preperiod == ()}")

# (3 + sqrt 5)/2, the fixed slope of [[3, 1], [-1, 0]], has its conjugate in
# (0, 1), so its expansion has no preperiod at all: it is the fixed point of
# its own step, and its period (3,) is the cycle of that monodromy.
m3 = Mat2(3, 1, -1, 0)
preperiod, period = expand(m3)
print(f"\nfixed slope of {m3}: preperiod {preperiod}, period {period}")
print(f"purely periodic? {preperiod == ()}")

# The fixed slope of the flagship monodromy.
a = Mat2(1640, 221, -141, -19)
preperiod, period = expand(a)
print(f"\nfixed slope of {a}: ({a.a - a.d} + sqrt({a.trace**2 - 4}))/{2 * a.b}")
print(f"  preperiod {preperiod}")
print(f"  period {period}")

# Discriminants grow fast under base covers; the arithmetic stays exact.
a4 = power(a, 4)
d4 = a4.trace**2 - 4
print(f"\nfixed slope of A^4 has discriminant t^2 - 4 = {d4} ({len(str(d4))} digits)")
print(f"  period of the expansion has length {len(expand(a4)[1])}")
