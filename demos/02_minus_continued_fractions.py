"""Minus-sign continued fractions, computed exactly.

A quadratic irrational (p + sqrt(d))/q expands as a0 - 1/(a1 - 1/(a2 - ...))
with digits a_i = ceil(x_i).  The expansion is eventually periodic, and the
period of the fixed slope of a monodromy matrix is exactly its resolution
cycle.  Everything below runs on integers; no floating point is involved
even when d has 27 digits.
"""

import sys
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import (
    Mat2,
    QuadIrr,
    expand,
    fixed_point,
    is_purely_periodic,
    power,
    step,
)

# One step runs on the integer state (p, q) with d and s = isqrt(d) fixed:
# the digit is the exact ceiling of x, and the next value is (p' + sqrt d)/q'.
golden = QuadIrr(1, 5, 2)  # (1 + sqrt 5)/2
digit, p2, q2 = step(golden.p, golden.q, golden.d, isqrt(golden.d))
print(f"x = {golden}, ceil(x) = {digit}")
print(f"one step on (p, q) = ({golden.p}, {golden.q}): digit {digit}, next state ({p2}, {q2}),")
print(f"  next value {QuadIrr(p2, golden.d, q2)}")
print(f"expansion: {expand(golden)}")
print(f"purely periodic? {is_purely_periodic(golden)}")

# The conjugate of (3 + sqrt 5)/2 lies in (0, 1), so its expansion has no
# preperiod at all: it is the fixed point of its own step.
reduced = QuadIrr(3, 5, 2)
print(f"\nx = {reduced}: expansion {expand(reduced)}")
print(f"purely periodic? {is_purely_periodic(reduced)}")

# The fixed slope of the flagship monodromy.
a = Mat2(1640, 221, -141, -19)
omega = fixed_point(a)
print(f"\nfixed slope of {a}:")
print(f"  omega = {omega}")
print(f"  expansion = {expand(omega)}")

# Discriminants grow fast under base covers; the arithmetic stays exact.
a4 = power(a, 4)
omega4 = fixed_point(a4)
print(f"\nfixed slope of A^4 has discriminant {omega4.d} ({len(str(omega4.d))} digits)")
print(f"  period of the expansion has length {len(expand(omega4).period)}")
