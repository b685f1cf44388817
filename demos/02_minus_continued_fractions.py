"""Minus-sign continued fractions, computed exactly.

A quadratic irrational (p + sqrt(d))/q expands as a0 - 1/(a1 - 1/(a2 - ...))
with digits a_i = ceil(x_i).  The expansion is eventually periodic, and the
period of the expanding fixed slope (a - d + sqrt(t^2 - 4))/(2b) of a
monodromy matrix [[a, b], [c, d]] of trace t is exactly its resolution
cycle.  `expand` counts the preperiod digits and returns the period as the
blocks of a `Cycle`: a run of k 2s, then a digit >= 3, per block.  The
digits themselves come one at a time from `step`, which carries x as the
binary quadratic form (p, q, r) with p^2 - q r = d.  Everything below runs on
integers; no floating point is involved even when d has 26 digits.
"""

import sys
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import Cycle, Mat2, expand, power, step


def digits(a: Mat2, count: int) -> list[int]:
    """The first count digits of a's fixed slope, one `step` each, from its
    form (a - d, 2b, -2c)."""
    p, q, r = a.a - a.d, 2 * a.b, -2 * a.c
    s = isqrt(a.trace**2 - 4)
    out = []
    for _ in range(count):
        digit, p, q, r = step(p, q, r, s)
        out.append(digit)
    return out


def length(blocks: tuple[int, ...]) -> int:
    """The number of digits that flat blocks (k_1, e_1, ..., k_b, e_b) stand for."""
    return sum(blocks[::2]) + len(blocks) // 2


# The golden ratio (1 + sqrt 5)/2 is the fixed slope of [[2, 1], [1, 1]]:
# p = 2 - 1, q = 2 * 1, d = 3^2 - 4, and r = -2 * 1, so that p^2 - q r = d.
# One step runs on the integer form (p, q, r) with s = isqrt(d) fixed: the
# digit is the exact ceiling of x, the next value is (p' + sqrt d)/q', and
# the next r is the old q.
g = Mat2(2, 1, 1, 1)
p, q, r, d = g.a - g.d, 2 * g.b, -2 * g.c, g.trace**2 - 4
digit, p2, q2, r2 = step(p, q, r, isqrt(d))
print(f"fixed slope of {g}: x = ({p} + sqrt({d}))/{q}, ceil(x) = {digit}")
print(f"one step on (p, q, r) = ({p}, {q}, {r}): digit {digit}, next form ({p2}, {q2}, {r2}),")
print(f"  next value ({p2} + sqrt({d}))/{q2}, and {p2}^2 - {q2} * {r2} = {p2 * p2 - q2 * r2}")
preperiod, blocks = expand(g)
print(f"expansion: preperiod {tuple(digits(g, preperiod))}, period blocks {blocks}")
print(f"purely periodic? {preperiod == 0}")

# (3 + sqrt 5)/2, the fixed slope of [[3, 1], [-1, 0]], has its conjugate in
# (0, 1), so its expansion has no preperiod at all: it is the fixed point of
# its own step, and its period (3,) is the cycle of that monodromy.
m3 = Mat2(3, 1, -1, 0)
preperiod, blocks = expand(m3)
print(f"\nfixed slope of {m3}: {preperiod} preperiod digits, period blocks {blocks}")
print(f"purely periodic? {preperiod == 0}")

# The fixed slope of the flagship monodromy, and of a conjugate of it that
# needs two digits before it reaches its period.  Stepping on from the
# preperiod gives the period's digits; the blocks wrap the 2s after its last
# digit >= 3 onto the first block, so they read the period from there.
a = Mat2(1640, 221, -141, -19)
for m in (a, Mat2(1781, 2021, -141, -160)):
    preperiod, blocks = expand(m)
    stepped = digits(m, preperiod + length(blocks))
    print(f"\nfixed slope of {m}: ({m.a - m.d} + sqrt({m.trace**2 - 4}))/{2 * m.b}")
    print(f"  preperiod {tuple(stepped[:preperiod])}")
    print(f"  period {tuple(stepped[preperiod:])}")
    print(f"  period blocks {blocks}, cycle {Cycle(stepped[preperiod:])}")

# Discriminants grow fast under base covers; the arithmetic stays exact.
a4 = power(a, 4)
d4 = a4.trace**2 - 4
blocks = expand(a4)[1]
print(f"\nfixed slope of A^4 has discriminant t^2 - 4 = {d4} ({len(str(d4))} digits)")
print(f"  period of the expansion has length {length(blocks)}")
