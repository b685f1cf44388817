"""Hunting for cusps whose cover census stays simple.

The fiber indices of normal covers are built from x - 2, x + 1, x + 2 and x
for the trace x, so traces with x and x - 2 prime, x + 2 three times a
prime, and x + 1 twice a prime keep the subgroup lattice small.  Among
matrices of such a trace, those with a > b > -d >= 0 have purely periodic
fixed slopes and are comfortable to expand.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import (
    admissible_traces,
    candidate_matrices,
    cycle_of,
    dual_length,
    expand,
    verify,
)

traces = admissible_traces(10000)
print("traces passing the strict filter up to 10000:", traces)
for x in traces:
    print(f"  x = {x}: q = {x - 2}, r = {(x + 2) // 3}, s = {(x + 1) // 2}")
print("(5 fails the filter as written: 7 is not three times a prime)")

# Trace 13 is too small to produce long cycles; 1621 is the sweet spot.
for m in candidate_matrices(13, 6):
    c = cycle_of(m)
    print(f"trace 13 candidate {m}: cycle {c}, dual length {dual_length(c)}")

print()
cands = candidate_matrices(1621, 40)
print(f"first {len(cands)} trace-1621 candidates; all purely periodic (empty preperiod):",
      all(expand(m)[0] == () for m in cands))

# The 38th candidate is the example with no CI Galois cover.
star = [m for m in cands if (m.a, m.b) == (1640, 221)][0]
c = cycle_of(star)
print(f"candidate {star}: cycle {c}, lengths {len(c)} and {dual_length(c)}")
print(f"verify: {verify(star).verdict}")
