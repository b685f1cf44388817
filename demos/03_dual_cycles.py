"""Dual cusps and the block-swap rule.

Reversing the orientation of a cusp link gives the dual cusp, whose
monodromy is the inverse matrix.  On cycles the passage to the dual is the
block swap: write the cycle as runs (m+3, 2, ..., 2) and exchange the roles
of the (entry - 3) counts and the lengths of the runs of twos, reversing
the block order.  A cusp is a complete intersection exactly when its dual
cycle has length at most 4.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import (
    Cycle,
    cycle_of,
    dual_cycle,
    dual_length,
    inverse,
    is_ci_link,
    monodromy_of,
)

c = Cycle((8, 2, 4, 3, 12))
d = dual_cycle(c)
print(f"cycle        {c}   length {len(c)}")
print(f"dual cycle   {d}   length {len(d)}")
print(f"dual_length formula: sum(entry - 2) = {dual_length(c)}")

# The dual of the dual is the original cycle.
assert dual_cycle(d) == c

# The dual cycle is the cycle of the inverse monodromy.
assert cycle_of(inverse(monodromy_of(c))) == d

# Self-dual examples exist: (3) and (2,3,4) among them.
for entries in [(3,), (2, 3, 4)]:
    sd = Cycle(entries)
    print(f"\n{sd} has dual {dual_cycle(sd)}"
          f"{'  (self-dual)' if dual_cycle(sd) == sd else ''}")

# The complete-intersection test looks at both lengths.
for entries in [(3,), (2, 2, 2, 3), (8, 2, 4, 3, 12)]:
    cyc = Cycle(entries)
    print(f"is_ci_link {cyc}: {is_ci_link(cyc)} "
          f"(lengths {len(cyc)} and {dual_length(cyc)})")
