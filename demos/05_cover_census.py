"""The full cover census and the no-CI-cover certificate.

Covers of base degree 5 or more repeat a cycle five times, so a cusp has a
complete intersection Galois cover exactly when some normal cover of base
degree 1..4 has cycle or dual cycle of length at most 4.  The census below
reproduces the classification that rules every one of the 58 covers of the
(8,2,4,3,12) cusp out.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cuspcovers import Mat2, enumerate_covers, verify, verify_cycle

a = Mat2(1640, 221, -141, -19)

records = enumerate_covers(a, 4)
print(f"{len(records)} normal covers of base degree 1..4\n")
print(f"{'deg':>3} {'fiber index':>14} {'cycle':>6} {'dual':>6}")
for r in records:
    print(f"{r.base_degree:>3} {r.fiber.index:>14} {len(r.cycle):>6} {len(r.dual):>6}")

cert = verify(a)
print(f"\nverdict: {cert.verdict}")
print(f"shortest cycle or dual among covers: "
      f"{min(min(len(r.cycle), len(r.dual)) for r in cert.covers)} (needs <= 4 for a CI)")

# A cusp that does have a CI cover: itself, when its own cycle is short.
small = verify_cycle((2, 2, 2, 3))
w = small.covers[small.witness]
print(f"\ncycle (2,2,2,3): {small.verdict}, witnessed by the degree-{w.base_degree} "
      f"cover with fiber index {w.fiber.index}")

# Halving the census by duality keeps the verdict.
half = verify(a, half=True)
print(f"\nwith --half: {len(half.covers)} records, verdict {half.verdict}")
