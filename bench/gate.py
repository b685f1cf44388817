"""Per-op correctness gate, applied to the certificate JSON a user would see.

A certificate passes when
- every record's dual length is the sum of (b - 2) over its cycle, and the
  stated lengths match the listed entries;
- the witness is the first record whose cycle or dual has length <= 4, and
  the verdict is NO_CI_COVER exactly when no record has that;
- it echoes the input matrix and trace;
- it matches the expectation pinned for that input: the number of records,
  the longest cover cycle and the verdict.  These are conjugacy invariants,
  so they hold for every seeded conjugate of a cusp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

NO_CI_COVER = "NO_CI_COVER"
HAS_CI_COVER = "HAS_CI_COVER"


@dataclass(frozen=True)
class Expect:
    records: int
    longest: int
    verdict: str


# The flagship cusp (8,2,4,3,12) of trace 1621, pinned in every run.
FLAGSHIP = (1640, 221, -141, -19)
FLAGSHIP_EXPECT = Expect(records=58, longest=447, verdict=NO_CI_COVER)


def _dual_len(cycle: list[int]) -> int:
    return sum(b - 2 for b in cycle)


def check(text: str, matrix: tuple[int, int, int, int], expect: Expect) -> str | None:
    """None when the certificate passes, else the first failure found."""
    doc = json.loads(text)
    if doc["input"]["matrix"] != list(matrix):
        return f"input matrix {doc['input']['matrix']} != {list(matrix)}"
    if doc["trace"] != str(matrix[0] + matrix[3]):
        return f"trace {doc['trace']} does not match the input"
    if len(doc["dual_cycle"]) != _dual_len(doc["cycle"]):
        return "top-level dual length is not the sum of (b - 2)"
    witness = None
    longest = 0
    for i, rec in enumerate(doc["covers"]):
        cyc, dual = rec["cycle"], rec["dual"]
        if rec["cycle_len"] != len(cyc) or rec["dual_len"] != len(dual):
            return f"record {i}: stated lengths differ from the entries"
        if len(dual) != _dual_len(cyc):
            return f"record {i}: dual length {len(dual)} != sum(b - 2) = {_dual_len(cyc)}"
        if witness is None and min(len(cyc), len(dual)) <= 4:
            witness = i
        longest = max(longest, len(cyc))
    if doc["witness"] != witness:
        return f"witness {doc['witness']} != first CI record {witness}"
    if doc["verdict"] != (NO_CI_COVER if witness is None else HAS_CI_COVER):
        return f"verdict {doc['verdict']} disagrees with the records"
    if len(doc["covers"]) != expect.records:
        return f"{len(doc['covers'])} records, expected {expect.records}"
    if longest != expect.longest:
        return f"longest cover cycle {longest}, expected {expect.longest}"
    if doc["verdict"] != expect.verdict:
        return f"verdict {doc['verdict']}, expected {expect.verdict}"
    return None
