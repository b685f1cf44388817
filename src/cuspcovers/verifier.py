"""End-to-end certification: does a cusp admit a Galois cover by a complete
intersection?

A cover is a CI exactly when its cycle or its dual cycle has length at most
4, and covers of base degree 5 or more repeat a cycle five times, so
checking every normal cover of degree 1..4 decides the question.  The trace
and matrix searches used to hunt for candidate cusps live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import CoverRecord, enumerate_covers
from .cycles import Cycle, cycle_of, dual_cycle, is_ci_link
from .intmath import is_prime
from .matrices import Mat2, require_cusp

CANDIDATE_SPAN = 10**4

HAS_CI_COVER = "HAS_CI_COVER"
NO_CI_COVER = "NO_CI_COVER"


@dataclass(frozen=True)
class Certificate:
    """The full verdict document for one cusp monodromy.

    covers holds every normal cover of base degree 1..4 in deterministic
    order; witness indexes the first record whose cycle or dual cycle has
    length at most 4, or is None when there is none.  The witness decides:
    verdict is NO_CI_COVER when it is None and HAS_CI_COVER otherwise.
    """

    monodromy: Mat2
    cycle: Cycle
    dual: Cycle
    covers: tuple[CoverRecord, ...]
    witness: int | None

    @property
    def verdict(self) -> str:
        return NO_CI_COVER if self.witness is None else HAS_CI_COVER


def verify(a: Mat2) -> Certificate:
    """Certificate for the cusp with monodromy a (det 1, trace >= 3)."""
    require_cusp(a)
    records = tuple(enumerate_covers(a, 4))
    witness = next((i for i, rec in enumerate(records) if is_ci_link(rec.cycle)), None)
    cyc = cycle_of(a)
    return Certificate(
        monodromy=a,
        cycle=cyc,
        dual=dual_cycle(cyc),
        covers=records,
        witness=witness,
    )


def admissible_traces(limit: int) -> list[int]:
    """Traces x <= limit with x and x-2 prime, x+2 = 3*prime, x+1 = 2*prime.

    These keep the fiber indices of normal covers as unfactorable as
    possible.  Applied literally the filter starts 13, 1621, 6661; the value
    5 fails it because 7 is not three times a prime.  The last two force
    x == 1 (mod 6), so x steps by 6 from 7; (x + 2)/3, the cheapest to test,
    is tested first.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    return [
        x
        for x in range(7, limit + 1, 6)
        if is_prime((x + 2) // 3)
        and is_prime((x + 1) // 2)
        and is_prime(x)
        and is_prime(x - 2)
    ]


def candidate_matrices(trace: int, limit: int) -> list[Mat2]:
    """Up to limit matrices [[a, b], [c, d]] with a + d = trace, det 1 and
    a > b > -d >= 0, so their fixed slopes are purely periodic.

    For each a in [trace, trace + CANDIDATE_SPAN] (so d = trace - a <= 0), b
    runs over the divisors of 1 - a*d inside the admissible window (-d, a),
    which has width trace, and c = (a*d - 1)/b.  Ordered by a ascending then
    b ascending.  Useful candidates cluster just above a = trace; the span
    cap keeps exhausted searches (fewer than limit candidates exist) bounded.
    """
    if trace < 3:
        raise ValueError("trace must be >= 3")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out: list[Mat2] = []
    for a in range(trace, trace + CANDIDATE_SPAN + 1):
        if len(out) >= limit:
            break
        d = trace - a
        m = 1 - a * d  # = |a*d - 1| since a*d <= 0
        for b in range(-d + 1, a):
            if m % b == 0:
                out.append(Mat2(a, b, (a * d - 1) // b, d))
                if len(out) >= limit:
                    break
    return out
