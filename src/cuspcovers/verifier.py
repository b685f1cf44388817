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
from .cycles import Cycle, CycleLike, canonicalize, cycle_of, dual_cycle, is_ci_link, monodromy_of
from .intmath import is_prime
from .matrices import Mat2

HAS_CI_COVER = "HAS_CI_COVER"
NO_CI_COVER = "NO_CI_COVER"


@dataclass(frozen=True)
class Certificate:
    """The full verdict document for one cusp monodromy.

    covers holds every normal cover of base degree 1..4 in deterministic
    order; the verdict is NO_CI_COVER exactly when each record's cycle and
    dual cycle both have length at least 5.  witness indexes the first
    qualifying record otherwise.
    """

    monodromy: Mat2
    trace: int
    cycle: Cycle
    dual: Cycle
    covers: tuple[CoverRecord, ...]
    verdict: str
    witness: int | None


def verify(a: Mat2, *, half: bool = False) -> Certificate:
    """Certificate for the cusp with monodromy a (det 1, trace >= 3)."""
    if a.det != 1:
        raise ValueError("monodromy must have determinant 1")
    if a.trace < 3:
        raise ValueError("not a cusp monodromy: trace < 3")
    records = tuple(enumerate_covers(a, 4, half=half))
    witness = next((i for i, rec in enumerate(records) if is_ci_link(rec.cycle)), None)
    cyc = cycle_of(a)
    return Certificate(
        monodromy=a,
        trace=a.trace,
        cycle=cyc,
        dual=dual_cycle(cyc),
        covers=records,
        verdict=NO_CI_COVER if witness is None else HAS_CI_COVER,
        witness=witness,
    )


def verify_cycle(c: CycleLike, *, half: bool = False) -> Certificate:
    """Certificate for the cusp with the given resolution cycle."""
    return verify(monodromy_of(canonicalize(c)), half=half)


def admissible_traces(limit: int) -> list[int]:
    """Traces x <= limit with x and x-2 prime, x+2 = 3*prime, x+1 = 2*prime.

    These keep the fiber indices of normal covers as unfactorable as
    possible.  Applied literally the filter starts 13, 1621, 6661; the value
    5 fails it because 7 is not three times a prime.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    out = []
    for x in range(3, limit + 1):
        if not (is_prime(x) and is_prime(x - 2)):
            continue
        if (x + 2) % 3 or not is_prime((x + 2) // 3):
            continue
        if (x + 1) % 2 or not is_prime((x + 1) // 2):
            continue
        out.append(x)
    return out


def candidate_matrices(trace: int, limit: int, span: int = 10**4) -> list[Mat2]:
    """Up to limit matrices [[a, b], [c, d]] with a + d = trace, det 1 and
    a > b > -d >= 0, so their fixed slopes are purely periodic.

    For each a in [trace, trace + span] (so d = trace - a <= 0), b runs over
    the divisors of 1 - a*d inside the admissible window (-d, a), which has
    width trace, and c = (a*d - 1)/b.  Ordered by a ascending then b
    ascending.  Useful candidates cluster just above a = trace; the span cap
    keeps exhausted searches (fewer than limit candidates exist) bounded.
    """
    if trace < 3:
        raise ValueError("trace must be >= 3")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out: list[Mat2] = []
    for a in range(trace, trace + span + 1):
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
