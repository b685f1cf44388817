"""End-to-end certification: does a cusp admit a Galois cover by a complete
intersection?

A cover is a CI exactly when its cycle or its dual cycle has length at most
`cycles.CI_MAX_LENGTH`, and a cover of base degree above that repeats its
fiber's cycle and dual more than that many times, so checking every normal
cover of degree 1..`covers.MAX_DEGREE` decides the question.  The trace
and matrix searches used to hunt for candidate cusps live here too.  The
trace filter is the package's only question about a range of numbers, so
its sieve of the odd numbers, `_odd_prime_table`, is written and read here
and nowhere else; each trace the sieve passes is checked again by
`intmath.is_prime`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from math import isqrt
from typing import NamedTuple

from .covers import CoverRecord, enumerate_covers
from .cycles import Cycle, cycle_of, is_ci_link
from .intmath import is_prime
from .matrices import Mat2

__all__ = ["Certificate", "HAS_CI_COVER", "NO_CI_COVER", "admissible_traces", "candidate_matrices", "verify"]

CANDIDATE_SPAN = 10**4

HAS_CI_COVER = "HAS_CI_COVER"
NO_CI_COVER = "NO_CI_COVER"


class Certificate(NamedTuple):
    """The full verdict document for one cusp monodromy, as the tuple
    (monodromy, cycle, covers, witness).

    covers holds every normal cover of base degree 1..`covers.MAX_DEGREE`
    in deterministic order; witness indexes the first record that passes
    the CI link test, or is None when there is none.  The witness decides:
    verdict is NO_CI_COVER when it is None and HAS_CI_COVER otherwise.  No
    dual is stored: `dual_cycle(cert.cycle)` builds it."""

    monodromy: Mat2
    cycle: Cycle
    covers: tuple[CoverRecord, ...]
    witness: int | None

    @property
    def verdict(self) -> str:
        return NO_CI_COVER if self.witness is None else HAS_CI_COVER


def verify(a: Mat2) -> Certificate:
    """Certificate for the cusp with monodromy a (det 1, trace >= 3).

    A non-cusp raises ValueError from `invariant_sublattices_between`, the
    first call of `enumerate_covers`, before any power, walk or expansion."""
    records = tuple(enumerate_covers(a))
    witness = next((i for i, rec in enumerate(records) if is_ci_link(rec.cycle)), None)
    return Certificate(monodromy=a, cycle=cycle_of(a), covers=records, witness=witness)


def _odd_prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes over the odd numbers: limit // 2 + 1 bytes, byte i
    is 1 exactly when 2i + 1 is prime, so every odd n <= limit is prime iff
    byte n // 2 is set.  Each odd prime p crosses out p*p, p*p + 2p, ...,
    which are p apart in the table."""
    size = limit // 2 + 1
    table = bytearray([1]) * size
    table[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(2 * size - 1) + 1) // 2):
        if table[i]:
            p = 2 * i + 1
            table[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
    return table


def admissible_traces(limit: int) -> list[int]:
    """Traces x <= limit with x and x-2 prime, x+2 = 3*prime, x+1 = 2*prime.

    These keep the fiber indices of normal covers as unfactorable as
    possible.  Applied literally the filter starts 13, 1621, 6661; the value
    5 fails it because 7 is not three times a prime.  The last two force
    x == 1 (mod 12): x + 2 = 3*prime makes x == 1 (mod 6), and x == 7 (mod 12)
    makes (x + 1)/2 even and above 2.  So x steps by 12 from 13, all four
    numbers are odd, and each is looked up in one sieve of the odd numbers
    up to limit, `_odd_prime_table(limit)`: byte i stands for 2i + 1, so
    (x + 2)/3, (x + 1)/2, x and x - 2 sit at bytes (x + 2) // 6,
    (x + 1) // 4, x // 2 and x // 2 - 1.  Every trace the sieve passes is
    checked again by `is_prime`; a disagreement raises RuntimeError.
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    table = _odd_prime_table(limit)
    traces = [
        x
        for x in range(13, limit + 1, 12)
        if table[(x + 2) // 6] and table[(x + 1) // 4] and table[x // 2] and table[x // 2 - 1]
    ]
    for x in traces:
        if not (is_prime((x + 2) // 3) and is_prime((x + 1) // 2) and is_prime(x) and is_prime(x - 2)):
            raise RuntimeError(f"the prime table passes {x}, which trial division rejects")
    return traces


def _candidate_pairs(trace: int) -> Iterator[tuple[int, int]]:
    """The pairs (a, b) of `candidate_matrices` in order, up to the scan's bound.

    With k = a - trace and m = 1 + a*k, b | m with k < b < a exactly when its
    cofactor m // b is one too: b > k gives m // b <= m / (k + 1) < a, and
    b < a gives m // b > m / a > k.  Since m < a*a, the pairs {b, m // b}
    split at isqrt(m) < a, so b runs over (k, isqrt(m)] and each divisor
    found yields its cofactor too: at most trace/2 divisions per a, about
    sqrt(trace*k) while k is much smaller than trace.
    """
    for a in range(trace, trace + min(CANDIDATE_SPAN, (trace - 1) ** 2 // 4 - 1) + 1):
        k = a - trace
        m = 1 + a * k  # = 1 - a*d = |a*d - 1| since a*d <= 0
        small = [b for b in range(k + 1, isqrt(m) + 1) if m % b == 0]
        for b in small:
            yield a, b
        for b in reversed(small):
            if b * b != m:
                yield a, m // b


def candidate_matrices(trace: int, limit: int) -> list[Mat2]:
    """Up to limit matrices [[a, b], [c, d]] with a + d = trace, det 1 and
    a > b > -d >= 0, so their fixed slopes are purely periodic.

    For each a from trace up (d = trace - a <= 0), b runs over the divisors
    of 1 - a*d in the window (-d, a) and c = (a*d - 1)/b; ordered by a, then b,
    and the first limit pairs (a, b) are kept.
    With k = a - trace and b = k + j (0 < j < trace), k = -j (mod b) turns
    b | 1 + k*a into b | j*(trace - j) - 1 > 0, so k <= j*(trace - 1 - j) - 1
    <= (trace - 1)**2 // 4 - 1, where the scan stops (attained for traces
    3..201); CANDIDATE_SPAN caps it from trace 202 on, so from there the list
    can miss candidates of larger a.
    """
    if trace < 3:
        raise ValueError("trace must be >= 3")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return [
        Mat2(a, b, (a * (trace - a) - 1) // b, trace - a)
        for a, b in islice(_candidate_pairs(trace), limit)
    ]
