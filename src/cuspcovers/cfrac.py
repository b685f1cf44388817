"""Minus-sign continued fractions of real quadratic irrationals.

The expansion x = a0 - 1/(a1 - 1/(a2 - ...)) with digits a_i = ceil(x_i) is
eventually periodic exactly for quadratic irrationals.  By Zagier's
reduction theory its period starts at the first reduced state,
x > 1 > conj(x) > 0, which `is_purely_periodic` tests in integers.  All
steps run in integer arithmetic on the (p, q) state of a normalized
(p, d, q) triple, so discriminants of order 10**27 cost nothing in accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .matrices import Mat2, require_cusp

MAX_STEPS = 10**6


class ExpansionError(RuntimeError):
    """An expansion failed internally or passed the `MAX_STEPS` ceiling of `expand`.

    Valid input meets the ceiling: the covers of (x) expand about x digits.
    """


@dataclass(frozen=True)
class QuadIrr:
    """The real number (p + sqrt(d)) / q with d > 0 not a perfect square.

    Construction rescales (p, d, q) so that q divides d - p^2, the invariant
    that keeps every expansion step integral and the state space finite.
    """

    p: int
    d: int
    q: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise ValueError("zero denominator")
        if self.d <= 0:
            raise ValueError("discriminant must be positive")
        r = isqrt(self.d)
        if r * r == self.d:
            raise ValueError("perfect-square discriminant gives a rational value")
        if (self.d - self.p * self.p) % self.q != 0:
            s = abs(self.q)
            object.__setattr__(self, "p", self.p * s)
            object.__setattr__(self, "d", self.d * s * s)
            object.__setattr__(self, "q", self.q * s)

    def __str__(self) -> str:
        return f"({self.p} + sqrt({self.d}))/{self.q}"


@dataclass(frozen=True)
class CFExpansion:
    """Eventually periodic digit sequence: preperiod then a primitive period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]


def _reduced(p: int, q: int, s: int) -> bool:
    """Whether (p + sqrt(d)) / q is reduced, x > 1 > conj(x) > 0, for s = isqrt(d).

    With sqrt(d) irrational, for q > 0 conj(x) > 0 iff p > s, conj(x) < 1 iff
    p - q <= s, and x > 1 iff q - p <= s.  For q < 0 conj(x) = x + 2 sqrt(d)/|q|
    exceeds x, so x is never reduced.
    """
    return q > 0 and s < p and abs(p - q) <= s


def step(p: int, q: int, d: int, s: int) -> tuple[int, int, int]:
    """One expansion step on x = (p + sqrt(d)) / q, s = isqrt(d), q | d - p^2:
    returns (digit, p', q') with x = digit - 1/x', x' = (p' + sqrt(d)) / q' > 1.

    The digit is the exact ceiling of x.  floor((p + sqrt(d)) / m) equals
    (p + s) // m for m > 0, and x is irrational, so ceil(x) is
    (p + s) // q + 1 for q > 0 and -((p + s) // -q) for q < 0.  d stays
    fixed and q' divides d - p'^2 = -q q', so the invariant carries over.
    """
    digit = (p + s) // q + 1 if q > 0 else -((p + s) // -q)
    p2 = digit * q - p
    return digit, p2, (p2 * p2 - d) // q


def expand(x: QuadIrr) -> CFExpansion:
    """Full expansion of x: the preperiod runs up to the first reduced state,
    the period from there to that state's first return.

    Every orbit of `step` reaches a reduced state and then stays among
    reduced states; step permutes the finitely many reduced (p, q) states of
    the discriminant d, a step invariant, so the reduced states of one orbit
    form a single cycle.  The preperiod is never revisited and the first
    return, a repeat of (p, q), closes the period.  That period is
    primitive: digits determine a purely periodic value, so a shorter
    repeating block would bring the state back sooner.  No return within
    `MAX_STEPS` digits raises ExpansionError.

    The state steps as plain ints: (p, q, d) is read from x once and
    s = isqrt(d) is taken once, as d never changes.
    """
    p, q, d = x.p, x.q, x.d
    s = isqrt(d)
    digits: list[int] = []
    j: int | None = None
    for _ in range(MAX_STEPS):
        if j is None:
            if _reduced(p, q, s):
                j, p0, q0 = len(digits), p, q
        elif p == p0 and q == q0:
            return CFExpansion(tuple(digits[:j]), tuple(digits[j:]))
        digit, p, q = step(p, q, d, s)
        digits.append(digit)
    raise ExpansionError(f"state failed to repeat within {MAX_STEPS} steps")


def fixed_point(a: Mat2) -> QuadIrr:
    """The expanding fixed slope (a - d + sqrt(t^2 - 4)) / (2b) of a monodromy.

    Requires det 1 and trace >= 3, so b != 0: det 1 and b = 0 force
    a = d = +-1, trace +-2.
    """
    require_cusp(a)
    t = a.trace
    return QuadIrr(a.a - a.d, t * t - 4, 2 * a.b)


def is_purely_periodic(x: QuadIrr) -> bool:
    """True iff x is reduced, x > 1 > conj(x) > 0: the x with empty preperiod."""
    return _reduced(x.p, x.q, isqrt(x.d))
