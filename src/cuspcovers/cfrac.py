"""Minus-sign continued fractions of real quadratic irrationals.

The expansion x = a0 - 1/(a1 - 1/(a2 - ...)) with digits a_i = ceil(x_i) is
eventually periodic exactly for quadratic irrationals.  All steps run in
integer arithmetic on a normalized (P, D, Q) state, so discriminants of
order 10**27 cost nothing in accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .intmath import divisors
from .matrices import Mat2


class ExpansionError(RuntimeError):
    """The expansion machinery failed internally; valid inputs never raise this."""


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


def _sqrt_above(c: int, d: int) -> bool:
    # sqrt(d) > c exactly; d is never a perfect square here.
    return c < 0 or d > c * c


def _greater_than(x: QuadIrr, bound: int) -> bool:
    # (p + sqrt(d))/q > bound
    c = bound * x.q - x.p
    return _sqrt_above(c, x.d) if x.q > 0 else not _sqrt_above(c, x.d)


def _conjugate_greater_than(x: QuadIrr, bound: int) -> bool:
    # (p - sqrt(d))/q > bound
    c = x.p - bound * x.q
    return not _sqrt_above(c, x.d) if x.q > 0 else _sqrt_above(c, x.d)


def ceil_quad(x: QuadIrr) -> int:
    """Exact ceiling, via isqrt bounds on sqrt(d); handles both signs of q."""
    s = isqrt(x.d)
    if x.q > 0:
        return (x.p + s) // x.q + 1
    return (-x.p - s - 1) // (-x.q) + 1


def step(x: QuadIrr) -> tuple[int, QuadIrr]:
    """One expansion step: returns (digit, next) with x = digit - 1/next, next > 1."""
    digit = ceil_quad(x)
    p2 = digit * x.q - x.p
    q2 = (p2 * p2 - x.d) // x.q
    return digit, QuadIrr(p2, x.d, q2)


def _primitive(block: list[int]) -> tuple[int, ...]:
    n = len(block)
    for w in divisors(n):
        if block == block[:w] * (n // w):
            return tuple(block[:w])
    return tuple(block)


def expand(x: QuadIrr, max_steps: int = 10**6) -> CFExpansion:
    """Full expansion of x: digits until the (p, q) state repeats.

    The discriminant d is a step invariant, so states are (p, q) pairs and a
    repeat is guaranteed; the first repeated state splits preperiod from
    period, and the period is then reduced to its shortest block.
    """
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    cur = x
    for i in range(max_steps):
        key = (cur.p, cur.q)
        if key in seen:
            j = seen[key]
            return CFExpansion(tuple(digits[:j]), _primitive(digits[j:]))
        seen[key] = i
        digit, cur = step(cur)
        digits.append(digit)
    raise ExpansionError(f"state failed to repeat within {max_steps} steps")


def fixed_point(a: Mat2) -> QuadIrr:
    """The expanding fixed slope (a - d + sqrt(t^2 - 4)) / (2b) of a monodromy.

    Requires det 1 and trace >= 3; b = 0 cannot occur there (it would force
    trace +-2).
    """
    if a.det != 1:
        raise ValueError("fixed_point requires determinant 1")
    t = a.trace
    if t < 3:
        raise ValueError("not a cusp monodromy: trace < 3")
    if a.b == 0:
        raise ValueError("fixed_point requires b != 0")
    return QuadIrr(a.a - a.d, t * t - 4, 2 * a.b)


def is_purely_periodic(x: QuadIrr) -> bool:
    """True iff x > 1 and 0 < conj(x) < 1, decided with integer comparisons.

    Exactly these x have an expansion with empty preperiod.
    """
    return (
        _greater_than(x, 1)
        and _conjugate_greater_than(x, 0)
        and not _conjugate_greater_than(x, 1)
    )
