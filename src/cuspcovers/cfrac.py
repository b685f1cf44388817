"""Minus-sign continued fractions of the fixed slopes of cusp monodromies.

The expansion x = a0 - 1/(a1 - 1/(a2 - ...)) with digits a_i = ceil(x_i) is
eventually periodic exactly for quadratic irrationals.  By Zagier's
reduction theory its period starts at the first reduced state,
x > 1 > conj(x) > 0, which `_reduced` tests in integers.  All steps run in
integer arithmetic on the (p, q) state of x = (p + sqrt(d)) / q, so
discriminants of order 10**27 cost nothing in accuracy.

The expanded value is the expanding fixed slope (a - d + sqrt(t^2 - 4)) / (2b)
of a monodromy [[a, b], [c, d]] with det 1 and trace t >= 3.  That state needs
no rescaling: b != 0 (det 1 and b = 0 force a = d = +-1, trace +-2),
t^2 - 4 > 0 is not a square (two squares differ by 4 only as 4 and 0), and
with p = a - d, q = 2b, (t^2 - 4) - p^2 = 4(ad - 1) = 4bc, so q divides it,
the invariant that keeps every step integral.
"""

from __future__ import annotations

from math import isqrt

from .matrices import Mat2, require_cusp

MAX_STEPS = 10**6


class ExpansionError(RuntimeError):
    """An expansion failed internally or passed the `MAX_STEPS` ceiling of `expand`.

    Valid input meets the ceiling: the covers of (x) expand about x digits.
    """


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


def expand(a: Mat2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of the expanding fixed slope of the monodromy a:
    the preperiod runs up to the first reduced state, the period from there
    to that state's first return.  Non-cusps raise ValueError.

    Every orbit of `step` reaches a reduced state and then stays among
    reduced states; step permutes the finitely many reduced (p, q) states of
    the discriminant d, a step invariant, so the reduced states of one orbit
    form a single cycle.  The preperiod is never revisited and the first
    return, a repeat of (p, q), closes the period.  That period is
    primitive: digits determine a purely periodic value, so a shorter
    repeating block would bring the state back sooner.  No return within
    `MAX_STEPS` digits raises ExpansionError.

    The state steps as plain ints, and s = isqrt(d) is taken once, as d
    never changes.
    """
    require_cusp(a)
    t = a.trace
    p, q, d = a.a - a.d, 2 * a.b, t * t - 4
    s = isqrt(d)
    digits: list[int] = []
    j: int | None = None
    for _ in range(MAX_STEPS):
        if j is None:
            if _reduced(p, q, s):
                j, p0, q0 = len(digits), p, q
        elif p == p0 and q == q0:
            return tuple(digits[:j]), tuple(digits[j:])
        digit, p, q = step(p, q, d, s)
        digits.append(digit)
    raise ExpansionError(f"state failed to repeat within {MAX_STEPS} steps")
