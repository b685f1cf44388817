"""Minus-sign continued fractions of the fixed slopes of cusp monodromies.

The expansion x = a0 - 1/(a1 - 1/(a2 - ...)) with digits a_i = ceil(x_i) is
eventually periodic exactly for quadratic irrationals.  By Zagier's
reduction theory its period starts at the first reduced state,
x > 1 > conj(x) > 0, which `expand` tests in integers.  All steps run in
integer arithmetic, so discriminants of order 10**27 cost nothing in
accuracy.  `expand` keeps no digits: it counts the preperiod and
run-length-codes the period into the flat blocks of `cycles.Cycle` as it
steps.

A state is the binary quadratic form (p, q, r) with p^2 - q r = d, which
stands for x = (p + sqrt(d)) / q (Zagier 1975; Buchmann and Vollmer,
Binary Quadratic Forms, 2007).  Carrying r = (p^2 - d) / q with p and q
keeps the exact division by q out of every step: the next r is the old q,
and the next q is the old r plus a product, so a digit costs one floor
division, the digit itself, and no squaring.

The expanded value is the expanding fixed slope (a - d + sqrt(t^2 - 4)) / (2b)
of a monodromy [[a, b], [c, d]] with det 1 and trace t >= 3.  Its form is
(a - d, 2b, -2c), since (a - d)^2 - (t^2 - 4) = -4(ad - 1) = -4bc, and it
needs no rescaling: b != 0 (det 1 and b = 0 force a = d = +-1, trace +-2),
and t^2 - 4 > 0 is not a square (two squares differ by 4 only as 4 and 0),
so sqrt(d) is irrational.
"""

from __future__ import annotations

from math import isqrt

from .matrices import Mat2, require_cusp

__all__ = ["ExpansionError", "expand", "step"]

MAX_STEPS = 10**6


class ExpansionError(RuntimeError):
    """An expansion failed internally or passed the `MAX_STEPS` ceiling of `expand`.

    Valid input meets the ceiling: the covers of (x) expand about x digits.
    """


def step(p: int, q: int, r: int, s: int) -> tuple[int, int, int, int]:
    """One expansion step on the form (p, q, r), p^2 - q r = d, of
    x = (p + sqrt(d)) / q, with s = isqrt(d): returns (digit, p', q', r') with
    x = digit - 1/x', x' = (p' + sqrt(d)) / q' > 1 and r' = q.

    The digit is the exact ceiling of x.  floor((p + sqrt(d)) / m) equals
    (p + s) // m for m > 0, and x is irrational, so ceil(x) is
    (p + s) // q + 1 for q > 0 and -((p + s) // -q) for q < 0.  Then
    p' = digit q - p, and q' = (p'^2 - d) / q expands, by p^2 - d = q r and
    digit q = p' + p, to r + digit (p' - p), with no division; r' = q since
    p'^2 - d = q q'.  The recurrence keeps p^2 - q r fixed for any digit,
    so a form that ever leaves d never returns to it.
    """
    digit = (p + s) // q + 1 if q > 0 else -((p + s) // -q)
    p2 = digit * q - p
    return digit, p2, r + digit * (p2 - p), q


def expand(a: Mat2) -> tuple[int, tuple[int, ...]]:
    """(preperiod length, period blocks) of the expanding fixed slope of the
    monodromy a: the preperiod runs up to the first reduced state, the period
    from there to that state's first return.  Non-cusps raise ValueError.

    Every orbit of `step` reaches a reduced state and then stays among
    reduced states; step permutes the finitely many reduced (p, q) states of
    the discriminant d, a step invariant, so the reduced states of one orbit
    form a single cycle.  The preperiod is never revisited and the first
    return, a repeat of (p, q), closes the period.  That period is
    primitive: digits determine a purely periodic value, so a shorter
    repeating block would bring the state back sooner.  An expansion of
    L = preperiod + period digits needs a `MAX_STEPS` above L; otherwise it
    raises ExpansionError.

    The preperiod digits are counted, not kept.  The period comes back as the
    flat blocks (k_1, e_1, ..., k_b, e_b) of `cycles.Cycle`, read from the
    reduced state: each digit >= 3 closes a block, whose run of 2s is the
    distance in digits from the block before, and the 2s after the last one
    wrap onto k_1.  So the expansion holds O(blocks) ints however long the
    period.  A period digit < 2, or a period of 2s only, is no cycle and
    raises ExpansionError.  So does a closing form whose p^2 - q r is not
    d: `step` keeps that value, so one check when the period closes catches
    a form that went wrong anywhere.

    The cusp test runs on the unpacked entries (`require_cusp` only words
    the error), and the form steps as plain ints in two loops: one up to
    the first reduced state and one until that state returns.  The reduced
    test is Zagier's, q > 0, r > 0 and q + r < 2p, on the form alone.  For
    q > 0, x > 1 > conj(x) iff |p - q| < sqrt(d), that is
    (p - q)^2 < d = p^2 - q r, that is q + r < 2p; and conj(x) > 0 iff
    p > sqrt(d), iff p > 0 and q r = p^2 - d > 0, where p > 0 follows from
    q + r < 2p once q and r are positive.  For q < 0,
    conj(x) = x + 2 sqrt(d)/|q| exceeds x, so x is never reduced.
    s = isqrt(d) is taken once, as d never changes, and `step` is read from
    the module once per call, so a wrapper bound in its place sees every
    digit.
    """
    aa, ab, ac, ad = a
    t = aa + ad
    if aa * ad - ab * ac != 1 or t < 3:
        require_cusp(a)
    p, q, r, d = aa - ad, 2 * ab, -2 * ac, t * t - 4
    s = isqrt(d)
    advance = step
    for preperiod in range(MAX_STEPS):
        if q > 0 and r > 0 and q + r < 2 * p:
            break
        _, p, q, r = advance(p, q, r, s)
    else:
        raise ExpansionError(f"state failed to repeat within {MAX_STEPS} steps")
    p0, q0 = p, q
    blocks: list[int] = []
    # Period digit i closes a block when it is >= 3; the run of 2s before it
    # is i - start, start being the index after the last block closed, so a
    # 2 costs one comparison.
    start = 0
    # The two loops share MAX_STEPS passes: the first took preperiod + 1, its
    # last one finding the reduced state, and each period digit takes one.
    for i in range(MAX_STEPS - preperiod - 1):
        digit, p, q, r = advance(p, q, r, s)
        if digit != 2:
            if digit < 2:
                raise ExpansionError(f"period digit {digit} < 2; expansion is inconsistent")
            blocks += (i - start, digit)
            start = i + 1
        if p == p0 and q == q0:
            if not blocks:
                raise ExpansionError("period of 2s only; expansion is inconsistent")
            if p * p - q * r != d:
                raise ExpansionError(f"form ({p}, {q}, {r}) left discriminant {d}; expansion is inconsistent")
            blocks[0] += i + 1 - start
            return preperiod, tuple(blocks)
    raise ExpansionError(f"state failed to repeat within {MAX_STEPS} steps")
