import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from cuspcovers.cfrac import (
    CFExpansion,
    QuadIrr,
    ceil_quad,
    expand,
    fixed_point,
    is_purely_periodic,
    step,
)
from cuspcovers.matrices import Mat2
from cuspcovers.verifier import candidate_matrices

PAPER_A = Mat2(1640, 221, -141, -19)
GOLDEN = QuadIrr(1, 5, 2)


def test_quadirr_validation():
    with pytest.raises(ValueError):
        QuadIrr(1, 5, 0)
    with pytest.raises(ValueError):
        QuadIrr(1, -5, 2)
    with pytest.raises(ValueError):
        QuadIrr(1, 9, 2)  # perfect square: rational value


def test_quadirr_normalization():
    # 3 does not divide 5 - 1, so the triple is rescaled by |q|
    x = QuadIrr(1, 5, 3)
    assert (x.p, x.d, x.q) == (3, 45, 9)
    assert (x.d - x.p * x.p) % x.q == 0
    # negative q rescales by |q| and keeps the sign
    y = QuadIrr(1, 5, -3)
    assert (y.p, y.d, y.q) == (3, 45, -9)


def test_fixed_point_examples():
    w = fixed_point(PAPER_A)
    assert (w.p, w.d, w.q) == (1659, 2627637, 442)
    assert (lambda x: (x.p, x.d, x.q))(fixed_point(Mat2(3, 1, -1, 0))) == (3, 5, 2)
    assert (lambda x: (x.p, x.d, x.q))(fixed_point(Mat2(2, 1, 1, 1))) == (1, 5, 2)


def test_fixed_point_rejects_non_monodromy():
    with pytest.raises(ValueError):
        fixed_point(Mat2(1, 1, 0, 1))  # trace 2
    with pytest.raises(ValueError):
        fixed_point(Mat2(2, 1, 1, 1 + 1))  # det != 1


def test_ceil_quad():
    assert ceil_quad(GOLDEN) == 2
    assert ceil_quad(QuadIrr(3, 5, 2)) == 3
    assert ceil_quad(QuadIrr(0, 2, 1)) == 2
    assert ceil_quad(QuadIrr(0, 2, -1)) == -1  # -sqrt(2)
    assert ceil_quad(QuadIrr(-3, 5, 2)) == 0   # (-3 + sqrt 5)/2 ~ -0.38


def test_step_examples():
    digit, nxt = step(QuadIrr(3, 5, 2))
    assert digit == 3 and nxt == QuadIrr(3, 5, 2)  # fixed point of its own step
    digit, nxt = step(GOLDEN)
    assert digit == 2 and nxt == QuadIrr(3, 5, 2)


def test_step_keeps_discriminant_and_invariant():
    rng = random.Random(37)
    for _ in range(300):
        x = _random_quadirr(rng)
        digit, nxt = step(x)
        assert nxt.d == x.d
        assert (nxt.d - nxt.p * nxt.p) % nxt.q == 0
        # next > 1 always
        assert ceil_quad(nxt) >= 2


def test_expand_examples():
    assert expand(GOLDEN) == CFExpansion((2,), (3,))
    assert expand(QuadIrr(3, 5, 2)) == CFExpansion((), (3,))


def test_expand_paper_monodromy():
    exp = expand(fixed_point(PAPER_A))
    assert exp.preperiod == ()
    assert exp.period == (8, 2, 4, 3, 12)


def test_expand_reduces_period_to_primitive():
    # (3 + sqrt 5)/2 repeated state gives block [3]; a doubled block must not leak out
    exp = expand(QuadIrr(3, 5, 2))
    assert exp.period == (3,)


def test_pure_periodicity_examples():
    assert is_purely_periodic(QuadIrr(3, 5, 2))
    assert not is_purely_periodic(GOLDEN)  # conjugate is negative


def test_pure_periodicity_of_candidate_fixed_points():
    for m in candidate_matrices(50, 40) + candidate_matrices(1621, 40):
        w = fixed_point(m)
        assert is_purely_periodic(w)
        exp = expand(w)
        assert exp.preperiod == ()
        assert all(d >= 2 for d in exp.period)
        assert any(d >= 3 for d in exp.period)


def _random_quadirr(rng) -> QuadIrr:
    from math import isqrt

    while True:
        d = rng.randint(2, 10**6)
        r = isqrt(d)
        if r * r == d:
            continue
        p = rng.randint(-100, 100)
        q = rng.randint(-50, 50)
        if q == 0:
            continue
        return QuadIrr(p, d, q)


def test_pure_periodicity_iff_no_preperiod():
    rng = random.Random(41)
    for _ in range(500):
        x = _random_quadirr(rng)
        assert is_purely_periodic(x) == (expand(x).preperiod == ())


def test_expansion_reassembles_to_the_value():
    getcontext().prec = 60
    rng = random.Random(43)
    for _ in range(40):
        # digits >= 3 keep convergence geometric, so 60 digits are plenty
        k = rng.randint(1, 5)
        entries = tuple(rng.randint(3, 9) for _ in range(k))
        from cuspcovers.cycles import monodromy_of

        x = fixed_point(monodromy_of(entries))
        exp = expand(x)
        digits = list(exp.preperiod) + list(exp.period) * (60 // len(exp.period) + 1)
        acc = Fraction(digits[-1])
        for a in reversed(digits[:-1]):
            acc = a - Fraction(1) / acc
        value = (x.p + Decimal(x.d).sqrt()) / x.q
        err = abs(Decimal(acc.numerator) / Decimal(acc.denominator) - value)
        assert err < Decimal("1e-15")
