import random
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt

import pytest

import cuspcovers.cfrac
from cuspcovers.cfrac import (
    CFExpansion,
    ExpansionError,
    QuadIrr,
    expand,
    fixed_point,
    is_purely_periodic,
    step,
)
from cuspcovers.cli import main
from cuspcovers.cycles import monodromy_of
from cuspcovers.matrices import Mat2, power
from cuspcovers.verifier import candidate_matrices
from helpers import (
    ceil_quad,
    expand_by_state_table,
    is_reduced_by_ceilings,
    random_cycle,
    step_on_quadirr,
)

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
    with pytest.raises(ValueError, match="determinant 1 and trace 2;"):
        fixed_point(Mat2(1, 1, 0, 1))
    with pytest.raises(ValueError):
        fixed_point(Mat2(2, 1, 1, 1 + 1))  # det != 1
    with pytest.raises(ValueError, match="determinant 4 and trace 4;"):
        fixed_point(Mat2(3, 1, -1, 1))


def test_ceil_quad():
    assert ceil_quad(GOLDEN) == 2
    assert ceil_quad(QuadIrr(3, 5, 2)) == 3
    assert ceil_quad(QuadIrr(0, 2, 1)) == 2
    assert ceil_quad(QuadIrr(0, 2, -1)) == -1  # -sqrt(2)
    assert ceil_quad(QuadIrr(-3, 5, 2)) == 0   # (-3 + sqrt 5)/2 ~ -0.38


def _step(x: QuadIrr) -> tuple[int, int, int]:
    return step(x.p, x.q, x.d, isqrt(x.d))


def test_step_examples():
    assert _step(QuadIrr(3, 5, 2)) == (3, 3, 2)  # fixed point of its own step
    assert _step(GOLDEN) == (2, 3, 2)
    assert _step(QuadIrr(0, 2, -1)) == (-1, 1, 1)  # -sqrt(2) = -1 - 1/(1 + sqrt 2)


def test_step_keeps_discriminant_and_invariant():
    rng = random.Random(37)
    for _ in range(300):
        x = _random_quadirr(rng)
        digit, p2, q2 = _step(x)
        nxt = QuadIrr(p2, x.d, q2)
        assert (nxt.p, nxt.d, nxt.q) == (p2, x.d, q2)
        assert (x.d - p2 * p2) % q2 == 0
        # next > 1 always
        assert ceil_quad(nxt) >= 2


def test_step_matches_the_quadirr_step_for_both_signs_of_q():
    # 300 states with q > 0 and 300 with q < 0, half of them with
    # discriminants of order 10**27 like those of degree-4 covers.
    rng = random.Random(53)
    checked = {1: 0, -1: 0}
    for i in range(600):
        sign = 1 if i % 2 else -1
        while True:
            d = rng.randint(2, 10**6 if i % 4 < 2 else 10**27)
            if isqrt(d) ** 2 != d:
                break
        x = QuadIrr(rng.randint(-10**4, 10**4), d, sign * rng.randint(1, 10**3))
        digit, nxt = step_on_quadirr(x)
        assert _step(x) == (digit, nxt.p, nxt.q)
        assert nxt.d == x.d
        checked[sign] += 1
    assert checked == {1: 300, -1: 300}


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
    # The first repeated state already ends a primitive period, for random
    # values and for the fixed points of cycle powers alike.
    rng = random.Random(47)
    values = [_random_quadirr(rng) for _ in range(60)]
    for _ in range(150):
        b = monodromy_of(random_cycle(rng, max_len=5, max_entry=9))
        values += [fixed_point(power(b, n)) for n in range(1, 5)]
    for x in values:
        period = expand(x).period
        k = len(period)
        for w in range(1, k):
            assert k % w or period != period[:w] * (k // w)


def test_expand_ceiling_is_an_internal_error(monkeypatch, capsys):
    # The period of (3, 2, ..., 2) with 200 twos is 201 digits, past a ceiling of 100.
    monkeypatch.setattr(cuspcovers.cfrac, "MAX_STEPS", 100)
    with pytest.raises(ExpansionError, match="within 100 steps"):
        expand(fixed_point(monodromy_of((3,) + (2,) * 200)))
    assert main(["cycle", "-c", ",".join(["3"] + ["2"] * 200)]) == 1
    assert "internal error" in capsys.readouterr().err


def test_pure_periodicity_examples():
    assert is_purely_periodic(QuadIrr(3, 5, 2))
    assert not is_purely_periodic(GOLDEN)  # conjugate is negative
    assert not is_purely_periodic(QuadIrr(1, 5, 4))  # x ~ 0.81 < 1
    assert not is_purely_periodic(QuadIrr(7, 5, 2))  # conjugate ~ 2.38 > 1
    # q < 0 puts conj(x) = x + 2 sqrt(d)/|q| above x, so x > 1 forces conj(x) > 1
    assert not is_purely_periodic(QuadIrr(-5, 5, -2))


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
    # expand splits at the first reduced state; the oracles split at the first
    # repeated state and test reducedness through two ceilings.
    rng = random.Random(41)
    for _ in range(500):
        x = _random_quadirr(rng)
        split = expand_by_state_table(x)
        assert expand(x) == split
        assert is_purely_periodic(x) == is_reduced_by_ceilings(x) == (split.preperiod == ())


def test_expand_memory_keeps_no_state_table():
    # A 20001-digit period: its digits take about 0.5 MB, a table of its
    # (p, q) states about 3.9 MB more.
    x = fixed_point(monodromy_of((3,) + (2,) * 20000))
    tracemalloc.start()
    try:
        exp = expand(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(exp.period) == 20001
    assert peak < 1.5 * 10**6


def test_expansion_reassembles_to_the_value():
    getcontext().prec = 60
    rng = random.Random(43)
    for _ in range(40):
        # digits >= 3 keep convergence geometric, so 60 digits are plenty
        k = rng.randint(1, 5)
        entries = tuple(rng.randint(3, 9) for _ in range(k))
        x = fixed_point(monodromy_of(entries))
        exp = expand(x)
        digits = list(exp.preperiod) + list(exp.period) * (60 // len(exp.period) + 1)
        acc = Fraction(digits[-1])
        for a in reversed(digits[:-1]):
            acc = a - Fraction(1) / acc
        value = (x.p + Decimal(x.d).sqrt()) / x.q
        err = abs(Decimal(acc.numerator) / Decimal(acc.denominator) - value)
        assert err < Decimal("1e-15")
