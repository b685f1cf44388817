import random
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt

import pytest

import cuspcovers.cfrac
from cuspcovers.cfrac import ExpansionError, _reduced, expand, step
from cuspcovers.cli import main
from cuspcovers.covers import enumerate_covers
from cuspcovers.cycles import monodromy_of
from cuspcovers.matrices import Mat2, power
from cuspcovers.verifier import candidate_matrices
from helpers import (
    ceil_quad,
    expand_by_state_table,
    fixed_slope,
    is_reduced_by_ceilings,
    random_cycle,
    random_hyperbolic,
    random_state,
    step_by_ceiling,
)

PAPER_A = Mat2(1640, 221, -141, -19)
GOLDEN_A = Mat2(2, 1, 1, 1)  # fixed slope (1 + sqrt 5)/2


def test_fixed_point_examples():
    # The expanding fixed slope x = (p + sqrt d)/q of a, fixed by x -> (a x + c)/(b x + d),
    # solves b x^2 + (d - a) x - c = 0, whose rational and sqrt(d) parts vanish
    # separately; expand starts from it.
    for a, state in [
        (PAPER_A, (1659, 2627637, 442)),
        (Mat2(3, 1, -1, 0), (3, 5, 2)),
        (GOLDEN_A, (1, 5, 2)),
    ]:
        p, d, q = fixed_slope(a)
        assert (p, d, q) == state
        assert a.b * (p * p + d) + (a.d - a.a) * p * q - a.c * q * q == 0
        assert 2 * a.b * p + (a.d - a.a) * q == 0
        assert expand(a) == expand_by_state_table(p, d, q)


def test_fixed_point_rejects_non_monodromy():
    with pytest.raises(ValueError, match="determinant 1 and trace 2;"):
        expand(Mat2(1, 1, 0, 1))
    with pytest.raises(ValueError):
        expand(Mat2(2, 1, 1, 1 + 1))  # det != 1
    with pytest.raises(ValueError, match="determinant 4 and trace 4;"):
        expand(Mat2(3, 1, -1, 1))


def test_ceil_quad():
    assert ceil_quad(1, 5, 2) == 2
    assert ceil_quad(3, 5, 2) == 3
    assert ceil_quad(0, 2, 1) == 2
    assert ceil_quad(0, 2, -1) == -1  # -sqrt(2)
    assert ceil_quad(-3, 5, 2) == 0   # (-3 + sqrt 5)/2 ~ -0.38


def _step(p: int, d: int, q: int) -> tuple[int, int, int]:
    return step(p, q, d, isqrt(d))


def test_step_examples():
    assert _step(3, 5, 2) == (3, 3, 2)  # fixed point of its own step
    assert _step(1, 5, 2) == (2, 3, 2)
    assert _step(0, 2, -1) == (-1, 1, 1)  # -sqrt(2) = -1 - 1/(1 + sqrt 2)


def test_step_keeps_discriminant_and_invariant():
    rng = random.Random(37)
    for _ in range(300):
        p, d, q = random_state(rng, 10**6)
        digit, p2, q2 = _step(p, d, q)
        assert q2 != 0
        assert (d - p2 * p2) % q2 == 0
        # next > 1 always
        assert ceil_quad(p2, d, q2) >= 2


def test_step_matches_the_quadirr_step_for_both_signs_of_q():
    # 300 states with q > 0 and 300 with q < 0, half of them with
    # discriminants of order 10**27 like those of degree-4 covers.
    rng = random.Random(53)
    checked = {1: 0, -1: 0}
    for i in range(600):
        sign = 1 if i % 2 else -1
        max_d = 10**6 if i % 4 < 2 else 10**27
        p, d, q = random_state(rng, max_d, max_p=10**4, max_q=10**3, sign=sign)
        assert _step(p, d, q) == step_by_ceiling(p, d, q)
        checked[sign] += 1
    assert checked == {1: 300, -1: 300}


def test_expand_examples():
    assert expand(GOLDEN_A) == ((2,), (3,))
    assert expand(Mat2(3, 1, -1, 0)) == ((), (3,))


def test_expand_paper_monodromy():
    assert expand(PAPER_A) == ((), (8, 2, 4, 3, 12))


def _seeded_monodromies(rng) -> list[Mat2]:
    """500 cusp monodromies: the flagship's 58 induced actions and the fourth
    powers of its 32 degree-4 ones (d about 5 * 10**25), powers 1-4 of the
    monodromies of 55 random cycles, and 190 random conjugates."""
    records = enumerate_covers(PAPER_A, 4)
    out = [r.induced for r in records]
    out += [power(r.induced, 4) for r in records if r.base_degree == 4]
    for _ in range(55):
        m = monodromy_of(random_cycle(rng, max_len=5, max_entry=9))
        out += [power(m, n) for n in range(1, 5)]
    while len(out) < 500:
        out.append(random_hyperbolic(rng))
    return out


def test_expand_reduces_period_to_primitive():
    # (3 + sqrt 5)/2 repeated state gives block [3]; a doubled block must not leak out
    assert expand(Mat2(3, 1, -1, 0))[1] == (3,)
    # The first repeated state already ends a primitive period, for conjugates
    # and for the fixed slopes of cycle powers alike.
    for a in _seeded_monodromies(random.Random(47)):
        _, period = expand(a)
        k = len(period)
        for w in range(1, k):
            assert k % w or period != period[:w] * (k // w)


def test_expand_ceiling_is_an_internal_error(monkeypatch, capsys):
    # The period of (3, 2, ..., 2) with 200 twos is 201 digits, past a ceiling of 100.
    monkeypatch.setattr(cuspcovers.cfrac, "MAX_STEPS", 100)
    with pytest.raises(ExpansionError, match="within 100 steps"):
        expand(monodromy_of((3,) + (2,) * 200))
    assert main(["cycle", "-c", ",".join(["3"] + ["2"] * 200)]) == 1
    assert "internal error" in capsys.readouterr().err


def _is_reduced(p: int, d: int, q: int) -> bool:
    return _reduced(p, q, isqrt(d))


def test_pure_periodicity_examples():
    for state in [(1, 5, 2), (1, 5, 4), (7, 5, 2), (-5, 5, -2), (3, 5, 2)]:
        assert _is_reduced(*state) == is_reduced_by_ceilings(*state)
    assert _is_reduced(3, 5, 2)
    assert not _is_reduced(1, 5, 2)  # conjugate is negative
    assert not _is_reduced(1, 5, 4)  # x ~ 0.81 < 1
    assert not _is_reduced(7, 5, 2)  # conjugate ~ 2.38 > 1
    # q < 0 puts conj(x) = x + 2 sqrt(d)/|q| above x, so x > 1 forces conj(x) > 1
    assert not _is_reduced(-5, 5, -2)


def test_pure_periodicity_of_candidate_fixed_points():
    for m in candidate_matrices(50, 40) + candidate_matrices(1621, 40):
        assert _is_reduced(*fixed_slope(m))
        preperiod, period = expand(m)
        assert preperiod == ()
        assert all(d >= 2 for d in period)
        assert any(d >= 3 for d in period)


def test_pure_periodicity_iff_no_preperiod():
    # expand splits at the first reduced state; the oracles split at the first
    # repeated state and test reducedness through two ceilings.  Every slope
    # state is one that step accepts without rescaling.
    negative_b = preperiodic = 0
    for a in _seeded_monodromies(random.Random(41)):
        p, d, q = fixed_slope(a)
        assert q != 0 and (d - p * p) % q == 0 and isqrt(d) ** 2 != d
        split = expand_by_state_table(p, d, q)
        assert expand(a) == split
        assert _is_reduced(p, d, q) == is_reduced_by_ceilings(p, d, q) == (split[0] == ())
        negative_b += a.b < 0
        preperiodic += split[0] != ()
    assert negative_b > 0 and preperiodic > 0


def test_expand_memory_keeps_no_state_table():
    # A 20001-digit period: its digits take about 0.5 MB, a table of its
    # (p, q) states about 3.9 MB more.
    a = monodromy_of((3,) + (2,) * 20000)
    tracemalloc.start()
    try:
        _, period = expand(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(period) == 20001
    assert peak < 1.5 * 10**6


def test_expansion_reassembles_to_the_value():
    getcontext().prec = 60
    rng = random.Random(43)
    for _ in range(40):
        # digits >= 3 keep convergence geometric, so 60 digits are plenty
        k = rng.randint(1, 5)
        entries = tuple(rng.randint(3, 9) for _ in range(k))
        a = monodromy_of(entries)
        preperiod, period = expand(a)
        digits = list(preperiod) + list(period) * (60 // len(period) + 1)
        acc = Fraction(digits[-1])
        for b in reversed(digits[:-1]):
            acc = b - Fraction(1) / acc
        p, d, q = fixed_slope(a)
        value = (p + Decimal(d).sqrt()) / q
        err = abs(Decimal(acc.numerator) / Decimal(acc.denominator) - value)
        assert err < Decimal("1e-15")
