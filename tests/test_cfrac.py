import random
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt

import pytest

import cuspcovers.cfrac
from cuspcovers.cfrac import ExpansionError, expand, step
from cuspcovers.cli import main
from cuspcovers.covers import enumerate_covers
from cuspcovers.cycles import monodromy_of
from cuspcovers.matrices import Mat2, power
from cuspcovers.verifier import candidate_matrices
from helpers import (
    blocks_by_entries,
    ceil_quad,
    conjugated,
    expand_by_state_table,
    fixed_slope,
    is_reduced_by_ceilings,
    is_reduced_by_isqrt,
    is_reduced_form,
    random_cycle,
    random_hyperbolic,
    random_state,
    random_unimodular,
    step_by_ceiling,
)

PAPER_A = Mat2(1640, 221, -141, -19)
GOLDEN_A = Mat2(2, 1, 1, 1)  # fixed slope (1 + sqrt 5)/2
PREPERIODIC_A = Mat2(1781, 2021, -141, -160)  # PAPER_A conjugated by [[1, 1], [0, 1]]


def test_fixed_point_examples():
    # The expanding fixed slope x = (p + sqrt d)/q of a, fixed by x -> (a x + c)/(b x + d),
    # solves b x^2 + (d - a) x - c = 0, whose rational and sqrt(d) parts vanish
    # separately; expand starts from it and returns the oracle's digits as
    # (preperiod length, period blocks).
    for a, state in [
        (PAPER_A, (1659, 2627637, 442)),
        (Mat2(3, 1, -1, 0), (3, 5, 2)),
        (GOLDEN_A, (1, 5, 2)),
    ]:
        p, d, q = fixed_slope(a)
        assert (p, d, q) == state
        assert a.b * (p * p + d) + (a.d - a.a) * p * q - a.c * q * q == 0
        assert 2 * a.b * p + (a.d - a.a) * q == 0
        assert p * p - d == q * -2 * a.c  # the form (p, q, -2c) of discriminant d
        pre, period = expand_by_state_table(p, d, q)
        assert expand(a) == (len(pre), blocks_by_entries(period))


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


def _step(p: int, d: int, q: int) -> tuple[int, int, int, int]:
    """`step` on the oracles' state (p, d, q), as its form (p, q, (p^2 - d) / q)."""
    return step(p, q, (p * p - d) // q, isqrt(d))


def test_step_examples():
    assert _step(3, 5, 2) == (3, 3, 2, 2)  # fixed point of its own step
    assert _step(1, 5, 2) == (2, 3, 2, 2)
    assert _step(0, 2, -1) == (-1, 1, 1, -1)  # -sqrt(2) = -1 - 1/(1 + sqrt 2)


def test_step_keeps_discriminant_and_invariant():
    rng = random.Random(37)
    for _ in range(300):
        p, d, q = random_state(rng, 10**6)
        digit, p2, q2, r2 = _step(p, d, q)
        assert q2 != 0
        assert r2 == q
        assert p2 * p2 - q2 * r2 == d
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
        digit, p2, q2, r2 = _step(p, d, q)
        assert (digit, p2, q2) == step_by_ceiling(p, d, q)
        assert r2 == q and p2 * p2 - q2 * r2 == d
        checked[sign] += 1
    assert checked == {1: 300, -1: 300}


def test_expand_examples():
    # Digits (2; 3, 3, ...) and (3, 3, ...): one preperiod digit or none, and
    # the period (3,), one block of no 2s.
    assert expand_by_state_table(*fixed_slope(GOLDEN_A)) == ((2,), (3,))
    assert expand(GOLDEN_A) == (1, (0, 3))
    assert expand_by_state_table(*fixed_slope(Mat2(3, 1, -1, 0))) == ((), (3,))
    assert expand(Mat2(3, 1, -1, 0)) == (0, (0, 3))


def test_expand_paper_monodromy():
    # The period 8, 2, 4, 3, 12 as blocks: no 2s then 8, one 2 then 4, then 3 and 12.
    assert expand_by_state_table(*fixed_slope(PAPER_A)) == ((), (8, 2, 4, 3, 12))
    assert expand(PAPER_A) == (0, (0, 8, 1, 4, 0, 3, 0, 12))


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
    assert expand(Mat2(3, 1, -1, 0))[1] == (0, 3)
    # The first repeated state already ends a primitive period, for conjugates
    # and for the fixed slopes of cycle powers alike.  The blocks are a
    # rotation of the period's digits, so they repeat a shorter block word
    # exactly when the digits repeat a shorter word.
    for a in _seeded_monodromies(random.Random(47)):
        _, blocks = expand(a)
        _, period = expand_by_state_table(*fixed_slope(a))
        assert blocks == blocks_by_entries(period)
        b = len(blocks) // 2
        for w in range(1, b):
            assert b % w or blocks != blocks[: 2 * w] * (b // w)
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


def test_expand_ceiling_is_the_digit_count_plus_one(monkeypatch):
    # An expansion of L = len(preperiod) + len(period) digits raises at every
    # MAX_STEPS up to L and returns from L + 1 on, with or without a preperiod.
    # L is the oracle's digit count.
    assert PREPERIODIC_A == conjugated(PAPER_A, Mat2(1, 1, 0, 1))
    cases = [(a, *expand_by_state_table(*fixed_slope(a))) for a in (PAPER_A, GOLDEN_A, PREPERIODIC_A)]
    assert [len(pre) for _, pre, _ in cases] == [0, 1, 2]
    for a, pre, period in cases:
        total = len(pre) + len(period)
        for ceiling in range(1, total + 1):
            monkeypatch.setattr(cuspcovers.cfrac, "MAX_STEPS", ceiling)
            with pytest.raises(ExpansionError, match=f"within {ceiling} steps"):
                expand(a)
        monkeypatch.setattr(cuspcovers.cfrac, "MAX_STEPS", total + 1)
        assert expand(a) == (len(pre), blocks_by_entries(period))


def test_expand_calls_step_once_per_digit(monkeypatch):
    # The oracle property: expand returns the state-table oracle's
    # (preperiod, period) digits as (preperiod length, period blocks), the 2s
    # after the last digit >= 3 wrapped onto k_1, and calls step once per
    # oracle digit, no more: the count the benchmark's expansion-step counter
    # reads; expand reads `step` from its module on each call, so a wrapper
    # bound there sees every digit.  On seeded cusps; on random hyperbolic
    # matrices, a random conjugate of each, and powers 1-4 of both; and on
    # every cover of (1621) and (6661), whose periods run to thousands of
    # digits.
    rng = random.Random(59)
    cusps = _seeded_monodromies(rng)
    for _ in range(30):
        m = random_hyperbolic(rng)
        cusps += [power(b, n) for b in (m, conjugated(m, random_unimodular(rng))) for n in range(1, 5)]
    for x in (1621, 6661):
        cusps += [r.induced for r in enumerate_covers(monodromy_of((x,)), 4)]
    calls = []

    def counted(p, q, r, s, step=step):
        calls.append(None)
        return step(p, q, r, s)

    monkeypatch.setattr(cuspcovers.cfrac, "step", counted)
    preperiodic = 0
    for a in cusps:
        calls.clear()
        got = expand(a)
        pre, period = expand_by_state_table(*fixed_slope(a))
        assert got == (len(pre), blocks_by_entries(period)), a
        assert len(calls) == len(pre) + len(period)
        preperiodic += pre != ()
    assert preperiodic > 0


def test_expand_rejects_a_period_that_is_no_cycle(monkeypatch, capsys):
    # A period is a cycle: every digit >= 2, one of them >= 3.  A step that
    # emits digit 1, or 2 in place of every digit >= 3 (keeping the true next
    # state), makes an inconsistent expansion, an internal error.
    def faulty(p, q, r, s, step=step):
        return 1, *step(p, q, r, s)[1:]

    def flattened(p, q, r, s, step=step):
        digit, p2, q2, r2 = step(p, q, r, s)
        return min(digit, 2), p2, q2, r2

    monkeypatch.setattr(cuspcovers.cfrac, "step", faulty)
    with pytest.raises(ExpansionError, match="digit 1 < 2"):
        expand(PAPER_A)
    assert main(["verify", "-m", "1640", "221", "-141", "-19"]) == 1
    assert "internal error" in capsys.readouterr().err
    monkeypatch.setattr(cuspcovers.cfrac, "step", flattened)
    with pytest.raises(ExpansionError, match="2s only"):
        expand(PAPER_A)


def test_expand_checks_the_closing_form(monkeypatch, capsys):
    # step keeps p^2 - q r, so a form that goes wrong once stays off the
    # discriminant, and the one check when the period closes raises.  Adding
    # 1 to r' at the closing step of the flagship's 5-digit period leaves
    # every digit right; adding it at the first preperiod step of a conjugate
    # sends the expansion round a period of another discriminant (2574
    # steps in all).  Without the check both would return blocks.
    def corrupt_call(k):
        calls = []

        def corrupted(p, q, r, s, step=step):
            calls.append(None)
            digit, p2, q2, r2 = step(p, q, r, s)
            return digit, p2, q2, r2 + (len(calls) == k)

        return corrupted

    for a, k in [(PAPER_A, 5), (PREPERIODIC_A, 1)]:
        monkeypatch.setattr(cuspcovers.cfrac, "step", corrupt_call(k))
        with pytest.raises(ExpansionError, match="left discriminant 2627637"):
            expand(a)
    monkeypatch.setattr(cuspcovers.cfrac, "step", corrupt_call(5))
    assert main(["cycle", "-m", "1640", "221", "-141", "-19"]) == 1
    assert capsys.readouterr().err.startswith("internal error: form (1659, 442, 283) left discriminant")


def test_pure_periodicity_examples():
    for state in [(1, 5, 2), (1, 5, 4), (7, 5, 2), (-5, 5, -2), (3, 5, 2)]:
        assert is_reduced_form(*state) == is_reduced_by_isqrt(*state) == is_reduced_by_ceilings(*state)
    assert is_reduced_by_isqrt(3, 5, 2)
    assert not is_reduced_by_isqrt(1, 5, 2)  # conjugate is negative
    assert not is_reduced_by_isqrt(1, 5, 4)  # x ~ 0.81 < 1
    assert not is_reduced_by_isqrt(7, 5, 2)  # conjugate ~ 2.38 > 1
    # q < 0 puts conj(x) = x + 2 sqrt(d)/|q| above x, so x > 1 forces conj(x) > 1
    assert not is_reduced_by_isqrt(-5, 5, -2)


def test_reduced_form_test_matches_the_isqrt_and_ceiling_tests():
    # Zagier's form test q > 0, r > 0, q + r < 2p, which expand runs inline,
    # against the isqrt bounds and the two ceilings, on the first 10 states
    # of the orbits of random states of both signs of q, with discriminants
    # up to 10**6 and 10**27; the orbits reach reduced states and stay there.
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for i in range(200):
        p, d, q = random_state(rng, 10**6 if i % 2 else 10**27, max_p=10**4, max_q=10**3)
        for _ in range(10):
            reduced = is_reduced_form(p, d, q)
            assert reduced == is_reduced_by_isqrt(p, d, q) == is_reduced_by_ceilings(p, d, q)
            seen[reduced] += 1
            _, p, q = step_by_ceiling(p, d, q)
    assert seen[False] > 250 and seen[True] > 1000


def test_pure_periodicity_of_candidate_fixed_points():
    for m in candidate_matrices(50, 40) + candidate_matrices(1621, 40):
        assert is_reduced_form(*fixed_slope(m)) and is_reduced_by_isqrt(*fixed_slope(m))
        preperiod, blocks = expand(m)
        assert preperiod == 0
        assert blocks and all(k >= 0 for k in blocks[::2]) and all(e >= 3 for e in blocks[1::2])
        pre, period = expand_by_state_table(*fixed_slope(m))
        assert pre == () and blocks == blocks_by_entries(period)
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
        assert expand(a) == (len(split[0]), blocks_by_entries(split[1]))
        reduced = is_reduced_form(p, d, q)
        assert reduced == is_reduced_by_isqrt(p, d, q) == is_reduced_by_ceilings(p, d, q) == (split[0] == ())
        assert reduced == (expand(a)[0] == 0)
        negative_b += a.b < 0
        preperiodic += split[0] != ()
    assert negative_b > 0 and preperiodic > 0


def _expand_peak(a: Mat2) -> tuple[tuple[int, tuple[int, ...]], int]:
    tracemalloc.start()
    try:
        out = expand(a)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expand_memory_keeps_no_state_table():
    # A 20001-digit period, one block: expand keeps neither a table of its
    # (p, q) states nor a list of its digits.  Measured with Python 3.11.7:
    # a peak of 444 B, the same as for 2001 digits; keeping the digits (a
    # list, then a tuple) peaked at 333308 B.
    out, peak = _expand_peak(monodromy_of((3,) + (2,) * 20000))
    assert out == (0, (20000, 3))
    assert peak < 4096
    out, small_peak = _expand_peak(monodromy_of((3,) + (2,) * 2000))
    assert out == (0, (2000, 3))
    assert peak - small_peak < 1024


def test_expansion_reassembles_to_the_value():
    getcontext().prec = 60
    rng = random.Random(43)
    for _ in range(40):
        # digits >= 3 keep convergence geometric, so 60 digits are plenty
        k = rng.randint(1, 5)
        entries = tuple(rng.randint(3, 9) for _ in range(k))
        a = monodromy_of(entries)
        preperiod, blocks = expand(a)
        # No 2s: every block is one digit, and the blocks read the period in order.
        assert not any(blocks[::2])
        p, d, q = fixed_slope(a)
        r, s = (p * p - d) // q, isqrt(d)
        digits = []
        for _ in range(preperiod):
            digit, p, q, r = step(p, q, r, s)
            digits.append(digit)
        period = blocks[1::2]
        digits += list(period) * (60 // len(period) + 1)
        acc = Fraction(digits[-1])
        for b in reversed(digits[:-1]):
            acc = b - Fraction(1) / acc
        p, d, q = fixed_slope(a)
        value = (p + Decimal(d).sqrt()) / q
        err = abs(Decimal(acc.numerator) / Decimal(acc.denominator) - value)
        assert err < Decimal("1e-15")
