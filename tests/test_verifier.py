import random

import pytest

from cuspcovers.cfrac import expand
from cuspcovers.cycles import Cycle, monodromy_of
from cuspcovers.intmath import is_prime
from cuspcovers.matrices import Mat2, inverse
from cuspcovers.verifier import (
    HAS_CI_COVER,
    NO_CI_COVER,
    admissible_traces,
    candidate_matrices,
    verify,
)
from helpers import conjugated, random_cycle, random_unimodular

PAPER_A = Mat2(1640, 221, -141, -19)


def small_cusp(rng):
    # tiny cycles keep the degree-4 enumeration fast in randomized loops
    while True:
        c = random_cycle(rng, max_len=3, max_entry=4)
        from cuspcovers.cycles import monodromy_of

        b = monodromy_of(c)
        if b.trace <= 30:
            return b


def test_verify_flagship():
    cert = verify(PAPER_A)
    assert cert.verdict == NO_CI_COVER
    assert cert.witness is None
    assert cert.cycle == Cycle((8, 2, 4, 3, 12))
    assert len(cert.dual) == 19
    assert len(cert.covers) == 58
    assert all(min(len(r.cycle), len(r.dual)) >= 5 for r in cert.covers)


def test_long_cycle_certificate():
    # (1621) = [[1621, 1], [-1, 0]]: the long_cycle benchmark's pinned facts.
    cert = verify(Mat2(1621, 1, -1, 0))
    assert len(cert.covers) == 58
    assert max(len(r.cycle) for r in cert.covers) == 6476
    assert sum(len(r.cycle) + len(r.dual) for r in cert.covers) == 131112
    assert cert.verdict == HAS_CI_COVER


def test_verify_trivial_ci():
    cert = verify(Mat2(3, 1, -1, 0))
    assert cert.verdict == HAS_CI_COVER
    assert cert.witness == 0  # degree 1, fiber Z^2: the cusp itself
    assert cert.covers[0].fiber.index == 1
    assert len(cert.covers[0].cycle) == 1


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError, match="determinant 1 and trace 2;"):
        verify(Mat2(1, 0, 0, 1))
    with pytest.raises(ValueError, match="determinant 4 and trace 4;"):
        verify(Mat2(3, 1, -1, 1))


def test_verify_monodromy_of_cycle_forms():
    assert verify(monodromy_of(Cycle((8, 2, 4, 3, 12)))).verdict == NO_CI_COVER
    assert verify(monodromy_of(Cycle((3,)))).verdict == HAS_CI_COVER
    assert verify(monodromy_of(Cycle((2, 2, 2, 3)))).verdict == HAS_CI_COVER


def test_verify_deterministic():
    assert verify(PAPER_A) == verify(PAPER_A)


def test_witness_recheck():
    rng = random.Random(83)
    for _ in range(25):
        cert = verify(small_cusp(rng))
        if cert.witness is not None:
            w = cert.covers[cert.witness]
            assert min(len(w.cycle), len(w.dual)) <= 4
            assert all(
                min(len(r.cycle), len(r.dual)) > 4 for r in cert.covers[: cert.witness]
            )
        else:
            assert cert.verdict == NO_CI_COVER


def test_verify_agrees_with_inverse():
    rng = random.Random(89)
    for _ in range(15):
        a = small_cusp(rng)
        assert verify(a).verdict == verify(inverse(a)).verdict


def test_conjugation_invariance_of_certificates():
    rng = random.Random(97)
    for _ in range(20):
        a = small_cusp(rng)
        u = random_unimodular(rng, det=1)
        base = verify(a)
        moved = verify(conjugated(a, u))
        assert moved.verdict == base.verdict
        assert sorted((r.cycle.entries, r.dual.entries) for r in moved.covers) == sorted(
            (r.cycle.entries, r.dual.entries) for r in base.covers
        )
        # orientation-reversing base change still cannot move the verdict
        flipped = verify(conjugated(a, random_unimodular(rng, det=-1)))
        assert flipped.verdict == base.verdict


def test_admissible_traces():
    assert admissible_traces(10000) == [13, 1621, 6661, 8221]
    assert admissible_traces(10000)[:3] == [13, 1621, 6661]
    assert admissible_traces(2000) == [13, 1621]
    for limit in (3, 6, 7, 12):
        assert admissible_traces(limit) == []
    assert admissible_traces(13) == [13]
    assert admissible_traces(10**5) == [
        13, 1621, 6661, 8221, 13681, 22621, 36901, 38461, 53281, 54541, 56101, 61561, 94441
    ]
    with pytest.raises(ValueError):
        admissible_traces(2)


def test_admissible_trace_factor_structure():
    for x in admissible_traces(10000):
        assert is_prime(x) and is_prime(x - 2)
        assert (x + 2) % 3 == 0 and is_prime((x + 2) // 3)
        assert (x + 1) % 2 == 0 and is_prime((x + 1) // 2)
    # 13 decomposes as (q, r, s) = (11, 5, 7)
    assert (13 - 2, (13 + 2) // 3, (13 + 1) // 2) == (11, 5, 7)
    # 1621 decomposes as the quadruple used throughout the cover census
    assert (1621 - 2, (1621 + 2) // 3, (1621 + 1) // 2) == (1619, 541, 811)


def test_five_fails_the_strict_filter():
    # 5 and 3 are prime, but 5 + 2 = 7 is not three times a prime
    assert 5 not in admissible_traces(10000)
    assert is_prime(5) and is_prime(3)
    assert 7 % 3 != 0


def test_candidate_matrices():
    cands = candidate_matrices(1621, 100)
    assert PAPER_A in cands
    assert len(cands) == 100
    for m in cands:
        assert m.trace == 1621 and m.det == 1
        assert m.a > m.b > -m.d >= 0
    assert Mat2(3, 1, -1, 0) in candidate_matrices(3, 5)


def test_candidate_matrices_order_and_pure_periodicity():
    cands = candidate_matrices(30, 60)
    keys = [(m.a, m.b) for m in cands]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for m in cands:
        assert expand(m)[0] == ()
    with pytest.raises(ValueError):
        candidate_matrices(2, 5)


def test_candidate_matrices_complete_below_the_proven_bound():
    # Brute force over every a <= t + (t - 1)**2 and every b < a: the scan's
    # stop at a - t = (t - 1)**2 // 4 - 1 loses no candidate, and the last
    # candidate sits exactly at the bound.
    for t in range(3, 41):
        brute = [
            Mat2(a, b, (a * (t - a) - 1) // b, t - a)
            for a in range(t, t + (t - 1) ** 2 + 1)
            for b in range(1, a)
            if b > a - t and (a * (t - a) - 1) % b == 0
        ]
        assert candidate_matrices(t, 10**9) == brute
        assert brute[-1].a == t + (t - 1) ** 2 // 4 - 1
