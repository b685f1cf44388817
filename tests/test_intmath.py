import random
from math import isqrt

import pytest

from cuspcovers.intmath import (
    divisors,
    factorize,
    is_prime,
    solve_quadratic_congruence,
    xgcd,
)


def test_is_prime_examples():
    assert is_prime(1621)
    assert not is_prime(1)
    assert not is_prime(1623)  # 3 * 541
    assert 1623 == 3 * 541


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(-5, limit + 1):
        assert is_prime(n) == (n >= 2 and sieve[n])


def test_is_prime_large():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 11)  # 3 * 333333337
    assert not is_prime(1621 * 1619)


def test_xgcd_bezout():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        g, s, t = xgcd(a, b)
        assert g >= 0
        assert s * a + t * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(541) == [1, 541]
    with pytest.raises(ValueError):
        divisors(0)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(4857) == {3: 1, 1619: 1}
    assert factorize(1622**2) == {2: 2, 811: 2}


@pytest.mark.parametrize(
    "coeffs,m,expected",
    [
        ((141, 1659, 221), 541, [138]),
        ((141, 1659, 221), 811, [183, 668]),
        ((141, 1659, 221), 1621, [139, 608]),
        ((1097, 1571, 1527), 1621, [541, 653]),
        ((1, 0, 0), 5, [0]),
    ],
)
def test_congruence_paper_values(coeffs, m, expected):
    a2, a1, a0 = coeffs
    assert solve_quadratic_congruence(a2, a1, a0, m) == expected


def test_congruence_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_quadratic_congruence(1, 1, 1, 12)  # composite modulus
    with pytest.raises(ValueError):
        solve_quadratic_congruence(5, 10, 0, 5)  # vanishes identically mod 5


def test_congruence_linear_degenerate_case():
    # a2 = 0 mod m leaves a linear congruence: 3t + 4 = 0 mod 7 -> t = 1
    assert solve_quadratic_congruence(7, 3, 4, 7) == [1]
    # no solution when the congruence collapses to a nonzero constant
    assert solve_quadratic_congruence(7, 14, 3, 7) == []


def test_congruence_roots_are_exact():
    rng = random.Random(31)
    primes = [2, 3, 5, 7, 11, 97, 541, 811]
    for _ in range(200):
        m = rng.choice(primes)
        a2 = rng.randint(-500, 500)
        a1 = rng.randint(-500, 500)
        a0 = rng.randint(-500, 500)
        if a2 % m == 0 and a1 % m == 0 and a0 % m == 0:
            continue
        roots = solve_quadratic_congruence(a2, a1, a0, m)
        for t in range(m):
            satisfied = (a2 * t * t + a1 * t + a0) % m == 0
            assert satisfied == (t in roots)
        if a2 % m:
            assert len(roots) <= 2
