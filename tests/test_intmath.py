import random
from math import isqrt, prod

import pytest

from cuspcovers.intmath import factorize, is_prime, solve_quadratic_congruence
from helpers import divisors


def _primes_below(limit):
    table = bytearray([1]) * limit
    table[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if table[p]]


PRIMES_TO_2_20 = _primes_below(2**20)


def factorize_by_trial_division(n):
    """{prime: exponent} of n < 2**60 with at most one prime factor above
    2**20, by dividing out the primes below 2**20."""
    out = {}
    for p in PRIMES_TO_2_20:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    assert is_prime(2**61 - 1)  # past 2**32: Miller-Rabin


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(541) == [1, 541]
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-1)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(4857) == {3: 1, 1619: 1}
    assert factorize(1622**2) == {2: 2, 811: 2}
    # t - 2 for the trace 10**22 + 3: trial division stops at 2**16 and rho
    # splits the two primes near 10**9
    assert factorize(10**22 + 1) == {89: 1, 101: 1, 1052788969: 1, 1056689261: 1}


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


def test_congruence_matches_brute_force_scan():
    rng = random.Random(37)
    primes = [p for p in range(2, 3000) if is_prime(p)]
    shapes = {"linear": 0, "no_root": 0, "double": 0, "two": 0}
    cases = 0
    while cases < 2500:
        m = 2 if cases % 50 in (7, 13) else rng.choice(primes)
        a2, a1, a0 = (rng.randint(-10**6, 10**6) for _ in range(3))
        if cases % 5 == 0:
            a2 = m * rng.randint(-3, 3)  # degenerate to a linear congruence
        elif cases % 5 == 1:
            r = rng.randrange(m)  # a2 * (t - r)^2: a double root
            a1, a0 = -2 * a2 * r, a2 * r * r
        if a2 % m == 0 and a1 % m == 0 and a0 % m == 0:
            continue
        cases += 1
        roots = solve_quadratic_congruence(a2, a1, a0, m)
        assert roots == [t for t in range(m) if (a2 * t * t + a1 * t + a0) % m == 0]
        if a2 % m == 0:
            shapes["linear"] += 1
        else:
            shapes[("no_root", "double", "two")[len(roots)]] += 1
    assert min(shapes.values()) >= 10, shapes


def test_congruence_modulo_a_prime_above_a_million():
    m = 1000003
    assert solve_quadratic_congruence(1, -12, 35, m) == [5, 7]
    assert solve_quadratic_congruence(1, 2, 1, m) == [m - 1]
    assert solve_quadratic_congruence(1, 0, -2, m) == []  # 2 is a non-residue, m = 3 mod 8
    assert solve_quadratic_congruence(m, 3, 4, m) == [333333]  # 3 * 333333 + 4 = m


def test_primality_and_factoring_share_one_trial_division():
    # `is_prime` and `factorize` run one routine, `_least_factor`, which is
    # trial division up to 2**32: the factors multiply back, each one is
    # prime, and n is prime iff it is its own factorization.  A loop that
    # skips a divisor keeps the two consistent, so below 20000 a sieve checks
    # the primes independently.  The large cases reach past the first divisor
    # found: a repeated 2, a repeated odd prime, and two primes near 10**6,
    # whose product rho splits.
    limit = 20000
    composite = {j for i in range(2, isqrt(limit) + 1) for j in range(i * i, limit, i)}
    for n in range(1, limit):
        assert is_prime(n) == (n >= 2 and n not in composite)
    for n in [*range(1, limit), 1621 * 1619, 2**40, 3**25, 999983 * 1000003]:
        factors = factorize(n)
        assert prod(p**k for p, k in factors.items()) == n
        assert all(is_prime(p) for p in factors)
        assert is_prime(n) == (factors == {n: 1})
    assert factorize(2**40) == {2: 40}
    assert factorize(3**25) == {3: 25}
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}


def test_strong_pseudoprimes_are_composite():
    # 3825123056546413051 is the least strong pseudoprime to the prime bases
    # 2..23, and only the bases 37 and 41 reject it; 318665857834031151167461
    # is the least to 2..37, and only 41 rejects it.  All their prime factors
    # lie past trial division's 2**16.
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert factorize(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
    assert factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}


def test_three_primes_past_trial_division():
    # Each prime lies in (2**16, 2**20), so rho must split the product and
    # then split whichever part it found that is still composite.
    rng = random.Random(40)
    big = [p for p in PRIMES_TO_2_20 if p > 2**16]
    for _ in range(30):
        p, q, r = sorted(rng.sample(big, 3))
        assert factorize(p * q * r) == {p: 1, q: 1, r: 1}
        assert factorize(p * p * q) == {p: 2, q: 1}
        assert not is_prime(p * q * r)


def test_primality_and_factoring_agree_with_trial_division_past_two_to_the_32():
    # A seeded sample of [2**32, 2**40]: random numbers, products of two
    # primes above 2**16 and primes, each checked against trial division by
    # the primes below 2**20.
    rng = random.Random(41)
    big = [p for p in PRIMES_TO_2_20 if p > 2**16]
    sample = [rng.randrange(2**32, 2**40 + 1) for _ in range(100)]
    sample += [p * q for p, q in (rng.sample(big, 2) for _ in range(40))]
    primes = 0
    while primes < 20:
        n = rng.randrange(2**32, 2**40 + 1) | 1
        if factorize_by_trial_division(n) == {n: 1}:
            sample.append(n)
            primes += 1
    for n in sample:
        factors = factorize(n)
        assert factors == factorize_by_trial_division(n)
        assert list(factors) == sorted(factors)
        assert is_prime(n) == (factors == {n: 1})
