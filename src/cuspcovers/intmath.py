"""Unbounded-integer primitives: primality, factoring, quadratic congruences.

Everything here is exact and deterministic; no floating point, no
probabilistic shortcuts.  Primality has two sources.  `_odd_prime_table`,
a sieve of Eratosthenes over the odd numbers in `limit // 2 + 1` bytes,
serves only the admissible-trace filter, which checks each trace it passes
again by trial division.  Everything else, `is_prime` and `factorize`, runs
one trial-division routine, `_least_factor`.  Monodromy entries reach
~10**27 in the degree-4 cover computations, so all arithmetic rides on
Python's arbitrary-precision integers.  Quadratic congruences modulo a
prime are solved by the discriminant formula with Tonelli-Shanks square
roots, not by scanning the residues, so a large prime modulus costs a few
modular powers.
"""

from math import isqrt

__all__ = ["solve_quadratic_congruence"]


def _least_factor(n: int, f: int) -> int:
    """The least prime factor of n >= 2, given that n has none below f, which
    is 2 or odd: trial division by f and the odd numbers above it up to
    sqrt(n); n itself when none divides it."""
    if f == 2:
        if n % 2 == 0:
            return 2
        f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _odd_prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes over the odd numbers: limit // 2 + 1 bytes, byte i
    is 1 exactly when 2i + 1 is prime, so every odd n <= limit is prime iff
    byte n // 2 is set.  Each odd prime p crosses out p*p, p*p + 2p, ...,
    which are p apart in the table."""
    size = limit // 2 + 1
    table = bytearray([1]) * size
    table[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(2 * size - 1) + 1) // 2):
        if table[i]:
            p = 2 * i + 1
            table[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
    return table


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (intended for n <= 10**12)."""
    return n >= 2 and _least_factor(n, 2) == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division.

    Each factor found is the least of what is left, so the next search
    starts there."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    out: dict[int, int] = {}
    f = 2
    while n > 1:
        f = _least_factor(n, f)
        out[f] = out.get(f, 0) + 1
        n //= f
    return out


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of the quadratic residue n modulo the odd prime p (Tonelli-Shanks).

    The non-residue is the least z >= 2 with z^((p-1)/2) == -1, so the
    result is deterministic.
    """
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def solve_quadratic_congruence(a2: int, a1: int, a0: int, m: int) -> list[int]:
    """All residues t in [0, m) with a2*t^2 + a1*t + a0 == 0 (mod m), m prime, ascending.

    For m odd and a2 != 0 mod m the roots are (-a1 +- sqrt(D)) / (2*a2) with
    D = a1^2 - 4*a2*a0; the degenerate-to-linear case (a2 == 0 mod m) takes
    a modular inverse, and m = 2 is checked directly.  Every root is checked
    by substitution, under python -O too; a failure raises RuntimeError.
    Rejects non-prime moduli and the identically-zero congruence; callers
    must factor composite moduli themselves.
    """
    if not is_prime(m):
        raise ValueError(f"modulus {m} is not prime")
    a2 %= m
    a1 %= m
    a0 %= m
    if a2 == 0 and a1 == 0 and a0 == 0:
        raise ValueError("congruence vanishes identically modulo m")
    if m == 2:
        roots = [t for t in (0, 1) if (a2 * t * t + a1 * t + a0) % 2 == 0]
    elif a2 == 0:
        roots = [-a0 * pow(a1, -1, m) % m] if a1 else []
    else:
        disc = (a1 * a1 - 4 * a2 * a0) % m
        inv = pow(2 * a2, -1, m)
        if disc == 0:
            roots = [-a1 * inv % m]
        elif pow(disc, (m - 1) // 2, m) != 1:
            roots = []
        else:
            r = _sqrt_mod(disc, m)
            roots = sorted(((-a1 + r) * inv % m, (-a1 - r) * inv % m))
    for t in roots:
        if (a2 * t * t + a1 * t + a0) % m:
            raise RuntimeError(f"{t} is not a root of {a2} t^2 + {a1} t + {a0} modulo {m}")
    return roots
