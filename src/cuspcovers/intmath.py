"""Unbounded-integer primitives: primality, factoring, quadratic congruences.

Everything here answers a question about one number, exactly and
deterministically; no floating point, no probabilistic shortcuts.  Every
primality and factoring answer, `is_prime` and `factorize` alike, comes
from one routine, `_least_factor`: trial division up to 2**16, then, below
`_MILLER_RABIN_BOUND`, a Miller-Rabin test that is proved deterministic
there and Brent's rho for the composites.  Monodromy entries reach ~10**27
in the degree-4 cover computations, so all arithmetic rides on Python's
arbitrary-precision integers.  Quadratic congruences modulo a prime are
solved by the discriminant formula with Tonelli-Shanks square roots, not by
scanning the residues, so a large prime modulus costs a few modular powers.
"""

from math import gcd, isqrt

__all__ = ["solve_quadratic_congruence"]

_TRIAL_LIMIT = 1 << 16
# Sorenson and Webster (2015): below this bound the strong-pseudoprime test
# to the 13 prime bases 2..41 is passed by primes only.
_MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _least_factor(n: int, f: int) -> int:
    """The least prime factor of n >= 2, given that n has none below f, which
    is 2 or odd; n itself when n is prime.

    Trial division by f and the odd numbers above it runs up to
    min(isqrt(n), 2**16), so every n <= 2**32 is answered by it alone.  A
    larger n with no factor found below 2**16 is decided by
    `_least_prime_above_trial` when it lies below `_MILLER_RABIN_BOUND`; at
    or above the bound trial division goes on up to isqrt(n)."""
    if f == 2:
        if n % 2 == 0:
            return 2
        f = 3
    stop = isqrt(n) if n >= _MILLER_RABIN_BOUND else min(isqrt(n), _TRIAL_LIMIT)
    while f <= stop:
        if n % f == 0:
            return f
        f += 2
    return n if f * f > n else _least_prime_above_trial(n)


def _least_prime_above_trial(n: int) -> int:
    """The least prime factor of n < `_MILLER_RABIN_BOUND`, which has none
    below 2**16: a part below 2**32 is prime, a part that passes
    `_is_strong_probable_prime` is prime, and any other part is split by
    `_brent_rho` and its parts are searched in turn."""
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT or _is_strong_probable_prime(n):
        return n
    d = _brent_rho(n)
    return min(_least_prime_above_trial(d), _least_prime_above_trial(n // d))


def _is_strong_probable_prime(n: int) -> bool:
    """Whether the odd n > 41 passes the strong-pseudoprime test (Miller-Rabin)
    to every base in `_MILLER_RABIN_BASES`; below `_MILLER_RABIN_BOUND` only
    primes do."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A divisor d of the odd composite n with 1 < d < n, by Brent's variant of
    Pollard's rho on x -> x*x + c from x = 2, for c = 1, 2, ... in turn until
    one c splits n.  The gcds are taken over batches of 128 steps; a batch
    that overshoots to n is replayed one step at a time."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Deterministic primality test for any integer n: trial division for
    n <= 2**32, Miller-Rabin on the 13 prime bases 2..41 below
    `_MILLER_RABIN_BOUND` (about 3.3 * 10**24), trial division to isqrt(n)
    at or above it."""
    return n >= 2 and _least_factor(n, 2) == n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending.

    Each factor found is the least of what is left, by `_least_factor`, so
    the next search starts there: trial division answers every n <= 2**32,
    Brent's rho splits larger ones below `_MILLER_RABIN_BOUND`, and above
    that bound trial division runs to the square root of what is left."""
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
