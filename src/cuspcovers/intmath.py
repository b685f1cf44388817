"""Unbounded-integer primitives: primality, factoring, quadratic congruences.

Everything here is exact and deterministic; no floating point, no
probabilistic shortcuts.  Monodromy entries reach ~10**27 in the degree-4
cover computations, so all arithmetic rides on Python's arbitrary-precision
integers.
"""

# Direct residue scan is the normative congruence solver; all moduli that
# occur in practice are small primes (<= a few thousand).
SCAN_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (intended for n <= 10**12)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s, ns = 1, 0
    t, nt = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        s, ns = ns, s - q * ns
        t, nt = nt, t - q * nt
        g, ng = ng, g - q * ng
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors requires a positive integer")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, by trial division."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def solve_quadratic_congruence(a2: int, a1: int, a0: int, m: int) -> list[int]:
    """All residues t in [0, m) with a2*t^2 + a1*t + a0 == 0 (mod m), m prime.

    The degenerate-to-linear case (a2 == 0 mod m) falls out of the same
    scan.  Rejects non-prime moduli and the identically-zero congruence;
    callers must factor composite moduli themselves.
    """
    if not is_prime(m):
        raise ValueError(f"modulus {m} is not prime")
    if m >= SCAN_LIMIT:
        raise ValueError(f"modulus {m} exceeds the scan limit {SCAN_LIMIT}")
    a2 %= m
    a1 %= m
    a0 %= m
    if a2 == 0 and a1 == 0 and a0 == 0:
        raise ValueError("congruence vanishes identically modulo m")
    return [t for t in range(m) if (a2 * t * t + a1 * t + a0) % m == 0]
