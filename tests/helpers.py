"""Shared randomized generators for the test suite.

Every test seeds its own random.Random so runs are reproducible.
"""

from cuspcovers import Cycle, Mat2, inverse, monodromy_of, mul


def random_cycle(rng, max_len=8, max_entry=12) -> Cycle:
    k = rng.randint(1, max_len)
    entries = [rng.randint(2, max_entry) for _ in range(k)]
    if all(e == 2 for e in entries):
        entries[rng.randrange(k)] = rng.randint(3, max_entry)
    return Cycle(entries)


def random_unimodular(rng, steps=5, det=1) -> Mat2:
    """Product of elementary shears (det +1); det=-1 appends a column swap."""
    u = Mat2(1, 0, 0, 1)
    for _ in range(steps):
        k = rng.randint(-3, 3)
        e = Mat2(1, k, 0, 1) if rng.random() < 0.5 else Mat2(1, 0, k, 1)
        u = mul(u, e)
    if det == -1:
        u = mul(u, Mat2(0, 1, 1, 0))
    return u


def conjugated(a: Mat2, u: Mat2) -> Mat2:
    return mul(mul(inverse(u), a), u)


def random_hyperbolic(rng, max_len=6, max_entry=8, shear_steps=4) -> Mat2:
    """A det-1, trace >= 3 matrix, usually outside the purely periodic region."""
    c = random_cycle(rng, max_len, max_entry)
    return conjugated(monodromy_of(c), random_unimodular(rng, shear_steps))


def reversed_cycle(c: Cycle) -> Cycle:
    return Cycle(tuple(reversed(tuple(c))))


def least_rotation_brute(seq) -> tuple:
    """The lexicographically smallest rotation of seq, by comparing all of them (O(k^2))."""
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))
