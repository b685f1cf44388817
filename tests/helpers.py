"""Shared randomized generators and reference oracles for the test suite.

Every test seeds its own random.Random so runs are reproducible.
"""

import json

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


def certificate_to_json_oracle(cert) -> str:
    """The certificate through the stdlib encoder: `cli.certificate_to_json` must give these bytes."""
    doc = {
        "input": {"matrix": list(cert.monodromy.entries())},
        "trace": str(cert.monodromy.trace),
        "cycle": list(cert.cycle),
        "dual_cycle": list(cert.dual),
        "covers": [
            {
                "degree": rec.base_degree,
                "fiber_index": str(rec.fiber.index),
                "fiber_hnf": [rec.fiber.x, rec.fiber.y, rec.fiber.z],
                "induced": [str(e) for e in rec.induced.entries()],
                "cycle_len": len(rec.cycle),
                "dual_len": len(rec.dual),
                "cycle": list(rec.cycle),
                "dual": list(rec.dual),
            }
            for rec in cert.covers
        ],
        "verdict": cert.verdict,
        "witness": cert.witness,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
