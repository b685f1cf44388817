"""Shared randomized generators and reference oracles for the test suite.

Every test seeds its own random.Random so runs are reproducible.
"""

import json
from math import isqrt
from typing import Sequence

from cuspcovers import Cycle, Lattice2, Mat2, inverse, monodromy_of, mul
from cuspcovers.cfrac import CFExpansion, QuadIrr
from cuspcovers.cycles import _validated
from cuspcovers.intmath import factorize
from cuspcovers.matrices import hermite_normal_form


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


def ceil_quad(x: QuadIrr) -> int:
    """Exact ceiling, via isqrt bounds on sqrt(d); handles both signs of q."""
    s = isqrt(x.d)
    if x.q > 0:
        return (x.p + s) // x.q + 1
    return (-x.p - s - 1) // (-x.q) + 1


def step_on_quadirr(x: QuadIrr) -> tuple[int, QuadIrr]:
    """One expansion step on a validated QuadIrr: returns (digit, next) with
    x = digit - 1/next, next > 1.  `cfrac.step` must give the same digit and
    next state on plain ints."""
    digit = ceil_quad(x)
    p2 = digit * x.q - x.p
    q2 = (p2 * p2 - x.d) // x.q
    return digit, QuadIrr(p2, x.d, q2)


def expand_by_state_table(x: QuadIrr) -> CFExpansion:
    """The expansion split at the first (p, q) state to repeat, found by
    recording every state: `cfrac.expand` must give the same split."""
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    cur = x
    while (cur.p, cur.q) not in seen:
        seen[cur.p, cur.q] = len(digits)
        digit, cur = step_on_quadirr(cur)
        digits.append(digit)
    j = seen[cur.p, cur.q]
    return CFExpansion(tuple(digits[:j]), tuple(digits[j:]))


def is_reduced_by_ceilings(x: QuadIrr) -> bool:
    """x > 1 and 0 < conj(x) < 1 as ceil(x) >= 2 and ceil(conj(x)) == 1; the
    conjugate triple (-p, d, -q) is normalized whenever (p, d, q) is."""
    return ceil_quad(x) >= 2 and ceil_quad(QuadIrr(-x.p, x.d, -x.q)) == 1


def conjugate_by_products(a: Mat2, p: Mat2) -> Mat2 | None:
    """P^-1 A P as adj(P) A P over `mul`, divided by det P when integral:
    `matrices.conjugate` must give the same matrix, None or ValueError."""
    det = p.det
    if det == 0:
        raise ValueError("cannot conjugate by a singular matrix")
    m = mul(mul(Mat2(p.d, -p.b, -p.c, p.a), a), p)
    if any(e % det for e in m.entries()):
        return None
    return Mat2(*(e // det for e in m.entries()))


def monodromy_by_matrices(c) -> Mat2:
    """M(b_k) ... M(b_1) with one Mat2 per entry: `cycles.monodromy_of` must
    give the same matrix and raise the same errors."""
    out = Mat2(1, 0, 0, 1)
    for b in _validated(c):
        out = Mat2(b * out.a + out.c, b * out.b + out.d, -out.a, -out.b)
    return out


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


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from `factorize(n)`."""
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def sublattices_of_index(d: int) -> list[Lattice2]:
    """Every sublattice of Z^2 of index exactly d; there are sigma(d) of them."""
    if d < 1:
        raise ValueError("index must be >= 1")
    out = []
    for x in divisors(d):
        z = d // x
        for y in range(x):
            out.append(Lattice2(x, y, z))
    return out


def from_columns(*columns: Sequence[int]) -> Lattice2:
    """The lattice spanned by the columns, through the general Hermite reduction."""
    h = hermite_normal_form(columns)
    return Lattice2(h.a, h.b, h.d)


def from_basis(m: Mat2) -> Lattice2:
    return from_columns(*m.columns())


def trace_power_polynomial(x: int, n: int) -> int:
    """trace(A**n) as a polynomial in x = trace(A), for any det-1 matrix A.

    Satisfies P_0 = 2, P_1 = x, P_{n+1} = x*P_n - P_{n-1}.
    """
    if n < 0:
        raise ValueError("trace_power_polynomial requires n >= 0")
    prev, cur = 2, x
    if n == 0:
        return 2
    for _ in range(n - 1):
        prev, cur = cur, x * cur - prev
    return cur


def index_formula(x: int, n: int) -> int:
    """|Z^2 / (A**n - I)Z^2| = |2 - P_n(x)| for a det-1 matrix of trace x >= 3.

    For n = 1..4 this equals (x-2), (x-2)(x+2), (x-2)(x+1)^2 and
    x^2(x-2)(x+2); larger n use the general form.
    """
    if x < 3:
        raise ValueError("index_formula requires trace x >= 3")
    if n < 1:
        raise ValueError("index_formula requires n >= 1")
    return abs(2 - trace_power_polynomial(x, n))
