"""Shared randomized generators and reference oracles for the test suite.

Every test seeds its own random.Random so runs are reproducible.
"""

import json
import operator
import os
import subprocess
import sys
from itertools import islice
from math import gcd, isqrt
from pathlib import Path
from typing import Sequence

from cuspcovers import Cycle, Lattice2, Mat2, conjugate, dual_cycle, inverse, monodromy_of, mul, power
from cuspcovers.intmath import factorize, is_prime, solve_quadratic_congruence
from cuspcovers.matrices import hermite_normal_form
from cuspcovers.verifier import CANDIDATE_SPAN

# Z^2 itself, the fiber of every degree-1 cover and the root of each lattice walk.
FULL_LATTICE = Lattice2(1, 0, 1)

# The checkout: child interpreters run in it, on the package under its src.
REPO = Path(__file__).resolve().parent.parent


def subprocess_env() -> dict[str, str]:
    """The environment of a subprocess that runs the package from the
    checkout's src: only PYTHONPATH and PATH, plus PYTHONDONTWRITEBYTECODE
    when it is set here, so a run that forbids bytecode writes none under src."""
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run` of this interpreter with args, in the repository and
    with `subprocess_env`, so no other variable of the test run reaches it."""
    return subprocess.run([sys.executable, *args], cwd=REPO, env=subprocess_env(), **kwargs)


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


def blocks_by_entries(seq) -> tuple:
    """The flat blocks (k_1, e_1, ..., k_b, e_b) of seq, a run of k 2s then an
    entry e >= 3 each, read from its first entry, with the 2s after its last
    entry >= 3 wrapped into k_1: one step per entry.  For c = Cycle(seq),
    c.word * c.copies must equal this for the least rotation of seq."""
    seq = tuple(seq)
    out: list[int] = []
    run = len(seq) - 1 - max(i for i, e in enumerate(seq) if e != 2)
    for e in seq:
        if e == 2:
            run += 1
        else:
            out += [run, e]
            run = 0
    return tuple(out)


def least_rotation_by_duval(seq) -> int:
    """Start of the least rotation of seq by Duval's Lyndon factorization (1983)
    over seq + seq, one step per entry: the block `cycles._least_rotation`
    must give the same rotation."""
    seq = tuple(seq)
    k = len(seq)
    ss = seq + seq
    i = start = 0
    while i < k:
        start = i
        j, m = i + 1, i
        while j < 2 * k and ss[m] <= ss[j]:
            m = i if ss[m] < ss[j] else m + 1
            j += 1
        while i <= m:
            i += j - m
    return start


def dual_entries(seq) -> tuple[int, ...]:
    """The dual of the cycle seq, a plain sequence of entries, up to rotation:
    one backward pass over seq, rotated to start at an entry >= 3, counts the
    run of 2s, and at each entry e >= 3 emits run + 3 then e - 3 twos."""
    seq = tuple(seq)
    start = next(i for i, e in enumerate(seq) if e >= 3)
    out: list[int] = []
    run = 0
    for e in reversed(seq[start:] + seq[:start]):
        if e == 2:
            run += 1
        else:
            out.append(run + 3)
            out.extend([2] * (e - 3))
            run = 0
    return tuple(out)


def dual_by_entries(c: Cycle) -> Cycle:
    """The dual cycle by `dual_entries`: the block `cycles.dual_cycle` must give
    the same cycle."""
    return Cycle(dual_entries(c.entries))


def random_state(rng, max_d, max_p=100, max_q=50, sign=None) -> tuple[int, int, int]:
    """A general expansion state (p, d, q): q != 0 of the given sign (random if
    None), d > 0 not a perfect square, and q | d - p^2."""
    while True:
        p = rng.randint(-max_p, max_p)
        q = rng.randint(1, max_q) * (sign or rng.choice((1, -1)))
        d = rng.randint(2, max_d)
        d -= (d - p * p) % q
        if d > 0 and isqrt(d) ** 2 != d:
            return p, d, q


def fixed_slope(a: Mat2) -> tuple[int, int, int]:
    """The expanding fixed slope (a - d + sqrt(t^2 - 4)) / (2b) of a monodromy,
    as the state (p, d, q); `cfrac.expand(a)` starts from its form
    (p, q, (p^2 - d) / q) = (a - d, 2b, -2c)."""
    t = a.trace
    return a.a - a.d, t * t - 4, 2 * a.b


def ceil_quad(p: int, d: int, q: int) -> int:
    """Exact ceiling of (p + sqrt(d)) / q, via isqrt bounds on sqrt(d); handles both signs of q."""
    s = isqrt(d)
    if q > 0:
        return (p + s) // q + 1
    return (-p - s - 1) // (-q) + 1


def step_by_ceiling(p: int, d: int, q: int) -> tuple[int, int, int]:
    """One expansion step on x = (p + sqrt(d)) / q with q | d - p^2: returns
    (digit, p', q') with x = digit - 1/x', x' = (p' + sqrt(d)) / q' > 1, the
    next q by the exact division (p'^2 - d) / q.  `cfrac.step` on the form
    (p, q, (p^2 - d) / q) must give the same digit and next state."""
    digit = ceil_quad(p, d, q)
    p2 = digit * q - p
    q2 = (p2 * p2 - d) // q
    return digit, p2, q2


def expand_by_state_table(p: int, d: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) split at the first (p, q) state to repeat, found by
    recording every state: `cfrac.expand` must give the same split, as
    len(preperiod) and `blocks_by_entries(period)`."""
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    while (p, q) not in seen:
        seen[p, q] = len(digits)
        digit, p, q = step_by_ceiling(p, d, q)
        digits.append(digit)
    j = seen[p, q]
    return tuple(digits[:j]), tuple(digits[j:])


def is_reduced_by_isqrt(p: int, d: int, q: int) -> bool:
    """Whether (p + sqrt(d)) / q is reduced, x > 1 > conj(x) > 0, by isqrt
    bounds on the state, with s = isqrt(d): q > 0, s < p and |p - q| <= s.
    `cfrac.expand` runs the form test `is_reduced_form` instead."""
    s = isqrt(d)
    return q > 0 and s < p and abs(p - q) <= s


def is_reduced_form(p: int, d: int, q: int) -> bool:
    """Zagier's reduced test that `cfrac.expand` runs inline on the form
    (p, q, r), r = (p^2 - d) / q: q > 0, r > 0 and q + r < 2p."""
    r = (p * p - d) // q
    return q > 0 and r > 0 and q + r < 2 * p


def is_reduced_by_ceilings(p: int, d: int, q: int) -> bool:
    """x > 1 and 0 < conj(x) < 1 as ceil(x) >= 2 and ceil(conj(x)) == 1; the
    conjugate state is (-p, d, -q)."""
    return ceil_quad(p, d, q) >= 2 and ceil_quad(-p, d, -q) == 1


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


def validated_by_entries(c) -> tuple[int, ...]:
    """c checked as a cycle one test at a time, raising what `Cycle` and
    `cycles.monodromy_of` raise: a TypeError for a non-integer anywhere, then
    the first ValueError that applies."""
    seq = tuple(operator.index(e) for e in c)
    if not seq:
        raise ValueError("a cycle must be nonempty")
    if any(e < 2 for e in seq):
        raise ValueError("cycle entries must all be >= 2")
    if all(e == 2 for e in seq):
        raise ValueError("a cycle must contain an entry >= 3")
    return seq


def monodromy_by_matrices(c) -> Mat2:
    """M(b_k) ... M(b_1) with one Mat2 per entry: `cycles.monodromy_of` must
    give the same matrix and raise the same errors."""
    out = Mat2(1, 0, 0, 1)
    for b in validated_by_entries(c):
        out = Mat2(b * out.a + out.c, b * out.b + out.d, -out.a, -out.b)
    return out


def cycle_by_state_table(m: Mat2) -> tuple[int, ...]:
    """The canonical entries of the cycle of m (det 1, trace >= 3), with no
    package code: the period of m's fixed slope from `expand_by_state_table`,
    repeated k times, where the k-th power of its `monodromy_by_matrices`
    matrix has m's trace, at its least rotation (`least_rotation_brute`).
    The state-table period is primitive, so k > 1 exactly when m's cycle is a
    repetition, such as (2, 6, 2, 6) or the cycle of a power."""
    _, period = expand_by_state_table(*fixed_slope(m))
    step = mk = monodromy_by_matrices(period)
    k = 1
    while mk.trace < m.trace:
        mk = mul(mk, step)
        k += 1
    assert mk.trace == m.trace, f"no power of the period matrix of {m} has its trace"
    return least_rotation_brute(period * k)


def certificate_to_json_oracle(cert) -> str:
    """The certificate through the stdlib encoder: `cli.certificate_to_json` must give these bytes."""
    doc = {
        "input": {"matrix": list(cert.monodromy.entries())},
        "trace": str(cert.monodromy.trace),
        "cycle": list(cert.cycle),
        "dual_cycle": list(dual_cycle(cert.cycle)),
        "covers": [
            {
                "degree": rec.base_degree,
                "fiber_index": str(rec.fiber.index),
                "fiber_hnf": [rec.fiber.x, rec.fiber.y, rec.fiber.z],
                "induced": [str(e) for e in rec.induced.entries()],
                "cycle_len": len(rec.cycle),
                "dual_len": len(dual_cycle(rec.cycle)),
                "cycle": list(rec.cycle),
                "dual": list(dual_cycle(rec.cycle)),
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


def lattice_contains(lat: Lattice2, m: Mat2) -> bool:
    """Whether m's columns lie in lat: adding them to lat's basis keeps its HNF."""
    return from_columns(*lat.basis.columns(), *m.columns()) == lat


def shifted_lattice(parent: Lattice2, child: Lattice2) -> Lattice2:
    """child, given in parent's HNF basis, as a sublattice of Z^2: the basis
    product [[x, y], [0, z]] [[x', y'], [0, z']] is triangular, with HNF
    (x x', (x y' + y z') mod x x', z z')."""
    x = parent.x * child.x
    return Lattice2(x, (parent.x * child.y + parent.y * child.z) % x, parent.z * child.z)


def hermite_sum(l1: Lattice2, l2: Lattice2) -> Lattice2:
    """m2 L1 + m1 L2, m1 and m2 the indices of L1 and L2, by Hermite reduction
    of the scaled bases: L1 cap L2 when m1 and m2 are coprime."""
    m1, m2 = l1.index, l2.index
    s1 = [(m2 * u, m2 * v) for u, v in l1.basis.columns()]
    s2 = [(m1 * u, m1 * v) for u, v in l2.basis.columns()]
    return from_columns(*s1, *s2)


def intersect_coprime(l1: Lattice2, l2: Lattice2) -> Lattice2:
    """L1 cap L2 for coprime indices: (x1 x2, y, z1 z2) with y = z2 y1 (mod x1)
    and y = z1 y2 (mod x2), by CRT."""
    k = (l1.z * l2.y - l2.z * l1.y) * pow(l1.x, -1, l2.x)
    x = l1.x * l2.x
    return Lattice2(x, (l2.z * l1.y + l1.x * k) % x, l1.z * l2.z)


def prime_index_lattices_by_roots(act: Mat2, ell: int) -> list[Lattice2]:
    """The index-ell act-invariant sublattices of Z^2: <(ell, 0), (t, 1)> for the
    roots t of c t^2 + (d - a) t - b mod ell (every t when act is scalar mod
    ell), and <(1, 0), (0, ell)> when c = 0 mod ell."""
    a2, a1, a0 = act.c % ell, (act.d - act.a) % ell, -act.b % ell
    ts = range(ell) if a2 == a1 == a0 == 0 else solve_quadratic_congruence(a2, a1, a0, ell)
    out = [Lattice2(ell, t, 1) for t in ts]
    if a2 == 0:
        out.append(Lattice2(1, 0, ell))
    return out


def primary_part_lattices(a: Mat2, shifted: Mat2, ell: int) -> set[Lattice2]:
    """A-invariant lattices of ell-power index containing shifted Z^2, by a walk
    down from Z^2 on Lattice2 values: each lattice's index-ell invariant
    sublattices, found in its basis with `conjugate`, and its scalar
    sublattice ell * M."""
    found = {FULL_LATTICE}
    frontier = [FULL_LATTICE]
    while frontier:
        m = frontier.pop()
        action = conjugate(a, m.basis)
        children = [shifted_lattice(m, c) for c in prime_index_lattices_by_roots(action, ell)]
        children.append(Lattice2(ell * m.x, ell * m.y, ell * m.z))
        for child in children:
            if child not in found and lattice_contains(child, shifted):
                found.add(child)
                frontier.append(child)
    return found


def invariant_sublattices_by_walk(a: Mat2, n: int) -> list[Lattice2]:
    """The A-invariant lattices between (A**n - I)Z^2 and Z^2, n in 1..4, by the
    Lattice2 walk of each prime-primary part and CRT intersections:
    `covers.invariant_sublattices_between` must give the same list.  The primes
    are those of t - 2, t, t + 1 and t + 2 (t the trace) that divide the index."""
    an = power(a, n)
    shifted = Mat2(an.a - 1, an.b, an.c, an.d - 1)
    t = a.trace
    primes = {p for piece in (t - 2, t, t + 1, t + 2) for p in factorize(piece)}
    combos = [FULL_LATTICE]
    for ell in sorted(p for p in primes if shifted.det % p == 0):
        part = primary_part_lattices(a, shifted, ell)
        combos = [intersect_coprime(base, opt) for base in combos for opt in part]
    return sorted(combos, key=Lattice2.sort_key)


def smith_form(m: Mat2) -> tuple[int, int, Mat2]:
    """(d1, d2, U) for a nonsingular m: U m V = diag(d1, d2) for unimodular U
    and V, with 0 < d1 | d2, by row and column operations.  Each round moves
    the least nonzero |entry| to the corner and reduces its row and column by
    it; a corner that does not divide the other diagonal entry takes that
    entry's row as well, so the next corner is smaller.  V is kept only to
    check the product."""
    r = [[m.a, m.b], [m.c, m.d]]
    u = [[1, 0], [0, 1]]
    v = [[1, 0], [0, 1]]

    def add_row(i, j, q):
        for w in (r, u):
            w[i] = [e + q * f for e, f in zip(w[i], w[j])]

    def add_col(i, j, q):
        for w in (r, v):
            for row in w:
                row[i] += q * row[j]

    while True:
        i, j = min(((i, j) for i in (0, 1) for j in (0, 1) if r[i][j]), key=lambda ij: abs(r[ij[0]][ij[1]]))
        if i:
            r.reverse()
            u.reverse()
        if j:
            for row in r + v:
                row.reverse()
        p = r[0][0]
        add_row(1, 0, -(r[1][0] // p))
        add_col(1, 0, -(r[0][1] // p))
        if r[1][0] or r[0][1]:
            continue
        if r[1][1] % p == 0:
            break
        add_row(0, 1, 1)
    for i in (0, 1):
        if r[i][i] < 0:
            for w in (r, u):
                w[i] = [-e for e in w[i]]
    um, vm = Mat2(*u[0], *u[1]), Mat2(*v[0], *v[1])
    assert abs(um.det) == abs(vm.det) == 1 and mul(mul(um, m), vm) == Mat2(r[0][0], 0, 0, r[1][1])
    return r[0][0], r[1][1], um


def invariant_sublattices_by_smith_form(a: Mat2, n: int) -> tuple[list[Lattice2], int]:
    """(fibers, lattices): the A-invariant lattices between (A**n - I)Z^2 and
    Z^2, sorted as `covers.invariant_sublattices_between` sorts them, and the
    number of distinct lattices between, from the Smith form alone.

    U (A**n - I) V = diag(d1, d2) makes x -> U x mod (d1, d2) an isomorphism
    Z^2 / (A**n - I)Z^2 -> Z/d1 x Z/d2.  A subgroup is the image of a lattice
    L' between diag(d1, d2)Z^2 and Z^2, listed by its HNF (x, y, z): x | d1,
    z | d2 and x | y d2 / z, that is, y a multiple of x / gcd(x, d2 / z)
    below x.  Their number is the sum of gcd(x, b) over x | d1 and b | d2
    (Hampejs, Holighaus, Toth and Wiesmeyr 2014).  Each pulls back to
    L = U^-1 L', reduced by `hermite_normal_form`, and L is a fiber when
    `conjugate` of A by its basis is integral.  It shares no code with
    `covers`: no lattice walk, closed-form induced action or CRT.
    """
    an = power(a, n)
    d1, d2, u = smith_form(Mat2(an.a - 1, an.b, an.c, an.d - 1))
    back = inverse(u)
    lattices = {
        from_basis(mul(back, Mat2(x, y, 0, z)))
        for x in divisors(d1)
        for z in divisors(d2)
        for y in range(0, x, x // gcd(x, d2 // z))
    }
    fibers = [lat for lat in lattices if conjugate(a, lat.basis) is not None]
    return sorted(fibers, key=Lattice2.sort_key), len(lattices)


def check_certificate(text: str) -> str | None:
    """None when the certificate JSON `text` holds from first principles, else
    the first failure found.

    It reads only the document, and trusts neither the lattice walk nor the
    expansion: it calls no function of `covers`, `cycles`, `cfrac`,
    `verifier` or `cli`, and builds only their value types.  With A the
    input matrix, it checks that
    - A is a cusp monodromy (det 1, trace >= 3) and `trace` is its trace;
    - each record's degree n lies in 1..4, its `fiber_hnf` is an HNF triple
      (x, y, z) with `fiber_index` x z, the columns of A**n - I lie in the
      fiber, and `induced` is `conjugate_by_products` of A by the fiber's
      basis, with det 1;
    - each record's cycle is `cycle_by_state_table` of induced**n, built once
      per distinct (induced, n), its dual is the least rotation of that
      cycle's `dual_entries`, and `cycle_len` and `dual_len` are their
      lengths; the top-level cycle and dual are A's, checked the same way;
    - at each degree n the records list, in order, the fibers of
      `invariant_sublattices_by_smith_form(A, n)`, so none is missing;
    - the witness is the first record whose cycle or dual has length at
      most 4, and the verdict is NO_CI_COVER exactly when there is none.
    """
    doc = json.loads(text)

    def cycle_and_dual(m: Mat2) -> tuple[list[int], list[int]]:
        c = cycle_by_state_table(m)
        return list(c), list(least_rotation_brute(dual_entries(c)))

    a = Mat2(*doc["input"]["matrix"])
    if a.det != 1 or a.trace < 3:
        return f"input {a} is not a cusp monodromy"
    if doc["trace"] != str(a.trace):
        return f"trace {doc['trace']} is not the input's, {a.trace}"
    if (doc["cycle"], doc["dual_cycle"]) != cycle_and_dual(a):
        return "the top-level cycle or dual is not the input's"
    shifted = {}
    for n in range(1, 5):
        an = power(a, n)
        shifted[n] = Mat2(an.a - 1, an.b, an.c, an.d - 1)
    cycles: dict[tuple[Mat2, int], tuple[list[int], list[int]]] = {}
    witness = None
    for i, rec in enumerate(doc["covers"]):
        n, (x, y, z) = rec["degree"], rec["fiber_hnf"]
        if n not in shifted:
            return f"record {i}: degree {n} is not in 1..4"
        if not (x > 0 and z > 0 and 0 <= y < x) or rec["fiber_index"] != str(x * z):
            return f"record {i}: fiber {(x, y, z)} is no HNF triple of index {rec['fiber_index']}"
        fiber = Lattice2(x, y, z)
        if not lattice_contains(fiber, shifted[n]):
            return f"record {i}: the columns of A**{n} - I do not lie in the fiber {fiber}"
        induced = Mat2(*map(int, rec["induced"]))
        if conjugate_by_products(a, fiber.basis) != induced or induced.det != 1:
            return f"record {i}: induced {induced} is not A in the fiber's basis"
        key = induced, n
        if key not in cycles:
            cycles[key] = cycle_and_dual(power(induced, n))
        cycle, dual = cycles[key]
        if (rec["cycle"], rec["dual"]) != (cycle, dual):
            return f"record {i}: the cycle or dual is not that of induced**{n}"
        if (rec["cycle_len"], rec["dual_len"]) != (len(cycle), len(dual)):
            return f"record {i}: the stated lengths are not those of the cycle and dual"
        if witness is None and min(len(cycle), len(dual)) <= 4:
            witness = i
    listed = [(rec["degree"], tuple(rec["fiber_hnf"])) for rec in doc["covers"]]
    fibers = [(n, tuple(lat)) for n in range(1, 5) for lat in invariant_sublattices_by_smith_form(a, n)[0]]
    if listed != fibers:
        return "the fibers are not the Smith-form fibers of degrees 1..4, in order"
    if doc["witness"] != witness:
        return f"witness {doc['witness']} is not the first CI record, {witness}"
    if doc["verdict"] != ("NO_CI_COVER" if witness is None else "HAS_CI_COVER"):
        return f"verdict {doc['verdict']} does not follow from the witness {witness}"
    return None


def admissible_traces_by_trial_division(limit: int) -> list[int]:
    """The trace filter by `is_prime` on each x == 1 (mod 6) from 7 up:
    `verifier.admissible_traces` must give the same list."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    return [
        x
        for x in range(7, limit + 1, 6)
        if is_prime((x + 2) // 3)
        and is_prime((x + 1) // 2)
        and is_prime(x)
        and is_prime(x - 2)
    ]


def candidate_matrices_by_scan(trace: int, limit: int) -> list[Mat2]:
    """The candidates by testing every b in (a - trace, a) for each a, up to the
    same bound and CANDIDATE_SPAN: `verifier.candidate_matrices` must give the
    same list."""
    pairs = (
        (a, b)
        for a in range(trace, trace + min(CANDIDATE_SPAN, (trace - 1) ** 2 // 4 - 1) + 1)
        for m in [1 + a * (a - trace)]
        for b in range(a - trace + 1, a)
        if m % b == 0
    )
    return [Mat2(a, b, (a * (trace - a) - 1) // b, trace - a) for a, b in islice(pairs, limit)]
