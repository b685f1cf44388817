"""Fibers of normal Galois covers: invariant sublattices and cover records.

A normal cover of the cusp with monodromy A decomposes into a degree-n cover
in the base and a fiberwise cover with fiber an A-invariant sublattice L
pinched between (A**n - I)Z^2 and Z^2.  This module enumerates those
lattices exactly and packages their cycles as cover records for base
degrees 1 through `MAX_DEGREE`.

The enumeration runs on plain (x, y, z) int triples, the HNF basis
[[x, y], [0, z]]: each prime-primary walk takes its children and the
induced action P^-1 A P in closed form, and CRT intersections combine the
primes, carrying each fiber as (index, x, y, z), its sort key in front.
One validated `Lattice2` is built per fiber returned.  The public
`induced_action` and `prime_index_invariant_lattices` take a `Lattice2`
and call the same triple helpers: `induced_action` unpacks the lattice and
returns `_induced`'s `Mat2`, which the walk uses as it comes.  A record's
cycle comes from one call `cycles(X, n)` on a `cycles._CoverCycles` table:
this module neither expands nor canonicalizes.  A degree-n record's cycle
is its fiber's cycle with n times the copies of the same primitive word; no
n-fold block tuple is built.

`Lattice2` and `CoverRecord` are `typing.NamedTuple` value types: a lattice
is the tuple (x, y, z) and a record the tuple (base_degree, fiber, induced,
cycle), so they equal plain tuples, unpack, have a length and order
lexicographically.  Each subclasses a private field base so that its
`__new__` can run its check.  The census calls that `__new__` directly:
the class call reaches the same function, but packs its arguments twice on
the way.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, NamedTuple, Sequence

# cycle_of is not called here (records build their cycles through
# `_CoverCycles`), but stays bound as covers.cycle_of for code that reaches
# the cycle names through this module.
from .cycles import CI_MAX_LENGTH, Cycle, _CoverCycles, cycle_of  # noqa: F401
from .intmath import factorize, is_prime, solve_quadratic_congruence
from .matrices import Mat2, power, require_cusp

__all__ = ["CoverRecord", "Lattice2", "enumerate_covers", "induced_action", "invariant_sublattices_between",
           "prime_index_invariant_lattices"]

# A degree-n cover's cycle and dual are its fiber's, each repeated n times,
# so from degree CI_MAX_LENGTH + 1 on both are longer than CI_MAX_LENGTH:
# only base degrees 1..MAX_DEGREE can give a complete-intersection cover.
MAX_DEGREE = CI_MAX_LENGTH


class _Lattice2Fields(NamedTuple):
    x: int
    y: int
    z: int


class Lattice2(_Lattice2Fields):
    """Finite-index sublattice of Z^2 in Hermite normal form.

    The basis columns are (x, 0) and (y, z) with x > 0, z > 0, 0 <= y < x;
    the normal form is unique per lattice, so equality is structural.  The
    lattice is the tuple (x, y, z): it orders lexicographically as that
    tuple, and `sort_key` gives the fiber order.  `__new__` checks the normal
    form, and `_make` (so `_replace` too) goes through it.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int) -> Lattice2:
        if x <= 0 or z <= 0 or not 0 <= y < x:
            raise ValueError(f"not a Hermite normal form triple: {(x, y, z)}")
        return tuple.__new__(cls, (x, y, z))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> Lattice2:
        return cls(*iterable)

    @property
    def index(self) -> int:
        return self.x * self.z

    @property
    def basis(self) -> Mat2:
        return Mat2(self.x, self.y, 0, self.z)

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.index, self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"<({self.x},0), ({self.y},{self.z})>"


class _CoverRecordFields(NamedTuple):
    base_degree: int
    fiber: Lattice2
    induced: Mat2
    cycle: Cycle


class CoverRecord(_CoverRecordFields):
    """One normal Galois cover: base degree, fiber lattice, induced action and
    cycle, as a tuple of those four.  `__new__` checks that the induced
    action has determinant 1, and `_make` (so `_replace` too) goes through
    it.  A record stores no dual: `dual_cycle(record.cycle)` builds it."""

    __slots__ = ()

    def __new__(cls, base_degree: int, fiber: Lattice2, induced: Mat2, cycle: Cycle) -> CoverRecord:
        a, b, c, d = induced
        det = a * d - b * c
        if det != 1:
            raise ValueError(f"induced action {induced} has determinant {det}, not 1")
        return tuple.__new__(cls, (base_degree, fiber, induced, cycle))

    @classmethod
    def _make(cls, iterable: Iterable) -> CoverRecord:
        return cls(*iterable)


def _contains(x: int, y: int, z: int, m: tuple[int, int, int, int]) -> bool:
    """Whether both columns (a, c) and (b, d) of m = (a, b, c, d) lie in the
    lattice with HNF triple (x, y, z)."""
    a, b, c, d = m
    return not (c % z or d % z or (a - c // z * y) % x or (b - d // z * y) % x)


def _induced(m: Mat2, x: int, y: int, z: int) -> Mat2:
    """P^-1 A P for A = m = [[a, b], [c, d]] and P = [[x, y], [0, z]], in closed form.

    With u = c y / z and N = (a - d) y z + b z^2 - c y^2, P^-1 A P is
    [[a - u, N / (x z)], [c x / z, d + u]].  It is integral, that is, the
    lattice is A-invariant, iff z | c x, z | c y and x z | N; raises
    ValueError otherwise.  z | c y needs no test: det(P^-1 A P) = det A is an
    integer, so once the off-diagonal entries are, (a - u)(d + u) =
    ad + (a - d) u - u^2 is one too, and for u = r / s in lowest terms that
    forces s | r^2, so s = 1.  m is unpacked once, and Mat2 checks nothing,
    so the result is built without its field-by-field __new__.
    """
    a, b, c, d = m
    cx, xz = c * x, x * z
    n = (a - d) * y * z + b * z * z - c * y * y
    if cx % z or n % xz:
        raise ValueError(f"lattice {Lattice2(x, y, z)} is not invariant under the monodromy")
    u = c * y // z
    return tuple.__new__(Mat2, (a - u, n // xz, cx // z, d + u))


def _prime_index_children(
    act: tuple[int, int, int, int], ell: int, x: int, y: int, z: int
) -> list[tuple[int, int, int]]:
    """The invariant sublattices of prime index ell in the lattice (x, y, z),
    on which A acts, in the lattice's basis, by act = (a, b, c, d).

    In that basis they are <(ell, 0), (t, 1)> for the roots t of
    c t^2 + (d - a) t - b mod ell, and <(1, 0), (0, ell)> when c = 0 mod ell;
    when act is scalar mod ell every t is a root and all ell + 1 appear.
    Back in Z^2 the basis products are triangular, with HNF triples
    (x ell, (x t + y) mod x ell, z) and (x, y ell mod x, z ell).
    """
    a, b, c, d = act
    a2, a1, a0 = c % ell, (d - a) % ell, -b % ell
    if a2 == 0 and a1 == 0 and a0 == 0:
        ts: Sequence[int] = range(ell)
    else:
        ts = solve_quadratic_congruence(a2, a1, a0, ell)
    xl = x * ell
    out = [(xl, (x * t + y) % xl, z) for t in ts]
    if a2 == 0:
        out.append((x, y * ell % x, z * ell))
    return out


def induced_action(lat: Lattice2, a: Mat2) -> Mat2:
    """A rewritten in the lattice basis: P^-1 A P for P the HNF basis."""
    x, y, z = lat
    return _induced(a, x, y, z)


def prime_index_invariant_lattices(a: Mat2, ell: int) -> list[Lattice2]:
    """All A-invariant sublattices of prime index ell.

    Candidates are <(t,1),(ell,0)> for roots t of c t^2 + (d - a) t - b mod
    ell, plus <(1,0),(0,ell)> when c = 0 mod ell.  When A is scalar mod ell
    every t works and all ell + 1 lattices appear.
    """
    if not is_prime(ell):
        raise ValueError(f"index {ell} is not prime")
    children = _prime_index_children(a, ell, 1, 0, 1)
    return sorted((Lattice2(*t) for t in children), key=Lattice2.sort_key)


def _primary_part(a: Mat2, shifted: tuple[int, int, int, int], ell: int) -> set[tuple[int, int, int]]:
    """HNF triples of the A-invariant lattices of ell-power index containing
    shifted Z^2.

    shifted is A**n - I, row-major.  Walks down from Z^2; from each invariant
    lattice M the index-ell invariant sublattices of M and the scalar
    sublattice ell*M together reach every such lattice.  Z^2 / L for L of
    index ell**k above shifted Z^2 is a quotient of Z^2 / shifted Z^2, so
    ell**k divides the ell-part ell**e of its order and L contains
    ell**e Z^2 as well.
    """
    found = {(1, 0, 1)}
    frontier = [(1, 0, 1)]
    while frontier:
        x, y, z = frontier.pop()
        children = _prime_index_children(_induced(a, x, y, z), ell, x, y, z)
        children.append((x * ell, y * ell, z * ell))
        for child in children:
            if child not in found and _contains(*child, shifted):
                found.add(child)
                frontier.append(child)
    return found


def _intersect_part(
    combos: list[tuple[int, int, int, int]], part: set[tuple[int, int, int]]
) -> list[tuple[int, int, int, int]]:
    """(index, x, y, z) of M cap P for every M in combos, given as
    (index, x, y, z), and every HNF triple P in part, where the indices of
    part are powers of one prime ell and those of combos prime to it.

    For coprime indices, L1 cap L2 is (x1 x2, y, z1 z2) with y = z2 y1
    (mod x1) and y = z1 y2 (mod x2), by CRT:
    y = z2 y1 + x1 (z1 y2 - z2 y1) u mod x1 x2, for any u = x1^-1 (mod x2).
    Every x2 of the part divides its largest x, ell^e, so one
    u = x1^-1 mod ell^e per M serves the whole part; pow(x1, -1, 1) is 0,
    so a part with x = 1 throughout needs no case.  The index of M cap P is
    the product of theirs, so each tuple carries its fiber's sort key in
    front, and sorting the tuples sorts the fibers.
    """
    top = max(x for x, _, _ in part)
    out: list[tuple[int, int, int, int]] = []
    for i1, x1, y1, z1 in combos:
        u = pow(x1, -1, top)
        out += [
            (i1 * x2 * z2, x1 * x2, (z2 * y1 + x1 * (z1 * y2 - z2 * y1) * u) % (x1 * x2), z1 * z2)
            for x2, y2, z2 in part
        ]
    return out


def _index_primes(shifted: tuple[int, int, int, int], trace: int, n: int) -> list[int]:
    # Primes of |det(A**n - I)| = |2 - P_n(trace)|, through its small
    # algebraic factors, one list per n in 1..MAX_DEGREE, each distinct
    # factor factored once.  The factorizations must multiply back to the
    # index, checked under python -O too: a missing prime would drop its
    # fibers from the census.
    pieces = {
        1: [trace - 2],
        2: [trace - 2, trace + 2],
        3: [trace - 2, trace + 1, trace + 1],
        4: [trace, trace, trace - 2, trace + 2],
    }[n]
    factors = {piece: factorize(piece) for piece in set(pieces)}
    a, b, c, d = shifted
    if prod(p**k for piece in pieces for p, k in factors[piece].items()) != abs(a * d - b * c):
        raise RuntimeError(f"the factors of {pieces} do not multiply to |det(A**{n} - I)|")
    return sorted({p for f in factors.values() for p in f})


def invariant_sublattices_between(a: Mat2, n: int) -> list[Lattice2]:
    """All A-invariant lattices L with (A**n - I)Z^2 <= L <= Z^2, inclusive,
    for base degree n in 1..`MAX_DEGREE`, which is `cycles.CI_MAX_LENGTH`:
    the degrees whose covers can pass the CI link test.

    The quotient is split into prime-primary parts; invariant lattices are
    enumerated within each part and recombined by intersection, which keeps
    the search polynomial in the number of prime factors rather than in the
    total index.  Walk and intersections run on HNF int triples; the
    intersections carry each fiber as (index, x, y, z), and that list is
    sorted in place.  The CRT intersection is injective on tuples of
    primary parts, so none repeats.  One Lattice2 is built per fiber
    returned, through its checking `__new__` called directly.
    """
    require_cusp(a)
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"base degree must lie in 1..{MAX_DEGREE}")
    an = power(a, n)
    shifted = (an.a - 1, an.b, an.c, an.d - 1)
    combos = [(1, 1, 0, 1)]
    for ell in _index_primes(shifted, a.trace, n):
        combos = _intersect_part(combos, _primary_part(a, shifted, ell))
    combos.sort()
    new = Lattice2.__new__
    return [new(Lattice2, x, y, z) for _, x, y, z in combos]


def enumerate_covers(a: Mat2, max_degree: int = MAX_DEGREE) -> list[CoverRecord]:
    """Cover records for every base degree 1..max_degree and invariant fiber.

    Records come in degree order, then in the order
    invariant_sublattices_between returns the fibers: index, then HNF triple.
    The degree-n record with fiber L has the cycle of X**n, X the induced
    action on L, built as the cycle of X repeated n times.

    X**n fixes the same expanding slope as X, so both expand to one primitive
    period, with period matrix m.  X is conjugate to m**k and its cycle is the
    period repeated k times; X**n is conjugate to m**(k n), so its cycle is
    X's cycle repeated n times, which keeps X's canonical primitive word and
    multiplies its copies by n, without a second least-rotation pass; the
    entries are those of `cycle_of(power(X, n))`.

    Each record's cycle is `cycles(X, n)`, on a `cycles._CoverCycles` table
    of trace(A) that lives for this call only: it expands X once per record,
    builds each expanded period's cycle once, with one canonicalization and
    the trace check against trace(A), and records of one period and degree
    share one Cycle.  Each record is built through `CoverRecord`'s checking
    `__new__`, called directly.
    """
    if not 1 <= max_degree <= MAX_DEGREE:
        raise ValueError(f"base degree must lie in 1..{MAX_DEGREE}")
    cycles = _CoverCycles(a.trace)
    records: list[CoverRecord] = []
    new = CoverRecord.__new__
    for n in range(1, max_degree + 1):
        for lat in invariant_sublattices_between(a, n):
            ind = induced_action(lat, a)
            records.append(new(CoverRecord, n, lat, ind, cycles(ind, n)))
    return records
