"""Fibers of normal Galois covers: invariant sublattices and cover records.

A normal cover of the cusp with monodromy A decomposes into a degree-n cover
in the base and a fiberwise cover with fiber an A-invariant sublattice L
pinched between (A**n - I)Z^2 and Z^2.  This module enumerates those
lattices exactly, on HNF triples in closed form (triangular products down
each prime-primary walk, CRT intersections across primes), conjugates A onto
each fiber, and packages the resulting cycles as cover records for base
degrees 1 through 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .cycles import Cycle, cycle_of, dual_cycle
from .intmath import divisors, factorize, is_prime, solve_quadratic_congruence
from .matrices import Mat2, conjugate, hermite_normal_form, power, require_cusp


@dataclass(frozen=True)
class Lattice2:
    """Finite-index sublattice of Z^2 in Hermite normal form.

    The basis columns are (x, 0) and (y, z) with x > 0, z > 0, 0 <= y < x;
    the normal form is unique per lattice, so equality is structural.
    """

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if self.x <= 0 or self.z <= 0 or not 0 <= self.y < self.x:
            raise ValueError(f"not a Hermite normal form triple: {(self.x, self.y, self.z)}")

    @property
    def index(self) -> int:
        return self.x * self.z

    @property
    def basis(self) -> Mat2:
        return Mat2(self.x, self.y, 0, self.z)

    @classmethod
    def from_basis(cls, m: Mat2) -> "Lattice2":
        return cls.from_columns(*m.columns())

    @classmethod
    def from_columns(cls, *columns: Sequence[int]) -> "Lattice2":
        h = hermite_normal_form(columns)
        return cls(h.a, h.b, h.d)

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.index, self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"<({self.x},0), ({self.y},{self.z})>"


FULL_LATTICE = Lattice2(1, 0, 1)


@dataclass(frozen=True)
class CoverRecord:
    """One normal Galois cover: base degree, fiber lattice, and its cycles."""

    base_degree: int
    fiber: Lattice2
    induced: Mat2
    cycle: Cycle
    dual: Cycle

    def __post_init__(self) -> None:
        assert self.induced.det == 1


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


def contains(lat: Lattice2, m: Mat2) -> bool:
    """Whether both columns of m lie in the lattice."""
    for u, v in m.columns():
        if v % lat.z:
            return False
        if (u - (v // lat.z) * lat.y) % lat.x:
            return False
    return True


def contains_lattice(outer: Lattice2, inner: Lattice2) -> bool:
    return contains(outer, inner.basis)


def is_invariant(lat: Lattice2, a: Mat2) -> bool:
    """Whether A maps the lattice onto itself, i.e. the conjugate is integral."""
    return conjugate(a, lat.basis) is not None


def induced_action(lat: Lattice2, a: Mat2) -> Mat2:
    """A rewritten in the lattice basis: P^-1 A P for P the HNF basis."""
    out = conjugate(a, lat.basis)
    if out is None:
        raise ValueError(f"lattice {lat} is not invariant under the monodromy")
    return out


def prime_index_invariant_lattices(a: Mat2, ell: int) -> list[Lattice2]:
    """All A-invariant sublattices of prime index ell.

    Candidates are <(t,1),(ell,0)> for roots t of c t^2 + (d - a) t - b mod
    ell, plus <(1,0),(0,ell)> when c = 0 mod ell.  When A is scalar mod ell
    every t works and all ell + 1 lattices appear.
    """
    if not is_prime(ell):
        raise ValueError(f"index {ell} is not prime")
    a2, a1, a0 = a.c % ell, (a.d - a.a) % ell, (-a.b) % ell
    if a2 == 0 and a1 == 0 and a0 == 0:
        ts: Sequence[int] = range(ell)
    else:
        ts = solve_quadratic_congruence(a2, a1, a0, ell)
    out = [Lattice2(ell, t, 1) for t in ts]
    if a2 == 0:
        out.append(Lattice2(1, 0, ell))
    return sorted(out, key=Lattice2.sort_key)


def _shifted_lattice(parent: Lattice2, child: Lattice2) -> Lattice2:
    # child in parent coordinates -> absolute: the basis product [[x, y], [0, z]]
    # [[x', y'], [0, z']] is triangular, with HNF (x x', (x y' + y z') mod x x', z z').
    x = parent.x * child.x
    return Lattice2(x, (parent.x * child.y + parent.y * child.z) % x, parent.z * child.z)


def _intersect_coprime(l1: Lattice2, l2: Lattice2) -> Lattice2:
    # For coprime indices L1 cap L2 = (x1 x2, y, z1 z2) with y = z2 y1 (mod x1) and
    # y = z1 y2 (mod x2), by CRT; pow(x1, -1, 1) is 0, so index 1 needs no case.
    k = (l1.z * l2.y - l2.z * l1.y) * pow(l1.x, -1, l2.x)
    x = l1.x * l2.x
    return Lattice2(x, (l2.z * l1.y + l1.x * k) % x, l1.z * l2.z)


def _primary_part_lattices(a: Mat2, shifted: Mat2, ell: int) -> set[Lattice2]:
    """A-invariant lattices of ell-power index containing shifted Z^2.

    shifted is A**n - I.  Walks down from Z^2; from each invariant lattice M
    the index-ell invariant sublattices of M and the scalar sublattice ell*M
    together reach every such lattice.  Z^2 / L for L of index ell**k above
    shifted Z^2 is a quotient of Z^2 / shifted Z^2, so ell**k divides the
    ell-part ell**e of its order and L contains ell**e Z^2 as well.
    """
    found = {FULL_LATTICE}
    frontier = [FULL_LATTICE]
    while frontier:
        m = frontier.pop()
        action = induced_action(m, a)
        children = [_shifted_lattice(m, c) for c in prime_index_invariant_lattices(action, ell)]
        children.append(Lattice2(ell * m.x, ell * m.y, ell * m.z))
        for child in children:
            if child not in found and contains(child, shifted):
                found.add(child)
                frontier.append(child)
    return found


def _index_primes(shifted: Mat2, trace: int, n: int) -> list[int]:
    # Primes of |det(A**n - I)| = |2 - P_n(trace)|, through its small
    # algebraic factors for n <= 4.
    pieces = {
        1: [trace - 2],
        2: [trace - 2, trace + 2],
        3: [trace - 2, trace + 1, trace + 1],
        4: [trace, trace, trace - 2, trace + 2],
    }.get(n, [abs(shifted.det)])
    assert prod(pieces) == abs(shifted.det)
    return sorted({p for piece in pieces for p in factorize(piece)})


def invariant_sublattices_between(a: Mat2, n: int) -> list[Lattice2]:
    """All A-invariant lattices L with (A**n - I)Z^2 <= L <= Z^2, inclusive.

    The quotient is split into prime-primary parts; invariant lattices are
    enumerated within each part and recombined by intersection, which keeps
    the search polynomial in the number of prime factors rather than in the
    total index.  Every lattice is an HNF triple in closed form; the CRT
    intersection is injective on tuples of primary parts, so none repeats.
    """
    require_cusp(a)
    if n < 1:
        raise ValueError("base degree must be >= 1")
    an = power(a, n)
    shifted = Mat2(an.a - 1, an.b, an.c, an.d - 1)
    combos = [FULL_LATTICE]
    for ell in _index_primes(shifted, a.trace, n):
        part = _primary_part_lattices(a, shifted, ell)
        combos = [_intersect_coprime(base, opt) for base in combos for opt in part]
    return sorted(combos, key=Lattice2.sort_key)


def _build_record(a: Mat2, n: int, lat: Lattice2) -> CoverRecord:
    ind = induced_action(lat, a)
    cyc = cycle_of(power(ind, n))
    return CoverRecord(
        base_degree=n,
        fiber=lat,
        induced=ind,
        cycle=cyc,
        dual=dual_cycle(cyc),
    )


def enumerate_covers(a: Mat2, max_degree: int = 4) -> list[CoverRecord]:
    """Cover records for every base degree 1..max_degree and invariant fiber.

    Records come in degree order, then in the order
    invariant_sublattices_between returns the fibers: index, then HNF triple.
    """
    if not 1 <= max_degree <= 4:
        raise ValueError("base degree must lie in 1..4")
    return [
        _build_record(a, n, lat)
        for n in range(1, max_degree + 1)
        for lat in invariant_sublattices_between(a, n)
    ]
