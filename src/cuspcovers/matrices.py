"""Exact 2x2 integer matrix algebra.

Products, powers, inverses, the cusp-monodromy check, conjugation with an
integrality verdict, and the Hermite normal form that gives each sublattice
of Z^2 a unique basis.  The cover census builds its lattices as HNF triples
in closed form (`covers`) and never reduces a basis; `hermite_normal_form`,
Euclid's algorithm on columns with the standard library's `gcd`, is the
general reduction the tests check those closed forms against.
`covers` also conjugates onto those triangular bases in closed form, and
`conjugate` is the general form the tests check it against.

`Mat2` is a `typing.NamedTuple`: a matrix is the tuple (a, b, c, d), so it
equals that plain tuple, unpacks into its entries, has length 4 and orders
lexicographically.  Building one costs one tuple.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Iterable, NamedTuple, Sequence

__all__ = ["Mat2", "conjugate", "inverse", "mul", "power"]


class Mat2(NamedTuple):
    """Row-major [[a, b], [c, d]] with unbounded integer entries."""

    a: int
    b: int
    c: int
    d: int

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def columns(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.c), (self.b, self.d))

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)


def require_cusp(a: Mat2) -> None:
    """Raise ValueError unless a is a cusp monodromy: det 1 and trace >= 3."""
    if a.det != 1 or a.trace < 3:
        raise ValueError(
            f"matrix {a} has determinant {a.det} and trace {a.trace};"
            " a cusp monodromy needs determinant 1 and trace >= 3"
        )


def mul(x: Mat2, y: Mat2) -> Mat2:
    return Mat2(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def power(x: Mat2, n: int) -> Mat2:
    """x**n for n >= 0 by exact repeated multiplication; x**0 is the identity."""
    if n < 0:
        raise ValueError("power requires a non-negative exponent")
    out = IDENTITY
    for _ in range(n):
        out = mul(out, x)
    return out


def inverse(x: Mat2) -> Mat2:
    """Exact integer inverse; defined only for det = +-1."""
    det = x.det
    if det == 1:
        return Mat2(x.d, -x.b, -x.c, x.a)
    if det == -1:
        return Mat2(-x.d, x.b, x.c, -x.a)
    raise ValueError(f"matrix with determinant {det} has no integer inverse")


def conjugate(a: Mat2, p: Mat2) -> Mat2 | None:
    """P^-1 * A * P when all four entries are integers, else None.

    Non-integrality is a meaningful negative answer (the lattice spanned by
    P's columns is not A-invariant), so it is reported rather than raised.
    Straight-line integer arithmetic, one divisibility test per entry.
    """
    pa, pb, pc, pd = p.a, p.b, p.c, p.d
    det = pa * pd - pb * pc
    if det == 0:
        raise ValueError("cannot conjugate by a singular matrix")
    # R = A P, then M = adj(P) R with adj(P) = [[pd, -pb], [-pc, pa]].
    ra, rb = a.a * pa + a.b * pc, a.a * pb + a.b * pd
    rc, rd = a.c * pa + a.d * pc, a.c * pb + a.d * pd
    ma, mb = pd * ra - pb * rc, pd * rb - pb * rd
    mc, md = pa * rc - pc * ra, pa * rd - pc * rb
    if ma % det or mb % det or mc % det or md % det:
        return None
    return Mat2(ma // det, mb // det, mc // det, md // det)


def hermite_normal_form(columns: Iterable[Sequence[int]]) -> Mat2:
    """Canonical basis [[x, y], [0, z]] of the lattice spanned by the columns.

    The result's columns (x, 0) and (y, z) generate the same sublattice of
    Z^2, with x > 0, z > 0 and 0 <= y < x; the index is x*z.  Accepts any
    number of columns (at least two) and rejects rank-deficient input;
    non-integer entries raise TypeError.  One pass of Euclid's algorithm by
    column operations: each further column u is reduced against a running
    column v until u's second coordinate is 0, so v ends with the gcd of the
    second coordinates and x is the gcd of the reduced first coordinates.
    Only the tests and the benchmark tracer's `PLAN` reach this function.
    """
    cols = [(operator.index(c[0]), operator.index(c[1])) for c in columns]
    if len(cols) < 2:
        raise ValueError("need at least two columns")
    v0, v1 = cols[0]
    x = 0
    for u0, u1 in cols[1:]:
        while u1:
            q = v1 // u1
            v0, v1, u0, u1 = u0, u1, v0 - q * u0, v1 - q * u1
        x = gcd(x, u0)
    if v1 == 0 or x == 0:
        raise ValueError("columns do not span a finite-index sublattice")
    if v1 < 0:
        v0, v1 = -v0, -v1
    return Mat2(x, v0 % x, 0, v1)
