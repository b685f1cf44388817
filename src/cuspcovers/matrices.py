"""Exact 2x2 integer matrix algebra.

Products, powers, inverses, conjugation with an integrality verdict,
trace-power recurrences, fiber-index formulas, and the Hermite normal form
used to canonicalize sublattices of Z^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intmath import xgcd


@dataclass(frozen=True)
class Mat2:
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
    """
    det = p.det
    if det == 0:
        raise ValueError("cannot conjugate by a singular matrix")
    adj = Mat2(p.d, -p.b, -p.c, p.a)
    m = mul(mul(adj, a), p)
    if any(e % det for e in m.entries()):
        return None
    return Mat2(*(e // det for e in m.entries()))


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


def hermite_normal_form(columns: Iterable[Sequence[int]]) -> Mat2:
    """Canonical basis [[x, y], [0, z]] of the lattice spanned by the columns.

    The result's columns (x, 0) and (y, z) generate the same sublattice of
    Z^2, with x > 0, z > 0 and 0 <= y < x; the index is x*z.  Accepts any
    number of columns (at least two) and rejects rank-deficient input.
    """
    cols = [(int(c[0]), int(c[1])) for c in columns]
    if len(cols) < 2:
        raise ValueError("need at least two columns")
    # Combine columns until one vector carries gcd of all second coordinates.
    v0, v1 = cols[0]
    for u0, u1 in cols[1:]:
        if u1 == 0:
            continue
        g, s, t = xgcd(v1, u1)
        v0, v1 = s * v0 + t * u0, g
    if v1 == 0:
        raise ValueError("columns do not span a finite-index sublattice")
    if v1 < 0:
        v0, v1 = -v0, -v1
    z = v1
    x = 0
    for u0, u1 in cols:
        x = xgcd(x, u0 - (u1 // z) * v0)[0]
    if x == 0:
        raise ValueError("columns do not span a finite-index sublattice")
    return Mat2(x, v0 % x, 0, z)
