"""Resolution cycles of cusp links.

A cycle is a cyclic sequence of integers >= 2, at least one >= 3, recording
the negated self-intersection weights around the resolution graph.  This
module converts between cycles and monodromy matrices, computes dual cycles
by the block-swap rule, and decides the complete-intersection link test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .cfrac import ExpansionError, expand, fixed_point
from .matrices import Mat2, mul, trace_power_polynomial


def _validated(entries: Iterable[int]) -> tuple[int, ...]:
    seq = tuple(int(e) for e in entries)
    if not seq:
        raise ValueError("a cycle must be nonempty")
    if any(e < 2 for e in seq):
        raise ValueError("cycle entries must all be >= 2")
    if all(e == 2 for e in seq):
        raise ValueError("a cycle must contain an entry >= 3")
    return seq


@dataclass(frozen=True)
class Cycle:
    """A resolution cycle, stored as its lexicographically smallest rotation."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = _validated(self.entries)
        best = min(seq[i:] + seq[:i] for i in range(len(seq)))
        object.__setattr__(self, "entries", best)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


CycleLike = Union[Cycle, Sequence[int]]


def canonicalize(entries: CycleLike) -> Cycle:
    """Cycle in canonical rotation; rejects entries violating the invariants."""
    if isinstance(entries, Cycle):
        return entries
    return Cycle(tuple(entries))


def _elementary(b: int) -> Mat2:
    return Mat2(b, 1, -1, 0)


def monodromy_of(c: CycleLike) -> Mat2:
    """Monodromy of the cycle (b_1, ..., b_k): the product M(b_k) ... M(b_1).

    A raw sequence is multiplied in the rotation given; rotations yield
    conjugate results with equal trace.
    """
    seq = c.entries if isinstance(c, Cycle) else _validated(c)
    out = Mat2(1, 0, 0, 1)
    for b in seq:
        out = mul(_elementary(b), out)
    return out


def cycle_of(a: Mat2) -> Cycle:
    """Resolution cycle of a det-1 monodromy with trace >= 3.

    Expands the fixed slope of a, takes the primitive period, and repeats it
    n times where n solves trace_power_polynomial(trace(period matrix), n) =
    trace(a).  The period matrix has trace >= 3, so P_n strictly increases
    and the search for n ends.  The preperiod absorbs matrices outside the
    purely periodic region, so any hyperbolic conjugate works.
    """
    if a.det != 1:
        raise ValueError("cycle_of requires determinant 1")
    t = a.trace
    if t < 3:
        raise ValueError("not a cusp monodromy: trace < 3")
    period = expand(fixed_point(a)).period
    t_block = monodromy_of(period).trace
    n = 1
    while (tn := trace_power_polynomial(t_block, n)) < t:
        n += 1
    if tn == t:
        result = Cycle(period * n)
        assert monodromy_of(result).trace == t
        return result
    raise ExpansionError(
        f"no power of the period matrix has trace {t}; expansion is inconsistent"
    )


def dual_cycle(c: CycleLike) -> Cycle:
    """Cycle of the dual cusp, by swapping the block structure.

    Rotate to start at an entry >= 3, split into blocks (m_i + 3) followed by
    n_i twos, and emit the blocks reversed with each (m, n) exchanged.
    """
    c = canonicalize(c)
    seq = c.entries
    start = next(i for i, e in enumerate(seq) if e >= 3)
    seq = seq[start:] + seq[:start]
    blocks: list[tuple[int, int]] = []
    i = 0
    while i < len(seq):
        m = seq[i] - 3
        i += 1
        n = 0
        while i < len(seq) and seq[i] == 2:
            n += 1
            i += 1
        blocks.append((m, n))
    out: list[int] = []
    for m, n in reversed(blocks):
        out.append(n + 3)
        out.extend([2] * m)
    return Cycle(tuple(out))


def dual_length(c: CycleLike) -> int:
    """Length of the dual cycle: the sum of (entry - 2) over the cycle."""
    c = canonicalize(c)
    return sum(e - 2 for e in c.entries)


def is_ci_link(c: CycleLike) -> bool:
    """Whether the cusp or its dual has cycle length <= 4 (the CI link test)."""
    c = canonicalize(c)
    return min(len(c), dual_length(c)) <= 4
