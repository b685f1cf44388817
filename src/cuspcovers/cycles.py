"""Resolution cycles of cusp links.

A cycle is a cyclic sequence of integers >= 2, at least one >= 3, recording
the negated self-intersection weights around the resolution graph.  This
module converts between cycles and monodromy matrices, computes dual cycles
by the block-swap rule, and decides the complete-intersection link test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .cfrac import ExpansionError, expand
from .matrices import Mat2, mul


def _validated(entries: Iterable[int]) -> tuple[int, ...]:
    """entries as a cycle tuple, checked in three C-level passes: operator.index
    (TypeError on a non-integer, never truncation), then min, then max."""
    seq = tuple(map(operator.index, entries))
    if not seq:
        raise ValueError("a cycle must be nonempty")
    if min(seq) < 2:
        raise ValueError("cycle entries must all be >= 2")
    if max(seq) == 2:
        raise ValueError("a cycle must contain an entry >= 3")
    return seq


def _least_rotation(seq: tuple[int, ...]) -> int:
    """Start of the lexicographically smallest rotation of seq, in O(len(seq)).

    Duval's Lyndon factorization (1983) run over seq + seq: the last Lyndon
    factor starting before len(seq) begins the least rotation.
    """
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


@dataclass(frozen=True)
class Cycle:
    """A resolution cycle, stored as its lexicographically smallest rotation.

    The least rotation is found in linear time (`_least_rotation`), so long
    cover cycles canonicalize in time proportional to their length.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = _validated(self.entries)
        i = _least_rotation(seq)
        object.__setattr__(self, "entries", seq[i:] + seq[:i])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def _repeated(c: Cycle, n: int) -> Cycle:
    """c repeated n times, built without `_validated` or `_least_rotation`.

    A repetition of a valid cycle is valid, and the least rotation of w**n
    is (least rotation of w)**n: rotating w**n by i gives (w rotated by i)**n,
    and n-th powers of words of one length compare as the words do.  So
    c.entries * n is already canonical.
    """
    if n == 1:
        return c
    out = object.__new__(Cycle)
    object.__setattr__(out, "entries", c.entries * n)
    return out


def monodromy_of(c: Cycle | Sequence[int]) -> Mat2:
    """Monodromy of the cycle (b_1, ..., b_k): the product M(b_k) ... M(b_1).

    M(b) = [[b, 1], [-1, 0]], so left-multiplying by it is the continuant
    row update applied entry by entry, here on four plain ints with one Mat2
    built at the end.  A Cycle or raw sequence is validated, then multiplied
    in the rotation given; rotations have equal trace.
    """
    p, q, r, s = 1, 0, 0, 1
    for b in _validated(c):
        p, q, r, s = b * p + r, b * q + s, -p, -q
    return Mat2(p, q, r, s)


def cycle_of(a: Mat2) -> Cycle:
    """Resolution cycle of a det-1 monodromy with trace >= 3.

    Expands the fixed slope of a (`expand` rejects non-cusps).  a is
    conjugate to m^n, m the monodromy of the primitive period, so the cycle
    is the period repeated n times: Cycle canonicalizes the primitive period
    once and `_repeated` repeats that canonical block.  n is found by
    multiplying by m until the trace reaches trace(a).  m has trace >= 3, so
    the traces of its powers strictly increase and the search ends.  The
    preperiod absorbs matrices outside the purely periodic region.

    m^n is the product over period * n, and rotation keeps the trace, so
    m^n having trace(a) proves trace(monodromy_of(result)) == trace(a).  A
    mismatch raises ExpansionError.
    """
    _, period = expand(a)
    t = a.trace
    m = mn = monodromy_of(period)
    n = 1
    while mn.trace < t:
        mn = mul(mn, m)
        n += 1
    if mn.trace == t:
        return _repeated(Cycle(period), n)
    raise ExpansionError(f"no power of the period matrix has trace {t}; expansion is inconsistent")


def dual_cycle(c: Cycle) -> Cycle:
    """Cycle of the dual cusp, by swapping the block structure.

    Rotated to start at an entry >= 3, the cycle is blocks (m_i + 3, 2^n_i);
    the dual is the blocks reversed with each (m, n) exchanged.  One backward
    pass emits it: count the run of 2s, and at each entry e >= 3 emit run + 3
    then e - 3 twos.
    """
    seq = c.entries
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
    return Cycle(tuple(out))


def dual_length(c: Cycle) -> int:
    """Length of the dual cycle: the sum of (entry - 2), i.e. sum - 2 * length."""
    return sum(c.entries) - 2 * len(c.entries)


def is_ci_link(c: Cycle) -> bool:
    """Whether the cusp or its dual has cycle length <= 4 (the CI link test)."""
    return min(len(c), dual_length(c)) <= 4
