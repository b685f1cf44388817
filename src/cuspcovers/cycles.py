"""Resolution cycles of cusp links.

A cycle is a cyclic sequence of integers >= 2, at least one >= 3, recording
the negated self-intersection weights around the resolution graph.  This
module converts between cycles and monodromy matrices, computes dual cycles
by the block-swap rule, and decides the complete-intersection link test.
Cover cycles are long and nearly all 2s, so each of these works on blocks
(an entry >= 3, then a run of 2s): one scan finds the entries other than 2,
then each block takes one Python step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import pairwise, repeat
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
    """Start of the lexicographically smallest rotation of seq: one list
    comprehension finds the entries other than 2, then O(blocks) steps.

    seq is a necklace of blocks, each a run of k 2s and then an entry e >= 3.
    The least rotation starts right after an entry >= 3 (a 2 before the
    start would make the rotation one place earlier smaller), so it is a
    rotation of the block words 2^k e; with one block, it starts after its e.
    No word is a prefix of another, and 2^k e < 2^k' e' iff
    (-k, e) < (-k', e'): the int e - (k + 1) * (max(seq) + 1) orders them
    the same way.  Duval's Lyndon factorization (1983) runs over these keys doubled;
    the last Lyndon factor starting before the first copy's end begins the
    least rotation of the keys, and the entry after the previous block's e
    begins that of seq.
    """
    pos = [i for i, e in enumerate(seq) if e != 2]
    b = len(pos)
    if b == 1:
        return (pos[0] + 1) % len(seq)
    w = max(seq) + 1
    keys = []
    prev = pos[-1] - len(seq)
    for j in pos:
        keys.append(seq[j] + (prev - j) * w)
        prev = j
    keys += keys
    i = start = 0
    while i < b:
        start = i
        j, m = i + 1, i
        while j < 2 * b and keys[m] <= keys[j]:
            m = i if keys[m] < keys[j] else m + 1
            j += 1
        while i <= m:
            i += j - m
    return (pos[start - 1] + 1) % len(seq)


@dataclass(frozen=True)
class Cycle:
    """A resolution cycle, stored as its lexicographically smallest rotation.

    The least rotation is found by one list comprehension over the entries
    and then one Python step per block (`_least_rotation`), so long cover
    cycles, nearly all 2s, canonicalize at a Python cost proportional to
    their number of blocks.
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

    M(b) = [[b, 1], [-1, 0]], and M(2)^k = [[k+1, k], [-k, 1-k]] starts the
    product at the leading run of k 2s.  The rest is one row update per
    entry e >= 3 with the n - 1 2s after it, on X = [[p, q], [r, s]] held as
    four plain ints, with one Mat2 built at the end:
    M(2)^(n-1) M(e) X = Y + (n - 1) [[h, v], [-h, -v]], where Y = M(e) X and
    (h, v) = (e - 1) (p, q) + (r, s) is the sum of Y's rows.  A Cycle or raw
    sequence is validated, then multiplied in the rotation given; rotations
    have equal trace.
    """
    seq = _validated(c)
    pos = [i for i, e in enumerate(seq) if e != 2]
    k = pos[0]
    p, q, r, s = k + 1, k, -k, 1 - k
    pos.append(len(seq))
    for i, j in pairwise(pos):
        n = j - i
        g = seq[i] - 1
        h, v = g * p + r, g * q + s
        p, q = p + n * h, q + n * v
        r, s = h - p, v - q
    return Mat2(p, q, r, s)


def _base_cycle(period: tuple[int, ...], t: int) -> Cycle:
    """The cycle of a monodromy of trace t whose expansion has this primitive period.

    The monodromy is conjugate to m^n, m the monodromy of the period, so its
    cycle is the period repeated n times: Cycle canonicalizes the period once
    and `_repeated` repeats that canonical block.  n is found by multiplying
    by m until the trace reaches t.  m has trace >= 3, so the traces of its
    powers strictly increase and the search ends.

    m^n is the product over period * n, and rotation keeps the trace, so
    m^n having trace t proves trace(monodromy_of(result)) == t.  A mismatch
    raises ExpansionError.  The result depends only on (period, t), so
    callers that meet one period at one trace many times may share it.
    """
    m = mn = monodromy_of(period)
    n = 1
    while mn.trace < t:
        mn = mul(mn, m)
        n += 1
    if mn.trace == t:
        return _repeated(Cycle(period), n)
    raise ExpansionError(f"no power of the period matrix has trace {t}; expansion is inconsistent")


def cycle_of(a: Mat2) -> Cycle:
    """Resolution cycle of a det-1 monodromy with trace >= 3.

    Expands the fixed slope of a (`expand` rejects non-cusps) and builds the
    cycle from the primitive period with `_base_cycle`: one canonicalization,
    one product, and the trace check against trace(a).  The preperiod
    absorbs matrices outside the purely periodic region.
    """
    return _base_cycle(expand(a)[1], a.trace)


def dual_cycle(c: Cycle) -> Cycle:
    """Cycle of the dual cusp, by swapping the block structure.

    The cycle is a necklace of blocks (m_i + 3, 2^n_i); the dual is the
    blocks reversed with each (m, n) exchanged.  One step per block, last
    to first, emits n + 3 and then m 2s.
    """
    seq = c.entries
    pos = [i for i, e in enumerate(seq) if e != 2]
    out: list[int] = []
    j = pos[0] + len(seq)
    for i in reversed(pos):
        out.append(j - i + 2)
        out.extend(repeat(2, seq[i] - 3))
        j = i
    return Cycle(tuple(out))


def dual_length(c: Cycle) -> int:
    """Length of the dual cycle: the sum of (entry - 2), i.e. sum - 2 * length."""
    return sum(c.entries) - 2 * len(c.entries)


def is_ci_link(c: Cycle) -> bool:
    """Whether the cusp or its dual has cycle length <= 4 (the CI link test)."""
    return min(len(c), dual_length(c)) <= 4
