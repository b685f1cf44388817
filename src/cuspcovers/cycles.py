"""Resolution cycles of cusp links.

A cycle is a cyclic sequence of integers >= 2, at least one >= 3, recording
the negated self-intersection weights around the resolution graph.  This
module converts between cycles and monodromy matrices, computes dual cycles
by the block-swap rule, and decides the complete-intersection link test.

Cover cycles are long and nearly all 2s, and a degree-n cover's cycle is
its fiber's cycle repeated n times.  So a `Cycle` stores its primitive root
as blocks, not entries, and a repeat count.  A block is a run of k 2s and
then an entry e >= 3; the root's blocks are one flat int tuple, the `word`
(k_1, e_1, ..., k_b, e_b), that starts at its least rotation, and `copies`
says how often the word repeats.  Length, dual length, dual, monodromy,
equality, hashing, repetition and the decimal text cost O(word).  Only
`Cycle(entries)` and `monodromy_of` of a raw sequence read entries, in one
pass that also checks them, and `Cycle.entries` builds the full tuple on
demand.  The cycle of a matrix never meets its entries: `cfrac.expand`
returns its period as blocks, and `_CoverCycles` canonicalizes those.

`Cycle.__post_init__(word, copies)` is the one canonicalizer, and it takes
flat blocks only: `Cycle(entries)` calls it on the blocks it reads, and
`_canonical` on blocks that are valid by construction (a dual, a period).
`_repeated` is the one builder that skips it.  `_CoverCycles` is the one
path from a det-1 matrix to its cycle: `table(x, n)` expands x and returns
the cycle of x**n from a dict keyed by (period blocks, n), which builds
each key's cycle once.  `cycle_of(a)` is a one-call table of a's trace,
and `covers.enumerate_covers` keeps one table per certificate.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .cfrac import ExpansionError, expand
from .matrices import Mat2, mul

__all__ = ["Cycle", "cycle_of", "dual_cycle", "dual_length", "is_ci_link", "monodromy_of"]

# A cusp is a complete intersection exactly when its cycle or its dual cycle
# has at most this many entries: the CI link test of `is_ci_link`.
CI_MAX_LENGTH = 4


def _blocks(entries: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """entries, checked as a cycle, as flat blocks (k_1, e_1, ..., k_b, e_b)
    read from the first entry, and the number of 2s after e_b.

    operator.index rejects a non-integer first (TypeError, never
    truncation); then one loop over the entries grows the run of 2s, closes
    a block at each entry >= 3 and rejects an entry < 2.
    """
    seq = tuple(map(operator.index, entries))
    if not seq:
        raise ValueError("a cycle must be nonempty")
    out: list[int] = []
    run = 0
    for e in seq:
        if e == 2:
            run += 1
        elif e > 2:
            out += (run, e)
            run = 0
        else:
            raise ValueError("cycle entries must all be >= 2")
    if not out:
        raise ValueError("a cycle must contain an entry >= 3")
    return tuple(out), run


def _least_rotation(blocks: tuple[int, ...]) -> tuple[int, int]:
    """(offset, period) of the least rotation of the cycle of the flat blocks:
    the offset is 2i for block i, the period the flat length of the cycle's
    primitive root, after O(blocks) steps.

    The least rotation of the entries starts right after an entry >= 3 (a 2
    before the start would make the rotation one place earlier smaller), so
    it is a rotation of the block words 2^k e.  No word is a prefix of
    another, and 2^k e < 2^k' e' iff (-k, e) < (-k', e'): the int
    e - k * (max e + 1) orders them the same way.  Duval's Lyndon
    factorization (1983) runs over these keys doubled; the last Lyndon
    factor starting before the first copy's end begins the least rotation,
    and the keys from there to the end are that factor repeated, so its
    length j - m is the primitive period.  One block needs no case of its
    own: its keys [k, k] end the loop at m = 1, j = 2, offset 0, period 2.
    """
    es = blocks[1::2]
    b = len(es)
    w = max(es) + 1
    keys = [e - k * w for k, e in zip(blocks[::2], es)]
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
    return 2 * start, 2 * (j - m)


def _word_text(word: tuple[int, ...], sep: str) -> str:
    """The entries of the flat blocks `word` in decimal, separated by sep:
    one piece per block, its run of k 2s written as ("2" + sep) * k.  It
    depends on the word's value alone, so a writer may share it between
    equal words."""
    runs = map(("2" + sep).__mul__, word[::2])
    return sep.join(map(operator.add, runs, map(str, word[1::2])))


@dataclass(frozen=True, init=False, repr=False)
class Cycle:
    """A resolution cycle w**copies, stored as `word`, the flat blocks
    (k_1, e_1, ..., k_b, e_b) of the least rotation of its primitive root w
    (k_i 2s, then e_i >= 3), and `copies`.

    `Cycle(entries)` checks the entries and reads their blocks in one pass
    (`_blocks`), wraps the 2s after the last entry >= 3 onto k_1 and hands
    the blocks to `__post_init__`.  That is the one canonicalizer: it takes
    flat blocks only, turns them to their least rotation and cuts them to
    the primitive root (`_least_rotation`).  The primitive root and its
    least rotation are unique, so equality and hashing compare
    (word, copies), which is comparing canonical entries.
    """

    word: tuple[int, ...]
    copies: int

    def __init__(self, entries: Iterable[int]) -> None:
        word, tail = _blocks(entries)
        self.__post_init__((word[0] + tail, *word[1:]), 1)

    def __post_init__(self, word: tuple[int, ...], copies: int) -> None:
        # Rotated to its least rotation, the word is its root repeated len // period times.
        i, period = _least_rotation(word)
        object.__setattr__(self, "word", (word[i:] + word[:i])[:period])
        object.__setattr__(self, "copies", copies * (len(word) // period))

    @property
    def entries(self) -> tuple[int, ...]:
        """The canonical entry tuple, built on each access."""
        out: list[int] = []
        for k, e in zip(self.word[::2], self.word[1::2]):
            out += itertools.repeat(2, k)
            out.append(e)
        return tuple(out) * self.copies

    def joined(self, sep: str) -> str:
        """The canonical entries in decimal, separated by sep: the word's text
        (`_word_text`) joined `copies` times."""
        return sep.join([_word_text(self.word, sep)] * self.copies)

    def __len__(self) -> int:
        return (sum(self.word[::2]) + len(self.word) // 2) * self.copies

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + self.joined(", ") + ")"

    def __repr__(self) -> str:
        return f"Cycle({self.entries!r})"


def _canonical(word: tuple[int, ...], copies: int) -> Cycle:
    """The Cycle word**copies of flat blocks that are valid by construction,
    with no entry scan, canonicalized by `Cycle.__post_init__`."""
    out = object.__new__(Cycle)
    out.__post_init__(word, copies)
    return out


def _repeated(c: Cycle, n: int) -> Cycle:
    """c repeated n times: c's word with n times its copies, with no
    canonicalization; (w**k)**n is w**(k n), and w stays the primitive root.
    The one builder that skips `Cycle.__post_init__`."""
    if n == 1:
        return c
    out = object.__new__(Cycle)
    object.__setattr__(out, "word", c.word)
    object.__setattr__(out, "copies", c.copies * n)
    return out


def monodromy_of(c: Cycle | Sequence[int]) -> Mat2:
    """Monodromy of the cycle (b_1, ..., b_k): the product M(b_k) ... M(b_1).

    M(b) = [[b, 1], [-1, 0]], and M(2)^k = [[k+1, k], [-k, 1-k]] starts the
    product at the leading run of k 2s.  The rest is one row update per
    entry e >= 3 with the run of j 2s after it, on X = [[p, q], [r, s]] held
    as four plain ints, with one Mat2 built at the end:
    M(2)^j M(e) X = Y + j [[h, v], [-h, -v]], where Y = M(e) X and
    (h, v) = (e - 1) (p, q) + (r, s) is the sum of Y's rows.  A Cycle
    multiplies its blocks in its canonical rotation; a raw sequence is
    validated, read as blocks once and multiplied in the rotation given.
    Rotations have equal trace.
    """
    blocks, tail = (c.word * c.copies, 0) if isinstance(c, Cycle) else _blocks(c)
    k = blocks[0]
    p, q, r, s = k + 1, k, -k, 1 - k
    for e, j in zip(blocks[1::2], (*blocks[2::2], tail)):
        g = e - 1
        h, v = g * p + r, g * q + s
        r, s = -p - j * h, -q - j * v
        p, q = h - r, v - s
    return Mat2(p, q, r, s)


def cycle_of(a: Mat2) -> Cycle:
    """Resolution cycle of a det-1 monodromy with trace >= 3: the cycle of
    a**1 in a `_CoverCycles` table of a's trace, which expands the fixed
    slope of a (`expand` rejects non-cusps) and builds the cycle from the
    primitive period's blocks with one canonicalization, one product and
    the trace check against trace(a).  The preperiod absorbs matrices
    outside the purely periodic region.
    """
    return _CoverCycles(a.trace)(a, 1)


class _CoverCycles(dict):
    """The cover cycles of one monodromy A of trace t: the one path from a
    det-1 matrix of trace t to its `Cycle`.

    `table(x, n)` expands x (`cfrac.expand`) and returns the cycle of x**n.
    The table is a dict keyed by (period blocks, n), the blocks as `expand`
    returns them, its trailing 2s wrapped onto the first block, so periods
    that differ only in where those 2s fall share a key.  A miss at n == 1 builds the base cycle of the period:
    x is conjugate to m**k, m the monodromy of the period, so its cycle is
    the period repeated k times.  `_canonical` takes the blocks to their
    least rotation once, with no entry scan; those blocks give m, k is found
    by multiplying by m until the trace reaches t (m has trace >= 3, so the
    traces of its powers strictly increase and the search ends), and
    `_repeated` sets k copies.  m**k is the product over the result's
    blocks, and rotation keeps the trace, so m**k having trace t proves
    trace(monodromy_of(result)) == t; a mismatch raises ExpansionError.
    Every induced action is P^-1 A P, of trace t, so that check covers every
    record with the period; for det 1 the trace of x**n is a fixed
    polynomial in trace(x), so it covers the repetition too.  A miss at
    n > 1 is `_repeated` of the n == 1 cycle: x**n fixes x's expanding
    slope, so its cycle is x's repeated n times.  The table holds no Cycle
    as a key, so no lookup compares a Cycle with a tuple key.
    """

    def __init__(self, t: int) -> None:
        self.t = t

    def __call__(self, x: Mat2, n: int) -> Cycle:
        return self[expand(x)[1], n]

    def __missing__(self, key: tuple[tuple[int, ...], int]) -> Cycle:
        blocks, n = key
        if n > 1:
            c = self[blocks, 1]
        else:
            # The base cycle: n counts up to the k with trace(m**k) == t.
            c = _canonical(blocks, 1)
            m = mn = monodromy_of(c)
            while mn.trace < self.t:
                mn = mul(mn, m)
                n += 1
            if mn.trace != self.t:
                raise ExpansionError(f"no power of the period matrix has trace {self.t}; expansion is inconsistent")
        c = self[key] = _repeated(c, n)
        return c


def dual_cycle(c: Cycle) -> Cycle:
    """Cycle of the dual cusp, by swapping the block structure.

    The dual reverses the blocks and takes each block (k, e) to (e - 3, k + 3):
    one C-level pass over the reversed word, then the least rotation of the
    result.  The dual of w**n is dual(w)**n, so only the word is mapped and
    the copies are kept.  The blocks are valid by construction, so no entry
    is scanned or validated.
    """
    return _canonical(tuple(map(operator.add, c.word[::-1], itertools.cycle((-3, 3)))), c.copies)


def dual_length(c: Cycle) -> int:
    """Length of the dual cycle: the sum of (entry - 2), that is, of e - 2 over the blocks."""
    return (sum(c.word[1::2]) - len(c.word)) * c.copies


def is_ci_link(c: Cycle) -> bool:
    """Whether the cusp or its dual has cycle length at most `CI_MAX_LENGTH` (the CI link test)."""
    return min(len(c), dual_length(c)) <= CI_MAX_LENGTH
