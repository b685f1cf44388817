"""The three benchmark workloads and their seeded inputs.

Why each workload exists (see README.md for the layer table):
- census: random short cycles of small trace.  It has the most lattices per
  certificate and the largest JSON, and its cycles are short, so the lattice
  walk, the induced action and serialization do most of the work.
- search: the paper's own search pipeline.  The trace filter up to 10**6 is
  nearly all `is_prime`, and certificates of traces near 10**5 scan residues
  modulo large primes; every certificate has exactly 58 covers.
- long_cycle: cusps whose cover cycles run to thousands of entries, where
  cycle canonicalization, expansion steps and the `cycle_of` self-check grow
  with the cycle length and the lattice walk is negligible.

Inputs are fixed before timing starts.  Runs of different seeds must cost the
same, or the spread between seeds would swamp any change to the program, so
the seed varies the inputs only where the cost does not move:
- census and search draw from a population sorted by size.  Op i lands in
  cell bitrev(i) of 2**level cells of equal probability, at a seeded point
  inside that cell.  A pass of a run covers every cell once, and
  neighbouring inputs of similar size stand in for each other from seed to
  seed.
- long_cycle certifies a fixed ladder of cusps, each as a seeded SL(2, Z)
  conjugate; conjugates share their cycles and cover census, so the work is
  the same while the matrices, the fiber lattices and the certificates differ.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable

import cuspcovers
from cuspcovers import Mat2

from gate import Expect

POPULATIONS = Path(__file__).resolve().parent / "populations.json"

# Admissible traces up to 10**5, pinned; the search filter runs to 10**6.
ADMISSIBLE_TO_1E5 = [13, 1621, 6661, 8221, 13681, 22621, 36901, 38461, 53281, 54541, 56101, 61561, 94441]
TRACE_LIMIT = 10**6
SEARCH_TRACE_MAX = 10**5
# The search keeps, of the first CANDIDATES candidate matrices per trace, those
# whose own cycle is not a CI link and has dual length at most MAX_DUAL.  The
# bound kept one certificate under a few seconds when the benchmark was added;
# the long cover cycles it leaves out are long_cycle's job.
CANDIDATES = 64
MAX_DUAL = 150


@dataclass(frozen=True)
class Op:
    """One certificate to compute; search ops get their matrix from the prelude."""

    key: tuple
    matrix: Mat2 | None
    expect: Expect


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    pass_ops: int  # an untraced run is a whole number of passes of this many ops
    fixed_ops: int  # ops in the digest and in each pass of a traced run
    prelude: Callable[[], tuple[dict, list[str]]] | None = None


def stratified(weights: list[float], seed: int, count: int, level: int) -> list[int]:
    """count indices into a size-sorted population, drawn cell by cell."""
    cells = 1 << level
    total = sum(weights)
    cum = list(accumulate(w / total for w in weights))
    rng = random.Random(seed)
    out = []
    for i in range(count):
        cell = int(format(i % cells, f"0{level}b")[::-1], 2)
        u = (cell + rng.random()) / cells
        out.append(min(bisect_right(cum, u), len(cum) - 1))
    return out


def passes(rows: list[dict], weights: list[float], seed: int, level: int, count: int = 16) -> list[int]:
    """count passes, each the largest certificate of the population and then
    one draw from each of the 2**level cells.  Peak memory is set by the
    largest certificate a run holds, so every pass holds the same one."""
    anchor = max(range(len(rows)), key=lambda i: (rows[i]["records"], rows[i]["entries"]))
    cells = 1 << level
    picks = stratified(weights, seed, count * cells, level)
    return [i for p in range(count) for i in [anchor, *picks[p * cells:(p + 1) * cells]]]


def random_sl2(rng: random.Random, steps: int = 4) -> Mat2:
    """Product of seeded elementary shears with entries in -3..3 (det 1)."""
    u = Mat2(1, 0, 0, 1)
    for _ in range(steps):
        k = rng.randint(-3, 3)
        u = cuspcovers.mul(u, Mat2(1, k, 0, 1) if rng.random() < 0.5 else Mat2(1, 0, k, 1))
    return u


def _expect(row: dict) -> Expect:
    return Expect(records=row["records"], longest=row["longest"], verdict=row["verdict"])


def census(seed: int, pop: dict) -> Workload:
    # Cycles of 1..5 entries in 2..8 with trace <= 100, weighted as if the
    # length and then each entry were drawn uniformly: a cycle of length k
    # that `sequences` entry sequences rotate to has weight sequences / 7**k.
    rows = pop["census"]
    weights = [r["sequences"] / 7 ** len(r["cycle"]) for r in rows]
    ops = [Op(tuple(rows[i]["cycle"]), cuspcovers.monodromy_of(rows[i]["cycle"]), _expect(rows[i]))
           for i in passes(rows, weights, seed, level=8)]
    return Workload("census", ops, pass_ops=257, fixed_ops=128)


def search_prelude(rows: list[dict]) -> Callable[[], tuple[dict, list[str]]]:
    expected = {(r["trace"], r["index"]): tuple(r["matrix"]) for r in rows}

    def prelude() -> tuple[dict, list[str]]:
        problems = []
        traces = cuspcovers.verifier.admissible_traces(TRACE_LIMIT)
        small = [x for x in traces if x <= SEARCH_TRACE_MAX]
        if small != ADMISSIBLE_TO_1E5:
            problems.append(f"admissible traces up to 10**5: {small}")
        pool = {}
        for x in small:
            for k, m in enumerate(cuspcovers.verifier.candidate_matrices(x, CANDIDATES)):
                c = cuspcovers.cycles.cycle_of(m)
                if not cuspcovers.cycles.is_ci_link(c) and cuspcovers.cycles.dual_length(c) <= MAX_DUAL:
                    pool[(x, k)] = m
        if {key: m.entries() for key, m in pool.items()} != expected:
            problems.append("candidate pool differs from the pinned population")
        return pool, problems

    return prelude


def search_size(row: dict) -> float:
    """Seconds one op took when the benchmark was added, as a least-squares
    fit (r = 0.99) to the longest cover cycle (canonicalization is quadratic
    in it), the total cover cycle entries and the trace (the residue scans).
    Only the order it gives matters; entries alone would put slow and fast
    ops in one cell, since all search certificates have 58 records."""
    return 5.6e-8 * row["longest"] ** 2 + 1.81e-5 * row["entries"] + 3.2e-6 * row["trace"]


def search(seed: int, pop: dict) -> Workload:
    # Each trace is drawn with equal probability, then each of its candidates.
    rows = sorted(pop["search"], key=search_size)
    per_trace: dict[int, int] = {}
    for r in rows:
        per_trace[r["trace"]] = per_trace.get(r["trace"], 0) + 1
    weights = [1 / per_trace[r["trace"]] for r in rows]
    ops = [Op((rows[i]["trace"], rows[i]["index"]), None, _expect(rows[i]))
           for i in passes(rows, weights, seed, level=6)]
    return Workload("search", ops, pass_ops=65, fixed_ops=16, prelude=search_prelude(rows))


def long_cycle(seed: int, pop: dict) -> Workload:
    rows = pop["long_cycle"]
    rng = random.Random(seed)
    ops = []
    for _ in range(64):
        for r in rows:
            a = Mat2(*r["matrix"])
            p = random_sl2(rng)
            ops.append(Op(tuple(r["matrix"]), cuspcovers.mul(cuspcovers.mul(cuspcovers.inverse(p), a), p), _expect(r)))
    return Workload("long_cycle", ops, pass_ops=len(rows), fixed_ops=len(rows))


BUILDERS = {"census": census, "search": search, "long_cycle": long_cycle}


def build(name: str, seed: int) -> Workload:
    with open(POPULATIONS, encoding="utf-8") as fh:
        pop = json.load(fh)
    return BUILDERS[name](seed, pop)
