import itertools
import json
import random
import sys

import pytest

import cuspcovers.cfrac
import cuspcovers.cli
import cuspcovers.covers
import cuspcovers.cycles
from cuspcovers import verifier
from cuspcovers.cfrac import expand
from cuspcovers.cli import certificate_to_json
from cuspcovers.covers import Lattice2
from cuspcovers.cycles import Cycle, cycle_of, dual_cycle, monodromy_of
from cuspcovers.intmath import is_prime
from cuspcovers.matrices import Mat2, inverse
from cuspcovers.verifier import (
    HAS_CI_COVER,
    NO_CI_COVER,
    admissible_traces,
    candidate_matrices,
    verify,
)
from helpers import (
    admissible_traces_by_trial_division,
    candidate_matrices_by_scan,
    check_certificate,
    conjugated,
    random_cycle,
    random_unimodular,
    reversed_cycle,
)

PAPER_A = Mat2(1640, 221, -141, -19)


def small_cusp(rng):
    # tiny cycles keep the degree-4 enumeration fast in randomized loops
    while True:
        c = random_cycle(rng, max_len=3, max_entry=4)
        from cuspcovers.cycles import monodromy_of

        b = monodromy_of(c)
        if b.trace <= 30:
            return b


def test_verify_flagship():
    cert = verify(PAPER_A)
    assert cert.verdict == NO_CI_COVER
    assert cert.witness is None
    assert cert.cycle == Cycle((8, 2, 4, 3, 12))
    assert len(dual_cycle(cert.cycle)) == 19
    assert len(cert.covers) == 58
    assert all(min(len(r.cycle), len(dual_cycle(r.cycle))) >= 5 for r in cert.covers)


def test_long_cycle_certificate():
    # (1621) = [[1621, 1], [-1, 0]]: the long_cycle benchmark's pinned facts.
    cert = verify(Mat2(1621, 1, -1, 0))
    assert len(cert.covers) == 58
    assert max(len(r.cycle) for r in cert.covers) == 6476
    assert sum(len(r.cycle) + len(dual_cycle(r.cycle)) for r in cert.covers) == 131112
    assert cert.verdict == HAS_CI_COVER


def test_verify_trivial_ci():
    cert = verify(Mat2(3, 1, -1, 0))
    assert cert.verdict == HAS_CI_COVER
    assert cert.witness == 0  # degree 1, fiber Z^2: the cusp itself
    assert cert.covers[0].fiber.index == 1
    assert len(cert.covers[0].cycle) == 1


def test_verify_rejects_bad_input(monkeypatch):
    # The ValueError comes before any power of the matrix or any expansion.
    def unreachable(*args):
        raise AssertionError("a non-cusp reached a power or an expansion")

    monkeypatch.setattr(cuspcovers.covers, "power", unreachable)
    monkeypatch.setattr(cuspcovers.cycles, "expand", unreachable)
    with pytest.raises(ValueError, match="determinant 1 and trace 2;"):
        verify(Mat2(1, 0, 0, 1))
    with pytest.raises(ValueError, match="determinant 4 and trace 4;"):
        verify(Mat2(3, 1, -1, 1))


def test_verify_monodromy_of_cycle_forms():
    assert verify(monodromy_of(Cycle((8, 2, 4, 3, 12)))).verdict == NO_CI_COVER
    assert verify(monodromy_of(Cycle((3,)))).verdict == HAS_CI_COVER
    assert verify(monodromy_of(Cycle((2, 2, 2, 3)))).verdict == HAS_CI_COVER


def test_verify_deterministic():
    assert verify(PAPER_A) == verify(PAPER_A)


def test_witness_recheck():
    rng = random.Random(83)
    for _ in range(25):
        cert = verify(small_cusp(rng))
        if cert.witness is not None:
            w = cert.covers[cert.witness]
            assert min(len(w.cycle), len(dual_cycle(w.cycle))) <= 4
            assert all(
                min(len(r.cycle), len(dual_cycle(r.cycle))) > 4 for r in cert.covers[: cert.witness]
            )
        else:
            assert cert.verdict == NO_CI_COVER


def test_verify_agrees_with_inverse():
    # A lattice is A-invariant iff it is A^-1-invariant, and
    # (A^-n - I)Z^2 = A^-n (I - A^n)Z^2 = (A^n - I)Z^2, so A^-1 has A's fibers
    # at every degree, in the same order, with induced actions X^-1.  The
    # cycle of X^-1 is the dual of X's: the dual cusp's link is the same
    # torus bundle with the other orientation.  is_ci_link is symmetric in
    # cycle and dual, so the witness is the same record.
    rng = random.Random(89)
    for a in [PAPER_A] + [small_cusp(rng) for _ in range(15)]:
        base, inv = verify(a), verify(inverse(a))
        assert (inv.verdict, inv.witness) == (base.verdict, base.witness)
        assert inv.cycle == dual_cycle(base.cycle)
        assert len(inv.covers) == len(base.covers)
        for r, s in zip(base.covers, inv.covers):
            assert (s.base_degree, s.fiber, s.induced) == (r.base_degree, r.fiber, inverse(r.induced))
            assert s.cycle == dual_cycle(r.cycle)


def test_conjugation_invariance_of_certificates():
    # The flagship, after the seeded cusps: its cycle is not a rotation of
    # its reversal, and the small cusps' record multisets can be closed
    # under reversal.
    rng = random.Random(97)
    for a in itertools.chain((small_cusp(rng) for _ in range(20)), [PAPER_A]):
        u = random_unimodular(rng, det=1)
        base = verify(a)
        moved = verify(conjugated(a, u))
        assert moved.verdict == base.verdict
        assert sorted((r.cycle.entries, dual_cycle(r.cycle).entries) for r in moved.covers) == sorted(
            (r.cycle.entries, dual_cycle(r.cycle).entries) for r in base.covers
        )
        # orientation-reversing base change still cannot move the verdict
        flipped = verify(conjugated(a, random_unimodular(rng, det=-1)))
        assert flipped.verdict == base.verdict
        # With D = diag(1, -1), the fibers of DAD are the mirrored lattices
        # D L, with HNF (x, -y mod x, z), and their cycles the duals of the
        # reversed cycles.  The induced entries differ: the HNF basis of D L
        # is not D times that of L.
        mirrored = verify(conjugated(a, Mat2(1, 0, 0, -1)))
        assert mirrored.verdict == base.verdict
        assert sorted((r.base_degree, r.fiber, r.cycle.entries) for r in mirrored.covers) == sorted(
            (n, (x, -y % x, z), dual_cycle(reversed_cycle(c)).entries) for n, (x, y, z), _, c in base.covers
        )


def test_admissible_traces():
    assert admissible_traces(10000) == [13, 1621, 6661, 8221]
    assert admissible_traces(10000)[:3] == [13, 1621, 6661]
    assert admissible_traces(2000) == [13, 1621]
    for limit in (3, 6, 7, 12):
        assert admissible_traces(limit) == []
    assert admissible_traces(13) == [13]
    assert admissible_traces(10**5) == [
        13, 1621, 6661, 8221, 13681, 22621, 36901, 38461, 53281, 54541, 56101, 61561, 94441
    ]
    with pytest.raises(ValueError):
        admissible_traces(2)


def test_admissible_trace_factor_structure():
    for x in admissible_traces(10000):
        assert is_prime(x) and is_prime(x - 2)
        assert (x + 2) % 3 == 0 and is_prime((x + 2) // 3)
        assert (x + 1) % 2 == 0 and is_prime((x + 1) // 2)
    # 13 decomposes as (q, r, s) = (11, 5, 7)
    assert (13 - 2, (13 + 2) // 3, (13 + 1) // 2) == (11, 5, 7)
    # 1621 decomposes as the quadruple used throughout the cover census
    assert (1621 - 2, (1621 + 2) // 3, (1621 + 1) // 2) == (1619, 541, 811)


def test_admissible_traces_match_the_trial_division_oracle():
    # The sieve answers every limit as the trial-division filter does.
    oracle = admissible_traces_by_trial_division(3000)
    for limit in range(3, 3001):
        assert admissible_traces(limit) == [x for x in oracle if x <= limit]
    traces = admissible_traces(10**6)
    assert traces == admissible_traces_by_trial_division(10**6)
    assert len(traces) == 54


def test_odd_prime_table_matches_is_prime():
    table = verifier._odd_prime_table(19999)
    assert len(table) == 19999 // 2 + 1
    for n in range(1, 20000, 2):
        assert table[n // 2] == is_prime(n)


def test_a_wrong_prime_table_is_caught(monkeypatch):
    # 73, 71 and (73 + 1)/2 = 37 are prime, but (73 + 2)/3 = 25 is not: a
    # table that calls 25 prime must not let 73 through.
    real = verifier._odd_prime_table

    def marks_25_prime(limit):
        table = real(limit)
        table[25 // 2] = 1
        return table

    monkeypatch.setattr(verifier, "_odd_prime_table", marks_25_prime)
    with pytest.raises(RuntimeError, match="73"):
        admissible_traces(100)


def test_five_fails_the_strict_filter():
    # 5 and 3 are prime, but 5 + 2 = 7 is not three times a prime
    assert 5 not in admissible_traces(10000)
    assert is_prime(5) and is_prime(3)
    assert 7 % 3 != 0


def test_candidate_matrices():
    cands = candidate_matrices(1621, 100)
    assert PAPER_A in cands
    assert len(cands) == 100
    for m in cands:
        assert m.trace == 1621 and m.det == 1
        assert m.a > m.b > -m.d >= 0
    assert Mat2(3, 1, -1, 0) in candidate_matrices(3, 5)


def test_candidate_matrices_order_and_pure_periodicity():
    cands = candidate_matrices(30, 60)
    keys = [(m.a, m.b) for m in cands]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for m in cands:
        assert expand(m)[0] == 0
    with pytest.raises(ValueError, match="trace must be >= 3"):
        candidate_matrices(2, 5)
    with pytest.raises(ValueError, match="limit must be >= 0"):
        candidate_matrices(5, -1)


def test_candidate_matrices_complete_below_the_proven_bound():
    # Brute force over every a <= t + (t - 1)**2 and every b < a: the scan's
    # stop at a - t = (t - 1)**2 // 4 - 1 loses no candidate, and the last
    # candidate sits exactly at the bound.
    for t in range(3, 41):
        brute = [
            Mat2(a, b, (a * (t - a) - 1) // b, t - a)
            for a in range(t, t + (t - 1) ** 2 + 1)
            for b in range(1, a)
            if b > a - t and (a * (t - a) - 1) % b == 0
        ]
        assert candidate_matrices(t, 10**9) == brute
        assert brute[-1].a == t + (t - 1) ** 2 // 4 - 1


def test_candidate_matrices_match_the_scan_oracle():
    # Divisor pairs below isqrt(1 - a*d) give every b of the full scan, in
    # order: on complete lists (traces 3..120), on lists cut by CANDIDATE_SPAN
    # (traces 202, 257 and 499, run to the end) and on the paper's traces.
    for t in range(3, 121):
        scan = candidate_matrices_by_scan(t, 10**9)
        for limit in (1, 5, 64, 10**9):
            assert candidate_matrices(t, limit) == scan[:limit]
    for t in (202, 257, 499):
        assert candidate_matrices(t, 10**9) == candidate_matrices_by_scan(t, 10**9)
    for t in admissible_traces(10**5):
        assert candidate_matrices(t, 64) == candidate_matrices_by_scan(t, 64)
    assert candidate_matrices(94441, 300) == candidate_matrices_by_scan(94441, 300)


def test_no_ci_cover_begins_at_trace_63():
    # Every cusp class of trace 3..63, one matrix per cycle: candidate_matrices
    # is complete below its proven bound, and the cycle keys the conjugacy
    # class.  All 552 classes have a CI cover but the four classes of
    # (2,2,4,2,5) and (2,2,2,2,3,7), each with its reversal.  All four have
    # trace 63, which the paper's trace filter rejects.
    classes = {}
    for t in range(3, 64):
        for m in candidate_matrices(t, 10**9):
            classes.setdefault(cycle_of(m), m)
    assert len(classes) == 552
    without = {c for c, m in classes.items() if verify(m).verdict == NO_CI_COVER}
    assert without == {
        Cycle((2, 2, 4, 2, 5)),
        Cycle((2, 2, 5, 2, 4)),
        Cycle((2, 2, 2, 2, 3, 7)),
        Cycle((2, 2, 2, 2, 7, 3)),
    }
    assert {classes[c].trace for c in without} == {63}
    assert 63 not in admissible_traces(63)


# The flagship and the four trace-63 classes have no CI cover; (2, 6, 2, 6),
# the census anchor, has 3284 records and a top-level cycle that repeats its
# primitive period.
CHECKED_CUSPS = {
    "flagship": PAPER_A,
    "2,2,4,2,5": monodromy_of((2, 2, 4, 2, 5)),
    "2,2,5,2,4": monodromy_of((2, 2, 5, 2, 4)),
    "2,2,2,2,3,7": monodromy_of((2, 2, 2, 2, 3, 7)),
    "2,2,2,2,7,3": monodromy_of((2, 2, 2, 2, 7, 3)),
    "2,6,2,6": monodromy_of((2, 6, 2, 6)),
}


@pytest.mark.parametrize("a", CHECKED_CUSPS.values(), ids=CHECKED_CUSPS.keys())
def test_certificates_pass_the_first_principles_checker(a):
    assert check_certificate(certificate_to_json(verify(a))) is None


def _drop_a_record(doc):
    del doc["covers"][30]


def _swap_two_cycles_of_different_length(doc):
    # Every cycle-derived member moves, so the lengths agree with the entries
    # and only the cycle of induced**n can tell.
    first, *rest = doc["covers"]
    other = next(rec for rec in rest if rec["cycle_len"] != first["cycle_len"])
    for key in ("cycle", "cycle_len", "dual", "dual_len"):
        first[key], other[key] = other[key], first[key]


def _change_an_induced_entry(doc):
    induced = doc["covers"][-1]["induced"]
    induced[1] = str(int(induced[1]) + 1)


def _set_the_witness_to_0(doc):
    doc["witness"] = 0


@pytest.mark.parametrize(
    "mutate, failure",
    [
        (_drop_a_record, "the fibers are not the Smith-form fibers"),
        (_swap_two_cycles_of_different_length, "record 0: the cycle or dual is not that of induced**1"),
        (_change_an_induced_entry, "record 57: induced"),
        (_set_the_witness_to_0, "witness 0 is not the first CI record, None"),
    ],
    ids=("drop", "swap", "induced", "witness"),
)
def test_the_certificate_checker_fails_each_mutation(mutate, failure):
    doc = json.loads(certificate_to_json(verify(PAPER_A)))
    mutate(doc)
    result = check_certificate(json.dumps(doc))
    assert result is not None and result.startswith(failure), result


def test_the_certificate_checker_calls_no_certificate_path_function():
    # Every Python call into covers, cycles, cfrac, verifier or cli while the
    # checker runs is a member of the Lattice2 value type.
    text = certificate_to_json(verify(CHECKED_CUSPS["2,2,4,2,5"]))
    path = {m.__file__ for m in (cuspcovers.covers, cuspcovers.cycles, cuspcovers.cfrac, verifier, cuspcovers.cli)}
    value_type = {
        f.__code__ for f in (Lattice2.__new__, Lattice2.index.fget, Lattice2.basis.fget, Lattice2.sort_key)
    }
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in path:
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        result = check_certificate(text)
    finally:
        sys.setprofile(None)
    assert result is None
    assert Lattice2.__new__.__code__ in called  # the profile sees calls into covers
    assert called <= value_type, sorted(c.co_name for c in called - value_type)
