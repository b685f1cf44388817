"""Acceptance suite: every headline claim checked end to end, exact integer
equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The flagship input is the trace-1621 monodromy whose cusp has
cycle (8,2,4,3,12); its cover census (58 normal covers through base degree
4) must contain no cycle or dual cycle of length 4 or less.

Where a printed reference matrix was derived in a negatively oriented
lattice basis, the record built from the (always positively oriented) HNF
basis lands in the mirror conjugacy class; its cycle and dual are then the
reversals of the reference's dual and cycle.  Those checks accept exactly
the two orientations of one GL(2, Z) class and nothing else.
"""

import json
import random

import pytest

from cuspcovers import (
    NO_CI_COVER,
    Cycle,
    Lattice2,
    Mat2,
    admissible_traces,
    conjugate,
    cycle_of,
    dual_cycle,
    invariant_sublattices_between,
    inverse,
    monodromy_of,
    power,
    prime_index_invariant_lattices,
    solve_quadratic_congruence,
    verify,
)
from cuspcovers.cli import main
from cuspcovers.intmath import is_prime
from helpers import (
    conjugated,
    from_columns,
    index_formula,
    lattice_contains,
    random_cycle,
    random_unimodular,
    reversed_cycle,
    sublattices_of_index,
)

A = Mat2(1640, 221, -141, -19)
Q, R, S, P = 1619, 541, 811, 1621

A3_PRINTED = Mat2(1640, 663, -47, -19)
AS1_PRINTED = Mat2(-25822, -114351, 6197, 27443)
AS2_PRINTED = Mat2(-94207, -114351, 78947, 95828)
AP1_PRINTED = Mat2(-19618, -228561, 1823, 21239)
AP2_PRINTED = Mat2(-85747, -228561, 32777, 87368)
ARP1_PRINTED = Mat2(2935465, 8732327, -986243, -2933844)
ARP2_PRINTED = Mat2(3538809, 8732327, -1433459, -3537188)


@pytest.fixture(scope="module")
def cert():
    return verify(A)


def record(cert, degree, fiber):
    match = [r for r in cert.covers if r.base_degree == degree and r.fiber == fiber]
    assert len(match) == 1, (degree, fiber)
    return match[0]


def cycle_pair(m: Mat2):
    c = cycle_of(m)
    return c, dual_cycle(c)


def same_gl2_class(m: Mat2, reference: Mat2) -> bool:
    """SL2 classes are separated by their cycles; the det -1 twist of a class
    carries the reversed dual.  Together these decide GL2(Z) conjugacy."""
    if m.trace != reference.trace:
        return False
    mine, ref = cycle_pair(m), cycle_pair(reference)
    mirror = (reversed_cycle(ref[1]), reversed_cycle(ref[0]))
    return mine == ref or mine == mirror


def test_criterion_1_flagship(cert):
    assert cert.verdict == NO_CI_COVER
    assert cert.witness is None
    assert cert.cycle == Cycle((8, 2, 4, 3, 12))
    assert len(dual_cycle(cert.cycle)) == 19
    assert all(min(len(r.cycle), len(dual_cycle(r.cycle))) >= 5 for r in cert.covers)
    print("criterion 1 PASS: (8,2,4,3,12) cusp has no CI Galois cover")


def test_criterion_2_degree_2(cert):
    assert prime_index_invariant_lattices(A, 3) == [Lattice2(1, 0, 3)]
    rec = record(cert, 2, Lattice2(1, 0, 3))
    assert rec.induced == A3_PRINTED
    assert same_gl2_class(rec.induced, A3_PRINTED)
    assert (len(rec.cycle), len(dual_cycle(rec.cycle))) == (8, 84)
    print("criterion 2 PASS: unique index-3 fiber, squared lengths (8, 84)")


def test_criterion_3_congruences():
    assert solve_quadratic_congruence(141, 1659, 221, 541) == [138]
    assert solve_quadratic_congruence(141, 1659, 221, 811) == [183, 668]
    assert solve_quadratic_congruence(141, 1659, 221, 1621) == [139, 608]
    assert solve_quadratic_congruence(1097, 1571, 1527, 1621) == [541, 653]
    print("criterion 3 PASS: quadratic congruence solutions mod r, s, p")


def test_criterion_4_degree_3(cert):
    rec1 = record(cert, 3, Lattice2(S, 183, 1))
    rec2 = record(cert, 3, Lattice2(S, 668, 1))
    assert same_gl2_class(rec1.induced, AS1_PRINTED)
    assert same_gl2_class(rec2.induced, AS2_PRINTED)
    # cubed cycle/dual lengths of the printed actions, literally
    c1, d1 = cycle_pair(power(AS1_PRINTED, 3))
    c2, d2 = cycle_pair(power(AS2_PRINTED, 3))
    assert (len(c1), len(d1)) == (447, 9)
    assert (len(c2), len(d2)) == (42, 36)
    # the HNF-based records carry the same unordered pairs (mirror class)
    assert {len(rec1.cycle), len(dual_cycle(rec1.cycle))} == {447, 9}
    assert {len(rec2.cycle), len(dual_cycle(rec2.cycle))} == {42, 36}
    # unique index-s^2 fiber is the scalar lattice, acted on by A itself
    s2 = [r for r in cert.covers if r.base_degree == 3 and r.fiber.index == S * S]
    assert [r.fiber for r in s2] == [Lattice2(S, 0, S)]
    assert s2[0].induced == A
    print("criterion 4 PASS: degree-3 fibers, lengths {447,9} and {42,36}, s^2 fiber = s*Z^2")


def test_criterion_5_degree_4(cert):
    rec_p1 = record(cert, 4, Lattice2(P, 139, 1))
    rec_p2 = record(cert, 4, Lattice2(P, 608, 1))
    rec_rp1 = record(cert, 4, Lattice2(876961, 439430, 1))
    rec_rp2 = record(cert, 4, Lattice2(876961, 381543, 1))
    for rec, printed in (
        (rec_p1, AP1_PRINTED),
        (rec_p2, AP2_PRINTED),
        (rec_rp1, ARP1_PRINTED),
        (rec_rp2, ARP2_PRINTED),
    ):
        assert same_gl2_class(rec.induced, printed)
    # fourth-power cycle/dual lengths of the printed actions, literally
    expected = [(48, 40), (404, 12), (32, 40), (32, 136)]
    printed = [AP1_PRINTED, AP2_PRINTED, ARP1_PRINTED, ARP2_PRINTED]
    for m, lens in zip(printed, expected):
        c, d = cycle_pair(power(m, 4))
        assert (len(c), len(d)) == lens
    # records: rp fibers share the printed orientation, p fibers mirror it
    assert (len(rec_rp1.cycle), len(dual_cycle(rec_rp1.cycle))) == (32, 40)
    assert (len(rec_rp2.cycle), len(dual_cycle(rec_rp2.cycle))) == (32, 136)
    assert {len(rec_p1.cycle), len(dual_cycle(rec_p1.cycle))} == {48, 40}
    assert {len(rec_p2.cycle), len(dual_cycle(rec_p2.cycle))} == {404, 12}
    print("criterion 5 PASS: degree-4 fibers, lengths (48,40), (404,12), (32,40), (32,136)")


def test_criterion_6_negative_invariance():
    assert prime_index_invariant_lattices(A, 2) == []
    assert all(conjugate(A, lat.basis) is None for lat in sublattices_of_index(2))
    degree1 = invariant_sublattices_between(A, 1)
    assert [lat.index for lat in degree1] == [1, Q]
    print("criterion 6 PASS: no invariant index-2 lattice; degree 1 has no intermediates")


def test_criterion_7_index_formulas():
    expected = {1: Q, 2: Q * 1623, 3: Q * 1622**2, 4: P**2 * Q * 1623}
    for n, value in expected.items():
        assert index_formula(P, n) == value
        an = power(A, n)
        shifted = Mat2(an.a - 1, an.b, an.c, an.d - 1)
        assert abs(shifted.det) == value
    print("criterion 7 PASS: fiber indices q, 3rq, q(2s)^2, 3p^2qr match det(A^n - I)")


def test_criterion_8_trace_search():
    found = admissible_traces(10000)
    assert found[:3] == [13, 1621, 6661]
    assert found == [13, 1621, 6661, 8221]  # 8221 also passes the strict filter
    assert 5 not in found
    # the 5 in the reference list fails the filter as written: 5 + 2 = 7 = 3r
    # has no prime r
    assert is_prime(5) and is_prime(3) and 7 % 3 != 0
    print("criterion 8 PASS: strict trace filter on [3, 10000] begins 13, 1621, 6661")


def test_criterion_9_property_suites():
    rng = random.Random(20260808)

    for _ in range(1000):  # cycle <-> monodromy round trip
        c = random_cycle(rng)
        assert cycle_of(monodromy_of(c)) == c

    for _ in range(1000):  # dual involution
        c = random_cycle(rng)
        assert dual_cycle(dual_cycle(c)) == c

    for _ in range(1000):  # dual-length formula
        c = random_cycle(rng)
        assert len(dual_cycle(c)) == sum(e - 2 for e in c)

    for _ in range(1000):  # trace invariance under dualization
        c = random_cycle(rng)
        assert monodromy_of(c).trace == monodromy_of(dual_cycle(c)).trace

    for _ in range(1000):  # inverse monodromy carries the dual cycle
        c = random_cycle(rng)
        assert cycle_of(inverse(monodromy_of(c))) == dual_cycle(c)

    for _ in range(334):  # base power concatenates the cycle, n = 2, 3, 4
        c = random_cycle(rng, max_len=4, max_entry=8)
        b = monodromy_of(c)
        for n in (2, 3, 4):
            assert cycle_of(power(b, n)) == Cycle(tuple(c) * n)

    checked = 0  # brute-force sublattice oracle agreement
    while checked < 1000:
        a = conjugated(monodromy_of(random_cycle(rng, 3, 5)), random_unimodular(rng, 3))
        for n in (1, 2):
            total = index_formula(a.trace, n)
            if total >= 10**4:
                continue
            an = power(a, n)
            kernel = from_columns((an.a - 1, an.c), (an.b, an.d - 1))
            brute = sorted(
                (
                    lat
                    for d in range(1, total + 1)
                    if total % d == 0
                    for lat in sublattices_of_index(d)
                    if conjugate(a, lat.basis) is not None and lattice_contains(lat, kernel.basis)
                ),
                key=Lattice2.sort_key,
            )
            assert invariant_sublattices_between(a, n) == brute
            checked += 1

    checked = 0  # conjugation invariance of verify verdicts
    while checked < 1000:
        c = random_cycle(rng, max_len=3, max_entry=3)
        base = verify(monodromy_of(c))
        for _ in range(5):
            u = random_unimodular(rng, det=rng.choice((1, -1)))
            assert verify(conjugated(monodromy_of(c), u)).verdict == base.verdict
            checked += 1

    print("criterion 9 PASS: eight randomized property suites, >= 1000 cases each")


def test_criterion_10_certificate_determinism(capsys):
    args = ["verify", "-c", "8,2,4,3,12", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical
    assert json.loads(first)["verdict"] == "NO_CI_COVER"
    print("criterion 10 PASS: byte-identical certificates")
