import random

import pytest

from cuspcovers.covers import (
    FULL_LATTICE,
    Lattice2,
    contains,
    contains_lattice,
    enumerate_covers,
    induced_action,
    invariant_sublattices_between,
    is_invariant,
    prime_index_invariant_lattices,
    sublattices_of_index,
)
from cuspcovers.cycles import canonicalize, cycle_of, dual_cycle
from cuspcovers.matrices import IDENTITY, Mat2, index_formula, mul, power
from helpers import random_hyperbolic, reversed_cycle

PAPER_A = Mat2(1640, 221, -141, -19)
PAPER_S1 = Mat2(-25822, -114351, 6197, 27443)


def shifted(a: Mat2, n: int) -> Mat2:
    an = power(a, n)
    return Mat2(an.a - 1, an.b, an.c, an.d - 1)


def test_lattice_construction():
    lat = Lattice2.from_columns((183, 1), (811, 0))
    assert (lat.x, lat.y, lat.z) == (811, 183, 1)
    assert lat.index == 811
    assert lat.basis == Mat2(811, 183, 0, 1)
    assert Lattice2.from_columns((1, 0), (0, 3)) == Lattice2(1, 0, 3)
    with pytest.raises(ValueError):
        Lattice2(0, 0, 1)
    with pytest.raises(ValueError):
        Lattice2(2, 2, 1)


def test_sublattices_of_index():
    assert sublattices_of_index(1) == [FULL_LATTICE]
    assert len(sublattices_of_index(2)) == 3
    assert len(sublattices_of_index(3)) == 4
    for d in (1, 2, 3, 6, 12, 30):
        sigma = sum(k for k in range(1, d + 1) if d % k == 0)
        lats = sublattices_of_index(d)
        assert len(lats) == len(set(lats)) == sigma
        assert all(lat.index == d for lat in lats)


def test_contains():
    assert contains(FULL_LATTICE, PAPER_A)
    # the index-3 fiber sits above (A^2 - I)Z^2, its degree: A^2 - I vanishes
    # mod 3 column-wise, while A - I does not (second column is (221, -20))
    assert contains(Lattice2(1, 0, 3), shifted(PAPER_A, 2))
    assert not contains(Lattice2(1, 0, 3), shifted(PAPER_A, 1))
    assert contains(Lattice2(811, 183, 1), shifted(PAPER_A, 3))
    assert not contains(Lattice2(1, 0, 3), IDENTITY)


def test_is_invariant():
    assert is_invariant(FULL_LATTICE, PAPER_A)
    assert is_invariant(Lattice2(1, 0, 3), PAPER_A)
    for lat in sublattices_of_index(2):
        assert not is_invariant(lat, PAPER_A)


@pytest.mark.parametrize(
    "ell,expected",
    [
        (541, [Lattice2(541, 138, 1)]),
        (811, [Lattice2(811, 183, 1), Lattice2(811, 668, 1)]),
        (2, []),
        (1621, [Lattice2(1621, 139, 1), Lattice2(1621, 608, 1)]),
        (3, [Lattice2(1, 0, 3)]),
    ],
)
def test_prime_index_invariant_lattices_paper(ell, expected):
    assert prime_index_invariant_lattices(PAPER_A, ell) == expected


def test_prime_index_requires_prime():
    with pytest.raises(ValueError):
        prime_index_invariant_lattices(PAPER_A, 6)


def test_prime_index_scalar_case():
    # A = I mod ell preserves every index-ell lattice: ell + 1 of them
    ell = 5
    a = Mat2(1, ell, ell, 1 + ell * ell)
    assert a.det == 1
    lats = prime_index_invariant_lattices(a, ell)
    assert len(lats) == ell + 1
    assert set(lats) == set(sublattices_of_index(ell))


def test_prime_index_count_bound():
    rng = random.Random(73)
    for _ in range(200):
        a = random_hyperbolic(rng, max_len=4, max_entry=6)
        ell = rng.choice((2, 3, 5, 7, 11, 13))
        count = len(prime_index_invariant_lattices(a, ell))
        scalar = a.b % ell == 0 and a.c % ell == 0 and (a.a - a.d) % ell == 0
        assert count == ell + 1 if scalar else count in (0, 1, 2)


def test_invariant_sublattices_paper_degree_1():
    lats = invariant_sublattices_between(PAPER_A, 1)
    assert lats == [FULL_LATTICE, Lattice2.from_basis(shifted(PAPER_A, 1))]
    assert [lat.index for lat in lats] == [1, 1619]


def test_invariant_sublattices_paper_degree_2():
    q, r = 1619, 541
    lats = invariant_sublattices_between(PAPER_A, 2)
    indices = [lat.index for lat in lats]
    assert indices == sorted([1, 3, r, q, 3 * r, 3 * q, r * q, 3 * r * q])
    # one invariant lattice per index: squarefree quotient
    assert len(set(indices)) == len(indices)


def test_invariant_sublattices_paper_degree_3():
    s = 811
    lats = invariant_sublattices_between(PAPER_A, 3)
    assert len(lats) == 16
    index_s = [lat for lat in lats if lat.index == s]
    assert index_s == [Lattice2(s, 183, 1), Lattice2(s, 668, 1)]
    index_s2 = [lat for lat in lats if lat.index == s * s]
    assert index_s2 == [Lattice2(s, 0, s)]  # the scalar lattice s * Z^2


def test_invariant_sublattices_against_brute_force():
    rng = random.Random(79)
    checked = 0
    while checked < 60:
        a = random_hyperbolic(rng, max_len=3, max_entry=5, shear_steps=3)
        for n in (1, 2):
            total = index_formula(a.trace, n)
            if total >= 10**4:
                continue
            smart = invariant_sublattices_between(a, n)
            kernel = Lattice2.from_basis(shifted(a, n))
            brute = [
                lat
                for d in range(1, total + 1)
                if total % d == 0
                for lat in sublattices_of_index(d)
                if contains_lattice(lat, kernel) and is_invariant(lat, a)
            ]
            assert smart == sorted(brute, key=Lattice2.sort_key)
            checked += 1


def test_induced_action_paper_values():
    assert induced_action(FULL_LATTICE, PAPER_A) == PAPER_A
    assert induced_action(Lattice2(1, 0, 3), PAPER_A) == Mat2(1640, 663, -47, -19)
    ind = induced_action(Lattice2(811, 183, 1), PAPER_A)
    assert ind.trace == PAPER_A.trace and ind.det == 1
    # the HNF basis is the paper's basis with columns swapped (det -811 vs
    # +811), so the induced matrix sits in the mirror conjugacy class: its
    # cycle is the reversed dual of the printed matrix's cycle
    assert cycle_of(ind) == reversed_cycle(dual_cycle(cycle_of(PAPER_S1)))
    assert dual_cycle(cycle_of(ind)) == reversed_cycle(cycle_of(PAPER_S1))
    with pytest.raises(ValueError):
        induced_action(Lattice2(1, 0, 2), PAPER_A)


def test_induced_action_composite_index_stability():
    # replacing L by (A - I)L keeps the action, up to the orientation flip
    # coming from det(A - I) < 0: the cycle maps to its reversed dual
    lat3 = Lattice2(1, 0, 3)
    am1 = shifted(PAPER_A, 1)
    lat3q = Lattice2.from_basis(mul(am1, lat3.basis))
    assert lat3q.index == 3 * 1619
    ind3 = induced_action(lat3, PAPER_A)
    ind3q = induced_action(lat3q, PAPER_A)
    assert ind3q.trace == ind3.trace
    assert cycle_of(ind3q) == reversed_cycle(dual_cycle(cycle_of(ind3)))
    assert {len(cycle_of(ind3q)), len(dual_cycle(cycle_of(ind3q)))} == {
        len(cycle_of(ind3)),
        len(dual_cycle(cycle_of(ind3))),
    }


def test_enumerate_covers_counts_and_order():
    records = enumerate_covers(PAPER_A, 4)
    assert [sum(1 for r in records if r.base_degree == n) for n in (1, 2, 3, 4)] == [2, 8, 16, 32]
    keys = [(r.base_degree, r.fiber.index, r.fiber.x, r.fiber.y, r.fiber.z) for r in records]
    assert keys == sorted(keys)
    first = records[0]
    assert first.base_degree == 1 and first.fiber == FULL_LATTICE
    assert first.cover_monodromy == PAPER_A
    assert first.cycle == canonicalize((8, 2, 4, 3, 12))


def test_enumerate_covers_record_invariants():
    records = enumerate_covers(PAPER_A, 4)
    for r in records:
        assert r.induced.det == 1
        assert r.induced.trace == PAPER_A.trace
        assert r.cover_monodromy == power(r.induced, r.base_degree)
        assert len(r.cycle) == r.base_degree * len(cycle_of(r.induced))
        assert len(r.dual) == sum(e - 2 for e in r.cycle)


def test_enumerate_covers_duality_closure_up_to_reversal():
    # Prop.-level closure: the cover set is closed under taking duals.  The
    # canonical-rotation cycles realize this up to reversal (the dual cover's
    # positively oriented fiber basis reverses the cycle orientation).
    records = enumerate_covers(PAPER_A, 4)
    for n in (1, 2, 3, 4):
        cycles = {r.cycle for r in records if r.base_degree == n}
        pairs = {(len(r.cycle), len(r.dual)) for r in records if r.base_degree == n}
        for r in (r for r in records if r.base_degree == n):
            assert reversed_cycle(r.dual) in cycles
            assert (len(r.dual), len(r.cycle)) in pairs


def test_enumerate_covers_half():
    full = enumerate_covers(PAPER_A, 4)
    half = enumerate_covers(PAPER_A, 4, half=True)
    assert set(half).issubset(set(full))
    for n in (1, 2, 3, 4):
        total = index_formula(PAPER_A.trace, n)
        kept = [r for r in half if r.base_degree == n]
        assert all(r.fiber.index**2 <= total for r in kept)
        full_min = min(
            min(len(r.cycle), len(r.dual)) for r in full if r.base_degree == n
        )
        half_min = min(min(len(r.cycle), len(r.dual)) for r in kept)
        assert full_min == half_min
    with pytest.raises(ValueError):
        enumerate_covers(PAPER_A, 5)


def test_enumerate_covers_small_cusp():
    records = enumerate_covers(Mat2(3, 1, -1, 0), 4)
    assert records[0].cycle == canonicalize((3,))
    assert all(r.induced.trace == 3 for r in records)
    degree_ns = {r.base_degree for r in records}
    assert degree_ns == {1, 2, 3, 4}
