import random
import tracemalloc
from math import gcd

import pytest

import cuspcovers.covers
import cuspcovers.cycles
from cuspcovers.cfrac import ExpansionError, expand
from cuspcovers.cli import main
from cuspcovers.covers import (
    Lattice2,
    _contains,
    _index_primes,
    _induced,
    _intersect_part,
    _primary_part,
    _prime_index_children,
    enumerate_covers,
    induced_action,
    invariant_sublattices_between,
    prime_index_invariant_lattices,
)
from cuspcovers.cycles import Cycle, cycle_of, dual_cycle, monodromy_of
from cuspcovers.matrices import IDENTITY, Mat2, conjugate, mul, power
from helpers import (
    FULL_LATTICE,
    blocks_by_entries,
    conjugated,
    divisors,
    expand_by_state_table,
    fixed_slope,
    from_basis,
    from_columns,
    hermite_sum,
    index_formula,
    intersect_coprime,
    invariant_sublattices_by_smith_form,
    invariant_sublattices_by_walk,
    lattice_contains,
    prime_index_lattices_by_roots,
    random_cycle,
    random_hyperbolic,
    random_unimodular,
    reversed_cycle,
    run_python,
    smith_form,
    sublattices_of_index,
)

PAPER_A = Mat2(1640, 221, -141, -19)
PAPER_S1 = Mat2(-25822, -114351, 6197, 27443)


def shifted(a: Mat2, n: int) -> Mat2:
    an = power(a, n)
    return Mat2(an.a - 1, an.b, an.c, an.d - 1)


def test_lattice_construction():
    lat = from_columns((183, 1), (811, 0))
    assert (lat.x, lat.y, lat.z) == (811, 183, 1)
    assert lat.index == 811
    assert lat.basis == Mat2(811, 183, 0, 1)
    assert from_columns((1, 0), (0, 3)) == Lattice2(1, 0, 3)
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
    def contains(x, y, z, m):
        return _contains(x, y, z, m.entries())

    assert contains(1, 0, 1, PAPER_A)
    # the index-3 fiber sits above (A^2 - I)Z^2, its degree: A^2 - I vanishes
    # mod 3 column-wise, while A - I does not (second column is (221, -20))
    assert contains(1, 0, 3, shifted(PAPER_A, 2))
    assert not contains(1, 0, 3, shifted(PAPER_A, 1))
    assert contains(811, 183, 1, shifted(PAPER_A, 3))
    assert not contains(1, 0, 3, IDENTITY)
    # the closed form agrees with the Hermite-reduction oracle
    rng = random.Random(89)
    for _ in range(500):
        x, z = rng.randint(1, 12), rng.randint(1, 12)
        lat = Lattice2(x, rng.randrange(x), z)
        m = Mat2(*(rng.randint(-40, 40) for _ in range(4)))
        assert contains(lat.x, lat.y, lat.z, m) == lattice_contains(lat, m)


def test_is_invariant():
    assert conjugate(PAPER_A, FULL_LATTICE.basis) is not None
    assert conjugate(PAPER_A, Lattice2(1, 0, 3).basis) is not None
    for lat in sublattices_of_index(2):
        assert conjugate(PAPER_A, lat.basis) is None


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


def test_prime_index_lattices_modulo_a_prime_above_a_million():
    # x - 2 = 1000003 is prime for the cusp (1000005), a modulus above 10**6.
    lats = prime_index_invariant_lattices(Mat2(1000005, 1, -1, 0), 1000003)
    assert lats == [Lattice2(1000003, 1000002, 1)]


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
    assert lats == [FULL_LATTICE, from_basis(shifted(PAPER_A, 1))]
    assert [lat.index for lat in lats] == [1, 1619]
    with pytest.raises(ValueError, match="determinant 1 and trace 2;"):
        invariant_sublattices_between(Mat2(1, 1, 0, 1), 1)
    with pytest.raises(ValueError, match="determinant 4 and trace 4;"):
        invariant_sublattices_between(Mat2(3, 1, -1, 1), 1)
    for n in (0, -1, 5):
        with pytest.raises(ValueError, match="base degree must lie in 1..4"):
            invariant_sublattices_between(PAPER_A, n)


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
    # n = 3, 4 put squared primes, (t + 1)^2 and t^2, in the index.
    rng = random.Random(79)
    checked = dict.fromkeys((1, 2, 3, 4), 0)
    while min(checked.values()) < 30:
        a = random_hyperbolic(rng, max_len=3, max_entry=5, shear_steps=3)
        for n in checked:
            total = index_formula(a.trace, n)
            if total >= 10**4 or checked[n] >= 30:
                continue
            smart = invariant_sublattices_between(a, n)
            kernel = from_basis(shifted(a, n))
            brute = [
                lat
                for d in range(1, total + 1)
                if total % d == 0
                for lat in sublattices_of_index(d)
                if conjugate(a, lat.basis) is not None and lattice_contains(lat, kernel.basis)
            ]
            assert smart == sorted(brute, key=Lattice2.sort_key)
            checked[n] += 1


def test_closed_forms_match_hermite_normal_form():
    # Each child triple of `_prime_index_children` is the HNF of the product of
    # the parent's basis and the child's basis in it, and the CRT of the oracle
    # `intersect_coprime` and of `_intersect_part` on a one-lattice part the
    # HNF of m2 L1 + m1 L2 for coprime indices m1, m2; `_intersect_part` takes
    # and gives (index, x, y, z), the sort key.  The identity action is
    # scalar mod every ell, so all ell + 1 children appear, the c = 0 child
    # among them, under parents with y != 0.
    rng = random.Random(83)

    def triple():
        x = rng.randint(1, 60)
        return Lattice2(x, rng.randrange(x), rng.randint(1, 60))

    def hnf(lat):
        return (lat.x, lat.y, lat.z)

    def children(parent, act, ell):
        return sorted(_prime_index_children(act.entries(), ell, *hnf(parent)))

    def intersect(l1, l2):
        return [intersect_coprime(l1, l2).sort_key(), *_intersect_part([l1.sort_key()], {hnf(l2)})]

    def products(parent, lats):
        return sorted(hnf(from_basis(mul(parent.basis, lat.basis))) for lat in lats)

    units = [FULL_LATTICE, Lattice2(1, 0, 7), Lattice2(5, 3, 1)]
    for l1 in units:
        for l2 in units:
            if gcd(l1.index, l2.index) == 1:
                assert intersect(l1, l2) == [hermite_sum(l1, l2).sort_key()] * 2
    for _ in range(3000):
        parent, ell = triple(), rng.choice((2, 3, 5, 7))
        assert children(parent, IDENTITY, ell) == products(parent, sublattices_of_index(ell))
        act = random_hyperbolic(rng, max_len=4, max_entry=6)
        assert children(parent, act, ell) == products(parent, prime_index_lattices_by_roots(act, ell))
        l1, l2 = parent, triple()
        while gcd(l1.index, l2.index) != 1:
            l2 = triple()
        assert intersect(l1, l2) == [hermite_sum(l1, l2).sort_key()] * 2


def test_part_intersection_matches_hermite_sums():
    # `_intersect_part` shares one inverse x1^-1 mod ell^e per lattice it
    # combines with an ell-primary part, ell^e the part's largest x, and
    # carries each lattice as (index, x, y, z), index = x z in front.  Against
    # the Hermite reduction of m2 L1 + m1 L2, pair by pair: the degree-4
    # parts of (2, 6, 2, 6), whose x run to 2^5 and 7^2, and the parts of
    # [[1 + ell^2, ell], [ell, 1]] at degrees 3 and 4, with 3^2 and 3^3.
    def expected(combos, part):
        return sorted(hermite_sum(Lattice2(*m[1:]), Lattice2(*p)).sort_key() for m in combos for p in part)

    def intersect(combos, part):
        out = _intersect_part(combos, part)
        assert all(i == x * z for i, x, _, z in out)
        return out

    cusps = [(monodromy_of((2, 6, 2, 6)), 4)]
    cusps += [(Mat2(1 + ell * ell, ell, ell, 1), n) for ell in (3, 5) for n in (3, 4)]
    seen = set()
    for a, n in cusps:
        kernel = shifted(a, n).entries()
        combos = [(1, 1, 0, 1)]
        for ell in _index_primes(kernel, a.trace, n):
            part = _primary_part(a, kernel, ell)
            seen |= {(ell, x) for x, _, _ in part}
            joined = intersect(combos, part)
            assert sorted(joined) == expected(combos, part)
            combos = joined
        assert [Lattice2(*m[1:]) for m in sorted(combos)] == invariant_sublattices_between(a, n)
    assert {(2, 4), (2, 8), (2, 32), (7, 49), (3, 9), (3, 27)} <= seen
    # Z^2 alone, and a part whose x are all 1, where the shared inverse is
    # pow(x1, -1, 1) = 0.
    combos = [(1, 1, 0, 1), (2, 2, 1, 1), (8, 4, 1, 2), (32, 8, 5, 4)]
    for part in ({(1, 0, 1)}, {(1, 0, 1), (1, 0, 3), (1, 0, 9)}, {(1, 0, 1), (3, 1, 3), (9, 4, 3)}):
        assert sorted(intersect(combos, part)) == expected(combos, part)


def _walk_matches(a: Mat2) -> int:
    fibers = 0
    for n in (1, 2, 3, 4):
        lats = invariant_sublattices_between(a, n)
        assert lats == invariant_sublattices_by_walk(a, n), (a, n)
        fibers += len(lats)
    return fibers


def test_walk_matches_the_lattice_walk_oracle():
    # The triple walk against the Lattice2 walk it replaced, which finds each
    # child with `conjugate` and a basis product: seeded cusps of trace <= 300,
    # the flagship, and [[1 + ell^2, ell], [ell, 1]], scalar mod ell, so that
    # every t is a root and the c = 0 child appears at every level.
    rng = random.Random(89)
    cusps = [PAPER_A] + [Mat2(1 + ell * ell, ell, ell, 1) for ell in (3, 5, 7)]
    while len(cusps) < 24:
        m = monodromy_of(random_cycle(rng, max_len=4, max_entry=8))
        if m.trace <= 300:
            cusps.append(conjugated(m, random_unimodular(rng, steps=3)))
    fibers = [_walk_matches(a) for a in cusps]
    assert fibers[0] == 58
    assert min(fibers[1:4]) > 58


def test_walk_matches_the_smith_form_oracle_at_degrees_1_to_4():
    # Against an oracle that shares no reachability argument with the walk:
    # every lattice between (A**n - I)Z^2 and Z^2, one per subgroup of
    # Z/d1 x Z/d2 from the Smith form, kept when A-invariant.  Their number
    # is the sum of gcd(x, b) over x | d1 and b | d2.  The flagship, the four
    # trace-63 classes with no CI cover and seeded cusps of trace <= 300.  At
    # trace 63, x^2 - 63 x + 1 has no root mod 2, 3 or 7, so Z^2 has no
    # invariant sublattice of those prime indices, and the walk reaches the
    # fibers inside 2Z^2 (degree 3) and 3Z^2 and 7Z^2 (degree 4) only
    # through its scalar children.
    rng = random.Random(101)
    trace_63 = ((2, 2, 4, 2, 5), (2, 2, 5, 2, 4), (2, 2, 2, 2, 3, 7), (2, 2, 2, 2, 7, 3))
    cusps = [PAPER_A] + [monodromy_of(c) for c in trace_63]
    while len(cusps) < 13:
        m = monodromy_of(random_cycle(rng, max_len=4, max_entry=8))
        if m.trace <= 300:
            cusps.append(conjugated(m, random_unimodular(rng, steps=3)))
    sizes = []
    for a in cusps:
        for n in (1, 2, 3, 4):
            fibers, lattices = invariant_sublattices_by_smith_form(a, n)
            assert invariant_sublattices_between(a, n) == fibers, (a, n)
            d1, d2, _ = smith_form(shifted(a, n))
            assert lattices == sum(gcd(x, b) for x in divisors(d1) for b in divisors(d2)), (a, n)
            sizes.append((len(fibers), lattices))
    # (fibers, lattices between) at degrees 1..4: the flagship, then (2, 2, 4, 2, 5).
    assert sizes[:8] == [(2, 2), (8, 8), (16, 8140), (32, 12992), (2, 2), (8, 8), (14, 734), (48, 1840)]


def test_induced_action_matches_conjugation():
    # The closed form P^-1 A P against `conjugate` on the walk's invariant
    # lattices (on the flagship's degree-4 fibers N passes 10**20) and
    # on random HNF triples, nearly all of them not invariant.  A triple that
    # fails only z | c x, or only x z | N, must raise as well.  The walk's
    # `_induced` on the raw triple gives the same Mat2 and the same error.
    rng = random.Random(97)
    pairs = [(PAPER_A, lat) for n in (1, 2, 3, 4) for lat in invariant_sublattices_between(PAPER_A, n)]
    for _ in range(40):
        a = random_hyperbolic(rng, max_len=4, max_entry=6)
        pairs += [(a, lat) for lat in invariant_sublattices_between(a, rng.randint(1, 4))]
    for _ in range(600):
        a = random_hyperbolic(rng, max_len=4, max_entry=6)
        x = rng.randint(1, 40)
        pairs.append((a, Lattice2(x, rng.randrange(x), rng.randint(1, 40))))
    largest = 0
    only = {"c x": 0, "N": 0}
    for a, lat in pairs:
        x, y, z = lat.x, lat.y, lat.z
        n = (a.a - a.d) * y * z + a.b * z * z - a.c * y * y
        largest = max(largest, abs(n))
        expected = conjugate(a, lat.basis)
        if expected is None:
            for call in (lambda: induced_action(lat, a), lambda: _induced(a, x, y, z)):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == f"lattice {lat} is not invariant under the monodromy"
            cx_divides, n_divides = a.c * x % z == 0, n % (x * z) == 0
            if cx_divides != n_divides:
                only["N" if cx_divides else "c x"] += 1
        else:
            ind = induced_action(lat, a)
            assert ind == expected and type(ind) is Mat2
            raw = _induced(a, x, y, z)
            assert raw.entries() == expected.entries() and type(raw) is Mat2
    assert len(pairs) >= 600
    assert largest > 10**20
    assert min(only.values()) > 10, only


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
    lat3q = from_basis(mul(am1, lat3.basis))
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
    assert first.induced == PAPER_A
    assert first.cycle == Cycle((8, 2, 4, 3, 12))
    with pytest.raises(ValueError):
        enumerate_covers(PAPER_A, 5)


def test_enumerate_covers_record_invariants():
    records = enumerate_covers(PAPER_A, 4)
    for r in records:
        assert r.induced.det == 1
        assert r.induced.trace == PAPER_A.trace
        assert r.cycle == cycle_of(power(r.induced, r.base_degree))
        assert len(r.cycle) == r.base_degree * len(cycle_of(r.induced))
        assert len(dual_cycle(r.cycle)) == sum(e - 2 for e in r.cycle)


def test_enumerate_covers_duality_closure_up_to_reversal():
    # Prop.-level closure: the cover set is closed under taking duals.  The
    # canonical-rotation cycles realize this up to reversal (the dual cover's
    # positively oriented fiber basis reverses the cycle orientation).
    records = enumerate_covers(PAPER_A, 4)
    for n in (1, 2, 3, 4):
        cycles = {r.cycle for r in records if r.base_degree == n}
        pairs = {(len(r.cycle), len(dual_cycle(r.cycle))) for r in records if r.base_degree == n}
        for r in (r for r in records if r.base_degree == n):
            assert reversed_cycle(dual_cycle(r.cycle)) in cycles
            assert (len(dual_cycle(r.cycle)), len(r.cycle)) in pairs


def test_enumerate_covers_small_cusp():
    records = enumerate_covers(Mat2(3, 1, -1, 0), 4)
    assert records[0].cycle == Cycle((3,))
    assert all(r.induced.trace == 3 for r in records)
    degree_ns = {r.base_degree for r in records}
    assert degree_ns == {1, 2, 3, 4}


def _records_match_power_path(a: Mat2) -> int:
    records = enumerate_covers(a, 4)
    for r in records:
        assert r.cycle == cycle_of(power(r.induced, r.base_degree))
    return len(records)


def test_record_cycles_match_the_power_path():
    # A record's cycle is its fiber's cycle repeated n times; the oracle expands
    # the n-th power of the induced action, as records were built before.
    rng = random.Random(47)
    records = 0
    for _ in range(13):
        m = monodromy_of(random_cycle(rng, max_len=5, max_entry=9))
        while m.trace > 300:
            m = monodromy_of(random_cycle(rng, max_len=5, max_entry=9))
        for a in (m, conjugated(m, random_unimodular(rng, steps=4))):
            records += _records_match_power_path(a)
    assert records > 13 * 2 * 14


def test_record_cycles_match_the_power_path_on_1621():
    # Cover cycles up to 6476 entries; test_enumerate_covers_record_invariants
    # makes the same check on the flagship.
    assert _records_match_power_path(Mat2(1621, 1, -1, 0)) == 58


def test_index_primes_factor_each_distinct_piece_once(monkeypatch):
    # Pieces per degree: t-2; t-2, t+2; t-2, t+1; t, t-2, t+2.
    calls = []
    factorize = cuspcovers.covers.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(cuspcovers.covers, "factorize", counted)
    enumerate_covers(PAPER_A, 4)
    t = PAPER_A.trace
    assert sorted(calls) == sorted([t - 2] * 4 + [t + 2] * 2 + [t + 1, t])


def test_enumeration_canonicalizes_only_primitive_periods(monkeypatch):
    # Each distinct expanded period is canonicalized once per enumerate_covers
    # call, and its cycle repeated in canonical form; no n-fold repetition
    # reaches Duval's pass.  `expand` returns each period as blocks, and
    # those blocks key the canonicalizations and reach Duval's pass as they
    # are.  The flagship's 58 records expand to 28 distinct digit periods but
    # 27 distinct block periods: two of the 28 are rotations of one another
    # that differ only in where the 2s after the last entry >= 3 fall, and
    # those 2s wrap onto the first block.  So 27 canonicalizations, where
    # keying by digit periods took 28.  Every record is still expanded, and a
    # second call canonicalizes the 27 again: no state outlives one call.
    seen = []
    least_rotation = cuspcovers.cycles._least_rotation

    def recorded(blocks):
        seen.append(blocks)
        return least_rotation(blocks)

    periods = []

    def expanded(a):
        out = expand(a)
        periods.append(out[1])
        return out

    monkeypatch.setattr(cuspcovers.cycles, "_least_rotation", recorded)
    monkeypatch.setattr(cuspcovers.cycles, "expand", expanded)
    records = enumerate_covers(PAPER_A, 4)
    assert any(r.base_degree > 1 for r in records)
    assert len(records) == len(periods) == 58
    assert len(seen) == len(set(periods)) == 27
    assert sorted(seen) == sorted(set(periods))
    digit_periods = {expand_by_state_table(*fixed_slope(r.induced))[1] for r in records}
    assert len(digit_periods) == 28
    assert set(map(blocks_by_entries, digit_periods)) == set(periods)
    for blocks in set(periods):
        b = len(blocks) // 2
        assert all(b % w or blocks != blocks[: 2 * w] * (b // w) for w in range(1, b)), blocks
    assert enumerate_covers(PAPER_A, 4) == records
    assert len(seen) == 2 * 27 and len(periods) == 2 * 58


def test_trace_check_guards_the_shared_period_path(monkeypatch, capsys):
    # Each distinct period's first record is checked against the trace, and
    # later records with that period share its cycle.  An expansion that gives
    # every fiber the period (4,), whose power traces 4, 14, 52, 194, 724, 2702
    # skip 1621, must still be caught on the record path.
    monkeypatch.setattr(cuspcovers.cycles, "expand", lambda a: (0, (0, 4)))
    with pytest.raises(ExpansionError):
        enumerate_covers(PAPER_A)
    assert main(["verify", "-m", "1640", "221", "-141", "-19"]) == 1
    assert "internal error" in capsys.readouterr().err


def test_fiber_and_record_checks_run_on_the_census_path(monkeypatch):
    # Fibers and records are built through the checking __new__ of Lattice2
    # and CoverRecord, called directly.  A CRT that yields a triple with
    # y == x, and an induced action of determinant != 1, must still raise
    # there.  `expand` rejects such a matrix itself, so it is patched to the
    # flagship's own period, which passes the cycle table's trace check
    # against trace(A) = 1621, and the record check speaks.  The induced
    # action [[1620, 0], [0, 1]] has that trace and determinant 1620.
    intersect = cuspcovers.covers._intersect_part

    def with_y_equal_x(combos, part):
        out = intersect(combos, part)
        i, x, _, z = out[-1]
        return [*out, (i, x, x, z)]

    monkeypatch.setattr(cuspcovers.covers, "_intersect_part", with_y_equal_x)
    with pytest.raises(ValueError, match="not a Hermite normal form triple"):
        invariant_sublattices_between(PAPER_A, 1)
    monkeypatch.setattr(cuspcovers.covers, "_intersect_part", intersect)
    period = cuspcovers.cycles.expand(PAPER_A)[1]
    monkeypatch.setattr(cuspcovers.covers, "induced_action", lambda lat, a: Mat2(1620, 0, 0, 1))
    monkeypatch.setattr(cuspcovers.cycles, "expand", lambda a: (0, period))
    with pytest.raises(ValueError, match=r"induced action \[\[1620, 0\], \[0, 1\]\] has determinant 1620, not 1"):
        enumerate_covers(PAPER_A)
    # An induced action of another trace, here [[2, 0], [0, 1]] with the
    # period (3,) of its trace 3, stops at the trace check first: no power
    # of the period's matrix has trace 1621.
    monkeypatch.setattr(cuspcovers.covers, "induced_action", lambda lat, a: Mat2(2, 0, 0, 1))
    monkeypatch.setattr(cuspcovers.cycles, "expand", lambda a: (0, (0, 3)))
    with pytest.raises(ExpansionError, match="trace 1621"):
        enumerate_covers(PAPER_A)


def test_records_share_one_cycle_per_period_and_degree():
    # Records of one expanded period and degree share one Cycle object: the
    # flagship's 58 records hold 39 objects for 24 distinct cycles, the 3284
    # of (2, 6, 2, 6) hold 160 for 96, and (1621)'s 58 hold 33 for 24.
    # Periods that are rotations of one another build equal cycles, which
    # the JSON writer shares by value.  Each record's cycle is still its
    # fiber's cycle repeated n times, and the table that shares them lives
    # for one call.
    for cycle, records, values, held in (
        ((8, 2, 4, 3, 12), 58, 24, 1794),
        ((2, 6, 2, 6), 3284, 96, 2968),
        ((1621,), 58, 24, 20080),
    ):
        first = enumerate_covers(monodromy_of(cycle), 4)
        distinct = {r.cycle for r in first}
        assert len(first) == records
        assert len(distinct) == values
        assert sum(map(len, distinct)) == held
        shared: dict = {}
        for r in first:
            assert shared.setdefault((expand(r.induced)[1], r.base_degree), r.cycle) is r.cycle
            assert r.cycle == Cycle(cycle_of(r.induced).entries * r.base_degree)
        second = enumerate_covers(monodromy_of(cycle), 4)
        assert second == first
        assert {id(r.cycle) for r in first}.isdisjoint(id(r.cycle) for r in second)


def test_cycle_table_never_compares_a_cycle_with_a_key(monkeypatch):
    # `cycles._CoverCycles` looks periods up by (blocks, n) tuples and holds
    # no Cycle as a key.  A Cycle hashes as its (word, copies) tuple, which
    # is the key of its own canonical period at n == copies, so while one
    # dict also interned cycles by value, each such lookup called
    # Cycle.__eq__ against the tuple: 51 times for the flagship, 2533 for
    # (2, 6, 2, 6) and 68 for (1621).
    eq = Cycle.__eq__
    foreign = []

    def counting_eq(self, other):
        if not isinstance(other, Cycle):
            foreign.append(other)
        return eq(self, other)

    monkeypatch.setattr(Cycle, "__eq__", counting_eq)
    for cycle in ((8, 2, 4, 3, 12), (2, 6, 2, 6), (1621,)):
        enumerate_covers(monodromy_of(cycle), 4)
        assert foreign == [], cycle


def test_records_hold_their_cycles_as_blocks():
    # (6661)'s 58 records hold 24 distinct cycles with 80660 entries in 224
    # blocks, stored as 68 blocks of primitive words with their repeat
    # counts.  Stored so, one Cycle per (expanded period, degree), they keep
    # about 34 kB alive (tracemalloc, Python 3.11); held as entry tuples,
    # one per (expanded period, degree), they kept 1.12 MB.  The bound
    # leaves room for other Python versions' object sizes.
    a = monodromy_of((6661,))
    tracemalloc.start()
    try:
        records = enumerate_covers(a, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 80_000
    cycles = {r.cycle for r in records}
    assert len(records) == 58 and len(cycles) == 24
    assert sum(map(len, cycles)) == 80660
    assert sum(len(c.word * c.copies) // 2 for c in cycles) == 224
    assert sum(len(c.word) // 2 for c in cycles) == 68
    shared: dict = {}
    for r in records:
        assert shared.setdefault((expand(r.induced)[1], r.base_degree), r.cycle) is r.cycle


def test_self_checks_hold_under_python_optimize():
    # Under -O, where assert statements vanish, a factorization that drops a
    # prime, a wrong square root modulo a prime and an induced action of
    # determinant 2 must still raise, not yield a certificate.
    script = """
import cuspcovers, cuspcovers.covers, cuspcovers.intmath
from cuspcovers import CoverRecord, Cycle, Lattice2, Mat2, solve_quadratic_congruence, verify
assert False, "assert statements run"
factorize = cuspcovers.covers.factorize
cuspcovers.covers.factorize = lambda n: {p: k for p, k in factorize(n).items() if p != 541}
try:
    verify(Mat2(1640, 221, -141, -19))
except RuntimeError as exc:
    print("factorize:", exc)
cuspcovers.covers.factorize = factorize
cuspcovers.intmath._sqrt_mod = lambda n, p: 0
try:
    solve_quadratic_congruence(1, 0, -2, 7)
except RuntimeError as exc:
    print("congruence:", exc)
try:
    CoverRecord(1, Lattice2(1, 0, 1), Mat2(2, 0, 0, 1), Cycle((3,)))
except ValueError as exc:
    print("record:", exc)
"""
    proc = run_python("-O", "-c", script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "factorize: the factors of [1619, 1623] do not multiply to |det(A**2 - I)|",
        "congruence: 0 is not a root of 1 t^2 + 0 t + 5 modulo 7",
        "record: induced action [[2, 0], [0, 1]] has determinant 2, not 1",
    ]
