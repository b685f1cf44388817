import random

import pytest

import cuspcovers.cycles
from cuspcovers.cfrac import ExpansionError
from cuspcovers.cli import certificate_to_json, main
from cuspcovers.cycles import (
    Cycle,
    _least_rotation,
    _repeated,
    cycle_of,
    dual_cycle,
    dual_length,
    is_ci_link,
    monodromy_of,
)
from cuspcovers.matrices import Mat2, inverse, power
from cuspcovers.verifier import verify
from helpers import (
    blocks_by_entries,
    conjugated,
    dual_by_entries,
    least_rotation_brute,
    least_rotation_by_duval,
    monodromy_by_matrices,
    random_cycle,
    random_unimodular,
    reversed_cycle,
)

PAPER_A = Mat2(1640, 221, -141, -19)
PAPER_CYCLE = Cycle((8, 2, 4, 3, 12))
# dual of (8,2,4,3,12) via the block pairs (5,1),(1,0),(0,0),(9,0)
PAPER_DUAL = Cycle((3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 2, 4, 2, 2, 2, 2, 2))


def test_canonical_rotation():
    assert PAPER_CYCLE.entries == (2, 4, 3, 12, 8)
    assert Cycle((3,)).entries == (3,)
    assert Cycle((2, 3, 2, 3)).entries == (2, 3, 2, 3)
    assert Cycle((3, 2, 3, 2)) == Cycle((2, 3, 2, 3))


def random_cycle_entries(rng):
    """Sequences shaped like cover cycles: random, block powers, long runs of 2s."""
    shape = rng.randrange(3)
    if shape == 0:
        seq = [rng.randint(2, rng.choice((3, 4, 12))) for _ in range(rng.randint(1, 30))]
    elif shape == 1:
        block = [rng.randint(2, rng.choice((3, 5))) for _ in range(rng.randint(1, 8))]
        seq = block * rng.randint(2, 6)
    else:
        seq = []
        for _ in range(rng.randint(1, 4)):
            seq += [2] * rng.randint(0, 40) + [rng.randint(3, 4)]
    if all(e == 2 for e in seq):
        seq[rng.randrange(len(seq))] = 3
    return seq


def test_canonical_rotation_matches_brute_force():
    rng = random.Random(73)
    for _ in range(2500):
        seq = random_cycle_entries(rng)
        assert Cycle(seq).entries == least_rotation_brute(seq)
    sample = (2, 3, 2, 2, 3, 2, 3, 2, 2, 4, 2, 3, 2, 2, 3)
    least = least_rotation_brute(sample)
    for i in range(len(sample)):
        assert Cycle(sample[i:] + sample[:i]).entries == least
    longest_run_first = (2,) * 500 + (3,) + (2,) * 499 + (3,)
    assert Cycle(longest_run_first[-1:] + longest_run_first[:-1]).entries == longest_run_first


def block_shaped_entries(rng):
    """Sequences at the edges of the block keys: no 2s, a single entry, a run
    of 2s that wraps past the end, a word repeated n times, and blocks with
    equal runs of 2s, so that keys tie and later blocks decide."""
    shape = rng.randrange(5)
    if shape == 0:
        return [rng.randint(3, 6) for _ in range(rng.randint(1, 20))]
    if shape == 1:
        return [rng.randint(3, 40)]
    if shape == 2:
        body = random_cycle_entries(rng)
        return [2] * rng.randint(1, 9) + body + [2] * rng.randint(1, 9)
    if shape == 3:
        word = random_cycle_entries(rng)[: rng.randint(1, 12)]
        if max(word) == 2:
            word[-1] = 3
        return word * rng.randint(2, 5)
    run = rng.randint(0, 3)
    return [e for _ in range(rng.randint(2, 12)) for e in [2] * run + [rng.choice((3, 3, 4))]]


def rotations(seq, rng, count=3):
    """seq and `count` seeded rotations of it, as tuples."""
    seq = tuple(seq)
    return [seq] + [seq[i:] + seq[:i] for i in (rng.randrange(len(seq)) for _ in range(count))]


def test_block_least_rotation_matches_brute_force_at_the_edges():
    # `_least_rotation` takes flat blocks (k_1, e_1, ..., k_b, e_b) and returns
    # the offset 2i of the block that starts the least rotation and the
    # period p, the flat length of the primitive root: the smallest shift
    # that fixes the blocks.
    rng = random.Random(83)
    for _ in range(3000):
        for seq in rotations(block_shaped_entries(rng), rng, 1):
            blocks = blocks_by_entries(seq)
            i, p = _least_rotation(blocks)
            assert 0 <= i < len(blocks) and i % 2 == 0
            assert blocks[i:] + blocks[:i] == blocks_by_entries(least_rotation_brute(seq)), seq
            shifts = [s for s in range(2, len(blocks) + 1, 2) if blocks[s:] + blocks[:s] == blocks]
            assert p == shifts[0], seq
    assert _least_rotation((0, 7)) == (0, 2)
    assert _least_rotation((0, 3, 0, 4, 0, 5)) == (0, 6)
    assert _least_rotation((1, 3, 2, 4)) == (2, 4)
    assert _least_rotation((3, 3, 3, 3)) == (0, 2)
    assert _least_rotation((0, 4, 1, 3, 0, 4, 1, 3, 0, 4, 1, 3))[1] == 4
    assert blocks_by_entries((2, 2, 4, 2, 3, 2)) == (3, 4, 1, 3)  # the run of three 2s wraps
    c = Cycle((2, 2, 4, 2, 3, 2))
    assert c.word * c.copies == (3, 4, 1, 3)
    assert Cycle((2, 2, 3, 2, 2, 2, 4)).entries == (2, 2, 2, 4, 2, 2, 3)
    assert Cycle((2, 3, 2, 4, 2, 3)).entries == (2, 3, 2, 3, 2, 4)  # tie on the first block


def test_block_least_rotation_matches_duval_on_long_cycles():
    # Long cycles, and words of one block, or one block repeated, which take
    # the same Duval loop as the rest: its period is the smallest shift that
    # fixes the blocks.
    rng = random.Random(89)
    one_block = ((3,), (1621,), (2,) * 40 + (7,), (2, 2, 5) * 3)
    for seq in ((3,) + (2,) * 20000, ((3,) + (2,) * 1600 + (5,) + (2,) * 1600) * 4, *one_block):
        for rot in rotations(seq, rng):
            j = least_rotation_by_duval(rot)
            assert Cycle(rot).entries == rot[j:] + rot[:j]
            blocks = blocks_by_entries(rot)
            shifts = [s for s in range(2, len(blocks) + 1, 2) if blocks[s:] + blocks[:s] == blocks]
            assert _least_rotation(blocks)[1] == shifts[0], rot


def test_block_dual_matches_entry_dual():
    rng = random.Random(97)
    for _ in range(1500):
        c = Cycle(rng.choice((random_cycle_entries, block_shaped_entries))(rng))
        assert dual_cycle(c) == dual_by_entries(c)
    for seq in ((3,) + (2,) * 20000, ((3,) + (2,) * 1600 + (5,) + (2,) * 1600) * 4, (1621,), (3, 4, 5)):
        c = Cycle(seq)
        assert dual_cycle(c) == dual_by_entries(c)


def test_block_monodromy_matches_matrix_oracle_on_long_and_wrapping_runs():
    # A raw sequence multiplies in the order given, so its leading and trailing
    # runs of 2s are separate factors of the product.
    rng = random.Random(101)
    for _ in range(500):
        seq = block_shaped_entries(rng)
        assert monodromy_of(seq) == monodromy_by_matrices(seq)
    for seq in ((3,) + (2,) * 20000, ((3,) + (2,) * 1600 + (5,) + (2,) * 1600) * 4, (2,) * 700 + (3,) + (2,) * 900):
        for rot in rotations(seq, rng):
            assert monodromy_of(rot) == monodromy_by_matrices(rot)


def test_cycle_invariants_enforced():
    # Cycle and monodromy_of validate through the same path, with the same messages.
    for make in (Cycle, monodromy_of):
        with pytest.raises(ValueError, match="^a cycle must be nonempty$"):
            make(())
        with pytest.raises(ValueError, match="^cycle entries must all be >= 2$"):
            make((3, 1, 4))
        with pytest.raises(ValueError, match="^a cycle must contain an entry >= 3$"):
            make((2, 2, 2))
    with pytest.raises(ValueError, match="^a cycle must contain an entry >= 3$"):
        monodromy_of((2, 2))


def test_non_integer_entries_raise():
    # They must not be truncated: (2.5, 3) is no cycle, [2.9, 3] has no monodromy.
    with pytest.raises(TypeError):
        Cycle((2.5, 3))
    with pytest.raises(TypeError):
        monodromy_of([2.9, 3])


def test_monodromy_of():
    assert monodromy_of((3,)) == Mat2(3, 1, -1, 0)
    # raw sequences multiply in the order given: M(2) * M(4)
    assert monodromy_of((4, 2)) == Mat2(7, 2, -4, -1)
    assert monodromy_of((8, 2, 4, 3, 12)).trace == 1621
    assert monodromy_of(PAPER_CYCLE).det == 1
    # a Cycle, its entries tuple and a list of them give one matrix
    for c in ((8, 2, 4, 3, 12), (3,), (2, 2, 2, 3), (5, 2, 7, 2, 2)):
        cyc = Cycle(c)
        assert monodromy_of(cyc) == monodromy_of(cyc.entries) == monodromy_of(list(cyc.entries))


def test_monodromy_of_matches_matrix_oracle():
    rng = random.Random(37)
    for _ in range(300):
        c = random_cycle(rng, max_len=12, max_entry=20)
        raw = list(c.entries)
        rng.shuffle(raw)
        # a Cycle multiplies in its canonical rotation, a raw list as given
        assert monodromy_of(c) == monodromy_by_matrices(c)
        assert monodromy_of(raw) == monodromy_by_matrices(raw)
        assert monodromy_of(tuple(raw)) == monodromy_by_matrices(tuple(raw))


@pytest.mark.parametrize(
    "bad,error",
    [((), ValueError), ((2, 2), ValueError), ((3, 1), ValueError), ((0,), ValueError),
     ((2.9, 3), TypeError), (("3",), TypeError), ((1, 2.5), TypeError), ((2, 2, 1), ValueError)],
)
def test_monodromy_of_rejects_invalid_cycles_like_the_oracle(bad, error):
    # Cycle and monodromy_of check the entries in the one pass that reads their
    # blocks; the oracle checks one condition at a time.
    with pytest.raises(error) as old:
        monodromy_by_matrices(bad)
    for make in (monodromy_of, Cycle):
        with pytest.raises(error) as new:
            make(bad)
        assert str(new.value) == str(old.value)


def test_cycle_of_flagship():
    c = cycle_of(PAPER_A)
    assert c == PAPER_CYCLE
    assert len(c) == 5
    assert dual_cycle(c) == PAPER_DUAL
    assert len(dual_cycle(c)) == 19


def test_cycle_of_small_cases():
    assert cycle_of(Mat2(3, 1, -1, 0)) == Cycle((3,))
    assert cycle_of(monodromy_of((4, 2))) == Cycle((4, 2))
    assert cycle_of(power(Mat2(3, 1, -1, 0), 2)) == Cycle((3, 3))


def test_cycle_of_period_repeated_65_times(capsys):
    # The repeat count of the period has no upper bound: (3) taken 65 times.
    threes = Cycle((3,) * 65)
    assert cycle_of(monodromy_of(threes)) == threes
    assert main(["cycle", "-c", ",".join(["3"] * 65)]) == 0
    assert capsys.readouterr().out == f"cycle: {threes}  dual: {threes}\n"


def test_cycle_of_rejects_bad_matrices():
    with pytest.raises(ValueError, match="determinant 1 and trace 2;"):
        cycle_of(Mat2(1, 1, 0, 1))  # parabolic
    with pytest.raises(ValueError):
        cycle_of(Mat2(0, -1, 1, 0))  # elliptic
    with pytest.raises(ValueError, match="determinant 4 and trace 4;"):
        cycle_of(Mat2(3, 1, -1, 1))


def test_cycle_of_inconsistent_expansion_is_an_internal_error(monkeypatch, capsys):
    # The traces of the powers of M(4) are 4, 14, 52, 194, 724, 2702: none is 1621.
    monkeypatch.setattr(cuspcovers.cycles, "expand", lambda a: (0, (0, 4)))
    with pytest.raises(ExpansionError):
        cycle_of(PAPER_A)
    assert main(["cycle", "-m", "1640", "221", "-141", "-19"]) == 1
    assert "internal error" in capsys.readouterr().err


def test_dual_cycle_examples():
    assert dual_cycle(Cycle((3,))) == Cycle((3,))
    assert dual_cycle(PAPER_CYCLE) == PAPER_DUAL
    assert dual_length(PAPER_CYCLE) == 19
    assert dual_length(Cycle((3,))) == 1
    for k in range(3, 12):
        assert dual_length(Cycle((2, 2, 2, k))) == k - 2


def test_is_ci_link():
    assert is_ci_link(Cycle((3,)))
    assert not is_ci_link(PAPER_CYCLE)
    assert is_ci_link(Cycle((2, 2, 2, 3)))  # length 4, dual length 1


def test_round_trip_random():
    rng = random.Random(47)
    for _ in range(250):
        c = random_cycle(rng)
        assert cycle_of(monodromy_of(c)) == c


def test_dual_involution_and_length_law():
    rng = random.Random(53)
    for _ in range(250):
        c = random_cycle(rng)
        d = dual_cycle(c)
        assert dual_cycle(d) == c
        assert len(d) == dual_length(c) == sum(e - 2 for e in c)


def test_trace_symmetry_under_dual():
    rng = random.Random(59)
    for _ in range(250):
        c = random_cycle(rng)
        assert monodromy_of(c).trace == monodromy_of(dual_cycle(c)).trace


def test_inverse_gives_dual():
    rng = random.Random(61)
    for _ in range(250):
        c = random_cycle(rng)
        assert cycle_of(inverse(monodromy_of(c))) == dual_cycle(c)


def test_base_power_concatenation():
    rng = random.Random(67)
    for _ in range(150):
        c = random_cycle(rng, max_len=5, max_entry=9)
        b = monodromy_of(c)
        for n in (2, 3, 4):
            assert cycle_of(power(b, n)) == Cycle(tuple(c) * n)
            # a conjugate expands with a preperiod and a period in another rotation
            assert cycle_of(conjugated(power(b, n), random_unimodular(rng))) == Cycle(tuple(c) * n)


def test_repetition_equals_full_canonicalization():
    # _repeated skips validation and the least rotation; it keeps the
    # canonical word and multiplies the copies, so the result is the Cycle
    # of the n-fold repetition.
    rng = random.Random(79)
    for _ in range(400):
        seq = random_cycle_entries(rng)
        c = Cycle(seq)
        for n in (1, 2, 3, 4):
            rep = _repeated(c, n)
            full = Cycle(seq * n)
            assert rep.entries == full.entries
            assert rep == full and hash(rep) == hash(full)
            assert isinstance(rep.entries, tuple) and len(rep) == n * len(c)
    assert _repeated(PAPER_CYCLE, 1) is PAPER_CYCLE


def test_a_cycle_is_its_primitive_word_and_a_repeat_count():
    # Cycle(w * n) cuts its blocks to the primitive root's least rotation and
    # counts the copies, also when w itself is a repetition, such as
    # (2, 2, 2, 3) * 2, whose blocks (3, 3, 3, 3) are two copies of (3, 3).
    # _repeated(c, n) shares c's word and multiplies its copies, and the dual
    # of a repetition is the repetition of the dual.
    rng = random.Random(109)
    words = [(2, 2, 2, 3) * 2, (3,) * 3, (3, 4) * 2, (2, 3, 2, 2, 3) * 3, (1621,)]
    words += [tuple(oracle_shaped_entries(rng)) for _ in range(400)]
    for w in words:
        c = Cycle(w)
        root = c.word
        assert all(root[s:] + root[:s] != root for s in range(2, len(root), 2)), w
        d = dual_cycle(c)
        for n in (1, 2, 3, 5):
            rep = _repeated(c, n)
            full = Cycle(w * n)
            assert rep.word is root and rep.copies == n * c.copies
            assert full == rep and full.word == rep.word and full.copies == rep.copies
            assert hash(full) == hash(rep)
            assert dual_cycle(rep) == _repeated(d, n) == dual_by_entries(full)
    assert Cycle((2, 2, 2, 3) * 2).word == (3, 3) and Cycle((2, 2, 2, 3) * 2).copies == 2
    assert _repeated(Cycle((2, 2, 2, 3) * 2), 3) == Cycle((2, 2, 2, 3) * 6)


def test_post_init_is_the_one_canonicalizer(monkeypatch):
    # Every least rotation runs inside Cycle.__post_init__, which takes flat
    # blocks only: Cycle(entries), the dual and a cover period's cycle each
    # call it once, and a repetition never.  A tracer that wraps
    # __post_init__ (and reads the longest cycle there) so sees every
    # canonicalization, and a certificate's count stays fixed: 53 for the
    # flagship, 163 for (2, 6, 2, 6) and 50 for (1621), JSON included.
    post_init = Cycle.__post_init__
    least_rotation = cuspcovers.cycles._least_rotation
    depth, calls, outside = [0], [0], []

    def counted(self, word, copies):
        calls[0] += 1
        depth[0] += 1
        try:
            post_init(self, word, copies)
        finally:
            depth[0] -= 1

    def checked(blocks):
        if not depth[0]:
            outside.append(blocks)
        return least_rotation(blocks)

    monkeypatch.setattr(Cycle, "__post_init__", counted)
    monkeypatch.setattr(cuspcovers.cycles, "_least_rotation", checked)
    c = Cycle((2, 2, 3, 2, 2, 2, 4))
    assert calls[0] == 1 and c.word == (3, 4, 2, 3)
    d = dual_cycle(c)
    assert calls[0] == 2 and d.word == (1, 6, 0, 5)
    assert _repeated(c, 3).copies == 3 and calls[0] == 2
    for a, canonicalized in (
        (PAPER_A, 53),
        (monodromy_of((2, 6, 2, 6)), 163),
        (monodromy_of((1621,)), 50),
    ):
        calls[0] = 0
        certificate_to_json(verify(a))
        assert calls[0] == canonicalized
    assert not outside


def test_dual_of_reversal_is_reversal_of_dual():
    rng = random.Random(71)
    for _ in range(200):
        c = random_cycle(rng)
        assert dual_cycle(reversed_cycle(c)) == reversed_cycle(dual_cycle(c))


def oracle_shaped_entries(rng):
    """The shapes where blocks and entries part ways: no 2s, one block, a run
    of 2s that wraps past the end, a word repeated n times, or any of the
    shapes of `block_shaped_entries`."""
    shape = rng.randrange(5)
    if shape == 0:
        return [rng.randint(3, 9) for _ in range(rng.randint(1, 15))]
    if shape == 1:
        return [2] * rng.randint(0, 60) + [rng.randint(3, 40)]
    if shape == 2:
        return [2] * rng.randint(1, 20) + random_cycle_entries(rng) + [2] * rng.randint(1, 20)
    if shape == 3:
        word = block_shaped_entries(rng)[:8]
        if max(word) == 2:
            word[-1] = 3
        return word * rng.randint(2, 6)
    return block_shaped_entries(rng)


def test_block_cycle_operations_match_the_entry_oracles():
    # Every Cycle operation works on blocks; each must give what the entries
    # give: least rotation by brute force, the dual and the monodromy one
    # entry at a time, lengths and text from the entries.
    rng = random.Random(107)
    cases = []
    for _ in range(1200):
        seq = tuple(oracle_shaped_entries(rng))
        least = least_rotation_brute(seq)
        c = Cycle(seq)
        cases.append((c, least))
        assert c.entries == least and c.word * c.copies == blocks_by_entries(least)
        assert Cycle(least) == c and Cycle(list(seq)) == c
        for rot in rotations(seq, rng, 2):
            assert Cycle(rot) == c and hash(Cycle(rot)) == hash(c)
        assert len(c) == len(seq)
        assert dual_length(c) == sum(e - 2 for e in seq)
        assert is_ci_link(c) == (min(len(seq), sum(e - 2 for e in seq)) <= 4)
        d, oracle = dual_cycle(c), dual_by_entries(c)
        assert d.entries == oracle.entries and d == oracle and hash(d) == hash(oracle)
        assert dual_cycle(d) == c
        assert monodromy_of(c) == monodromy_by_matrices(least)
        assert monodromy_of(seq) == monodromy_by_matrices(seq)
        assert str(c) == "(" + ", ".join(map(str, least)) + ")"
        assert tuple(c) == least
        for n in (2, 3, 5):
            rep = _repeated(c, n)
            assert rep.entries == least * n and len(rep) == n * len(seq)
            assert rep == Cycle(seq * n) and hash(rep) == hash(Cycle(seq * n))
            assert dual_length(rep) == n * dual_length(c)
    # Equality of two cycles is equality of their least rotations, also for
    # near misses: the same entries with two neighbours swapped.
    for c, least in cases:
        other = list(least)
        i = rng.randrange(len(other))
        other[i - 1], other[i] = other[i], other[i - 1]
        same = least_rotation_brute(other) == least
        assert (Cycle(other) == c) == same
        assert not same or hash(Cycle(other)) == hash(c)
    assert Cycle((3, 2)) != Cycle((2, 2, 3)) and Cycle((3, 3)) != Cycle((3,))
