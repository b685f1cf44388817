import random

import pytest

import cuspcovers.cycles
from cuspcovers.cfrac import ExpansionError
from cuspcovers.cli import main
from cuspcovers.cycles import (
    Cycle,
    _repeated,
    cycle_of,
    dual_cycle,
    dual_length,
    is_ci_link,
    monodromy_of,
)
from cuspcovers.matrices import Mat2, inverse, power
from helpers import (
    conjugated,
    least_rotation_brute,
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
     ((2.9, 3), TypeError), (("3",), TypeError)],
)
def test_monodromy_of_rejects_invalid_cycles_like_the_oracle(bad, error):
    with pytest.raises(error) as new:
        monodromy_of(bad)
    with pytest.raises(error) as old:
        monodromy_by_matrices(bad)
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
    monkeypatch.setattr(cuspcovers.cycles, "expand", lambda a: ((), (4,)))
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
    # _repeated skips validation and the least rotation; the block it repeats
    # is canonical, so the result is the Cycle of the n-fold repetition.
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


def test_dual_of_reversal_is_reversal_of_dual():
    rng = random.Random(71)
    for _ in range(200):
        c = random_cycle(rng)
        assert dual_cycle(reversed_cycle(c)) == reversed_cycle(dual_cycle(c))
