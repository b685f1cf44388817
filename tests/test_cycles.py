import random

import pytest

from cuspcovers.cli import main
from cuspcovers.cycles import (
    Cycle,
    canonicalize,
    cycle_of,
    dual_cycle,
    dual_length,
    is_ci_link,
    monodromy_of,
)
from cuspcovers.matrices import Mat2, inverse, power
from helpers import random_cycle, reversed_cycle

PAPER_A = Mat2(1640, 221, -141, -19)
PAPER_CYCLE = canonicalize((8, 2, 4, 3, 12))
# dual of (8,2,4,3,12) via the block pairs (5,1),(1,0),(0,0),(9,0)
PAPER_DUAL = canonicalize((3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 2, 4, 2, 2, 2, 2, 2))


def test_canonical_rotation():
    assert PAPER_CYCLE.entries == (2, 4, 3, 12, 8)
    assert canonicalize((3,)).entries == (3,)
    assert canonicalize((2, 3, 2, 3)).entries == (2, 3, 2, 3)
    assert canonicalize((3, 2, 3, 2)) == canonicalize((2, 3, 2, 3))


def test_cycle_invariants_enforced():
    with pytest.raises(ValueError):
        Cycle(())
    with pytest.raises(ValueError):
        Cycle((3, 1, 4))
    with pytest.raises(ValueError):
        Cycle((2, 2, 2))


def test_monodromy_of():
    assert monodromy_of((3,)) == Mat2(3, 1, -1, 0)
    # raw sequences multiply in the order given: M(2) * M(4)
    assert monodromy_of((4, 2)) == Mat2(7, 2, -4, -1)
    assert monodromy_of((8, 2, 4, 3, 12)).trace == 1621
    assert monodromy_of(PAPER_CYCLE).det == 1


def test_cycle_of_flagship():
    c = cycle_of(PAPER_A)
    assert c == PAPER_CYCLE
    assert len(c) == 5
    assert dual_cycle(c) == PAPER_DUAL
    assert len(dual_cycle(c)) == 19


def test_cycle_of_small_cases():
    assert cycle_of(Mat2(3, 1, -1, 0)) == canonicalize((3,))
    assert cycle_of(monodromy_of((4, 2))) == canonicalize((4, 2))
    assert cycle_of(power(Mat2(3, 1, -1, 0), 2)) == canonicalize((3, 3))


def test_cycle_of_period_repeated_65_times(capsys):
    # The repeat count of the period has no upper bound: (3) taken 65 times.
    threes = canonicalize((3,) * 65)
    assert cycle_of(monodromy_of(threes)) == threes
    assert main(["cycle", "-c", ",".join(["3"] * 65)]) == 0
    assert capsys.readouterr().out == f"cycle: {threes}  dual: {threes}\n"


def test_cycle_of_rejects_bad_matrices():
    with pytest.raises(ValueError):
        cycle_of(Mat2(1, 1, 0, 1))  # parabolic, trace 2
    with pytest.raises(ValueError):
        cycle_of(Mat2(0, -1, 1, 0))  # elliptic
    with pytest.raises(ValueError):
        cycle_of(Mat2(3, 1, -1, 1))  # det 4


def test_dual_cycle_examples():
    assert dual_cycle((3,)) == canonicalize((3,))
    assert dual_cycle(PAPER_CYCLE) == PAPER_DUAL
    assert dual_length(PAPER_CYCLE) == 19
    assert dual_length((3,)) == 1
    for k in range(3, 12):
        assert dual_length((2, 2, 2, k)) == k - 2


def test_is_ci_link():
    assert is_ci_link((3,))
    assert not is_ci_link(PAPER_CYCLE)
    assert is_ci_link((2, 2, 2, 3))  # length 4, dual length 1


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
            assert cycle_of(power(b, n)) == canonicalize(tuple(c) * n)


def test_dual_of_reversal_is_reversal_of_dual():
    rng = random.Random(71)
    for _ in range(200):
        c = random_cycle(rng)
        assert dual_cycle(reversed_cycle(c)) == reversed_cycle(dual_cycle(c))
