import random

import pytest

from cuspcovers.matrices import (
    IDENTITY,
    Mat2,
    conjugate,
    hermite_normal_form,
    index_formula,
    inverse,
    mul,
    power,
    trace_power_polynomial,
)
from helpers import random_hyperbolic, random_unimodular

PAPER_A = Mat2(1640, 221, -141, -19)


def test_mul():
    x = Mat2(3, 1, -1, 0)
    assert mul(x, IDENTITY) == x
    assert mul(IDENTITY, x) == x
    assert mul(Mat2(2, 1, -1, 0), Mat2(4, 1, -1, 0)) == Mat2(7, 2, -4, -1)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        x = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        y = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        assert mul(x, y).det == x.det * y.det


def test_power():
    x = Mat2(3, 1, -1, 0)
    assert power(x, 0) == IDENTITY
    assert power(x, 1) == x
    assert power(PAPER_A, 2).trace == 1621**2 - 2
    with pytest.raises(ValueError):
        power(x, -1)


def test_inverse():
    assert inverse(IDENTITY) == IDENTITY
    assert inverse(PAPER_A) == Mat2(-19, -221, 141, 1640)
    assert mul(PAPER_A, inverse(PAPER_A)) == IDENTITY
    with pytest.raises(ValueError):
        inverse(Mat2(2, 0, 0, 1))


def test_inverse_det_minus_one():
    rng = random.Random(13)
    for _ in range(100):
        u = random_unimodular(rng, det=rng.choice((1, -1)))
        assert mul(u, inverse(u)) == IDENTITY


def test_conjugate():
    assert conjugate(PAPER_A, IDENTITY) == PAPER_A
    assert conjugate(PAPER_A, Mat2(1, 0, 0, 3)) == Mat2(1640, 663, -47, -19)
    assert conjugate(PAPER_A, Mat2(1, 0, 0, 811)) is None
    with pytest.raises(ValueError):
        conjugate(PAPER_A, Mat2(1, 1, 1, 1))


def test_trace_power_polynomial():
    assert trace_power_polynomial(7, 0) == 2
    assert trace_power_polynomial(7, 1) == 7
    assert trace_power_polynomial(1621, 2) == 1621**2 - 2 == 2627639


def test_trace_power_matches_matrix_powers():
    rng = random.Random(17)
    for _ in range(150):
        a = random_hyperbolic(rng, max_len=4, max_entry=6)
        for n in range(9):
            assert trace_power_polynomial(a.trace, n) == power(a, n).trace


def test_index_formula_values():
    assert index_formula(1621, 1) == 1619
    assert index_formula(3, 1) == 1
    assert index_formula(1621, 4) == 1621**2 * 1619 * 1623


def test_index_formula_factored_forms():
    for x in range(3, 60):
        assert index_formula(x, 1) == x - 2
        assert index_formula(x, 2) == (x - 2) * (x + 2)
        assert index_formula(x, 3) == (x - 2) * (x + 1) ** 2
        assert index_formula(x, 4) == x * x * (x - 2) * (x + 2)


def test_index_formula_matches_determinant():
    rng = random.Random(19)
    for _ in range(100):
        a = random_hyperbolic(rng, max_len=3, max_entry=5)
        for n in range(1, 5):
            an = power(a, n)
            det_shift = Mat2(an.a - 1, an.b, an.c, an.d - 1).det
            assert index_formula(a.trace, n) == abs(det_shift)


def test_index_formula_rejects_bad_input():
    with pytest.raises(ValueError):
        index_formula(2, 1)
    with pytest.raises(ValueError):
        index_formula(5, 0)


def test_hnf_examples():
    assert hermite_normal_form([(1, 0), (0, 3)]) == Mat2(1, 0, 0, 3)
    assert hermite_normal_form([(1, 0), (0, 1)]) == IDENTITY
    shifted = Mat2(PAPER_A.a - 1, PAPER_A.b, PAPER_A.c, PAPER_A.d - 1)
    h = hermite_normal_form(shifted.columns())
    assert h.a * h.d == 1619  # |det(A - I)| = trace - 2


def test_hnf_shape_and_uniqueness():
    rng = random.Random(23)
    for _ in range(300):
        base = Mat2(rng.randint(1, 20), rng.randint(0, 19), 0, rng.randint(1, 20))
        if base.b >= base.a:
            base = Mat2(base.a, base.b % base.a, 0, base.d)
        u = random_unimodular(rng, det=rng.choice((1, -1)))
        other = mul(base, u)
        h1 = hermite_normal_form(base.columns())
        h2 = hermite_normal_form(other.columns())
        assert h1 == h2 == base
        assert h1.c == 0 and h1.a > 0 and h1.d > 0 and 0 <= h1.b < h1.a


def test_hnf_rejects_dependent_columns():
    with pytest.raises(ValueError):
        hermite_normal_form([(2, 4), (3, 6)])
    with pytest.raises(ValueError):
        hermite_normal_form([(0, 0), (5, 3)])
