import math
import random

import pytest

from cuspcovers.matrices import (
    IDENTITY,
    Mat2,
    conjugate,
    hermite_normal_form,
    inverse,
    mul,
    power,
)
from helpers import (
    conjugate_by_products,
    index_formula,
    random_hyperbolic,
    random_unimodular,
    trace_power_polynomial,
)

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


def test_conjugate_matches_product_oracle():
    # Unimodular P (det +-1) always conjugates integrally; HNF-shaped and
    # general composite-det P often give None; the oracle decides each case.
    rng = random.Random(29)
    seen = {"matrix": 0, "none": 0}
    for _ in range(600):
        a = random_hyperbolic(rng, max_len=4, max_entry=7)
        kind = rng.randrange(3)
        if kind == 0:
            p = random_unimodular(rng, det=rng.choice((1, -1)))
        elif kind == 1:
            x, z = rng.randint(1, 30), rng.randint(1, 30)
            p = Mat2(x, rng.randrange(x), 0, z)
        else:
            p = Mat2(*(rng.randint(-12, 12) for _ in range(4)))
            if p.det == 0:
                continue
        expected = conjugate_by_products(a, p)
        assert conjugate(a, p) == expected
        if kind == 0:
            assert expected is not None
        seen["none" if expected is None else "matrix"] += 1
    assert min(seen.values()) > 50


def test_conjugate_singular_raises_like_the_oracle():
    rng = random.Random(31)
    for _ in range(50):
        a = random_hyperbolic(rng, max_len=3, max_entry=6)
        u, v, k = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-4, 4)
        p = Mat2(u, k * u, v, k * v)  # second column k times the first
        for fn in (conjugate, conjugate_by_products):
            with pytest.raises(ValueError, match="singular"):
                fn(a, p)


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


def test_hnf_rejects_non_integer_entries():
    # 1.5 must not be truncated to 1, which would give [[1, 0], [0, 3]].
    with pytest.raises(TypeError):
        hermite_normal_form([(1.5, 0), (0, 3)])


def test_hnf_rejects_dependent_columns():
    span = "columns do not span a finite-index sublattice"
    with pytest.raises(ValueError, match=span):
        hermite_normal_form([(2, 4), (3, 6)])
    with pytest.raises(ValueError, match=span):
        hermite_normal_form([(0, 0), (5, 3)])
    with pytest.raises(ValueError, match=span):
        hermite_normal_form([(2, 0), (3, 0), (-7, 0)])
    for columns in ([], [(1, 0)]):
        with pytest.raises(ValueError, match="need at least two columns"):
            hermite_normal_form(columns)


def test_hnf_matches_the_minor_oracle():
    # Without any column reduction: the result's lattice contains every input
    # column, and its index x*z is the gcd of the input's 2x2 minors, which is
    # the index of the input's lattice, so the two lattices are equal.  Inputs
    # whose minors all vanish are rank-deficient and must raise; every tenth
    # input is built from multiples of one column, so there are many of them.
    rng = random.Random(37)
    deficient = 0
    for i in range(20000):
        k = rng.randint(2, 5)
        if i % 10:
            cols = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(k)]
        else:
            u0, u1 = rng.randint(-4, 4), rng.randint(-4, 4)
            cols = [(m * u0, m * u1) for m in (rng.randint(-3, 3) for _ in range(k))]
        minors = [u0 * v1 - u1 * v0 for j, (u0, u1) in enumerate(cols) for v0, v1 in cols[j + 1 :]]
        index = math.gcd(*minors)
        if index == 0:
            deficient += 1
            with pytest.raises(ValueError, match="do not span"):
                hermite_normal_form(cols)
            continue
        x, y, zero, z = hermite_normal_form(cols)
        assert zero == 0 and x > 0 and z > 0 and 0 <= y < x
        assert x * z == index
        for u0, u1 in cols:
            assert u1 % z == 0 and (u0 - (u1 // z) * y) % x == 0
    assert deficient >= 2000
