"""Index functions: reduction soundness, periodicity, duplication witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aopseq.aop import check_aop
from aopseq.indexfn import (
    FlooredIndex,
    PolyIndex,
    column_duplication_witness,
    frank_array,
    frank_index,
    frank_sequence,
    generate_floored_array,
    generate_poly_array,
    index_entry,
    index_periodicity_check,
    poly_eval,
)


def bigint_eval(p, i, j):
    # reference evaluator: no intermediate reduction at all
    total = 0
    for (a, b), c in p.coeffs.items():
        total += c * i**a * j**b
    return total % p.modulus


def test_poly_eval_matches_unreduced_reference():
    rng = random.Random(101)
    for _ in range(1000):
        m = rng.randint(2, 12)
        deg_x = rng.randint(0, 3)
        deg_y = rng.randint(0, 3)
        vec = [rng.randrange(m) for _ in range((deg_x + 1) * (deg_y + 1))]
        p = PolyIndex.from_coeff_vector(m, deg_x, deg_y, vec)
        i = rng.randrange(-50, 50)
        j = rng.randrange(-50, 50)
        assert poly_eval(p, i, j) == bigint_eval(p, i, j)


def test_coeff_vector_round_trip_and_order():
    p = PolyIndex.from_coeff_vector(5, 2, 2, [1, 2, 3, 4, 0, 1, 2, 3, 4])
    assert p.coeff_vector() == [1, 2, 3, 4, 0, 1, 2, 3, 4]
    # position t = a*(deg_y+1) + b: coefficient of x^1*y^2 sits at t = 5
    assert p.coeffs[(1, 2)] == 1
    assert p.coeffs[(0, 0)] == 1
    with pytest.raises(ValueError):
        PolyIndex.from_coeff_vector(5, 2, 2, [1, 2, 3])


def test_coefficients_reduce_and_drop_zeros():
    p = PolyIndex(4, {(1, 1): 5, (2, 0): 4, (0, 0): -1})
    assert p.coeffs == {(1, 1): 1, (0, 0): 3}
    # the cap defaults to the degrees that survive reduction
    assert p.max_degree == (1, 1)


def test_degree_cap_validation():
    with pytest.raises(ValueError):
        PolyIndex(4, {(2, 1): 1}, max_degree=(1, 1))
    with pytest.raises(ValueError):
        PolyIndex(0, {})
    with pytest.raises(ValueError):
        PolyIndex(4, {(-1, 0): 1})


def test_frank_family():
    for n in (2, 3, 4):
        p = frank_index(n)
        assert p.coeffs == {(1, 1): 1}
        arr = frank_array(n)
        for i in range(n):
            for j in range(n):
                assert arr.entry(i, j) == (i * j) % n
        assert frank_sequence(n).exponents == arr.exponents
        assert check_aop(arr).holds


def test_index_periodicity_random_polys():
    rng = random.Random(103)
    for _ in range(100):
        m = rng.randint(2, 10)
        vec = [rng.randrange(m) for _ in range(9)]
        p = PolyIndex.from_coeff_vector(m, 2, 2, vec)
        assert index_periodicity_check(p, trials=8, rng=random.Random(7))


def test_floored_entry_oracle():
    """n=2, K=2, p = x*y: p(3,3) = 9 = 1 mod 4, floor(1/2) = 0."""
    f = FlooredIndex(PolyIndex(4, {(1, 1): 1}), 2, 2)
    assert index_entry(f, 3, 3) == 0
    assert index_entry(f, 1, 1) == 0  # p=1 -> floor 0
    assert index_entry(f, 1, 2) == 1  # p=2 -> floor 1
    assert index_entry(f, 1, 3) == 1  # p=3 -> floor 1


def test_floored_modulus_validation():
    with pytest.raises(ValueError):
        FlooredIndex(PolyIndex(4, {(1, 1): 1}), 2, 3)
    with pytest.raises(ValueError):
        FlooredIndex(PolyIndex(4, {(1, 1): 1}), 0, 4)


def test_floored_periodicity_in_both_axes():
    rng = random.Random(107)
    for _ in range(50):
        n = rng.choice((1, 2, 3))
        K = rng.choice((2, 3))
        m = n * K
        vec = [rng.randrange(m) for _ in range(9)]
        f = FlooredIndex(PolyIndex.from_coeff_vector(m, 2, 2, vec), n, K)
        i, j = rng.randrange(40), rng.randrange(40)
        assert index_entry(f, i + m, j) == index_entry(f, i, j)
        assert index_entry(f, i, j + m) == index_entry(f, i, j)


def test_generate_arrays_match_entrywise_eval():
    p = PolyIndex.from_coeff_vector(3, 2, 2, [0, 1, 2, 1, 0, 1, 2, 0, 0])
    arr = generate_poly_array(p, 4, 5)
    assert arr.order == 3 and arr.rows == 4 and arr.cols == 5
    for i in range(4):
        for j in range(5):
            assert arr.entry(i, j) == poly_eval(p, i, j)
    f = FlooredIndex(PolyIndex(6, {(2, 0): 2, (1, 1): 1}), 2, 3)
    farr = generate_floored_array(f, 7, 7)
    assert farr.order == 3
    for i in range(7):
        for j in range(7):
            assert farr.entry(i, j) == index_entry(f, i, j)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_arrays_match_per_cell_evaluation(data):
    """Column-by-column generation against per-cell `poly_eval` and
    `index_entry`, for every modulus up to 16 and each of its floored splits
    n * K, with raw coefficients that are negative or at least m, and arrays
    past three periods in both directions."""
    m = data.draw(st.integers(1, 16), label="m")
    n = data.draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]), label="n")
    deg_x = data.draw(st.integers(0, 4), label="deg_x")
    deg_y = data.draw(st.integers(0, 4), label="deg_y")
    coeffs = {
        (a, b): data.draw(st.integers(-2 * m - 2, 2 * m + 2))
        for a in range(deg_x + 1)
        for b in range(deg_y + 1)
    }
    p = PolyIndex(m, coeffs, (deg_x, deg_y))
    rows = data.draw(st.integers(1, 3 * m + 1), label="rows")
    cols = data.draw(st.integers(1, 3 * m + 1), label="cols")
    arr = generate_poly_array(p, rows, cols)
    assert (arr.order, arr.rows, arr.cols) == (m, rows, cols)
    assert arr.exponents == tuple(
        poly_eval(p, i, j) for i in range(rows) for j in range(cols)
    )
    f = FlooredIndex(p, n, m // n)
    farr = generate_floored_array(f, rows, cols)
    assert (farr.order, farr.rows, farr.cols) == (m // n, rows, cols)
    assert farr.exponents == tuple(
        index_entry(f, i, j) for i in range(rows) for j in range(cols)
    )


def test_column_duplication_witness():
    p = frank_index(3)
    assert column_duplication_witness(p, 3, rows=9) == (0, 3)
    f = FlooredIndex(PolyIndex(6, {(1, 1): 1}), 2, 3)
    assert column_duplication_witness(f, 6, rows=12) == (0, 6)
    with pytest.raises(ValueError):
        column_duplication_witness(p, 4, rows=9)


def test_periodicity_certificates_fail_off_the_integers():
    """p = y/2 mod 5 is not 5-periodic in j (p(0, 5) = 5/2), so both
    certificates must fail: they evaluate at unreduced points and never
    assume the periodicity they certify."""
    p = PolyIndex(5, {(0, 1): Fraction(1, 2)})
    assert not index_periodicity_check(p, trials=4)
    with pytest.raises(AssertionError, match="columns 0 and 5 differ at row 0"):
        column_duplication_witness(p, 5, rows=1)
    assert poly_eval(p, 0, 5) == Fraction(5, 2)
