"""Exact ring arithmetic: structural identities and exact/float concordance."""

import cmath
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aopseq.cyclotomic import (
    FLOAT_ZERO_TOLERANCE,
    CyclotomicInt,
    _poly_divmod,
    audit,
    counts_is_zero,
    counts_to_complex,
    cyclotomic_polynomial,
    reduction_rows,
    root_table,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_cyclotomic_product_identity(n):
    """prod over d | n of Phi_d equals X^n - 1, coefficient for coefficient."""
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d).coefficients))
    want = [-1] + [0] * (n - 1) + [1]
    assert prod == want


def reference_is_zero(counts, n):
    """Division-based reference: every row of the reduction modulo the
    cyclotomic polynomial contracts the vector to 0."""
    return all(sum(r * c for r, c in zip(row, counts)) == 0 for row in reduction_rows(n))


def prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


# composites with two or three coprime factors, and prime powers with a
# cube (27, 32) or a square of an odd prime (49), where n/p differs from p
FAVOURED_ORDERS = (6, 10, 12, 15, 27, 30, 32, 49, 60)


@st.composite
def near_vanishing_counts(draw):
    """Signed sums of rotated p-cosets for primes p | n, which vanish,
    sometimes with one entry moved by +-1, which then cannot vanish."""
    n = draw(st.one_of(st.sampled_from(FAVOURED_ORDERS), st.integers(1, 64)))
    counts = [0] * n
    primes = prime_divisors(n)
    for _ in range(draw(st.integers(0, 6)) if primes else 0):
        p = draw(st.sampled_from(primes))
        start, weight = draw(st.integers(0, n - 1)), draw(st.integers(-3, 3))
        for t in range(p):
            counts[(start + t * (n // p)) % n] += weight
    if draw(st.integers(0, 3)) == 0:
        counts[draw(st.integers(0, n - 1))] += draw(st.sampled_from((-1, 1)))
    return n, counts


def _rotated_cosets(n, coset_starts):
    counts = [0] * n
    for p, start, weight in coset_starts:
        for t in range(p):
            counts[(start + t * (n // p)) % n] += weight
    return n, counts


@given(near_vanishing_counts())
@settings(max_examples=1500, deadline=None)
@example(_rotated_cosets(105, [(3, 1, 2), (5, 4, -1), (7, 10, 1)]))
@example(_rotated_cosets(210, [(2, 0, 1), (3, 7, -2), (5, 1, 1), (7, 3, 3)]))
@example(_rotated_cosets(256, [(2, 5, 1), (2, 6, -4)]))
@example((105, [1 if e % 35 == 0 else 0 for e in range(105)]))
@example((210, [1] * 209 + [0]))
@example((256, [0] * 255 + [1]))
def test_zero_test_matches_division_reference(case):
    """The structural zero test against division by the cyclotomic
    polynomial, on lists and tuples, each call audited exactly once."""
    n, counts = case
    expected = reference_is_zero(counts, n)
    audit.start()
    try:
        for vector in (counts, tuple(counts)):
            before = audit.checked
            assert counts_is_zero(vector, n) == expected, (n, counts)
            assert audit.checked == before + 1
    finally:
        audit.stop()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 30])
def test_root_embedding(n):
    roots = root_table(n)
    for e in range(n):
        assert cmath.isclose(
            roots[e], cmath.exp(2j * cmath.pi * e / n), abs_tol=1e-12
        )
        assert cmath.isclose(
            complex(CyclotomicInt.root(n, e)), roots[e], abs_tol=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 12])
def test_all_roots_sum_to_zero(n):
    assert counts_is_zero([1] * n, n)


def test_known_zeros_and_nonzeros():
    # 1 + omega_4^2 = 1 + (-1)
    assert counts_is_zero([1, 0, 1, 0], 4)
    assert not counts_is_zero([1, 1, 0, 0], 4)
    # omega_6^2 - omega_6^2
    z = CyclotomicInt.root(6, 2) - CyclotomicInt.root(6, 2)
    assert z.is_zero()
    # 1 + omega_6 + ... is nonzero unless all six appear equally
    assert not counts_is_zero([1, 1, 1, 0, 0, 0], 6)
    assert not CyclotomicInt.one(5).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20])
def test_constructed_ring_zeros(n):
    """q(X) * Phi_n(X) reduced mod X^n - 1 must test as zero for random q."""
    rng = random.Random(40 + n)
    phi = list(cyclotomic_polynomial(n).coefficients)
    for _ in range(50):
        q = [rng.randint(-5, 5) for _ in range(n)]
        prod = poly_mul(q, phi)
        counts = [0] * n
        for e, c in enumerate(prod):
            counts[e % n] += c
        assert counts_is_zero(counts, n), (n, q)


coeff_vecs = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    )
)


@given(coeff_vecs, st.data())
@settings(max_examples=200, deadline=None)
def test_ring_laws(nv, data):
    n, av = nv
    bv = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    cv = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    a = CyclotomicInt(n, tuple(av))
    b = CyclotomicInt(n, tuple(bv))
    c = CyclotomicInt(n, tuple(cv))
    assert ((a + b) + c).equals(a + (b + c))
    assert (a * b).equals(b * a)
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a * b).conjugate().equals(a.conjugate() * b.conjugate())
    assert (a - a).is_zero()


@given(coeff_vecs, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_root_rotation_group_law(nv, e1, e2):
    """Multiplying by w^e rotates the coefficients by e, and w^e1 w^e2 is
    w^(e1 + e2)."""
    n, av = nv
    a = CyclotomicInt(n, tuple(av))
    rotated = a * CyclotomicInt.root(n, e1)
    assert rotated.coeffs == tuple(av[(t - e1) % n] for t in range(n))
    assert (rotated * CyclotomicInt.root(n, e2)).equals(a * CyclotomicInt.root(n, e1 + e2))


@given(coeff_vecs, st.data())
@settings(max_examples=150, deadline=None)
def test_complex_embedding_is_homomorphic(nv, data):
    n, av = nv
    bv = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    a = CyclotomicInt(n, tuple(av))
    b = CyclotomicInt(n, tuple(bv))
    assert cmath.isclose(complex(a * b), complex(a) * complex(b), abs_tol=1e-7)
    assert cmath.isclose(complex(a + b), complex(a) + complex(b), abs_tol=1e-9)
    assert cmath.isclose(
        complex(a.conjugate()), complex(a).conjugate(), abs_tol=1e-9
    )


sparse_coeff_vecs = st.integers(1, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.one_of(st.just(0), st.integers(-5, 5)), min_size=n, max_size=n),
    )
)


@given(sparse_coeff_vecs)
@settings(max_examples=500, deadline=None)
@example((4, [0, -1, 0, 1]))
def test_float_view_matches_the_sum_of_nonzero_terms(nv):
    """`counts_to_complex` adds every term, zero ones too; its repr must be
    that of the sum over the nonzero terms alone, so float and CSV output
    bytes stay as they were."""
    n, av = nv
    roots = root_table(n)
    nonzero = sum((av[e] * roots[e] for e in range(n) if av[e]), 0j)
    assert repr(counts_to_complex(av, n)) == repr(nonzero)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        CyclotomicInt.one(4) + CyclotomicInt.one(6)
    with pytest.raises(ValueError):
        CyclotomicInt(4, (1, 2, 3))


def test_non_monic_divisor_raises():
    # an explicit raise, so the check holds under python -O as well
    with pytest.raises(AssertionError, match="not monic"):
        _poly_divmod([1, 0, 1], [1, 2])


def test_concordance_audit_clean():
    """Exact and float zero verdicts agree over random and constructed-zero
    inputs; the audit must come back with zero disagreements."""
    rng = random.Random(99)
    audit.start()
    for _ in range(300):
        n = rng.choice((2, 3, 4, 5, 8, 12))
        counts = [rng.randint(-4, 4) for _ in range(n)]
        counts_is_zero(counts, n)
        phi = list(cyclotomic_polynomial(n).coefficients)
        q = [rng.randint(-3, 3) for _ in range(n)]
        prod = poly_mul(q, phi)
        zero_counts = [0] * n
        for e, c in enumerate(prod):
            zero_counts[e % n] += c
        assert counts_is_zero(zero_counts, n)
    checked, disagreements = audit.stop()
    assert checked >= 600
    assert disagreements == 0
    assert FLOAT_ZERO_TOLERANCE == 1e-9
