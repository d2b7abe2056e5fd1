"""Exact ring arithmetic: structural identities and exact/float concordance."""

import cmath
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aopseq.cyclotomic import (
    FLOAT_ZERO_TOLERANCE,
    CyclotomicInt,
    _poly_divmod,
    audit,
    counts_is_zero,
    cyclotomic_polynomial,
    cyc_mul_root,
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
    n, av = nv
    a = CyclotomicInt(n, tuple(av))
    assert cyc_mul_root(cyc_mul_root(a, e1), e2).equals(cyc_mul_root(a, e1 + e2))


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
