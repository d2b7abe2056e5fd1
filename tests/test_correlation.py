"""Correlation kernels: frozen oracles, symmetry laws, exact/float agreement,
differential tests of the two shared kernels against direct loops, and the
two flattening identities used as acceptance harnesses."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aopseq.correlation
from aopseq.correlation import (
    autocorrelate,
    autocorrelate_2d,
    crosscorrelate,
    decomposition_check,
    decomposition_check_all,
    diff_counts,
    product_counts,
    projection_autocorrelate,
    projection_sum_check,
    projection_sum_check_all,
    write_profile_csv,
)
from aopseq.cyclotomic import CyclotomicInt, cyc_add, cyc_conj, cyc_mul, root_table
from aopseq.indexfn import frank_array, frank_sequence
from aopseq.seqmodel import PhaseArray, PhaseSequence, column_sum


def test_frank_2x2_flattened_profile():
    """Hand oracle: the order-2 array [[0,0],[0,1]] flattens to values
    [1, 1, 1, -1] whose periodic autocorrelation is [4, 0, 0, 0]."""
    seq = frank_sequence(2)
    assert seq.exponents == (0, 0, 0, 1)
    profile = autocorrelate(seq)
    assert profile.peak().equals(CyclotomicInt.integer(2, 4))
    for tau in range(1, 4):
        assert profile.value(tau).is_zero()
    assert profile.is_perfect()


def test_frank_2x2_two_dimensional_profile():
    arr = frank_array(2)
    profile = autocorrelate_2d(arr)
    assert profile.shape == (2, 2)
    assert profile.value(0, 0).equals(CyclotomicInt.integer(2, 4))
    for v in range(2):
        for h in range(2):
            if (v, h) != (0, 0):
                assert profile.value(v, h).is_zero()
    assert profile.is_perfect()


def test_peak_is_sequence_length():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice((2, 3, 4, 6))
        L = rng.randint(1, 10)
        seq = PhaseSequence(n, tuple(rng.randrange(n) for _ in range(L)))
        assert autocorrelate(seq).peak().equals(CyclotomicInt.integer(n, L))


seqs = st.tuples(st.integers(2, 8), st.integers(1, 10)).flatmap(
    lambda t: st.lists(
        st.integers(0, t[0] - 1), min_size=t[1], max_size=t[1]
    ).map(lambda e: PhaseSequence(t[0], tuple(e)))
)


@given(seqs)
@settings(max_examples=150, deadline=None)
def test_autocorrelation_hermitian_symmetry(seq):
    """theta(L - tau) is the conjugate of theta(tau), exactly."""
    profile = autocorrelate(seq)
    assert profile.has_hermitian_symmetry()
    L = len(seq)
    for tau in range(1, L):
        assert profile.value(L - tau).equals(profile.value(tau).conjugate())


def float_autocorrelation(seq):
    """Direct float summation, independent of the exact count vectors."""
    roots = root_table(seq.order)
    e, L = seq.exponents, len(seq)
    return [sum(roots[(e[i] - e[(i + tau) % L]) % seq.order] for i in range(L))
            for tau in range(L)]


def float_autocorrelation_2d(arr):
    roots = root_table(arr.order)
    e, R, C = arr.exponents, arr.rows, arr.cols
    return [
        sum(roots[(e[i * C + j] - e[((i + v) % R) * C + (j + h) % C]) % arr.order]
            for i in range(R) for j in range(C))
        for v in range(R) for h in range(C)
    ]


@given(seqs)
@settings(max_examples=100, deadline=None)
def test_exact_float_pointwise_agreement(seq):
    exact = autocorrelate(seq).to_complex()
    fl = float_autocorrelation(seq)
    for e, f in zip(exact, fl):
        assert abs(e - f) <= 1e-9 * max(len(seq), 1)


# every order 2..16, with the composite orders 6, 10, 12 and 15 drawn often
orders = st.one_of(st.sampled_from((6, 10, 12, 15)), st.integers(2, 16))


@st.composite
def diff_terms(draw):
    n = draw(orders)
    exps = st.integers(-3 * n, 3 * n)
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        L = draw(st.integers(1, 8))
        u = tuple(draw(st.lists(exps, min_size=L, max_size=L)))
        v = tuple(draw(st.lists(exps, min_size=L, max_size=L)))
        terms.append((u, v, draw(st.integers(-20, 20))))
    return n, terms


@given(diff_terms())
@settings(max_examples=300, deadline=None)
def test_diff_counts_matches_direct_histogram(case):
    n, terms = case
    expected = [0] * n
    for u, v, tau in terms:
        L = len(u)
        for i in range(L):
            expected[(u[i] - v[(i + tau) % L]) % n] += 1
    assert diff_counts(terms, n) == expected


@st.composite
def phase_arrays(draw):
    n = draw(orders)
    R, C = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    exps = draw(st.lists(st.integers(0, n - 1), min_size=R * C, max_size=R * C))
    return PhaseArray(n, R, C, tuple(exps))


@given(phase_arrays())
@settings(max_examples=200, deadline=None)
def test_autocorrelate_2d_matches_direct_loop(arr):
    """Coefficient for coefficient, against the row-major O(L^2) loop."""
    n, R, C, exps = arr.order, arr.rows, arr.cols, arr.exponents
    profile = autocorrelate_2d(arr)
    for v in range(R):
        for h in range(C):
            counts = [0] * n
            for i in range(R):
                for j in range(C):
                    counts[(exps[i * C + j] - exps[((i + v) % R) * C + (j + h) % C]) % n] += 1
            assert profile.value(v, h).coeffs == tuple(counts)


@st.composite
def cyclotomic_lists(draw):
    n = draw(orders)
    L = draw(st.integers(1, 6))
    vals = [
        CyclotomicInt(n, tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
        for _ in range(L)
    ]
    return n, vals, draw(st.integers(0, L - 1))


@given(cyclotomic_lists())
@settings(max_examples=200, deadline=None)
def test_product_counts_matches_ring_products(case):
    n, vals, tau = case
    L = len(vals)
    expected = CyclotomicInt.zero(n)
    for i in range(L):
        expected = cyc_add(expected, cyc_mul(vals[i], cyc_conj(vals[(i + tau) % L])))
    assert tuple(product_counts(vals, tau, n)) == expected.coeffs


def test_cross_of_self_is_auto():
    seq = PhaseSequence(4, (0, 1, 3, 2, 2))
    auto = autocorrelate(seq)
    cross = crosscorrelate(seq, seq)
    for tau in range(len(seq)):
        assert cross.value(tau).equals(auto.value(tau))


def test_cross_length_and_order_mismatch():
    a = PhaseSequence(2, (0, 1))
    with pytest.raises(ValueError):
        crosscorrelate(a, PhaseSequence(2, (0, 1, 0)))
    with pytest.raises(ValueError):
        crosscorrelate(a, PhaseSequence(3, (0, 1)))


def test_2d_exact_float_agreement():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice((2, 3, 5))
        R, C = rng.randint(1, 5), rng.randint(1, 5)
        arr = PhaseArray(n, R, C, tuple(rng.randrange(n) for _ in range(R * C)))
        exact = autocorrelate_2d(arr).to_complex()
        fl = float_autocorrelation_2d(arr)
        for e, f in zip(exact, fl):
            assert abs(e - f) <= 1e-9 * (R * C)


def test_decomposition_identity_random_arrays():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.choice((2, 3, 4, 6))
        R, C = rng.randint(1, 5), rng.randint(1, 5)
        arr = PhaseArray(n, R, C, tuple(rng.randrange(n) for _ in range(R * C)))
        assert decomposition_check_all(arr)


def test_projection_sum_identity_random_arrays():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice((2, 3, 4, 6))
        R, C = rng.randint(1, 5), rng.randint(1, 5)
        arr = PhaseArray(n, R, C, tuple(rng.randrange(n) for _ in range(R * C)))
        assert projection_sum_check_all(arr)
    with pytest.raises(ValueError):
        projection_sum_check(PhaseArray(2, 2, 2, (0, 0, 0, 0)), 2)


@st.composite
def verify_arrays(draw):
    """Arrays as a verify run meets them: random entries with R, C <= 8 at
    orders 2-16, or a Frank array of a divisor d <= 8 of the order (exponents
    scaled by n/d) with random column phases, which is perfect and has the
    AOP."""
    n = draw(st.integers(2, 16))
    sizes = [d for d in range(2, 9) if n % d == 0]
    if not sizes or draw(st.booleans()):
        R, C = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        exps = draw(st.lists(st.integers(0, n - 1), min_size=R * C, max_size=R * C))
        return PhaseArray(n, R, C, tuple(exps))
    d = draw(st.sampled_from(sizes))
    phases = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
    return PhaseArray(n, d, d, tuple((i * j * (n // d) + phases[j]) % n
                                     for i in range(d) for j in range(d)))


@given(verify_arrays())
@settings(max_examples=200, deadline=None)
def test_all_shift_checks_match_single_shift_checks(arr):
    """The once-per-array `_all` forms against the public single-shift
    checks at every shift."""
    assert decomposition_check_all(arr) == all(
        decomposition_check(arr, q, r) for q in range(arr.rows) for r in range(arr.cols)
    )
    assert projection_sum_check_all(arr) == all(
        projection_sum_check(arr, tau) for tau in range(arr.rows)
    )


def test_all_shift_checks_build_their_inputs_once(monkeypatch):
    calls = {"flatten": 0, "column_sum": 0}

    def counted(name):
        original = getattr(aopseq.correlation, name)

        def wrapper(array):
            calls[name] += 1
            return original(array)

        return wrapper

    for name in calls:
        monkeypatch.setattr(aopseq.correlation, name, counted(name))
    arr = PhaseArray(6, 3, 4, tuple(range(12)))
    assert decomposition_check_all(arr)
    assert projection_sum_check_all(arr)
    assert calls == {"flatten": 1, "column_sum": 1}


def test_projection_autocorrelation_of_frank():
    for n in (2, 3, 4):
        proj = column_sum(frank_array(n))
        profile = projection_autocorrelate(proj)
        assert profile.peak().equals(CyclotomicInt.integer(n, n * n))
        assert profile.is_perfect()


def test_profile_csv_schema():
    profile = autocorrelate(frank_sequence(2))
    buf = io.StringIO()
    write_profile_csv(profile, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "tau,re,im,exact_zero"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert float(first[1]) == 4.0 and float(first[2]) == 0.0
    assert first[3] == "0"
    assert lines[2].split(",")[3] == "1"

    buf2 = io.StringIO()
    write_profile_csv(autocorrelate_2d(frank_array(2)), buf2)
    assert buf2.getvalue().splitlines()[0] == "v,h,re,im,exact_zero"
