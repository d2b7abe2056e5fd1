"""Correlation kernels: frozen oracles, symmetry laws, exact/float agreement,
differential tests of the two shared kernels against direct loops, and the
two flattening identities used as acceptance harnesses."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aopseq.correlation
from aopseq.correlation import (
    _array_shifts,
    _lane_bytes,
    _pack,
    _packed_pays,
    _ring_equal,
    _shift_counts,
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
)
from aopseq.cyclotomic import CyclotomicInt, root_table
from aopseq.indexfn import frank_array, frank_sequence
from aopseq.seqmodel import PhaseArray, PhaseSequence, ProjectionSequence, column_sum


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
    L = len(seq)
    for tau in range(L):
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
        expected = expected + vals[i] * vals[(i + tau) % L].conjugate()
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


@st.composite
def packed_pairs(draw):
    """Two exponent sequences of one length and order, random or constant;
    a constant pair puts all L terms of each shift in one lane."""
    n = draw(st.integers(1, 16))
    L = draw(st.one_of(st.integers(1, 300), st.sampled_from((255, 256))))

    def sequence():
        if draw(st.booleans()):
            return [draw(st.integers(0, n - 1))] * L
        return draw(st.lists(st.integers(0, n - 1), min_size=L, max_size=L))

    return n, sequence(), sequence()


@given(packed_pairs())
@settings(max_examples=200, deadline=None)
def test_packed_kernel_matches_diff_counts(case):
    n, u, v = case
    L = len(u)
    lane = _lane_bytes(L)
    packed = _pack(u, n, lane, True) * _pack(v, n, lane, False)
    assert _shift_counts(packed, L, n, lane) == [
        tuple(diff_counts(((u, v, t),), n)) for t in range(L)
    ]


@st.composite
def small_arrays(draw):
    n, R, C = draw(st.integers(2, 64)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    exps = draw(st.lists(st.integers(0, n - 1), min_size=R * C, max_size=R * C))
    return PhaseArray(n, R, C, tuple(exps)), draw(st.integers(0, R * C - 1))


@given(small_arrays())
@example((PhaseArray(2, 1, 1, (1,)), 0))
@example((PhaseArray(64, 1, 9, tuple(range(0, 63, 7))), 3))
@example((PhaseArray(64, 9, 1, tuple(range(0, 63, 7))), 5))
@example((PhaseArray(3, 9, 9, tuple(i * j % 3 for i in range(9) for j in range(9))), 0))
@settings(max_examples=150, deadline=None)
def test_carry_shifts_match_the_column_pair_sums(case):
    """The carry form of `_array_shifts` at flat shift q'C + r' is the
    column side of the decomposition identity, the sum over r of column r
    against column r + r' (mod C) shifted down by q' + (r + r')//C, on the
    packed and the per-shift route and from any start."""
    arr, start = case
    n, R, C = arr.order, arr.rows, arr.cols
    cols = arr.columns()
    pairs = [
        tuple(diff_counts(
            [(cols[r], cols[(r + rp) % C], (q + (r + rp) // C) % R) for r in range(C)], n
        ))
        for q in range(R)
        for rp in range(C)
    ]
    for packed in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aopseq.correlation, "_packed_pays", lambda *args: packed)
            assert [tuple(c) for c in _array_shifts(arr, carry=True)] == pairs
            assert [tuple(c) for c in _array_shifts(arr, start, carry=True)] == pairs[start:]


@pytest.mark.parametrize(
    "n, R, C, lane",
    [(3, 7, 6, 1), (4, 1, 16, 2), (5, 4, 127, 2), (2, 4, 128, 4)],
)
@pytest.mark.parametrize("constant", [False, True])
def test_packed_projection_side_matches_diff_counts(n, R, C, lane, constant):
    """The summed column packings against every ordered column pair: C^2 R
    terms per shift (252, 256, 64,516 and 65,536) on both sides of the one-
    and two-byte lane limits; constant columns put all of them in one lane."""
    rng = random.Random(R * C)
    cols = [tuple(0 if constant else rng.randrange(n) for _ in range(R)) for _ in range(C)]
    assert _lane_bytes(C * C * R) == lane
    packed = sum(_pack(c, n, lane, True) for c in cols) * sum(_pack(c, n, lane, False) for c in cols)
    assert _shift_counts(packed, R, n, lane) == [
        tuple(diff_counts([(u, v, t) for u in cols for v in cols], n)) for t in range(R)
    ]


# One array on each side of the packed-path rule (see the rule test below).
CONTROL_ARRAYS = [PhaseArray(60, 3, 3, (0, 7, 19, 24, 31, 42, 45, 53, 58)), frank_array(8)]


def test_packed_path_rule(monkeypatch):
    """Large orders stay on the per-shift path for single products (order
    32 up to length 64, orders 64 and 1024 up to length 300); the two control
    arrays sit on opposite sides of the rule at both identity checks: at the
    decomposition's two helpers (flattening and carry array) and at the
    projection's one product."""
    for n, longest in ((32, 64), (64, 300), (1024, 300)):
        for L in range(1, longest + 1):
            assert not _packed_pays(L * L, n, _lane_bytes(L), L)
    decisions = []

    def recorded(*args):
        decisions.append(_packed_pays(*args))
        return decisions[-1]

    monkeypatch.setattr(aopseq.correlation, "_packed_pays", recorded)
    sides = []
    for arr in CONTROL_ARRAYS:
        decisions.clear()
        assert decomposition_check_all(arr)
        decomposition = list(decisions)
        decisions.clear()
        assert projection_sum_check_all(arr)
        sides.append((decomposition, list(decisions)))
    assert sides == [([False, False], [False]), ([True, True], [True])]


@pytest.mark.parametrize("arr", CONTROL_ARRAYS)
def test_identity_checks_catch_one_changed_input(arr, monkeypatch):
    """Both identities hold on every array, so only a corrupted input shows
    that a check compares its two sides: one flattening entry or one
    projection coefficient changed must fail the `_all` and the
    single-shift forms."""
    assert decomposition_check_all(arr) and projection_sum_check_all(arr)
    flatten, column_sum = aopseq.correlation.flatten, aopseq.correlation.column_sum

    def changed_flatten(array):
        seq = flatten(array)
        return PhaseSequence(seq.order, (seq.exponents[0] + 1,) + seq.exponents[1:])

    def changed_column_sum(array):
        proj = column_sum(array)
        first = proj.values[0].coeffs
        value = CyclotomicInt(proj.order, (first[0] + 1,) + first[1:])
        return ProjectionSequence(proj.order, (value,) + proj.values[1:])

    monkeypatch.setattr(aopseq.correlation, "flatten", changed_flatten)
    monkeypatch.setattr(aopseq.correlation, "column_sum", changed_column_sum)
    assert not decomposition_check_all(arr)
    assert not all(
        decomposition_check(arr, q, r) for q in range(arr.rows) for r in range(arr.cols)
    )
    assert not projection_sum_check_all(arr)
    assert not all(projection_sum_check(arr, tau) for tau in range(arr.rows))


@pytest.mark.parametrize("n, p", [(12, 3), (12, 2), (15, 5), (7, 7)])
def test_ring_equal_beyond_equal_counts(n, p):
    """Sides whose counts differ by a full coset of the order-p subgroup are
    equal in the ring; one extra root is not."""
    rng = random.Random(n * p)
    lhs = [rng.randrange(4) for _ in range(n)]
    coset = list(lhs)
    for t in range(p):
        coset[(1 + t * n // p) % n] += 1
    assert _ring_equal(lhs, tuple(lhs), n)
    assert coset != lhs and _ring_equal(lhs, coset, n) and _ring_equal(coset, lhs, n)
    coset[0] += 1
    assert not _ring_equal(lhs, coset, n)


@pytest.mark.parametrize("n, d", [(1024, 32), (256, 16)])
def test_identity_checks_at_large_orders_are_quick(n, d):
    """The d x d Frank array written at order n (exponent (n/d)*(i*j mod d))
    passes both `_all` checks well inside 5 s."""
    arr = PhaseArray(n, d, d, tuple(n // d * (i * j % d) for i in range(d) for j in range(d)))
    t0 = time.perf_counter()
    assert decomposition_check_all(arr)
    assert projection_sum_check_all(arr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"checks took {elapsed:.2f} s"


def test_projection_autocorrelation_of_frank():
    for n in (2, 3, 4):
        proj = column_sum(frank_array(n))
        profile = projection_autocorrelate(proj)
        assert profile.peak().equals(CyclotomicInt.integer(n, n * n))
        assert profile.is_perfect()
