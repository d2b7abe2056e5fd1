"""Orthogonality predicates: witnesses, known families, implication harnesses."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aopseq.aop
import aopseq.correlation
from aopseq.aop import (
    aop_implies_perfect,
    check_aop,
    check_condition_1,
    check_condition_2,
    is_degenerate_projection,
    is_perfect_array,
    is_perfect_projection,
    is_perfect_sequence,
    perfect_array_projection_check,
)
from aopseq.correlation import (
    autocorrelate,
    autocorrelate_2d,
    crosscorrelate,
    decomposition_check_all,
    projection_autocorrelate,
    projection_sum_check_all,
)
from aopseq.cyclotomic import CyclotomicInt, counts_is_zero
from aopseq.indexfn import frank_array
from aopseq.search import _verdict_pass
from aopseq.seqmodel import PhaseArray, PhaseSequence, column_sum, flatten
from test_correlation import verify_arrays


def test_frank_arrays_satisfy_both_conditions():
    for n in (2, 3, 4, 5):
        arr = frank_array(n)
        assert check_condition_1(arr).holds
        assert check_condition_2(arr).holds
        verdict = check_aop(arr)
        assert verdict.holds and verdict.failing_condition is None


def test_condition_2_component_sums_frank_2x2():
    """The column autocorrelations are individually nonzero but cancel:
    theta_c0(1) = 2 and theta_c1(1) = -2 for the order-2 array."""
    arr = frank_array(2)
    c0 = PhaseSequence(2, arr.column(0))
    c1 = PhaseSequence(2, arr.column(1))
    assert autocorrelate(c0).value(1).equals(CyclotomicInt.integer(2, 2))
    assert autocorrelate(c1).value(1).equals(CyclotomicInt.integer(2, -2))


def test_condition_1_witness_points_at_violation():
    # duplicate column breaks orthogonality at shift 0
    arr = PhaseArray(2, 2, 2, (0, 0, 0, 0))
    verdict = check_condition_1(arr)
    assert not verdict.holds
    j0, j1, tau = verdict.witness
    u = PhaseSequence(2, arr.column(j0))
    v = PhaseSequence(2, arr.column(j1))
    assert not crosscorrelate(u, v).value(tau).is_zero()


def test_condition_2_witness_points_at_violation():
    # constant 2x1 column: theta(1) = 2 != 0
    arr = PhaseArray(2, 2, 1, (0, 0))
    verdict = check_condition_2(arr)
    assert not verdict.holds
    (tau,) = verdict.witness
    col = PhaseSequence(2, arr.column(0))
    assert not autocorrelate(col).value(tau).is_zero()
    full = check_aop(arr)
    assert not full.holds and full.failing_condition == "condition-2"


def test_single_column_aop_is_perfect_column():
    # condition 1 is vacuous at C = 1, so AOP reduces to a perfect column
    perfect_col = PhaseArray(2, 4, 1, (0, 0, 0, 1))
    assert check_aop(perfect_col).holds
    assert check_condition_1(perfect_col).holds
    imperfect_col = PhaseArray(2, 4, 1, (0, 1, 0, 1))
    assert not check_aop(imperfect_col).holds


def test_global_phase_invariance():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        R, C = rng.randint(1, 4), rng.randint(1, 4)
        exps = tuple(rng.randrange(n) for _ in range(R * C))
        shift = rng.randrange(1, n)
        a = PhaseArray(n, R, C, exps)
        b = PhaseArray(n, R, C, tuple((e + shift) % n for e in exps))
        assert check_aop(a).holds == check_aop(b).holds


def test_aop_implies_perfect_never_refuted():
    rng = random.Random(29)
    for n in (2, 3, 4):
        assert aop_implies_perfect(frank_array(n))
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        R, C = rng.randint(1, 4), rng.randint(1, 4)
        arr = PhaseArray(n, R, C, tuple(rng.randrange(n) for _ in range(R * C)))
        assert aop_implies_perfect(arr)


def test_perfect_array_projections_never_refuted():
    rng = random.Random(31)
    for n in (2, 3, 4, 5):
        assert perfect_array_projection_check(frank_array(n))
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        R, C = rng.randint(1, 4), rng.randint(1, 4)
        arr = PhaseArray(n, R, C, tuple(rng.randrange(n) for _ in range(R * C)))
        assert perfect_array_projection_check(arr)


@given(verify_arrays())
@settings(max_examples=300, deadline=None)
def test_is_perfect_array_matches_profile_and_stops_at_first_nonzero(arr):
    """Same verdict as the full profile, after one zero test per off-peak
    shift up to and including the first nonzero one in row-major order."""
    offpeak = autocorrelate_2d(arr).values[1:]
    nonzero = [i for i, value in enumerate(offpeak) if not value.is_zero()]
    tests = []

    def counted(coeffs, order):
        tests.append(order)
        return counts_is_zero(coeffs, order)

    with mock.patch.object(aopseq.aop, "counts_is_zero", counted):
        perfect = is_perfect_array(arr)
    assert perfect == autocorrelate_2d(arr).is_perfect()
    assert len(tests) == (nonzero[0] + 1 if nonzero else len(offpeak))


def test_projection_check_builds_no_profile_for_imperfect_arrays(monkeypatch):
    def no_profile(array):
        raise AssertionError("profile built for an imperfect array")

    monkeypatch.setattr(aopseq.aop, "autocorrelate_2d", no_profile)
    assert perfect_array_projection_check(PhaseArray(3, 2, 2, (0, 1, 2, 2)))


def test_degenerate_projection_detected():
    # rows [0, 1] over order 2 sum to zero: a degenerate projection is still
    # formally perfect, which is why the harness checks degeneracy separately
    arr = PhaseArray(2, 2, 2, (0, 1, 1, 0))
    proj = column_sum(arr)
    assert is_degenerate_projection(proj)
    assert is_perfect_projection(proj)


def test_perfect_sequence_examples():
    assert is_perfect_sequence(PhaseSequence(2, (0, 0, 0, 1)))
    assert not is_perfect_sequence(PhaseSequence(2, (0, 0, 0, 0)))
    assert not is_perfect_sequence(PhaseSequence(2, (0, 1, 0, 1)))
    # any length-1 sequence is vacuously perfect
    assert is_perfect_sequence(PhaseSequence(5, (3,)))


# Orders 2-16, so composite orders 6, 10, 12 and 15 are covered.
ORDERS = list(range(2, 17))


@st.composite
def near_frank_arrays(draw):
    """Random arrays, and Frank arrays of a divisor of the order (embedded
    by scaling exponents) with random column phases and a few entries
    changed, so that witnesses land away from (0, 1, 0)."""
    order = draw(st.sampled_from(ORDERS))
    if draw(st.booleans()):
        rows = draw(st.integers(1, 6))
        cols = draw(st.integers(1, 6))
        exps = draw(st.lists(st.integers(0, order - 1), min_size=rows * cols,
                             max_size=rows * cols))
        return PhaseArray(order, rows, cols, tuple(exps))
    size = draw(st.sampled_from([d for d in range(2, 9) if order % d == 0] or [order]))
    step = order // size
    phases = draw(st.lists(st.integers(0, order - 1), min_size=size, max_size=size))
    exps = [(i * j * step + phases[j]) % order for i in range(size) for j in range(size)]
    for _ in range(draw(st.integers(0, 2))):
        cell = draw(st.integers(0, size * size - 1))
        exps[cell] = draw(st.integers(0, order - 1))
    return PhaseArray(order, size, size, tuple(exps))


def _full_scan_condition_1_witness(array):
    # reference: every ordered pair j0 != j1, independent correlation kernel
    seqs = [PhaseSequence(array.order, c) for c in array.columns()]
    for j0 in range(array.cols):
        for j1 in range(array.cols):
            if j0 == j1:
                continue
            profile = crosscorrelate(seqs[j0], seqs[j1])
            for tau in range(array.rows):
                if not profile.value(tau).is_zero():
                    return (j0, j1, tau)
    return None


@given(near_frank_arrays())
@settings(max_examples=300, deadline=None)
def test_condition_1_witness_matches_full_scan(arr):
    verdict = check_condition_1(arr)
    assert verdict.witness == _full_scan_condition_1_witness(arr)
    assert verdict.holds == (verdict.witness is None)


@st.composite
def periodic_column_sets(draw):
    """Up to three periods of rows and columns of a period x period tile: a
    Frank tile of a divisor of the order (exponents scaled up, columns
    permuted and phased) or a random one, sometimes with a few entries
    changed.  Columns j and j + period repeat unless an entry was changed."""
    order = draw(st.one_of(st.sampled_from([6, 10, 12, 15]), st.sampled_from(ORDERS)))
    divisors = [d for d in range(1, 6) if order % d == 0]
    period = draw(st.sampled_from(divisors) if draw(st.booleans()) else st.integers(1, 5))
    if order % period == 0 and draw(st.integers(0, 3)):
        step = order // period
        perm = draw(st.permutations(range(period)))
        phases = draw(st.lists(st.integers(0, order - 1), min_size=period,
                               max_size=period))
        tile = [
            [(i * perm[j] * step + phases[j]) % order for i in range(period)]
            for j in range(period)
        ]
    else:
        tile = [
            draw(st.lists(st.integers(0, order - 1), min_size=period, max_size=period))
            for _ in range(period)
        ]
    rows = draw(st.one_of(st.just(period), st.integers(1, 3 * period)))
    width = draw(st.integers(1, 3 * period))
    cols = [[tile[j % period][i % period] for i in range(rows)] for j in range(width)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        j = draw(st.integers(0, width - 1))
        cols[j][draw(st.integers(0, rows - 1))] = draw(st.integers(0, order - 1))
    return order, rows, [tuple(c) for c in cols]


@given(periodic_column_sets())
@settings(max_examples=400, deadline=None)
# orthogonal at shift 0 and complementary (theta(1) = +-sqrt 3), but not
# orthogonal at shift 1: only condition 1 past shift 0 rejects width 2
@example((12, 2, [(0, 1), (5, 0)]))
# columns 0 and 2 are not orthogonal at shift 1, yet every pair with column
# 3 is and all four are complementary: only a scan that stops at the first
# condition-1 failure rejects width 4
@example((2, 4, [(0, 0, 1, 1), (0, 0, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)]))
def test_widths_pass_matches_check_aop_at_every_width(case):
    """The spot check's verdict pass holds at exactly the (R, C) where the
    public check accepts the first C columns cut to R rows, for every R up
    to the column length and every C in a range from 1 or from mid-width."""
    order, rows, cols = case
    width = len(cols)
    holds = {
        (R, C) for R in range(1, rows + 1) for C in range(1, width + 1)
        if check_aop(PhaseArray(order, R, C,
                                tuple(c[i] for i in range(R) for c in cols[:C]))).holds
    }
    for c_values in (range(1, width + 1), range(width // 2 + 1, width + 1)):
        r_values = range(1, rows + 1)
        expected = [(R, C) for R in r_values for C in c_values if (R, C) in holds]
        assert _verdict_pass(cols, r_values, c_values, order) == expected


@st.composite
def changed_frank_arrays(draw):
    """n x n Frank arrays at n = 12 and 15, where both the predicates and the
    identity checks take the packed route, with random column phases and
    at most one entry changed."""
    n = draw(st.sampled_from((12, 15)))
    phases = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    exps = [(i * j + phases[j]) % n for i in range(n) for j in range(n)]
    if draw(st.booleans()):
        exps[draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
    return PhaseArray(n, n, n, tuple(exps))


# each check with the profile whose off-peak values a predicate zero-tests
ROUTED_CHECKS = [
    (lambda a: is_perfect_sequence(flatten(a)), lambda a: autocorrelate(flatten(a))),
    (is_perfect_array, autocorrelate_2d),
    (lambda a: is_perfect_projection(column_sum(a)),
     lambda a: projection_autocorrelate(column_sum(a))),
    (decomposition_check_all, None),
    (projection_sum_check_all, None),
    (autocorrelate_2d, None),
]


def _routed_outcomes(arr, packed: bool) -> list:
    """(result, zero tests) of every routed check with `_packed_pays`
    answering `packed` at every call site."""
    tests = []

    def counted(coeffs, order):
        tests.append(order)
        return counts_is_zero(coeffs, order)

    outcomes = []
    with mock.patch.object(aopseq.correlation, "_packed_pays", lambda *args: packed), \
            mock.patch.object(aopseq.aop, "counts_is_zero", counted), \
            mock.patch.object(aopseq.correlation, "counts_is_zero", counted):
        for check, _ in ROUTED_CHECKS:
            tests.clear()
            outcomes.append((check(arr), len(tests)))
    return outcomes


@given(st.one_of(near_frank_arrays(), changed_frank_arrays()))
@settings(max_examples=150, deadline=None)
def test_packed_and_per_shift_routes_agree(arr):
    """Both routes give the same verdicts and profile, and the predicates
    make one zero test per off-peak shift up to and including the first
    nonzero one on either route."""
    packed = _routed_outcomes(arr, True)
    assert packed == _routed_outcomes(arr, False)
    for (_, profile), (_, tests) in zip(ROUTED_CHECKS, packed):
        if profile is not None:
            offpeak = profile(arr).values[1:]
            nonzero = [i for i, value in enumerate(offpeak) if not value.is_zero()]
            assert tests == (nonzero[0] + 1 if nonzero else len(offpeak))


@pytest.mark.parametrize("n", [12, 15])
def test_frank_predicates_take_the_packed_route(n):
    """Under the fitted rule the three predicates finish a perfect Frank
    array of order 12 or 15 from one packed product each."""
    arr = frank_array(n)
    unpacks = []
    shift_counts = aopseq.correlation._shift_counts

    def counted(*args):
        unpacks.append(args)
        return shift_counts(*args)

    with mock.patch.object(aopseq.correlation, "_shift_counts", counted):
        for check, _ in ROUTED_CHECKS[:3]:
            unpacks.clear()
            assert check(arr)
            assert len(unpacks) == 1
