"""Correlation-term factorisation: hand oracles, internal consistency,
collapse certificates, CSV schema, and the sampled dependence survey."""

import cmath
import io
import random

import pytest

from aopseq.correlation import crosscorrelate
from aopseq.indexfn import FlooredIndex, PolyIndex, generate_floored_array
from aopseq.scatter import (
    BiQuadraticSpec,
    collapse_check,
    decompose_term,
    fractional_dependence_survey,
    trace_crosscorrelation,
    write_trace_csv,
)
from aopseq.seqmodel import PhaseSequence


def test_decompose_term_hand_oracle():
    """n=2, K=2, column 0 carries 2i^2 and column 1 is identically 0.

    At i=1 the residues are 2 and 0, so the quadratic factor is
    exp(2*pi*1j*2/4) = -1 and the fractional factor is exp(0) = 1.
    """
    spec = BiQuadraticSpec(2, 2, (2, 0), (0, 0), (0, 0), 4)
    g, f = decompose_term(spec, 1, 0, 1)
    assert abs(g - (-1)) < 1e-12
    assert abs(f - 1) < 1e-12
    # product reproduces the raw term w_K^(e1 - e2) with e = residue // n
    e1 = spec.entry(1, 0)
    e2 = spec.entry(1, 1)
    raw = cmath.exp(2j * cmath.pi * (e1 - e2) / spec.K)
    assert abs(g * f - raw) < 1e-12


def test_decompose_term_fractional_factor_nontrivial():
    # B=1 makes residues odd for odd i, exercising the fractional part
    spec = BiQuadraticSpec(2, 2, (0, 0), (1, 0), (0, 0), 4)
    g, f = decompose_term(spec, 1, 0, 1)
    # residues: r1 = 1, r2 = 0; fractional exponent (r2%2 - r1%2) mod 4 = 3,
    # the order-4 root -1j; the linear-delta factor contributes +1j
    assert abs(f - (-1j)) < 1e-12
    assert abs(g - 1j) < 1e-12
    # floors are both 0, so the raw term is 1 and the factors cancel
    assert abs(g * f - 1) < 1e-12


def test_term_reconstruction_random():
    rng = random.Random(211)
    for _ in range(500):
        n = rng.randint(1, 4)
        K = rng.randint(1, 4)
        m = n * K
        C = rng.randint(2, 4)
        spec = BiQuadraticSpec(
            n,
            K,
            tuple(rng.randrange(m) for _ in range(C)),
            tuple(rng.randrange(m) for _ in range(C)),
            tuple(rng.randrange(m) for _ in range(C)),
            m,
        )
        i = rng.randrange(3 * m)
        j1, j2 = rng.sample(range(C), 2)
        g, f = decompose_term(spec, i, j1, j2)
        raw = cmath.exp(
            2j * cmath.pi * (spec.entry(i, j1) - spec.entry(i, j2)) / K
        )
        assert abs(g * f - raw) <= 1e-9
        assert abs(abs(g) - 1) < 1e-12 and abs(abs(f) - 1) < 1e-12


def test_trace_matches_direct_crosscorrelation():
    rng = random.Random(223)
    for _ in range(50):
        n = rng.randint(1, 3)
        K = rng.randint(2, 3)
        m = n * K
        C = rng.randint(2, 3)
        spec = BiQuadraticSpec(
            n,
            K,
            tuple(rng.randrange(m) for _ in range(C)),
            tuple(rng.randrange(m) for _ in range(C)),
            tuple(rng.randrange(m) for _ in range(C)),
            m,
        )
        tau = rng.randrange(m)
        trace = trace_crosscorrelation(spec, 0, 1, tau)
        arr = spec.generate_array()
        u = PhaseSequence(K, arr.column(0))
        v = PhaseSequence(K, arr.column(1))
        direct = complex(crosscorrelate(u, v).value(tau))
        assert abs(trace.final_sum - direct) <= 1e-9 * m
        assert abs(complex(trace.exact_sum) - direct) <= 1e-9 * m
        # partials are cumulative
        acc = 0j
        for term in trace.terms:
            acc += term.product
            assert abs(term.partial - acc) < 1e-12
        assert len(trace.terms) == spec.rows


def test_from_floored_index_agrees_with_direct_generation():
    rng = random.Random(227)
    for _ in range(30):
        n = rng.randint(1, 3)
        K = rng.randint(2, 3)
        m = n * K
        vec = [rng.randrange(m) for _ in range(9)]
        f = FlooredIndex(PolyIndex.from_coeff_vector(m, 2, 2, vec), n, K)
        cols = rng.randint(1, m)
        spec = BiQuadraticSpec.from_floored_index(f, m, cols)
        assert spec.generate_array().exponents == generate_floored_array(
            f, m, cols
        ).exponents


def test_from_floored_index_rejects_cubic_rows():
    f = FlooredIndex(PolyIndex(6, {(3, 0): 1}), 2, 3)
    with pytest.raises(ValueError):
        BiQuadraticSpec.from_floored_index(f, 6, 2)


def test_collapse_check_positive():
    """All quadratic coefficients divisible by n: the quadratic factor is
    K-periodic in the row index and the certificate verifies exactly."""
    spec = BiQuadraticSpec(2, 2, (2, 0), (0, 0), (0, 0), 4)
    report = collapse_check(spec)
    assert report.collapsed
    assert report.period_verified
    # per-column values and unordered pair deltas
    assert report.checked_pairs == 3


def test_collapse_check_negative():
    spec = BiQuadraticSpec(2, 2, (1, 0), (0, 0), (0, 0), 4)
    report = collapse_check(spec)
    assert not report.collapsed
    assert not report.period_verified
    assert report.checked_pairs == 0


def test_collapse_check_all_residues():
    # every multiple of n as a quadratic coefficient, all deltas covered
    for n in (1, 2, 3, 4):
        for K in (1, 2, 3, 4):
            a_values = tuple(n * t for t in range(K))
            spec = BiQuadraticSpec(
                n, K, a_values, (0,) * K, (0,) * K, n * K
            )
            report = collapse_check(spec)
            assert report.collapsed and report.period_verified, (n, K)


def test_spec_validation():
    with pytest.raises(ValueError):
        BiQuadraticSpec(0, 2, (0,), (0,), (0,), 4)
    with pytest.raises(ValueError):
        BiQuadraticSpec(2, 2, (0, 0), (0,), (0,), 4)
    with pytest.raises(ValueError):
        BiQuadraticSpec(2, 2, (0,), (0,), (0,), 0)
    with pytest.raises(ValueError):
        decompose_term(BiQuadraticSpec(2, 2, (0, 0), (0, 0), (0, 0), 4), 0, 0, 2)


def test_trace_csv_schema():
    spec = BiQuadraticSpec(2, 2, (2, 0), (0, 0), (0, 0), 4)
    trace = trace_crosscorrelation(spec, 0, 1, 0)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "i,gauss_re,gauss_im,frac_re,frac_im,prod_re,prod_im,partial_re,partial_im"
    )
    assert len(lines) == 1 + spec.rows
    row = lines[1].split(",")
    assert len(row) == 9
    assert int(row[0]) == 0
    # floats round-trip through repr
    assert float(lines[2].split(",")[1]) == trace.terms[1].gaussian.real


def test_survey_bookkeeping():
    report = fractional_dependence_survey(2, 2, budget=120, seed=5)
    assert report.specs_examined == 120
    assert report.condition1_passes <= report.specs_examined
    assert (
        report.fractional_dependent_passes + report.gaussian_only_passes
        == report.condition1_passes
    )
    assert report.c_values == (3, 4)
    # deterministic under a fixed seed
    again = fractional_dependence_survey(2, 2, budget=120, seed=5)
    assert again == report


@pytest.mark.parametrize("seed, counts", [
    (0, (3000, 276, 213, 63)),
    (1, (3000, 263, 193, 70)),
    (2, (3000, 275, 195, 80)),
])
def test_survey_counts_are_pinned(seed, counts):
    """Frozen tallies (examined, passes, dependent, gaussian only); they were
    the same when a Gaussian-only sum was judged by float magnitude, so the
    exact zero test changed no verdict on these samples."""
    report = fractional_dependence_survey(2, 2, budget=3000, seed=seed)
    assert (
        report.specs_examined,
        report.condition1_passes,
        report.fractional_dependent_passes,
        report.gaussian_only_passes,
    ) == counts
