"""Factor analysis of column correlations for floored bi-quadratic arrays.

Arrays here have entries omega_K^floor(p(i,j)/n) with a per-column quadratic
p(i,j) = A(j) i^2 + B(j) i + C(j) taken mod nK.  Each cross-correlation term
between two columns splits through the identity floor(x) = x - {x} into

    exp(2 pi I (p1 - p2)/(nK)) * exp(-2 pi I ({p1/n} - {p2/n})/K)

a quadratic (gaussian) phase running over the extended period nK, times a
factor carrying only the fractional parts {p/n}.  Fractional parts are
computed exactly as (p mod n)/n on the canonical representative of p in
[0, nK), never by float remainder, so both factors are roots of unity of
order nK and the split is exact.

When every A(j) is a multiple of n the quadratic term degenerates:
Delta A i^2/(nK) = (Delta A/n) i^2/K, and its period in i collapses from nK
to K.  `collapse_check` certifies that collapse with exact integer
congruences plus a float confirmation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .aop import _condition_1_witness, check_condition_1
from .cyclotomic import CyclotomicInt, root_table
from .indexfn import FlooredIndex
from .seqmodel import PhaseArray

__all__ = [
    "BiQuadraticSpec",
    "ScatterTerm",
    "ScatterTrace",
    "CollapseReport",
    "SurveyReport",
    "decompose_term",
    "trace_crosscorrelation",
    "collapse_check",
    "write_trace_csv",
    "fractional_dependence_survey",
]

RECONSTRUCT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BiQuadraticSpec:
    """Per-column quadratic coefficients as value tables over [0, cols).

    A, B, Cc need not come from a polynomial in j; any integer tables define
    an array.  All three are stored reduced mod n*K.
    """

    n: int
    K: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    Cc: tuple[int, ...]
    rows: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.K < 1:
            raise ValueError("n and K must be positive")
        if self.rows < 1:
            raise ValueError("rows must be positive")
        if not self.A or len(self.A) != len(self.B) or len(self.A) != len(self.Cc):
            raise ValueError("A, B, Cc must be non-empty tables of equal length")
        m = self.n * self.K
        for name in ("A", "B", "Cc"):
            object.__setattr__(self, name, tuple(v % m for v in getattr(self, name)))

    @property
    def period(self) -> int:
        return self.n * self.K

    @property
    def cols(self) -> int:
        return len(self.A)

    @classmethod
    def from_floored_index(
        cls, f: FlooredIndex, rows: int, cols: int
    ) -> "BiQuadraticSpec":
        """Read the per-column quadratics off a floored index function with
        degree at most 2 in the row variable."""
        if f.poly.max_degree[0] > 2:
            raise ValueError(
                f"row degree {f.poly.max_degree[0]} exceeds the quadratic form"
            )
        m = f.poly.modulus
        tables: list[tuple[int, ...]] = []
        for a in (2, 1, 0):
            row_coeffs = [f.poly.coeffs.get((a, b), 0) for b in range(f.poly.max_degree[1] + 1)]
            values = []
            for j in range(cols):
                acc = 0
                for c in reversed(row_coeffs):
                    acc = (acc * j + c) % m
                values.append(acc)
            tables.append(tuple(values))
        return cls(f.divisor, f.base_order, tables[0], tables[1], tables[2], rows)

    def column_residue(self, j: int, i: int) -> int:
        """Canonical representative of p(i, j) in [0, n*K)."""
        return (self.A[j] * i * i + self.B[j] * i + self.Cc[j]) % self.period

    def entry(self, i: int, j: int) -> int:
        return self.column_residue(j, i) // self.n

    def generate_array(self) -> PhaseArray:
        """The array over the base alphabet K that these tables describe."""
        exps = [self.entry(i, j) for i in range(self.rows) for j in range(self.cols)]
        return PhaseArray(self.K, self.rows, self.cols, tuple(exps))


@dataclass(frozen=True)
class ScatterTerm:
    """One row's contribution to a column cross-correlation, factored."""

    i: int
    gaussian: complex
    fractional: complex
    product: complex
    partial: complex


@dataclass(frozen=True)
class ScatterTrace:
    """Per-row factored walk of one column pair's cross-correlation.

    final_sum is the float walk endpoint; exact_sum is the same value in
    Z[omega_{nK}].  Construction validates each term's reconstruction and
    the endpoint agreement, so a held trace is internally consistent.
    """

    j1: int
    j2: int
    tau: int
    terms: tuple[ScatterTerm, ...]
    final_sum: complex
    exact_sum: CyclotomicInt


@dataclass(frozen=True)
class CollapseReport:
    """Outcome of the quadratic-phase collapse test.

    collapsed: every A(j) is a multiple of n.
    period_verified: when collapsed, the quadratic factor satisfied
    factor(i + K) == factor(i) for all i in [0, nK), exactly and in floats,
    for every column pair difference and every single column.
    """

    collapsed: bool
    period_verified: bool
    checked_pairs: int


def _column_pair_guard(spec: BiQuadraticSpec, j1: int, j2: int) -> None:
    if j1 == j2:
        raise ValueError("column pair must be distinct")
    for j in (j1, j2):
        if not 0 <= j < spec.cols:
            raise ValueError(f"column {j} outside [0, {spec.cols})")


def decompose_term(
    spec: BiQuadraticSpec, i: int, j1: int, j2: int
) -> tuple[complex, complex]:
    """The two aligned factors for row i of the (j1, j2) cross-correlation.

    The quadratic factor is built from the coefficient differences
    Delta A i^2 + Delta B i + Delta C; the fractional factor from the exact
    fractional parts of the two canonical residues.  Their product equals
    omega_K^(e1 - e2) for the generated entries.
    """
    _column_pair_guard(spec, j1, j2)
    m = spec.period
    roots = root_table(m)
    da = spec.A[j1] - spec.A[j2]
    db = spec.B[j1] - spec.B[j2]
    dc = spec.Cc[j1] - spec.Cc[j2]
    gaussian = roots[(da * i * i + db * i + dc) % m]
    r1 = spec.column_residue(j1, i)
    r2 = spec.column_residue(j2, i)
    fractional = roots[(r2 % spec.n - r1 % spec.n) % m]
    return gaussian, fractional


def trace_crosscorrelation(
    spec: BiQuadraticSpec, j1: int, j2: int, tau: int = 0
) -> ScatterTrace:
    """Factored per-row walk of theta_{S[j1], S[j2]}(tau).

    tau = 0 is the aligned form; a nonzero tau pairs row i with row
    (i + tau) mod rows, in which case the quadratic factor is computed from
    the pointwise residue difference (the aligned coefficient-difference
    form only applies without wraparound).
    """
    _column_pair_guard(spec, j1, j2)
    n, m, R = spec.n, spec.period, spec.rows
    roots = root_table(m)
    counts = [0] * m
    terms = []
    partial = 0j
    for i in range(R):
        i2 = (i + tau) % R
        r1 = spec.column_residue(j1, i)
        r2 = spec.column_residue(j2, i2)
        gaussian = roots[(r1 - r2) % m]
        fractional = roots[(r2 % n - r1 % n) % m]
        exponent = (n * (r1 // n - r2 // n)) % m
        product = gaussian * fractional
        if abs(product - roots[exponent]) > RECONSTRUCT_TOLERANCE:
            raise AssertionError(
                f"factor product drifted from the direct term at row {i}: "
                f"{product!r} vs {roots[exponent]!r}"
            )
        counts[exponent] += 1
        partial += product
        terms.append(ScatterTerm(i, gaussian, fractional, product, partial))
    exact = CyclotomicInt(m, tuple(counts))
    if abs(partial - complex(exact)) > RECONSTRUCT_TOLERANCE * R:
        raise AssertionError(
            f"walk endpoint {partial!r} disagrees with the exact sum {complex(exact)!r}"
        )
    return ScatterTrace(j1, j2, tau, tuple(terms), partial, exact)


def collapse_check(spec: BiQuadraticSpec) -> CollapseReport:
    """Detect the A(j) = 0 mod n constraint and certify its consequence.

    When the constraint holds, every quadratic-factor difference Delta A is
    a multiple of n, so Delta A ((i+K)^2 - i^2) = (Delta A/n) nK (2i + K)
    vanishes mod nK: the factor's period in i drops from nK to K.  Checked
    as an exact congruence and re-checked in floats at every i in [0, nK),
    for each single column and each unordered column pair.
    """
    n, m, K = spec.n, spec.period, spec.K
    if any(a % n != 0 for a in spec.A):
        return CollapseReport(False, False, 0)
    roots = root_table(m)
    verified = True
    pairs = 0
    deltas = [spec.A[j] % m for j in range(spec.cols)]
    deltas += [
        (spec.A[j1] - spec.A[j2]) % m
        for j1 in range(spec.cols)
        for j2 in range(j1 + 1, spec.cols)
    ]
    for delta in deltas:
        pairs += 1
        for i in range(m):
            lhs = delta * (i + K) * (i + K) % m
            rhs = delta * i * i % m
            if lhs != rhs or abs(roots[lhs] - roots[rhs]) > RECONSTRUCT_TOLERANCE:
                verified = False
    return CollapseReport(True, verified, pairs)


def write_trace_csv(trace: ScatterTrace, stream: TextIO) -> None:
    stream.write(
        "i,gauss_re,gauss_im,frac_re,frac_im,prod_re,prod_im,partial_re,partial_im\n"
    )
    for t in trace.terms:
        stream.write(
            f"{t.i},{t.gaussian.real!r},{t.gaussian.imag!r},"
            f"{t.fractional.real!r},{t.fractional.imag!r},"
            f"{t.product.real!r},{t.product.imag!r},"
            f"{t.partial.real!r},{t.partial.imag!r}\n"
        )


@dataclass(frozen=True)
class SurveyReport:
    """Sampled census of when column orthogonality leans on the fractional
    factor.  Counts are reported, never asserted: the underlying claim is
    heuristic and the sample is random, not exhaustive."""

    n: int
    K: int
    rows: int
    c_values: tuple[int, ...]
    budget: int
    seed: int
    specs_examined: int
    condition1_passes: int
    fractional_dependent_passes: int
    gaussian_only_passes: int


def fractional_dependence_survey(
    n: int,
    K: int,
    c_values: Optional[Sequence[int]] = None,
    budget: int = 2000,
    seed: int = 0,
) -> SurveyReport:
    """Sample bi-quadratic specs with rows = nK and C > K and count how many
    mutually-orthogonal-column specs would lose orthogonality without the
    fractional factor.

    A pass "depends" on the fractional factor when some column pair has a
    quadratic-factor-only sum, a sum of (nK)-th roots of unity, that is
    nonzero at some shift, decided exactly by the cyclotomic zero test; a
    "gaussian only" pass stays orthogonal on the quadratic factors alone.
    """
    m = n * K
    R = m
    if c_values is None:
        c_values = tuple(range(K + 1, m + 1))
    else:
        c_values = tuple(c_values)
        for c in c_values:
            if not 2 <= c <= m:
                raise ValueError(f"column counts must lie in [2, {m}], got {c}")
    rng = random.Random(seed)
    examined = 0
    passes = 0
    dependent = 0
    gaussian_only = 0
    for _ in range(budget):
        C = c_values[rng.randrange(len(c_values))]
        tables = [tuple(rng.randrange(m) for _ in range(C)) for _ in range(3)]
        spec = BiQuadraticSpec(n, K, tables[0], tables[1], tables[2], R)
        examined += 1
        if not check_condition_1(spec.generate_array()).holds:
            continue
        passes += 1
        residues = [tuple(spec.column_residue(j, i) for i in range(R)) for j in range(C)]
        if _condition_1_witness(residues, R, m) is not None:
            dependent += 1
        else:
            gaussian_only += 1
    return SurveyReport(
        n,
        K,
        R,
        c_values,
        budget,
        seed,
        examined,
        passes,
        dependent,
        gaussian_only,
    )
