"""The array orthogonality property (AOP) and perfection predicates.

An R x C array has the AOP for its own divisor C when

  1. every pair of distinct columns is orthogonal at every cyclic shift, and
  2. the column autocorrelations sum to zero at every off-peak vertical shift.

Both conditions are decided exactly.  Violations come with a witness (a column
pair and shift, or a shift) found by a fixed lexicographic scan, so verdicts
are reproducible and any reported witness re-evaluates to a nonzero
correlation.

The harness checks turn the structural facts this package is built around
into executable implications: AOP forces the flattened sequence to be perfect,
and a perfect array forces both axis projections to be perfect with the
projection peak equal to the array peak R*C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cyclotomic import CyclotomicInt, counts_is_zero
from .correlation import (
    _array_shift_terms,
    _array_shifts,
    _sequence_shifts,
    _value_shifts,
    autocorrelate_2d,
    diff_counts,
    product_counts,
    projection_autocorrelate,
)
from .seqmodel import (
    PhaseArray,
    PhaseSequence,
    ProjectionSequence,
    column_sum,
    flatten,
    row_sum,
)

__all__ = [
    "AopVerdict",
    "check_condition_1",
    "check_condition_2",
    "check_aop",
    "is_perfect_sequence",
    "is_perfect_array",
    "is_perfect_projection",
    "is_degenerate_projection",
    "aop_implies_perfect",
    "perfect_array_projection_check",
]

CONDITION_1 = "condition-1"
CONDITION_2 = "condition-2"


@dataclass(frozen=True)
class AopVerdict:
    """Outcome of an AOP check.

    `witness` is (j0, j1, tau) for a condition-1 violation and (tau,) for a
    condition-2 violation; it is the first violation in lexicographic scan
    order and re-evaluates to a nonzero exact correlation.
    """

    holds: bool
    failing_condition: Optional[str]
    witness: Optional[tuple[int, ...]]
    divisor: int

    def __post_init__(self) -> None:
        if self.holds != (self.failing_condition is None):
            raise ValueError("verdict holds iff no failing condition is recorded")


def _condition_1_witness(
    cols: list[tuple[int, ...]], rows: int, order: int
) -> Optional[tuple[int, int, int]]:
    # theta_{v,u}(-tau) = conj(theta_{u,v}(tau)): a failure at a pair with
    # j0 > j1 is mirrored by one at (j1, j0, -tau mod R), which comes earlier
    # in lexicographic order, so scanning only j0 < j1 finds the same witness.
    C = len(cols)
    for j0 in range(C):
        for j1 in range(j0 + 1, C):
            u, v = cols[j0], cols[j1]
            for tau in range(rows):
                if not counts_is_zero(diff_counts(((u, v, tau),), order), order):
                    return (j0, j1, tau)
    return None


def _condition_2_witness(
    cols: list[tuple[int, ...]], rows: int, order: int
) -> Optional[tuple[int]]:
    for tau in range(1, rows):
        counts = diff_counts([(col, col, tau) for col in cols], order)
        if not counts_is_zero(counts, order):
            return (tau,)
    return None


def check_condition_1(array: PhaseArray) -> AopVerdict:
    """Mutual orthogonality of all distinct column pairs at all shifts.

    Scans (j0, j1, tau) lexicographically over j0 < j1, which finds the same
    first witness as a scan over all j0 != j1; a single column holds
    vacuously.
    """
    witness = _condition_1_witness(array.columns(), array.rows, array.order)
    if witness is None:
        return AopVerdict(True, None, None, array.cols)
    return AopVerdict(False, CONDITION_1, witness, array.cols)


def check_condition_2(array: PhaseArray) -> AopVerdict:
    """Columns form a complementary set: their autocorrelations sum to zero
    at every vertical shift not divisible by R (vacuous for R = 1)."""
    witness = _condition_2_witness(array.columns(), array.rows, array.order)
    if witness is None:
        return AopVerdict(True, None, None, array.cols)
    return AopVerdict(False, CONDITION_2, witness, array.cols)


def check_aop(array: PhaseArray) -> AopVerdict:
    """Both AOP conditions, condition 1 first."""
    verdict = check_condition_1(array)
    if not verdict.holds:
        return verdict
    return check_condition_2(array)


# The three perfection predicates zero-test their off-peak shifts in order
# and stop at the first nonzero one.  They compute the first off-peak shift
# directly: a random input almost always fails there and packs nothing.
# Only when it vanishes do they read the later shifts from the shape's
# all-shift helper, which packs them when that pays.


def is_perfect_sequence(seq: PhaseSequence) -> bool:
    """All off-peak exact autocorrelations are zero."""
    exps, n = seq.exponents, seq.order
    if len(exps) == 1:
        return True
    if not counts_is_zero(diff_counts(((exps, exps, 1),), n), n):
        return False
    return all(counts_is_zero(c, n) for c in _sequence_shifts(exps, exps, n, 2))


def is_perfect_array(array: PhaseArray) -> bool:
    """All off-peak entries of the 2D autocorrelation are zero, tested in
    row-major (v, h) order up to the first nonzero one."""
    n = array.order
    if array.rows * array.cols == 1:
        return True
    if not counts_is_zero(diff_counts(next(_array_shift_terms(array, 1)), n), n):
        return False
    return all(counts_is_zero(c, n) for c in _array_shifts(array, 2))


def is_perfect_projection(proj: ProjectionSequence) -> bool:
    """All off-peak autocorrelations of the cyclotomic values are zero.

    An identically-zero projection passes with peak 0; use
    `is_degenerate_projection` to tell that case apart from ordinary
    perfection.
    """
    values, n = proj.values, proj.order
    if len(values) == 1:
        return True
    if not counts_is_zero(product_counts(values, 1, n), n):
        return False
    return all(counts_is_zero(c, n) for c in _value_shifts(values, n, 2))


def is_degenerate_projection(proj: ProjectionSequence) -> bool:
    """True when every projection value is zero in the ring (peak energy 0)."""
    return all(v.is_zero() for v in proj.values)


def aop_implies_perfect(array: PhaseArray) -> bool:
    """Implication harness: AOP holding forces the flattened sequence to be
    perfect.  Returns the implication's truth (vacuously True when the AOP
    fails); a False return would refute the implication on this input."""
    if not check_aop(array).holds:
        return True
    return is_perfect_sequence(flatten(array))


def perfect_array_projection_check(array: PhaseArray) -> bool:
    """Implication harness for projection inheritance.

    If the array's 2D autocorrelation is perfect, then both axis projections
    must be perfect, the column-sum peak must equal the array peak R*C
    exactly, and (entries being unimodular) the projection cannot be
    degenerate.  Vacuously True for imperfect arrays.
    """
    if not is_perfect_array(array):
        return True
    cols_proj = column_sum(array)
    rows_proj = row_sum(array)
    if not (is_perfect_projection(cols_proj) and is_perfect_projection(rows_proj)):
        return False
    if is_degenerate_projection(cols_proj):
        return False
    peak = projection_autocorrelate(cols_proj).peak()
    array_peak = CyclotomicInt.integer(array.order, array.rows * array.cols)
    if not peak.equals(array_peak):
        return False
    if not peak.equals(autocorrelate_2d(array).peak()):
        return False
    return True
