"""Periodic correlation kernels, exact.

All shifts are cyclic.  Every correlation of unimodular entries goes through
one kernel, `diff_counts`, which accumulates each product as a single
exponent difference, so a correlation value is a vector of term counts
interpreted in Z[w]; zero verdicts then reduce to the cyclotomic zero test.
Correlations of full cyclotomic integers (projections) go through the one
ring-product kernel, `product_counts`.  A float profile is a view of the
exact counts (`CorrelationProfile.to_complex`) and never decides a verdict.

Two-dimensional shifts are ordered (vertical, horizontal) everywhere: the
profile entry for shift pair (v, h) sits at flat index v*C + h.  Sources vary
on this ordering; this package states the convention once and sticks to it.

The terms of the 2D autocorrelation at each (v, h) come from one generator,
`_array_shift_terms`, which `autocorrelate_2d` and the early-exit
`aop.is_perfect_array` both consume.  Each flattening identity is written
once, as a single-shift helper (`_decomposition_holds`,
`_projection_sum_holds`); the public single-shift checks call it, and the
`_all` forms call it at every shift with the flattening, the columns and
the projection built once per array.  The two sides of each identity stay
independent computations.

The direct O(L^2) accumulation is the reference path for every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import sub
from typing import TextIO

from .cyclotomic import CyclotomicInt, counts_is_zero, counts_to_complex, cyc_conj
from .seqmodel import PhaseArray, PhaseSequence, ProjectionSequence, column_sum, flatten

__all__ = [
    "CorrelationProfile",
    "autocorrelate",
    "crosscorrelate",
    "autocorrelate_2d",
    "projection_autocorrelate",
    "decomposition_check",
    "decomposition_check_all",
    "projection_sum_check",
    "projection_sum_check_all",
    "write_profile_csv",
]


@dataclass(frozen=True)
class CorrelationProfile:
    """Correlation values over one full period of shifts.

    `shape` is (L,) for sequences or (R, C) for arrays; 2D values are stored
    row-major by (v, h).  Values are `CyclotomicInt`s; `to_complex` is their
    advisory float view.
    """

    order: int
    shape: tuple[int, ...]
    values: tuple
    kind: str  # "auto" | "cross"

    @property
    def length(self) -> int:
        total = 1
        for s in self.shape:
            total *= s
        return total

    def value(self, *shift: int):
        """Value at a shift (one index for 1D, two for 2D), cyclically."""
        if len(shift) != len(self.shape):
            raise ValueError(f"expected {len(self.shape)} shift indices, got {len(shift)}")
        flat = 0
        for s, extent in zip(shift, self.shape):
            flat = flat * extent + (s % extent)
        return self.values[flat]

    def peak(self):
        return self.values[0]

    def is_perfect(self) -> bool:
        """True iff every off-peak value is exactly zero."""
        return all(v.is_zero() for v in self.values[1:])

    def has_hermitian_symmetry(self) -> bool:
        """Exact check that the value at shift t equals the conjugate of the
        value at shift -t (meaningful for autocorrelation profiles)."""
        if len(self.shape) == 1:
            (L,) = self.shape
            return all(
                self.values[t].equals(cyc_conj(self.values[(L - t) % L]))
                for t in range(L)
            )
        R, C = self.shape
        for v in range(R):
            for h in range(C):
                mirror = self.values[((R - v) % R) * C + ((C - h) % C)]
                if not self.values[v * C + h].equals(cyc_conj(mirror)):
                    return False
        return True

    def to_complex(self) -> list[complex]:
        """Advisory float view of the exact values."""
        return [counts_to_complex(v.coeffs, self.order) for v in self.values]


def diff_counts(terms, order: int) -> list[int]:
    """Term counts of the sum over `terms` of sum_i w^(u_i - v_{i+tau}).

    `terms` holds (u, v, tau) triples of exponent tuples and a shift; each
    term is cyclic in its own length.  Every exponent-difference correlation
    in the package is one call of this kernel.
    """
    counts = [0] * order
    for u, v, tau in terms:
        t = tau % len(v)
        for d in map(sub, u, v[t:] + v[:t] if t else v):
            counts[d % order] += 1
    return counts


def product_counts(vals, tau: int, order: int) -> list[int]:
    """Coefficients of sum_i vals[i] * conj(vals[i+tau]) for `CyclotomicInt`
    values, cyclic in len(vals): conjugation maps w^e to w^(-e), so each
    pair of terms lands at the difference of their exponents."""
    L = len(vals)
    acc = [0] * order
    for i in range(L):
        right = vals[(i + tau) % L].coeffs
        for e1, c1 in enumerate(vals[i].coeffs):
            if c1:
                for e2, c2 in enumerate(right):
                    if c2:
                        acc[(e1 - e2) % order] += c1 * c2
    return acc


def autocorrelate(seq: PhaseSequence) -> CorrelationProfile:
    """Exact periodic autocorrelation over shifts 0..L-1."""
    return crosscorrelate(seq, seq, _kind="auto")


def crosscorrelate(a: PhaseSequence, b: PhaseSequence, *, _kind: str = "cross") -> CorrelationProfile:
    """Exact periodic cross-correlation sum_i a_i * conj(b_{i+tau})."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    n = a.order
    values = tuple(
        CyclotomicInt(n, tuple(diff_counts(((a.exponents, b.exponents, tau),), n)))
        for tau in range(len(a))
    )
    return CorrelationProfile(n, (len(a),), values, _kind)


def _array_shift_terms(array: PhaseArray):
    """Yield the `diff_counts` terms of the 2D autocorrelation at each shift
    pair (v, h), in row-major order starting at the peak (0, 0).

    With the columns laid end to end (column-major), column j meets column
    j+h shifted down by v exactly when the whole run meets the run of
    down-shifted columns rotated by h*R, so each shift pair is one term.
    """
    R, C = array.rows, array.cols
    cols = array.columns()
    run = tuple(chain.from_iterable(cols))
    for v in range(R):
        down = tuple(chain.from_iterable(col[v:] + col[:v] for col in cols))
        for h in range(C):
            yield ((run, down, h * R),)


def autocorrelate_2d(array: PhaseArray) -> CorrelationProfile:
    """Exact 2D periodic autocorrelation, indexed by shift pair (v, h): column
    j meets column j+h shifted down by v."""
    n = array.order
    values = tuple(
        CyclotomicInt(n, tuple(diff_counts(terms, n))) for terms in _array_shift_terms(array)
    )
    return CorrelationProfile(n, (array.rows, array.cols), values, "auto")


def projection_autocorrelate(proj: ProjectionSequence) -> CorrelationProfile:
    """Exact autocorrelation of a projection: entries are full cyclotomic
    integers, so each term is a genuine ring product, not an exponent shift."""
    n = proj.order
    values = tuple(
        CyclotomicInt(n, tuple(product_counts(proj.values, tau, n)))
        for tau in range(len(proj))
    )
    return CorrelationProfile(n, (len(proj),), values, "auto")


def _decomposition_holds(seq, cols, qprime: int, rprime: int, order: int) -> bool:
    # the flattened sequence's autocorrelation against the column pairs
    C, R = len(cols), len(cols[0])
    tau = (qprime * C + rprime) % len(seq)
    lhs = diff_counts(((seq, seq, tau),), order)
    rhs = diff_counts(
        [(cols[r], cols[(r + rprime) % C], (qprime + (r + rprime) // C) % R) for r in range(C)],
        order,
    )
    return counts_is_zero(list(map(sub, lhs, rhs)), order)


def decomposition_check(array: PhaseArray, qprime: int, rprime: int) -> bool:
    """Verify the change-of-coordinates identity for shift tau = q'*C + r':

        theta_s(q'C + r') = sum_r theta_{S[r], S[(r+r') mod C]}(q' + (r+r')//C)

    with s the row-major flattening of the array.  This is an algebraic
    identity for any array; a False return indicates a kernel bug, which is
    exactly what makes it a useful property check.
    """
    C = array.cols
    if not 0 <= rprime < C:
        raise ValueError(f"rprime must be in [0, {C}), got {rprime}")
    return _decomposition_holds(
        flatten(array).exponents, array.columns(), qprime, rprime, array.order
    )


def decomposition_check_all(array: PhaseArray) -> bool:
    """The identity of `decomposition_check` at every shift pair (q', r'),
    with the flattening and the columns built once."""
    seq, cols = flatten(array).exponents, array.columns()
    return all(
        _decomposition_holds(seq, cols, qprime, rprime, array.order)
        for qprime in range(array.rows)
        for rprime in range(array.cols)
    )


def _projection_sum_holds(values, cols, tau: int, order: int) -> bool:
    # ring products of the projection against exponent differences; summing
    # the 2D profile over every h pairs each column with every column
    lhs = product_counts(values, tau, order)
    rhs = diff_counts([(u, v, tau) for u in cols for v in cols], order)
    return counts_is_zero(list(map(sub, lhs, rhs)), order)


def projection_sum_check(array: PhaseArray, tau: int) -> bool:
    """Verify that the column-sum projection's autocorrelation at shift tau
    equals the sum over h of the 2D profile at (tau, h), exactly."""
    R = array.rows
    if not 0 <= tau < R:
        raise ValueError(f"tau must be in [0, {R}), got {tau}")
    return _projection_sum_holds(column_sum(array).values, array.columns(), tau, array.order)


def projection_sum_check_all(array: PhaseArray) -> bool:
    """The identity of `projection_sum_check` at every vertical shift, with
    the projection and the columns built once."""
    values, cols = column_sum(array).values, array.columns()
    return all(
        _projection_sum_holds(values, cols, tau, array.order) for tau in range(array.rows)
    )


def write_profile_csv(profile: CorrelationProfile, stream: TextIO) -> None:
    """CSV export: shift index (or v,h pair), real part, imaginary part, and
    an exact-zero flag."""
    two_d = len(profile.shape) == 2
    stream.write("v,h,re,im,exact_zero\n" if two_d else "tau,re,im,exact_zero\n")
    as_complex = profile.to_complex()
    for flat, z in enumerate(as_complex):
        flag = "1" if profile.values[flat].is_zero() else "0"
        if two_d:
            v, h = divmod(flat, profile.shape[1])
            stream.write(f"{v},{h},{z.real!r},{z.imag!r},{flag}\n")
        else:
            stream.write(f"{flat},{z.real!r},{z.imag!r},{flag}\n")
