"""Periodic correlation kernels, exact.

All shifts are cyclic.  A correlation of unimodular entries is a vector of
term counts, one per exponent difference, interpreted in Z[w]; zero verdicts
then reduce to the cyclotomic zero test.  Correlations of full cyclotomic
integers (projections) are ring products, whose coefficients land at the
differences of exponents the same way.  Every count vector comes from one
of two kernels:

- The per-shift kernels give one shift at a time: `diff_counts` for
  exponent differences (one shift, or a sum of shifted pairs) and
  `product_counts` for ring products.  They are the reference, and every
  early-exit scanner and search path uses `diff_counts`.
- The packed all-shift kernel (`_pack`, `_pack_values`, `_shift_counts`)
  gives the counts of every shift from one big-integer product.  Each
  sequence becomes one integer with a byte lane for each (position,
  exponent slot) pair; after the multiplication, two masked adds fold
  positions mod L and slots mod n, and one `to_bytes` yields the counts
  (Kronecker substitution; Harvey, J. Symbolic Comput. 2009).  A lane is 1,
  2, 4 or 8 bytes, the narrowest that holds the exact number of terms per
  shift, so no count is truncated.  `_packed_pays` decides where it is
  used: the direct loop's term count, times a constant fitted on a timing
  grid, must exceed the summed Karatsuba cost size^log2(3) of the packed
  products.  Small orders qualify, but orders of 32 and above rarely do,
  because each position carries 2n lanes.

Each correlation shape on the verify path has one all-shift helper that
makes that choice: `_sequence_shifts` for exponent sequences,
`_array_shifts` for the 2D autocorrelation of an array and `_value_shifts`
for sequences of `CyclotomicInt` values (which pack only when every
coefficient is nonnegative, as in column sums).  Each returns the count
vectors of every shift from a given one on, in order; on the per-shift
route it computes each shift only when it is read.  The profile builders
(`crosscorrelate`/`autocorrelate`, `autocorrelate_2d`,
`projection_autocorrelate`) read every shift from it.  The perfection
predicates of `aop` compute their first off-peak shift directly, so a
random input, which almost always fails there, packs nothing; only when
that shift vanishes do they read the rest from the helper, still
zero-testing shift by shift up to the first nonzero one.  A float profile
is a view of the exact counts (`CorrelationProfile.to_complex`) and never
decides a verdict.

Two-dimensional shifts are ordered (vertical, horizontal) everywhere: the
profile entry for shift pair (v, h) sits at flat index v*C + h.  Sources vary
on this ordering; this package states the convention once and sticks to it.

Each flattening identity is written once as a single-shift helper
(`_decomposition_holds`, `_projection_sum_holds`), which the public
single-shift checks call.  `decomposition_check_all` reads its two sides
from the shape helpers, shift by shift: the flattening's autocorrelation
from `_sequence_shifts`, the column side from the carry form of
`_array_shifts`.  `projection_sum_check_all` builds its inputs once and
either calls its helper at every shift or packs both sides itself: the
projection's coefficient lanes, and the summed column packings.  The two
sides of each identity stay independent computations.  `_ring_equal`
compares the two sides as count vectors first: both sides expand to the
same multiset of terms w^(u - v), one per pair of entries (each identity
is a bijection of terms), so their counts are equal whenever both sides
are computed right.  The zero test of the difference runs only when the
counts differ (or under the concordance audit, which cross-checks every
zero test), and equal counts are equal ring elements, so the verdict is
the one the zero test alone would give.

The direct O(L^2) accumulation is the reference path for every verdict.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain
from operator import sub

from .cyclotomic import CyclotomicInt, audit, counts_is_zero, counts_to_complex
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


# --- packed all-shift kernel ------------------------------------------------
#
# One exponent sequence becomes one integer with a byte-aligned lane for each
# (position, slot) pair and 2*order slots per position.  The left factor is
# reversed with slot u_i, the right factor has slot order - v_j, so the term
# w^(u_i - v_j) of their product lands at position L-1-i+j and slot
# u_i - v_j + order, which never reaches the next position.  Folding the
# positions mod L (position L-1+tau holds shift tau) and the slots mod order
# then leaves, in lane (tau, k), the count `diff_counts` puts at k for shift
# tau.  The lane width comes from an exact bound on the terms per shift, and
# the lanes only ever add, so no lane overflows into its neighbour.

_LANE_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_bytes(bound: int) -> int:
    """Narrowest lane that holds every count up to `bound` terms per shift."""
    return next(lane for lane in _LANE_FORMAT if bound < 1 << 8 * lane)


def _pack(exps, order: int, lane: int, left: bool) -> int:
    """The packed left (reversed, slot u_i) or right (slot order - v_j)
    factor of an exponent sequence; on the left, a position holding None
    stays empty."""
    step = 2 * order * lane
    buf = bytearray(len(exps) * step)
    if left:
        for base, e in zip(range(0, len(buf), step), reversed(exps)):
            if e is not None:
                buf[base + e * lane] = 1
    else:
        for base, e in zip(range(0, len(buf), step), exps):
            buf[base + (order - e) * lane] = 1
    return int.from_bytes(buf, "little")


def _pack_values(coeffs, order: int, lane: int, left: bool) -> int:
    """The packed left (reversed) or right (conjugated) factor of a sequence
    of nonnegative coefficient vectors, each bounded by the lane: the
    coefficient of w^e sits in slot e on the left and in slot order - e on
    the right, as a unit w^e of `_pack` does."""
    pad = (0,) * order
    if left:
        lanes = chain.from_iterable(c + pad for c in reversed(coeffs))
    else:
        lanes = chain.from_iterable((0,) + c[:0:-1] + c[:1] + pad[1:] for c in coeffs)
    return int.from_bytes(
        struct.pack(f"<{2 * order * len(coeffs)}{_LANE_FORMAT[lane]}", *lanes), "little"
    )


def _shift_counts(product: int, length: int, order: int, lane: int) -> list[tuple]:
    """Unpack a sum of packed products of length-`length` factors into the
    count vector of every shift tau, in order."""
    pos_bits = 16 * order * lane
    low = (length - 1) * pos_bits
    product = (product >> low) + ((product & ((1 << low) - 1)) << pos_bits)
    half = order * lane
    mask = int.from_bytes((b"\xff" * half + bytes(half)) * length, "little")
    product = (product & mask) + ((product >> 8 * half) & mask)
    step = 2 * order
    lanes = struct.unpack(
        f"<{step * length}{_LANE_FORMAT[lane]}", product.to_bytes(2 * half * length, "little")
    )
    return [lanes[i : i + order] for i in range(0, step * length, step)]


# Packed or per-shift: CPython multiplies integers above 70 digits by
# Karatsuba, so one product of two b-byte factors costs about b^log2(3),
# while the per-shift loop costs one step per term.  A call site takes the
# packed path when its direct terms times _TERM_COST exceed the summed
# b^log2(3) of the products it would multiply.  _TERM_COST was fitted on a
# 2-vCPU x86-64 host under CPython 3.11 by timing both paths of the 1D
# profile and the two identity checks at orders 2-64 and shapes 1x2 to
# 64x16 (714 timings); summed over the grid the rule took 11.98 s against
# 11.93 s for the faster path of each case and 30.8 s for the per-shift
# loop.  The 2D and the cyclotomic-value helpers reuse the constant.
# Direct/packed time ratios for one length-L sequence pair (L = 4, 16, 64,
# 128; 256 with two-byte lanes):
#   order 2   0.89  3.6  13.1  20.2  21.8
#   order 15  0.64  1.2   2.3   3.1   1.3
#   order 32  0.38  0.55  0.75  1.02  0.43
#   order 64  0.25  0.23  0.28  0.37  0.16
# Most misroutes are arrays of 8 entries or fewer, where the packed path's
# fixed overhead outweighs its products and a call takes tens of
# microseconds (up to 2.3x slower packed).  The decomposition check reads
# the sequence and array helpers; on 12 orders (2-64) x 11 shapes (1x2 to
# 12x12) only its 1x2 arrays misroute, up to 1.25x slower packed.
_TERM_COST = 110
_KARATSUBA = math.log2(3)


def _packed_pays(terms: int, order: int, lane: int, length: int) -> bool:
    """Whether `terms` steps of the per-shift loop cost more than one packed
    product of two length-`length` factors."""
    return terms * _TERM_COST > (2 * order * lane * length) ** _KARATSUBA


def _unit_terms(values) -> list[list[tuple[int, int]]]:
    """The (exponent, coefficient) pairs of each value's nonzero
    coefficients."""
    return [[(e, c) for e, c in enumerate(v.coeffs) if c] for v in values]


def _term_products(terms, tau: int, order: int) -> list[int]:
    # conjugation maps w^e to w^(-e), so each pair of terms of values i and
    # i+tau lands at the difference of their exponents
    L = len(terms)
    acc = [0] * order
    for i, left in enumerate(terms):
        right = terms[(i + tau) % L]
        for e1, c1 in left:
            for e2, c2 in right:
                acc[(e1 - e2) % order] += c1 * c2
    return acc


def product_counts(vals, tau: int, order: int) -> list[int]:
    """Coefficients of sum_i vals[i] * conj(vals[i+tau]) for `CyclotomicInt`
    values, cyclic in len(vals)."""
    return _term_products(_unit_terms(vals), tau, order)


def _value_products(coeffs, order: int, lane: int) -> list[tuple]:
    """Every shift of sum_i x_i * conj(x_{i+tau}) from one packed product of
    nonnegative coefficient vectors whose counts per shift fit the lane."""
    packed = _pack_values(coeffs, order, lane, True) * _pack_values(coeffs, order, lane, False)
    return _shift_counts(packed, len(coeffs), order, lane)


# --- one all-shift route per correlation shape ------------------------------
#
# Each helper returns the count vectors of shifts start, start+1, ... in
# order.  When `_packed_pays`, all of them come from one packed product made
# at the call; otherwise each shift is computed as it is consumed, so a
# caller that stops at the first nonzero shift pays only for what it read.


def _sequence_shifts(u, v, order: int, start: int = 0):
    """sum_i w^(u_i - v_{i+tau}) for tau = start..L-1."""
    L = len(u)
    lane = _lane_bytes(L)
    if _packed_pays(L * L, order, lane, L):
        packed = _pack(u, order, lane, True) * _pack(v, order, lane, False)
        return _shift_counts(packed, L, order, lane)[start:]
    return (diff_counts(((u, v, tau),), order) for tau in range(start, L))


def _array_shift_terms(array: PhaseArray, start: int = 0, carry: bool = False):
    """Yield the `diff_counts` terms of the 2D autocorrelation at each shift
    pair (v, h), in row-major order from flat index `start`.

    With the columns laid end to end (column-major), column j meets column
    j+h shifted down by v exactly when the whole run meets the run of
    down-shifted columns rotated by h*R, so each shift pair is one term.
    With `carry`, the last h columns, whose partners wrap past column C-1,
    meet the columns shifted one row further down.
    """
    R, C = array.rows, array.cols
    cols = array.columns()
    run = tuple(chain.from_iterable(cols))

    def down(v: int) -> tuple:
        return tuple(chain.from_iterable(col[v % R :] + col[: v % R] for col in cols))

    for v in range(start // C, R):
        here = down(v)
        wrap = down(v + 1) if carry else here
        for h in range(max(start - v * C, 0), C):
            yield ((run, here[h * R :] + wrap[: h * R], 0),)


def _array_shifts(array: PhaseArray, start: int = 0, carry: bool = False):
    """The 2D autocorrelation at flat shifts start..R*C-1, row-major by (v, h).

    Packed, the array is one sequence of R rows of width W = 2C - 1: on the
    left each row is followed by C - 1 empty positions, on the right by its
    own first C - 1 entries.  Entry (i, j) on the left then meets entry
    (i', (j + h) mod C) at horizontal distance h for every h < C.  Folding
    the positions mod R*W puts shift (v, h) at position v*W + h.  Every
    other pair lands at a distance in [C, 2C - 2] mod W, and each position
    still sums R*C pairs, so lanes sized for R*C terms never overflow.

    With `carry`, each right row is followed by the next row's first C - 1
    entries instead (row 0's after the last), so (i, j) meets
    (i + v + (j + h)//C, (j + h) mod C): the decomposition identity's
    column side at (q', r') = (v, h).
    """
    n, R, C = array.order, array.rows, array.cols
    L, W = R * C, 2 * C - 1
    lane = _lane_bytes(L)
    if not _packed_pays(L * L, n, lane, R * W):
        return (diff_counts(terms, n) for terms in _array_shift_terms(array, start, carry))
    rows = [array.row(i) for i in range(R)]
    after = rows[1:] + rows[:1] if carry else rows
    left = tuple(chain.from_iterable(row + (None,) * (C - 1) for row in rows))
    right = tuple(chain.from_iterable(row + nxt[:-1] for row, nxt in zip(rows, after)))
    packed = _pack(left, n, lane, True) * _pack(right, n, lane, False)
    counts = _shift_counts(packed, R * W, n, lane)
    return [counts[v * W + h] for v in range(R) for h in range(C)][start:]


def _value_shifts(values, order: int, start: int = 0):
    """sum_i values[i] * conj(values[i+tau]) for tau = start..L-1.

    Only values whose coefficients are all nonnegative, as counts of roots
    of unity are, pack.  By Cauchy-Schwarz no shift sums more than
    sum_i s_i^2 unit products, s_i the coefficient sum of value i, which
    sizes the lane.  The per-shift cost is one step per pair of nonzero
    coefficients.
    """
    terms = _unit_terms(values)
    if all(c > 0 for value in terms for _, c in value):
        bound = sum(sum(c for _, c in value) ** 2 for value in terms)
        if bound < 1 << 64:
            lane = _lane_bytes(bound)
            pairs = sum(map(len, terms)) ** 2
            if _packed_pays(pairs, order, lane, len(values)):
                return _value_products([v.coeffs for v in values], order, lane)[start:]
    return (_term_products(terms, tau, order) for tau in range(start, len(values)))


def autocorrelate(seq: PhaseSequence) -> CorrelationProfile:
    """Exact periodic autocorrelation over shifts 0..L-1."""
    return crosscorrelate(seq, seq)


def _profile(order: int, shape: tuple[int, ...], counts) -> CorrelationProfile:
    return CorrelationProfile(order, shape, tuple(CyclotomicInt(order, tuple(c)) for c in counts))


def crosscorrelate(a: PhaseSequence, b: PhaseSequence) -> CorrelationProfile:
    """Exact periodic cross-correlation sum_i a_i * conj(b_{i+tau})."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    return _profile(a.order, (len(a),), _sequence_shifts(a.exponents, b.exponents, a.order))


def autocorrelate_2d(array: PhaseArray) -> CorrelationProfile:
    """Exact 2D periodic autocorrelation, indexed by shift pair (v, h): column
    j meets column j+h shifted down by v."""
    return _profile(array.order, (array.rows, array.cols), _array_shifts(array))


def projection_autocorrelate(proj: ProjectionSequence) -> CorrelationProfile:
    """Exact autocorrelation of a projection: entries are full cyclotomic
    integers, so each term is a genuine ring product, not an exponent shift."""
    return _profile(proj.order, (len(proj),), _value_shifts(proj.values, proj.order))


def _ring_equal(lhs, rhs, order: int) -> bool:
    # both identities pair the same multiset of terms w^(u - v) on their two
    # sides, so equal count vectors are the expected case; the zero test of
    # the difference decides only when the counts differ, or when the
    # concordance audit is on, which checks every zero test against floats
    if not audit.enabled and tuple(lhs) == tuple(rhs):
        return True
    return counts_is_zero(list(map(sub, lhs, rhs)), order)


def _decomposition_holds(seq, cols, qprime: int, rprime: int, order: int) -> bool:
    # the flattened sequence's autocorrelation against the column pairs
    C, R = len(cols), len(cols[0])
    tau = (qprime * C + rprime) % len(seq)
    lhs = diff_counts(((seq, seq, tau),), order)
    rhs = diff_counts(
        [(cols[r], cols[(r + rprime) % C], (qprime + (r + rprime) // C) % R) for r in range(C)],
        order,
    )
    return _ring_equal(lhs, rhs, order)


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
    """The identity of `decomposition_check` at every shift pair (q', r'):
    the flattening's autocorrelation at tau = q'C + r' against the carry
    form of the 2D autocorrelation at flat shift q'C + r', read in order."""
    seq, n = flatten(array).exponents, array.order
    lhs, rhs = _sequence_shifts(seq, seq, n), _array_shifts(array, carry=True)
    return all(_ring_equal(left, right, n) for left, right in zip(lhs, rhs))


def _projection_sum_holds(terms, cols, tau: int, order: int) -> bool:
    # ring products of the projection against exponent differences; summing
    # the 2D profile over every h pairs each column with every column
    lhs = _term_products(terms, tau, order)
    rhs = diff_counts([(u, v, tau) for u in cols for v in cols], order)
    return _ring_equal(lhs, rhs, order)


def projection_sum_check(array: PhaseArray, tau: int) -> bool:
    """Verify that the column-sum projection's autocorrelation at shift tau
    equals the sum over h of the 2D profile at (tau, h), exactly."""
    R = array.rows
    if not 0 <= tau < R:
        raise ValueError(f"tau must be in [0, {R}), got {tau}")
    terms = _unit_terms(column_sum(array).values)
    return _projection_sum_holds(terms, array.columns(), tau, array.order)


def projection_sum_check_all(array: PhaseArray) -> bool:
    """The identity of `projection_sum_check` at every vertical shift, with
    the projection and the columns built once."""
    values, cols, n = column_sum(array).values, array.columns(), array.order
    R, C = array.rows, array.cols
    lane = _lane_bytes(C * C * R)
    if not _packed_pays(C * C * R * R, n, lane, R):
        terms = _unit_terms(values)
        return all(_projection_sum_holds(terms, cols, tau, n) for tau in range(R))
    # each row sum counts C roots of unity, so the ring-product side sums at
    # most C*C*R unit products per shift and packs into the same lanes
    lhs = _value_products([v.coeffs for v in values], n, lane)
    # the product of the summed packings is, by distributivity, the sum of
    # the products of every ordered column pair
    rhs = _shift_counts(
        sum(_pack(col, n, lane, True) for col in cols)
        * sum(_pack(col, n, lane, False) for col in cols),
        R, n, lane,
    )
    return all(_ring_equal(left, right, n) for left, right in zip(lhs, rhs))
