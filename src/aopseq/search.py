"""Deterministic exhaustive sweeps over index-function and raw sequence spaces.

Four families share one engine skeleton:

    poly            coefficient vectors mod n, entries omega_n^p(i,j)
    floored         coefficient vectors mod n*K, entries omega_K^floor(p/n)
    raw-phase       all exponent sequences of a given length over [0, n)
    raw-quaternion  all unit-quaternion sequences of a given length

Candidates live in a single lexicographic index space that is cut into fixed
blocks up front; workers process disjoint blocks and the parent consumes
their results in block order (printing a progress line every N blocks when
asked), so reports are identical for any worker count.  Nothing that
depends on scheduling (wall time, chunk accounting, audit tallies, worker
count) enters the canonical serialized report.

Index-function sweeps exploit that generated entries depend only on the cell
residues mod the period m (a floored entry is a function of p(i, j) mod m):
each candidate is collapsed to its m x m tile, and two prunes decide cells
without a verdict pass.  Column counts C > m are rejected because columns j
and j + m coincide (a column cannot be orthogonal to its own duplicate at
shift 0).  Row counts R >= 2m are rejected because condition 2 fails at shift
m: each column's autocorrelation there has at least R - m terms equal to 1
and m further unit terms, so the sum over C columns has real part at least
C (R - 2m), and at R = 2m every term is 1.  Rows m < R < 2m are not cut: a
column cut at such an R is not cyclically periodic, and its shift-m sum can
vanish.

A tile mod m is linear in the coefficient vector, so the vector is split
into a head (every coefficient but the last x-power row) and a tail (that
row), and the index is head * tails + tail.  The tails are one list per
sweep, lexicographic; the collapse restriction keeps only the tails whose
quadratic-row polynomial vanishes mod n on every residue.
The tail tiles are tabulated once per sweep in each process; a candidate's
tile is (head tile + tail tile) mod m, floored by n for the floored family.
Verdicts are memoized per column-phase class of the tile: every column is
shifted mod the alphabet order so that its row-0 entry is 0.  A constant
phase on a column multiplies its cross-correlations by a unit and leaves its
autocorrelation unchanged, so both AOP conditions keep their truth values
for every (R, C).  On top of that, verdict rows hold the class verdicts of a
head tile with every tail, so a candidate's verdicts are one lookup; tallies
are kept per verdict tuple.  A head tile is the tile of its last row's
digits, tabulated once per sweep, plus the tile of its other digits, rebuilt
only when those change.

Head tiles whose columns differ by constants share one row: a row is keyed
by the head tile with each column less the largest multiple of the divisor
(1 for poly, n for floored) in its row-0 entry.  Adding c_j to column j of a
poly head tile adds c_j to column j of every tile it composes; adding n q_j
to a floored one adds q_j mod K to the floored column.  Either way every
composed tile keeps its column-phase class, hence its verdicts.

Head tiles that differ by a tail tile share one row.  Let s (+) t be the
tail whose coefficients are those of tails s and t added digit-wise mod m.
Tiles are linear in the coefficients, so head tile h + tails[s] with tail t
composes to h + tails[s (+) t], the tile of h with tail s (+) t: slot t of
its row is slot s (+) t of h's row.  The tails s whose tile is itself a
head tile, the only ones for which h + tails[s] is ever a head tile, are
those with deg_x! q_s(j) = 0 mod m at every j, q_s being the tail's
polynomial in y (falling-factorial normal form; Singmaster 1974).  When a
head tile h with a new row key appears, its row is filled whole, one class
verdict per tail, and the key of h + tails[s] is registered for each such
s with its own copy of that row permuted by s's index map t -> s (+) t.
Every row key thus maps to a complete list of verdicts, and a sweep
composes one tile per (coset of row keys, tail) rather than one per (head
tile, tail).

A class's verdicts are read off two tables, over its tile columns doubled
(so every R < 2m cuts them without wrapping) and the row counts R < 2m in
range.  The pair table maps a column pair (u, v) to a bitmask of the R at
which u and v cut to R rows are orthogonal at every cyclic shift.  The
prefix table maps a tile's first c columns to two masks: the R at which
they pass condition 1, which is the first c - 1 columns' mask ANDed with
the pair masks of column c - 1 with each earlier column; and, among those,
the R at which they also pass condition 2, whose summed autocorrelations
are zero-tested shift by shift up to the first nonzero one.  A class's
verdict at (R, C) is bit R of its C-prefix's second mask, and a class whose
condition-1 mask empties at some C reads no longer prefix.  A class's
verdicts at C depend on its first C columns alone, so classes share most of
their pairs and prefixes.  The class memo and both tables live for the
whole sweep in each process (the serial loop or one pool worker) and never
across sweeps.

Every block returns compact hit records (global index, payload) in
ascending index order.  The payload is the verdicts tuple for poly and
floored sweeps (one hit per verdict), the AOP divisors for raw-phase, and
the conventions for raw-quaternion.  Blocks that cut an index range (poly,
floored, raw-phase) spend one hit room per process: a process runs its
blocks in ascending order (`pool.map` hands them out in order, the serial
loop runs them in order), so once it has recorded `hit_limit` hits no later
hit it meets can reach the report, and it records no more.  An
index-function head adds one to the read count of its span of its verdict
row; it reads the span's verdicts only at the span's first read in the
process or while room remains, and the block expands the counts into its
verdict tallies at its end.  Raw-quaternion blocks stop recording once
each holds `hit_limit` hits, because orbit members interleave across
blocks.  The parent keeps a block's records unless it already holds
`hit_limit` records and the block's first index lies past every held one;
it merges the kept lists once by index and builds report entries from the
merged records until it has `hit_limit` of them.

One candidate in a hundred is re-checked the slow way.  First, the verdicts
its head tile's row holds for it must be the verdicts of the class of its
own composed tile, which is already decided: the row was filled from tiles
of the same classes, or copied from such a row; this comparison adds no
`spot_checks` units.  Then its direct array (p(i, j) mod m, floored for
floored sweeps, from the exact integer p(i, j) on unreduced i and j, summed
from per-sweep exact grids of each tail and last-head-row value and a
per-prefix grid of the other head digits) must equal the periodic extension
of the composed tile at every cell, the one tile comparison.  The first
sample of each distinct tile per sweep and process runs one verdict pass per
R in range over the first max C direct columns; the (R, C) that hold must be
the class's verdicts exactly, which re-decides every pruned (R, C), C > m or
R >= 2m.  That pass runs the public check's condition scanners, which
class verdicts never run, so it re-decides each sampled tile's class
verdicts by the reference kernel.  Every sample counts its spot-check
units, and the top-left R x C block of each (R, C) in its class's verdicts
must pass the public check, whether or not that hit is recorded; a reported
hit of an unsampled candidate is not re-checked by the public check.

Raw-quaternion sweeps run over left-unit orbits.  For a unit u, left
multiplication keeps a sequence perfect under both conventions:

    right:  (u s_i) conj(u s_{i+tau}) = u s_i conj(s_{i+tau}) conj(u),
            so theta'(tau) = u theta(tau) conj(u), zero iff theta(tau) is;
    left:   conj(u s_i) (u s_{i+tau}) = conj(s_i) s_{i+tau},
            so theta'(tau) = theta(tau).

Q8 acts freely, so each orbit of eight holds exactly one sequence that
starts with 1.  Blocks cut the 8^(L-1) such representatives; every survivor
of the funnel expands to its eight members u*s, and every member that
passes the index filter goes through the direct quaternion check in both
conventions.  Hits are merged by global index.  The funnel itself packs
each unit's 4-vector into one balanced base-(2L+1) integer, so a shift's
correlation is one gather from the pair table W (the packed product of each
unit pair) and one row sum, zero exactly when all four component sums are
zero.  Shift 1 pairs only neighbouring units, so its sum splits where the
index splits into its high L - k and low k = L // 2 base-8 digits:

    hsum[high] + lsum[low] + W[last high, first low] + W[last low, first high]

where hsum and lsum hold the neighbour-pair sums inside each half.  A
representative's first unit is index 0, so with b the first low digit the
sum vanishes exactly when lsum[low] + W[low & 7, 0], the low's key, is
-(hsum[high] + W[high & 7, b]).  Once per sweep, process and convention the
lows are grouped by b and sorted by key (8^k entries, as lsum); a block
looks up, for each of its high halves and each b, the run of lows with the
target key (two searchsorted calls per group), and those runs in (high, b)
order are its shift-1 survivors in index order.  At L = 8, 4.5% of
representatives survive per convention and 6.9% in either; only they are
expanded into digits for shifts 2..L-1.  A raw-quaternion block holds at
least 2^16 representatives, because each block pays a pool round trip and
several dozen numpy calls whatever its size.  One raw index in a hundred,
regardless of orbit, also runs through the row funnel from shift 1 without
the quotient; it is the reference for the lookup and the quotient together:
those survivors must be exactly the expanded members at the sampled indices,
or the sweep raises.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .aop import _condition_1_witness, _condition_2_witness, check_aop, is_perfect_sequence
from .correlation import diff_counts
from .cyclotomic import audit, counts_is_zero
from .quaternion import (
    MUL, PAIR_PRODUCT, UNIT_SYMBOLS, VEC, QuaternionSequence, quat_is_perfect,
)
from .seqmodel import PhaseArray, PhaseSequence

__all__ = [
    "FAMILIES",
    "SearchSpec",
    "SearchReport",
    "BudgetExceeded",
    "run_search",
]

FAMILIES = ("poly", "floored", "raw-phase", "raw-quaternion")

SPOT_SAMPLE_STRIDE = 100  # 1 in 100 candidates re-verified the slow way

# Most entries an index-function sweep's per-process tables may hold
# (`_table_entries`); past it a sweep is refused before any table is built.
# Criterion 12 (poly n=5 deg 2, R, C <= 25) needs 1.6e5; poly n=6 deg 2,
# R, C <= 36 needs 5.8e5 and builds them in 0.5 s on a 2-vCPU host.
MAX_TABLE_ENTRIES = 10**6


class BudgetExceeded(RuntimeError):
    """Raised instead of starting a sweep whose space exceeds the budget."""

    def __init__(self, count: int, budget: int) -> None:
        super().__init__(f"candidate space holds {count} entries, budget {budget}")
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class SearchSpec:
    """A finite sweep description.  Every field that shapes results is part
    of the canonical report; worker count and progress settings are not."""

    family: str
    n: int = 0
    k: int = 0
    deg_x: int = 2
    deg_y: int = 2
    r_range: tuple[int, int] = (1, 1)
    c_range: tuple[int, int] = (1, 1)
    length: int = 0
    workers: int = 1
    budget: int = 10**8
    restriction: str = ""
    symmetry: str = ""
    audit: bool = False
    hit_limit: int = 4096
    filter_mod: int = 1
    filter_residue: int = 0
    progress_every: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("poly", "floored", "raw-phase") and self.n < 1:
            raise ValueError("alphabet parameter n must be positive")
        if self.family == "floored" and self.k < 1:
            raise ValueError("base order k must be positive for floored sweeps")
        if self.family in ("poly", "floored"):
            if self.deg_x < 0 or self.deg_y < 0:
                raise ValueError("degree caps must be non-negative")
            for lo, hi in (self.r_range, self.c_range):
                if lo < 1:
                    raise ValueError("dimension ranges start at 1")
        if self.family.startswith("raw") and self.length < 1:
            raise ValueError("raw sweeps need a positive length")
        if self.restriction not in ("", "collapse"):
            raise ValueError(f"unknown restriction {self.restriction!r}")
        if self.restriction == "collapse" and self.family != "floored":
            raise ValueError("the collapse restriction applies to floored sweeps")
        if self.restriction == "collapse" and self.deg_x > 2:
            raise ValueError("the collapse restriction is defined for deg_x <= 2")
        if self.symmetry not in ("", "phase-shift"):
            raise ValueError(f"unknown symmetry filter {self.symmetry!r}")
        if self.symmetry and self.family not in ("poly", "floored"):
            raise ValueError("symmetry filters apply to index-function sweeps")
        if self.workers < 1 or self.budget < 1 or self.hit_limit < 0:
            raise ValueError("workers, budget, hit_limit must be sane")
        if self.filter_mod < 1 or not 0 <= self.filter_residue < self.filter_mod:
            raise ValueError("filter residue must lie in [0, filter_mod)")
        if self.progress_every < 0:
            raise ValueError("progress_every must be non-negative")

    @property
    def coeff_modulus(self) -> int:
        return self.n if self.family == "poly" else self.n * self.k

    @property
    def alphabet_order(self) -> int:
        return self.n if self.family in ("poly", "raw-phase") else self.k

    @property
    def vector_width(self) -> int:
        return (self.deg_x + 1) * (self.deg_y + 1)

    @property
    def bound_limit(self) -> Optional[int]:
        if self.family == "poly":
            return self.n * self.n
        if self.family == "floored":
            return self.n * self.n * self.k * self.k
        return None


@dataclass
class SearchReport:
    spec: SearchSpec
    space_size: int
    total_candidates: int
    hits: list
    hits_total: int
    hit_histogram: dict
    max_hit_length: int
    bound_limit: Optional[int]
    bound_violated: bool
    convention_counts: dict
    spot_checks: int
    audit_checked: int
    audit_disagreements: int
    wall_time_s: float
    worker_chunks: list

    def canonical_dict(self) -> dict:
        """Everything reproducible about the run.  Wall time, chunk layout,
        worker count, and audit tallies are execution accounting and are
        deliberately left out (audit tallies vary with tile-memo hit order)."""
        s = self.spec
        return {
            "family": s.family,
            "n": s.n,
            "k": s.k,
            "deg_x": s.deg_x,
            "deg_y": s.deg_y,
            "r_range": list(s.r_range),
            "c_range": list(s.c_range),
            "length": s.length,
            "budget": s.budget,
            "restriction": s.restriction,
            "symmetry": s.symmetry,
            "filter_mod": s.filter_mod,
            "filter_residue": s.filter_residue,
            "hit_limit": s.hit_limit,
            "space_size": self.space_size,
            "total_candidates": self.total_candidates,
            "hits": self.hits,
            "hits_total": self.hits_total,
            "hit_histogram": self.hit_histogram,
            "max_hit_length": self.max_hit_length,
            "bound_limit": self.bound_limit,
            "bound_violated": self.bound_violated,
            "convention_counts": self.convention_counts,
            "spot_checks": self.spot_checks,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"


def _digits(index: int, base: int, width: int) -> list[int]:
    out = [0] * width
    for t in range(width - 1, -1, -1):
        index, out[t] = divmod(index, base)
    return out


def _dim_values(rng: tuple[int, int]) -> range:
    return range(rng[0], rng[1] + 1)


def _leading_vanishes(coeffs: tuple[int, ...], m: int, n: int) -> bool:
    """Whether the quadratic-row coefficient A(j) = sum_b coeffs[b] j^b,
    taken mod m, vanishes mod n at every residue j in [0, m); true for an
    empty tuple (no quadratic row)."""
    for j in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * j + c) % m
        if acc % n != 0:
            return False
    return True


def _tail_vectors(spec: SearchSpec) -> list[tuple[int, ...]]:
    """Every tail in tail-index order: each last x-power row of coefficients,
    lexicographically; under the collapse restriction with a quadratic row,
    only those whose A(j) vanishes mod n at every j in [0, m)."""
    m = spec.coeff_modulus
    vectors = itertools.product(range(m), repeat=spec.deg_y + 1)
    if spec.restriction == "collapse" and spec.deg_x >= 2:
        return [t for t in vectors if _leading_vanishes(t, m, spec.n)]
    return list(vectors)


def _tail_count(spec: SearchSpec) -> int:
    """len(_tail_vectors(spec)) without enumerating a tuple: m^(deg_y + 1)
    unless the collapse restriction applies.

    Under it, with m = nK, A(j) mod m mod n is A(j) mod n, so a tuple
    qualifies iff its residue mod n is a polynomial of degree < w = deg_y + 1
    that vanishes on every residue mod n, and each such residue has K^w lifts.  In the
    falling-factorial basis, unimodular over Z, that polynomial is
    sum_i b_i (x)_i with i! b_i = (its i-th forward difference at 0) = 0 mod
    n, which gcd(n, i!) values of b_i satisfy."""
    width = spec.deg_y + 1
    if spec.restriction != "collapse" or spec.deg_x < 2:
        return spec.coeff_modulus**width
    count = spec.k**width
    for i in range(width):
        count *= math.gcd(spec.n, math.factorial(i))
    return count


def _index_space_size(spec: SearchSpec) -> int:
    if spec.family == "raw-phase":
        return spec.n**spec.length
    if spec.family == "raw-quaternion":
        return 8**spec.length
    return spec.coeff_modulus ** (spec.vector_width - spec.deg_y - 1) * _tail_count(spec)


def _blocks(total: int, least: int) -> list[tuple[int, int]]:
    """At most 256 blocks over range(total), each of at least `least`
    indices but the last."""
    if total == 0:
        return []
    size = max(least, math.ceil(total / 256))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _coeff_vector(
    spec: SearchSpec, vectors: list[tuple[int, ...]], idx: int
) -> list[int]:
    """The coefficient vector of candidate `idx`: the head digits of
    idx // len(vectors), then tail idx % len(vectors)."""
    head, tail = divmod(idx, len(vectors))
    head_width = spec.vector_width - spec.deg_y - 1
    return _digits(head, spec.coeff_modulus, head_width) + list(vectors[tail])


def _monomial_rows(spec: SearchSpec) -> list[list[int]]:
    """Row t of the returned grid entry (i*period + j) holds the monomial
    values i^a j^b mod m in vector order, so a tile entry is one dot product."""
    m = spec.coeff_modulus
    rows = []
    for i in range(m):
        for j in range(m):
            rows.append(
                [
                    pow(i, a, m) * pow(j, b, m) % m
                    for a in range(spec.deg_x + 1)
                    for b in range(spec.deg_y + 1)
                ]
            )
    return rows


def _row_tiles(
    vectors, mono: list[list[int]], cols: slice, m: int
) -> list[tuple[int, ...]]:
    """The tile mod m, row-major, of each coefficient vector placed at the
    vector positions `cols`, the others zero."""
    part = [row[cols] for row in mono]
    return [tuple(sum(c * v for c, v in zip(vec, r)) % m for r in part) for vec in vectors]


def _tail_tiles(
    spec: SearchSpec, vectors: list[tuple[int, ...]], mono: list[list[int]]
) -> list[tuple[int, ...]]:
    """The tile of each tail in tail-index order."""
    return _row_tiles(vectors, mono, slice(spec.vector_width - spec.deg_y - 1, None),
                      spec.coeff_modulus)


def _shared_tails(spec: SearchSpec, vectors: list[tuple[int, ...]]) -> list[int]:
    """The tails s whose tile is also a head tile, in tail-index order.

    The tail tile is i^d q_s(j) with d = deg_x and q_s the tail's polynomial
    in y.  In the falling-factorial basis i^d = (i)_d + (terms of lower
    degree in i), and d! divides (i)_d, so when d! q_s(j) = 0 mod m at every
    j the tile is a combination of i^a q_s(j), a < d: a head tile.
    Conversely a head tile has degree < d in i at each fixed j, and c i^d is
    such a function mod m only when d! c = 0 mod m (Singmaster 1974)."""
    m = spec.coeff_modulus
    vanish = m // math.gcd(m, math.factorial(spec.deg_x))
    return [s for s, tail in enumerate(vectors) if _leading_vanishes(tail, m, vanish)]


def _tail_shifts(
    spec: SearchSpec, vectors: list[tuple[int, ...]], shared: list[int]
) -> list[list[int]]:
    """For each s in `shared`, its index map t -> s (+) t, the tail whose
    coefficients are those of tails s and t added digit-wise mod m (the
    collapse-restricted tails are closed under that sum)."""
    m = spec.coeff_modulus
    position = {v: t for t, v in enumerate(vectors)}
    return [
        [position[tuple([(a + b) % m for a, b in zip(vectors[s], v)])] for v in vectors]
        for s in shared
    ]


def _upper_width(spec: SearchSpec) -> int:
    """The number of head digits above the last head row (x-powers below
    deg_x - 1); 0 when the head is that row alone or empty."""
    return max(spec.vector_width - 2 * (spec.deg_y + 1), 0)


def _sample_shape(spec: SearchSpec) -> tuple[int, int]:
    """(R', C'), the shape of a sampled candidate's direct array."""
    m = spec.coeff_modulus
    return max(spec.r_range[1], m), max(spec.c_range[1], m + 1)


def _table_entries(spec: SearchSpec) -> int:
    """The entries an index-function sweep's per-process tables hold: one
    m x m tile and one exact R' x C' grid per tail and per last-head-row
    value."""
    m = spec.coeff_modulus
    rows, cols = _sample_shape(spec)
    last_values = m ** (spec.vector_width - spec.deg_y - 1 - _upper_width(spec))
    return (_tail_count(spec) + last_values) * (m * m + rows * cols)


Verdicts = tuple[tuple[int, int], ...]


class _SweepMemo:
    """One sweep's state in one process.

    For an index-function sweep: the tail vectors, monomial rows and tail
    tiles; the tiles of every value of the last head row, added to the
    tile of the remaining head digits to build a head tile; the shared tails
    (one per distinct tile) with their index maps; verdicts per column-phase
    class, and the pair and prefix tables they are read from; per row key, a
    complete verdict row whose slot t holds the verdicts of the key's head
    tiles composed with tail t (filled whole when a head first reaches the
    key, or copied from that row through a shared tail's index map); and the
    tiles a spot check has already re-decided;
    per cell (i, j) of the R' x C' direct array, row-major and unreduced,
    the exact i^a j^b (its own loop), each tail's and last-head-row value's
    exact p(i, j) and the tile cell (i mod m, j mod m); and per head span
    (row key, first - base, hi - base, the slice of the row a head reads),
    the count of each verdict tuple in it, cached at the span's first read.
    For a raw-quaternion sweep: the packed pair table of each convention
    and, past length 1, its shift-1 lookup tables.  For poly, floored and
    raw-phase blocks: the hit room, `hit_limit` less the hits this process
    has recorded, and the stop of its last block, below which `claim`
    refuses a block (module docstring)."""

    def __init__(self, spec: SearchSpec, vectors: list[tuple[int, ...]]) -> None:
        self.vectors = vectors
        self.mono: list[list[int]] = []
        self.tails: list[tuple[int, ...]] = []
        self.last_head_tiles: list[tuple[int, ...]] = []
        self.shared: list[int] = []
        self.shifts: list[list[int]] = []
        if spec.family in ("poly", "floored"):
            m = spec.coeff_modulus
            self.mono = _monomial_rows(spec)
            self.tails = _tail_tiles(spec, vectors, self.mono)
            head_width = spec.vector_width - spec.deg_y - 1
            upper_width = _upper_width(spec)
            last_values = list(itertools.product(range(m), repeat=head_width - upper_width))
            self.last_head_tiles = _row_tiles(
                last_values, self.mono, slice(upper_width, head_width), m
            )
            rows, self.width = _sample_shape(spec)
            powers = [(a, b) for a in range(spec.deg_x + 1) for b in range(spec.deg_y + 1)]
            self.exact = [[i**a * j**b for a, b in powers]
                          for i in range(rows) for j in range(self.width)]
            self.exact_last = [[sum(c * v for c, v in zip(d, cell[upper_width:]))
                                for cell in self.exact] for d in last_values]
            self.exact_tails = [[sum(c * v for c, v in zip(d, cell[head_width:]))
                                 for cell in self.exact] for d in vectors]
            self.tile_cells = [i % m * m + j % m for i in range(rows) for j in range(self.width)]
            by_tile = {}
            for s in _shared_tails(spec, vectors):
                by_tile.setdefault(self.tails[s], s)
            self.shared = list(by_tile.values())
            self.shifts = _tail_shifts(spec, vectors, self.shared)
            self.tables = _VerdictTables(m, spec.alphabet_order, spec.r_range, spec.c_range)
        self.quat_tables: dict = {}
        self.quat_lookup: dict = {}
        if spec.family == "raw-quaternion":
            self.quat_tables = _packed_weight_tables(spec.length)
            if spec.length > 1:
                self.quat_lookup = {c: _shift_one_lookup(table, spec.length)
                                    for c, table in self.quat_tables.items()}
        self.verdicts: dict[tuple[int, ...], Verdicts] = {}
        self.rows: dict[tuple[int, ...], list[Verdicts]] = {}
        self.spans: dict[tuple, Counter[Verdicts]] = {}
        self.spot_tiles: set[tuple[int, ...]] = set()
        self.room = spec.hit_limit
        self.reached = 0

    def claim(self, start: int, stop: int) -> None:
        """Take block [start, stop) of an index range.  The hit room is sound
        only while this process runs its blocks in ascending order, so that
        every record it has shipped lies below the block."""
        if start < self.reached:
            raise RuntimeError(f"block [{start}, {stop}) starts below {self.reached}, "
                               f"where this process's previous block stopped")
        self.reached = stop


def _tile_columns(flat, period: int) -> list[tuple[int, ...]]:
    # `flat` holds the tile row-major, entry (i, j) at i * period + j
    return [tuple(flat[j::period]) for j in range(period)]


def _periodic_rows(period: int) -> int:
    """The least row count that periodicity alone decides: at every
    R >= 2 * period condition 2 fails at shift `period` (module docstring)."""
    return 2 * period


def _verdict_pass(
    columns: list[tuple[int, ...]], r_values: range, c_values: range, order: int
) -> list[tuple[int, int]]:
    """Every (R, C) in r_values x c_values, R-major, at which the first C
    `columns` cut to R rows have the AOP, by the public check's scanners:
    per R, C rises until condition 1 fails, deciding condition 2 at each."""
    out = []
    if not c_values:
        return out
    for R in r_values:
        cut = [col[:R] for col in columns[: c_values[-1]]]
        for C, v in enumerate(cut, 1):
            # condition 1 at C is condition 1 at C - 1 plus the pairs (j, C - 1)
            if any(_condition_1_witness([u, v], R, order) for u in cut[: C - 1]):
                break
            if _condition_2_witness(cut[:C], R, order) is None and C in c_values:
                out.append((R, C))
    return out


def _pair_mask(u: tuple[int, ...], v: tuple[int, ...], r_values: range, order: int) -> int:
    """The bits R in `r_values` at which tile columns u and v, doubled and
    cut to R rows, are orthogonal at every cyclic shift."""
    mask = 0
    for R in r_values:
        a, b = (u * 2)[:R], (v * 2)[:R]
        if all(counts_is_zero(diff_counts(((a, b, tau),), order), order) for tau in range(R)):
            mask |= 1 << R
    return mask


class _VerdictTables:
    """The class-verdict kernel, with its tables for one sweep in one process.

    Over the tile columns doubled (so every R < 2 * period cuts them without
    wrapping) and the row counts R < 2 * period in range, `pairs` maps a
    column pair (u, v) to its `_pair_mask`, and `prefixes` maps a tuple of
    a tile's first c columns to (condition-1 mask, AOP mask): the bits R at
    which those c columns, cut to R rows, pass condition 1, and the bits at
    which they also pass condition 2 (module docstring)."""

    def __init__(self, period: int, order: int, r_range: tuple[int, int],
                 c_range: tuple[int, int]) -> None:
        self.order = order
        self.r_values = range(r_range[0], min(r_range[1] + 1, _periodic_rows(period)))
        self.c_values = range(c_range[0], min(c_range[1], period) + 1)
        self.pairs: dict[tuple, int] = {}
        self.prefixes: dict[tuple, tuple[int, int]] = {}

    def verdicts(self, tile_cols: list[tuple[int, ...]]) -> list[tuple[int, int]]:
        """Every (R, C) in range, R-major, at which the first C tile
        columns, doubled and cut to R rows, have the AOP."""
        width = self.c_values[-1] if self.c_values else 0
        holds = [0] * width
        alive = sum(1 << R for R in self.r_values)
        for c in range(1, width + 1):
            if not alive:
                break
            prefix = tuple(tile_cols[:c])
            entry = self.prefixes.get(prefix)
            if entry is None:
                entry = self.prefixes[prefix] = self._extend(prefix, alive)
            alive, holds[c - 1] = entry
        return [(R, C) for R in self.r_values for C in self.c_values
                if holds[C - 1] >> R & 1]

    def _extend(self, prefix: tuple, alive: int) -> tuple[int, int]:
        """The masks of `prefix`, whose columns but the last have condition-1
        mask `alive`: the last column's pair masks with each earlier column
        cut `alive`, then condition 2 zero-tests the summed autocorrelations
        of each R left, shift by shift up to the first nonzero one."""
        order, v = self.order, prefix[-1]
        for u in prefix[:-1]:
            if not alive:
                break
            mask = self.pairs.get((u, v))
            if mask is None:
                mask = self.pairs[u, v] = _pair_mask(u, v, self.r_values, order)
            alive &= mask
        holds = 0
        for R in self.r_values:
            if alive >> R & 1:
                cut = [(col * 2)[:R] for col in prefix]
                if all(counts_is_zero(diff_counts([(a, a, tau) for a in cut], order), order)
                       for tau in range(1, R)):
                    holds |= 1 << R
        return alive, holds


def _row_key(tile: tuple[int, ...], period: int, divisor: int) -> tuple[int, ...]:
    """The verdict-row key of a row-major head tile mod `period`: each column
    less the largest multiple of `divisor` in its row-0 entry."""
    base = [b - b % divisor for b in tile[:period]]
    return tuple([(v - b) % period for v, b in zip(tile, base * period)])


def _phase_class(flat: list[int], period: int, order: int) -> tuple[int, ...]:
    """The column-phase class of a row-major tile: column j shifted by its
    row-0 entry flat[j]."""
    return tuple([(v - b) % order for v, b in zip(flat, flat[:period] * period)])


def _class_verdicts(spec: SearchSpec, memo: _SweepMemo, flat: list[int]) -> Verdicts:
    """The verdicts of a row-major tile, memoized by its column-phase class."""
    m = spec.coeff_modulus
    order = spec.alphabet_order
    key = _phase_class(flat, m, order)
    verdicts = memo.verdicts.get(key)
    if verdicts is None:
        verdicts = memo.verdicts[key] = tuple(memo.tables.verdicts(_tile_columns(key, m)))
    return verdicts


def _spot_check(
    spec: SearchSpec, memo: _SweepMemo, idx: int, composed: list[int],
    direct: list[int], verdicts: Verdicts,
) -> int:
    """Slow-path cross-check for sampled candidate `idx`.

    `direct` is its R' x C' array, row-major, entry (p(i, j) mod m) //
    divisor of the exact p(i, j) on unreduced i and j.  It must equal at
    every cell the periodic extension of the composed tile (cell (i, j) is
    tile cell (i mod m, j mod m)); its top-left m x m block is the tile, so
    the direct columns are a function of the tile alone.  The first sample
    of each distinct tile per sweep and process runs one verdict pass per R
    over its first max C direct columns, which must give exactly the class's
    verdicts: that re-decides every pruned (R, C), C > m or R >= 2m, and
    checks the class's verdicts on the tile's own columns.  For every (R, C)
    in `verdicts`, recorded as a hit or not, the sample's top-left R x C
    block must pass the public check; hits of unsampled candidates are not
    re-checked there.  Returns the verification units (tile confirmation
    plus each column prune the tile has re-examined), the same for every
    sample; raises on any mismatch.
    """
    m = spec.coeff_modulus
    order = spec.alphabet_order
    width = memo.width
    extended = [composed[c] for c in memo.tile_cells]
    if direct != extended:
        cell = divmod([d == e for d, e in zip(direct, extended)].index(False), width)
        raise AssertionError(f"direct array differs from the periodic extension of its "
                             f"tile at {cell} for vector {_coeff_vector(spec, memo.vectors, idx)}"
                             f", composed tile {composed}")
    r_values = _dim_values(spec.r_range)
    tile = tuple(composed)
    if tile not in memo.spot_tiles:
        memo.spot_tiles.add(tile)
        columns = [tuple(direct[j::width]) for j in range(spec.c_range[1])]
        found = _verdict_pass(columns, r_values, _dim_values(spec.c_range), order)
        if found != list(verdicts):
            # class verdicts hold no pruned cell, so only an accepted one is
            R, C = cell = min(set(found) ^ set(verdicts))
            pruned_cell = "pruned combination " if C > m or R >= _periodic_rows(m) else ""
            raise AssertionError(
                f"full check {'rejected' if cell in verdicts else 'accepted'} "
                f"{pruned_cell}{cell} for vector {_coeff_vector(spec, memo.vectors, idx)}, "
                f"whose column-phase class has verdicts {verdicts}"
            )
    for R, C in verdicts:
        block = [v for i in range(0, R * width, width) for v in direct[i : i + C]]
        if not check_aop(PhaseArray(order, R, C, block)).holds:
            raise AssertionError(f"recorded hit {(R, C)} fails the public check for "
                                 f"vector {_coeff_vector(spec, memo.vectors, idx)}")
    return 1 + len(range(max(spec.c_range[0], m + 1), spec.c_range[1] + 1)) * len(r_values)


def _index_function_block(
    spec: SearchSpec, start: int, stop: int, memo: _SweepMemo
) -> dict:
    m = spec.coeff_modulus
    order = spec.alphabet_order
    head_width = spec.vector_width - spec.deg_y - 1
    upper_width = _upper_width(spec)
    last_tiles = memo.last_head_tiles
    n_last = len(last_tiles)
    tails = memo.tails
    n_tails = len(tails)
    divisor = spec.n if spec.family == "floored" else 1
    mod, residue = spec.filter_mod, spec.filter_residue
    if spec.symmetry == "phase-shift":
        # canonicalize the constant coefficient: bumping it by `divisor`
        # rotates every generated exponent by one alphabet step.  It is the
        # index's leading digit, so keeping it below `divisor` keeps a prefix.
        stop = min(stop, divisor * m**head_width * n_tails // m)
    reads: Counter[tuple] = Counter()
    records: list[tuple[int, Verdicts]] = []
    room = memo.room
    spot_checks = 0
    upper_index = -1
    for head in range(start // n_tails, -(-stop // n_tails)):
        base = head * n_tails
        lo, hi = max(start, base), min(stop, base + n_tails)
        first = lo + (residue - lo) % mod
        if first >= hi:
            continue
        upper, last = divmod(head, n_last)
        if upper != upper_index:
            upper_index = upper
            digits = _digits(upper, m, upper_width)
            upper_tile = _row_tiles([digits], memo.mono, slice(0, upper_width), m)[0]
            upper_exact = None
        head_tile = tuple([(u + v) % m for u, v in zip(upper_tile, last_tiles[last])])
        key = _row_key(head_tile, m, divisor)
        row = memo.rows.get(key)
        if row is None:
            row = memo.rows[key] = [
                _class_verdicts(spec, memo, [(h + v) % m // divisor
                                             for h, v in zip(head_tile, tail)])
                for tail in tails
            ]
            # head tile h + tails[s] with tail t composes to h + tails[s (+) t],
            # so its slot t is h's slot shift[t] = s (+) t
            for s, shift in zip(memo.shared, memo.shifts):
                member = tuple([(h + v) % m for h, v in zip(head_tile, tails[s])])
                memo.rows.setdefault(_row_key(member, m, divisor), [row[u] for u in shift])
        # the span's cached verdict counts tally it; its verdicts are read
        # only to fill that cache or to record hits
        span = (key, first - base, hi - base)
        reads[span] += 1
        if span not in memo.spans or room > 0:
            picked = row[first - base : hi - base : mod]
            if span not in memo.spans:
                memo.spans[span] = Counter(picked)
        if room > 0:
            for idx, verdicts in zip(range(first, hi, mod), picked):
                if verdicts:
                    records.append((idx, verdicts))
                    room -= len(verdicts)
                    if room <= 0:
                        break
        for idx in range(-(-lo // SPOT_SAMPLE_STRIDE) * SPOT_SAMPLE_STRIDE, hi,
                         SPOT_SAMPLE_STRIDE):
            if idx % mod == residue:
                t = idx - base
                composed = [(h + v) % m // divisor for h, v in zip(head_tile, tails[t])]
                verdicts = row[t]
                # slot t was filled from a tile of this class, or copied from
                # such a slot through a shared tail's index map
                own = memo.verdicts.get(_phase_class(composed, m, order))
                if own != verdicts:
                    raise AssertionError(
                        f"index {idx} reads verdicts {verdicts} through its head "
                        f"tile's shared row, its own tile's class has {own}"
                    )
                # built at the prefix's first sample: a prefix can hold fewer
                # candidates than its R' x C' grid has cells
                if upper_exact is None:
                    upper_exact = [sum(c * v for c, v in zip(digits, x)) for x in memo.exact]
                direct = [(u + v + w) % m // divisor for u, v, w in
                          zip(upper_exact, memo.exact_last[last], memo.exact_tails[t])]
                spot_checks += _spot_check(spec, memo, idx, composed, direct, verdicts)
    memo.room = room
    tally: Counter[Verdicts] = Counter()
    for span, count in reads.items():
        for verdicts, c in memo.spans[span].items():
            tally[verdicts] += c * count
    hits_total = 0
    histogram: dict[str, int] = {}
    max_len = 0
    for verdicts, count in tally.items():
        for R, C in verdicts:
            hits_total += count
            dims = f"{R}x{C}"
            histogram[dims] = histogram.get(dims, 0) + count
            max_len = max(max_len, R * C)
    return {
        "hits": records,
        "tested": sum(tally.values()),
        "hits_total": hits_total,
        "histogram": histogram,
        "max_hit_length": max_len,
        "spot_checks": spot_checks,
        "convention_counts": {},
    }


def _raw_phase_block(spec: SearchSpec, start: int, stop: int, memo: _SweepMemo) -> dict:
    n, L = spec.n, spec.length
    records: list[tuple[int, list[int]]] = []
    tested = 0
    hits_total = 0
    for idx in range(start, stop):
        if spec.filter_mod > 1 and idx % spec.filter_mod != spec.filter_residue:
            continue
        tested += 1
        exps = tuple(_digits(idx, n, L))
        seq = PhaseSequence(n, exps)
        if not is_perfect_sequence(seq):
            continue
        hits_total += 1
        # only a recorded hit reports its AOP divisors
        if memo.room > 0:
            divisors = [C for C in range(1, L + 1)
                        if L % C == 0 and check_aop(PhaseArray(n, L // C, C, exps)).holds]
            records.append((idx, divisors))
            memo.room -= 1
    return {
        "hits": records,
        "tested": tested,
        "hits_total": hits_total,
        "histogram": {},
        "max_hit_length": L if hits_total else 0,
        "spot_checks": 0,
        "convention_counts": {},
    }


def _unit_digits(indices, length: int):
    """The (N, length) uint8 array of base-8 digits (unit indices) of each
    raw-quaternion index, most significant first."""
    import numpy as np

    shifts = 3 * np.arange(length - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts[None, :]) & 7).astype(np.uint8)


def _packed_weight_tables(length: int) -> dict:
    """Per convention, the packed weight of the product for each unit pair
    (a, b) at entry (a << 3) | b.

    A unit's 4-vector (w, x, y, z) packs into w + x B + y B^2 + z B^3 with
    B = 2 length + 1.  A sum of at most `length` weights has component sums
    in [-length, length], which balanced base B represents uniquely, so the
    packed sum is 0 exactly when all four component sums are.  Every partial
    sum is at most length (B^4 - 1) / (B - 1) = (B^4 - 1) / 2 in magnitude,
    which fixes the dtype.
    """
    import numpy as np

    base = 2 * length + 1
    bound = (base**4 - 1) // 2
    dtype = next(
        (t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= bound), None
    )
    if dtype is None:
        raise ValueError(f"packed quaternion weights overflow int64 at length {length}")
    weight = [sum(c * base**axis for axis, c in enumerate(VEC[u])) for u in range(8)]
    return {
        convention: np.array([weight[p] for row in products for p in row], dtype=dtype)
        for convention, products in PAIR_PRODUCT.items()
    }


def _half_sums(table, length: int) -> tuple:
    """(hsum, lsum): entry x of each is the sum of `table` over the neighbour
    pairs (a, b) among the base-8 digits of x, which has length - length // 2
    digits in hsum and length // 2 in lsum.  Each sum has fewer than `length`
    terms, so `table`'s dtype holds it."""
    import numpy as np

    pairs = table.reshape(8, 8)
    by_width = {1: np.zeros(8, dtype=table.dtype)}
    for width in range(2, length - length // 2 + 1):
        # appending digit d to x adds the pair (last digit of x, d)
        sums = by_width[width - 1]
        by_width[width] = (sums[:, None] + pairs[np.arange(len(sums)) % 8]).ravel()
    return by_width[length - length // 2], by_width[length // 2]


def _shift_one_lookup(table, length: int) -> tuple:
    """(hsum, lows, keys), the tables that decide shift 1 of representatives
    (length >= 2): hsum from `_half_sums`; every low half l of k = length // 2
    digits, grouped by its first digit b (8^(k-1) lows per group) and sorted
    inside its group by key = lsum[l] + W[l & 7, 0]; and that key of each."""
    import numpy as np

    hsum, lsum = _half_sums(table, length)
    low_width = length // 2
    low = np.arange(8**low_width)
    key = lsum + table[(low & 7) << 3]
    # lexsort is stable, so lows with equal keys stay ascending
    lows = np.lexsort((key, low >> 3 * (low_width - 1)))
    return hsum, lows, key[lows]


def _shift_one_survivors(start: int, stop: int, length: int, table, lookup):
    """The representatives in [start, stop) whose packed shift-1 sum
    vanishes, ascending (length >= 2).

    A representative's first unit is index 0, so with high half h and low
    half l (first digit b) its sum is hsum[h] + lsum[l] + W[h & 7, b] +
    W[l & 7, 0]: it vanishes exactly when l's key is -(hsum[h] + W[h & 7, b]).
    Those lows form one run of group b, ascending; runs taken in (h, b)
    order are in index order."""
    import numpy as np

    hsum, lows, keys = lookup
    low_width = length // 2
    group = 8 ** (low_width - 1)
    high = np.arange(start >> 3 * low_width, ((stop - 1) >> 3 * low_width) + 1,
                     dtype=np.int64)
    head = hsum[high]
    firsts, lasts = [], []
    for b in range(8):
        target = -(head + table[(high & 7) << 3 | b])
        part = keys[b * group : (b + 1) * group]
        firsts.append(b * group + np.searchsorted(part, target, "left"))
        lasts.append(b * group + np.searchsorted(part, target, "right"))
    first = np.stack(firsts, axis=1).ravel()
    counts = np.stack(lasts, axis=1).ravel() - first
    ends = np.cumsum(counts)
    positions = np.arange(ends[-1]) + np.repeat(first - ends + counts, counts)
    reps = np.repeat(np.repeat(high, 8), counts) << 3 * low_width | lows[positions]
    return reps[np.searchsorted(reps, start) : np.searchsorted(reps, stop)]


def _quat_funnel(seqs, tables: dict, first: int = 1) -> dict:
    """Row numbers of `seqs` (unit indices, one sequence per row) whose
    autocorrelation vanishes at every shift from `first` to length - 1, per
    convention."""
    import numpy as np

    length = seqs.shape[1]
    all_high = seqs << 3
    all_doubled = np.concatenate([seqs, seqs], axis=1)
    out = {}
    for convention, table in tables.items():
        alive = np.arange(len(seqs))
        high, doubled = all_high, all_doubled
        for tau in range(first, length):
            if alive.size == 0:
                break
            pair = high | doubled[:, tau : tau + length]
            keep = table[pair].sum(axis=1, dtype=table.dtype) == 0
            alive = alive[keep]
            high = high[keep]
            doubled = doubled[keep]
        out[convention] = alive
    return out


def _rep_survivors(start: int, stop: int, length: int, memo: _SweepMemo) -> dict:
    """The representatives in [start, stop) whose off-peak autocorrelation
    vanishes, ascending, per convention: shift 1 from the lookup tables, the
    later shifts through `_quat_funnel` on the digits of shift 1's survivors
    alone."""
    import numpy as np

    out = {}
    for convention, table in memo.quat_tables.items():
        if length > 1:
            reps = _shift_one_survivors(start, stop, length, table,
                                        memo.quat_lookup[convention])
        else:
            reps = np.arange(start, stop, dtype=np.int64)
        later = _quat_funnel(_unit_digits(reps, length), {convention: table}, 2)
        out[convention] = reps[later[convention]]
    return out


def _raw_quaternion_block(
    spec: SearchSpec, start: int, stop: int, memo: _SweepMemo
) -> dict:
    """Orbit representatives start..stop-1, representative r being the
    sequence with base-8 digits r (its first unit is 1 since r < 8^(L-1)),
    and the sampled raw indices 8 start..8 stop-1."""
    import numpy as np

    L = spec.length
    mod, residue = spec.filter_mod, spec.filter_residue
    rep_conventions: dict[int, list[str]] = {}
    for convention, reps in _rep_survivors(start, stop, L, memo).items():
        for r in reps.tolist():
            rep_conventions.setdefault(r, []).append(convention)
    members = []
    for r, conventions in rep_conventions.items():
        rep = _digits(r, 8, L)
        for u in range(8):
            units = tuple(MUL[u][x] for x in rep)
            g = int("".join(map(str, units)), 8)
            if g % mod == residue:
                members.append((g, units, conventions))
    members.sort()
    records: list[tuple[int, list[str]]] = []
    counts = {"right": 0, "left": 0}
    sample_expanded = []
    for g, units, funnel_conventions in members:
        seq = QuaternionSequence(units)
        conventions = [c for c in ("right", "left") if quat_is_perfect(seq, c)]
        if conventions != funnel_conventions:
            raise AssertionError(
                f"packed-weight funnel finds {seq.symbols()} perfect under "
                f"{funnel_conventions}, direct verification under {conventions}"
            )
        for c in conventions:
            counts[c] += 1
        if g % SPOT_SAMPLE_STRIDE == 0:
            sample_expanded.extend((g, c) for c in conventions)
        if len(records) < spec.hit_limit:
            records.append((g, conventions))
    lo, hi = 8 * start, 8 * stop
    sample = np.arange(-(-lo // SPOT_SAMPLE_STRIDE) * SPOT_SAMPLE_STRIDE, hi,
                       SPOT_SAMPLE_STRIDE, dtype=np.int64)
    sample = sample[sample % mod == residue]
    # the reference: every shift of the unquotiented sample on the row funnel
    sample_direct = [
        (int(sample[row]), c)
        for c, rows in _quat_funnel(_unit_digits(sample, L), memo.quat_tables).items()
        for row in rows.tolist()
    ]
    return {
        "hits": records,
        "tested": len(range(lo + (residue - lo) % mod, hi, mod)),
        "hits_total": len(members),
        "histogram": {},
        "max_hit_length": L if members else 0,
        "spot_checks": 0,
        "convention_counts": counts,
        "sample_expanded": sample_expanded,
        "sample_direct": sample_direct,
    }


def _check_orbit_sample(direct: list, expanded: list) -> None:
    """The sampled raw indices' unquotiented survivors must equal the
    expanded orbit members at those indices, as (index, convention) pairs."""
    direct, expanded = sorted(direct), sorted(expanded)
    if direct != expanded:
        diff = sorted(set(direct) ^ set(expanded))[:8]
        raise AssertionError(
            f"orbit expansion and the unquotiented funnel disagree on sampled "
            f"(index, convention) pairs {diff}"
        )


def _hit_entries(
    spec: SearchSpec, vectors: list[tuple[int, ...]], record: tuple
) -> list[dict]:
    """The report entries of one hit record (global index, payload): one
    per verdict for index-function sweeps, one otherwise."""
    idx, payload = record
    if spec.family == "raw-phase":
        return [{"exponents": _digits(idx, spec.n, spec.length),
                 "aop_divisors": list(payload)}]
    if spec.family == "raw-quaternion":
        return [{"symbols": [UNIT_SYMBOLS[u] for u in _digits(idx, 8, spec.length)],
                 "conventions": list(payload)}]
    vector = _coeff_vector(spec, vectors, idx)
    entries = [{"vector": list(vector), "rows": R, "cols": C, "divisor": C}
               for R, C in payload]
    if spec.family == "floored":
        # the quadratic-row coefficients alone decide the collapse flag
        lead_width = spec.deg_y + 1 if spec.deg_x >= 2 else 0
        lead = tuple(vector[2 * lead_width : 3 * lead_width])
        collapses = _leading_vanishes(lead, spec.coeff_modulus, spec.n)
        for entry in entries:
            entry["collapse"] = collapses
            entry["exceeds_base_square"] = entry["rows"] * entry["cols"] > spec.k**2
    return entries


def _run_block(spec: SearchSpec, block: tuple[int, int], memo: _SweepMemo) -> dict:
    was_enabled = audit.enabled
    before = (audit.checked, audit.disagreements)
    if spec.audit and not was_enabled:
        audit.enabled = True
    try:
        if spec.family in ("poly", "floored"):
            memo.claim(*block)
            result = _index_function_block(spec, block[0], block[1], memo)
        elif spec.family == "raw-phase":
            memo.claim(*block)
            result = _raw_phase_block(spec, block[0], block[1], memo)
        else:
            result = _raw_quaternion_block(spec, block[0], block[1], memo)
    finally:
        if spec.audit and not was_enabled:
            audit.enabled = False
    if spec.audit:
        result["audit_checked"] = audit.checked - before[0]
        result["audit_disagreements"] = audit.disagreements - before[1]
    else:
        result["audit_checked"] = 0
        result["audit_disagreements"] = 0
    return result


# Each pool worker's sweep state (the spec and its memo), set by
# `_start_worker` when the pool of one `run_search` call starts; the parent
# process never sets it.
_worker_state: tuple = ()


def _start_worker(spec: SearchSpec, vectors: list[tuple[int, ...]]) -> None:
    global _worker_state
    _worker_state = (spec, _SweepMemo(spec, vectors))


def _run_block_in_worker(block: tuple[int, int]) -> dict:
    spec, memo = _worker_state
    return _run_block(spec, block, memo)


def _block_results(
    spec: SearchSpec, blocks: list[tuple[int, int]], vectors: list[tuple[int, ...]]
):
    """Each block's result in block order, yielded as soon as it and every
    block before it are done."""
    if not blocks:
        return
    if spec.workers <= 1 or len(blocks) <= 1:
        memo = _SweepMemo(spec, vectors)
        for b in blocks:
            yield _run_block(spec, b, memo)
        return
    # a serial sweep never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    # under fork the pool starts all its processes at the first submit
    with ProcessPoolExecutor(max_workers=min(spec.workers, len(blocks)),
                             initializer=_start_worker, initargs=(spec, vectors)) as pool:
        yield from pool.map(_run_block_in_worker, blocks)


def run_search(spec: SearchSpec) -> SearchReport:
    """Execute a sweep.  Raises BudgetExceeded (with the exact count) before
    doing any work if the candidate space is larger than the budget, and
    ValueError if an index-function sweep's tables would hold more than
    MAX_TABLE_ENTRIES entries.  With
    `progress_every` = N > 0 the calling process prints one line to stderr
    after every N-th completed block and after the last: candidates so far,
    their rate and the time left."""
    t0 = time.monotonic()
    space_size = _index_space_size(spec)
    total = space_size
    index_fn = spec.family in ("poly", "floored")
    if index_fn:
        if spec.r_range[1] < spec.r_range[0] or spec.c_range[1] < spec.c_range[0]:
            total = 0
    if total > spec.budget:
        raise BudgetExceeded(total, spec.budget)
    if index_fn and total and _table_entries(spec) > MAX_TABLE_ENTRIES:
        raise ValueError(f"the sweep's tables would hold {_table_entries(spec)} entries, "
                         f"past the cap of {MAX_TABLE_ENTRIES}")
    # an empty sweep runs no block, so it never enumerates its tails
    vectors = _tail_vectors(spec) if index_fn and total else []
    if vectors and len(vectors) != _tail_count(spec):
        raise AssertionError(
            f"{len(vectors)} tails enumerated, {_tail_count(spec)} counted"
        )
    # raw-quaternion blocks cut the orbit representatives, one per 8 sequences,
    # into blocks large enough that numpy calls and the pool's round trip per
    # block stay small beside the block's work
    if spec.family == "raw-quaternion":
        blocks = _blocks(total // 8, 1 << 16)
    else:
        blocks = _blocks(total, 4096)
    # kept blocks' hit records, each list ascending by global index
    held: list[list[tuple]] = []
    held_count = 0
    held_max = -1
    sample_direct: list = []
    sample_expanded: list = []
    histogram: dict[str, int] = {}
    conv_counts: dict[str, int] = {}
    tested = 0
    hits_total = 0
    max_len = 0
    spot_checks = 0
    audit_checked = 0
    audit_disagreements = 0
    covered = 0
    for number, (block, r) in enumerate(
        zip(blocks, _block_results(spec, blocks, vectors)), 1
    ):
        records = r["hits"]
        # a block that starts past hit_limit held records cannot reach the
        # cut; orbit blocks interleave, so theirs are kept
        if records and not (held_count >= spec.hit_limit and records[0][0] > held_max):
            held.append(records)
            held_count += len(records)
            held_max = max(held_max, records[-1][0])
        # only raw-quaternion blocks carry an orbit sample
        sample_direct += r.get("sample_direct", ())
        sample_expanded += r.get("sample_expanded", ())
        tested += r["tested"]
        hits_total += r["hits_total"]
        for key, c in r["histogram"].items():
            histogram[key] = histogram.get(key, 0) + c
        for key, c in r["convention_counts"].items():
            conv_counts[key] = conv_counts.get(key, 0) + c
        max_len = max(max_len, r["max_hit_length"])
        spot_checks += r["spot_checks"]
        audit_checked += r["audit_checked"]
        audit_disagreements += r["audit_disagreements"]
        covered += block[1] - block[0]
        every = spec.progress_every
        if every > 0 and (number % every == 0 or number == len(blocks)):
            elapsed = time.monotonic() - t0
            eta = elapsed * (blocks[-1][1] - covered) / covered
            print(
                f"block {number}/{len(blocks)}: {tested} candidates, "
                f"{tested / elapsed:.0f}/s, ETA {eta:.1f}s",
                file=sys.stderr,
            )
    _check_orbit_sample(sample_direct, sample_expanded)
    entries = itertools.chain.from_iterable(
        _hit_entries(spec, vectors, record) for record in heapq.merge(*held)
    )
    hits = list(itertools.islice(entries, spec.hit_limit))
    limit = spec.bound_limit
    return SearchReport(
        spec=spec,
        space_size=space_size,
        total_candidates=tested,
        hits=hits,
        hits_total=hits_total,
        hit_histogram=histogram,
        max_hit_length=max_len,
        bound_limit=limit,
        bound_violated=limit is not None and max_len > limit,
        convention_counts=conv_counts,
        spot_checks=spot_checks,
        audit_checked=audit_checked,
        audit_disagreements=audit_disagreements,
        wall_time_s=time.monotonic() - t0,
        worker_chunks=[{"start": b[0], "stop": b[1]} for b in blocks],
    )
