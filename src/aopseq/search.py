"""Deterministic exhaustive sweeps over index-function and raw sequence spaces.

Four families share one engine skeleton:

    poly            coefficient vectors mod n, entries omega_n^p(i,j)
    floored         coefficient vectors mod n*K, entries omega_K^floor(p/n)
    raw-phase       all exponent sequences of a given length over [0, n)
    raw-quaternion  all unit-quaternion sequences of a given length

Candidates live in a single lexicographic index space that is cut into fixed
blocks up front; workers process disjoint blocks and the merge is an ordered
concatenation, so reports are identical for any worker count.  Nothing that
depends on scheduling (wall time, chunk accounting, audit tallies, worker
count) enters the canonical serialized report.

Index-function sweeps exploit that generated entries depend only on the cell
residues mod the period: each candidate is collapsed to its period x period
tile, and column counts beyond the period are rejected outright because
columns j and j + period coincide (a column cannot be orthogonal to its own
duplicate at shift 0).  Verdicts are memoized per column-phase class of the
tile: every column is shifted mod the alphabet order so that its row-0 entry
is 0.  A constant phase on a column multiplies its cross-correlations by a
unit and leaves its autocorrelation unchanged, so both AOP conditions keep
their truth values for every (R, C).  The memo lives for the whole sweep in
each process (the serial loop or one pool worker) and never across sweeps.

One candidate in a hundred is re-checked the slow way: the array is
regenerated directly from the index function, the duplicate columns are
compared entrywise, and the pruned combinations are re-run through the full
check.  The sampled candidate's own raw tile, once per distinct raw tile per
sweep, also gets its verdicts recomputed and compared with its class's
verdicts, which keeps the quotient itself under a direct check.
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .aop import _aop_holds_columns, check_aop, is_perfect_sequence
from .cyclotomic import audit
from .indexfn import (
    FlooredIndex,
    PolyIndex,
    generate_floored_array,
    generate_poly_array,
)
from .quaternion import CONJ, MUL, VEC, QuaternionSequence, quat_is_perfect
from .seqmodel import PhaseArray, PhaseSequence

__all__ = [
    "FAMILIES",
    "SearchSpec",
    "SearchReport",
    "BudgetExceeded",
    "run_search",
    "enumerate_poly",
    "enumerate_floored",
    "enumerate_raw",
]

FAMILIES = ("poly", "floored", "raw-phase", "raw-quaternion")

SPOT_SAMPLE_STRIDE = 100  # 1 in 100 candidates re-verified the slow way


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


def _collapse_leading_tuples(m: int, n: int, width: int) -> list[tuple[int, ...]]:
    """All vectors of quadratic-row coefficients whose induced A(j) vanishes
    mod n at every j in [0, m).  Lexicographically ordered."""
    valid = []
    for idx in range(m**width):
        tup = tuple(_digits(idx, m, width))
        ok = True
        for j in range(m):
            acc = 0
            for c in reversed(tup):
                acc = (acc * j + c) % m
            if acc % n != 0:
                ok = False
                break
        if ok:
            valid.append(tup)
    return valid


def _index_space_size(spec: SearchSpec) -> int:
    if spec.family == "raw-phase":
        return spec.n**spec.length
    if spec.family == "raw-quaternion":
        return 8**spec.length
    m = spec.coeff_modulus
    if spec.restriction == "collapse":
        if spec.deg_x < 2:
            return m**spec.vector_width
        lead_width = spec.deg_y + 1
        free = spec.vector_width - lead_width
        return (m**free) * len(_collapse_leading_tuples(m, spec.n, lead_width))
    return m**spec.vector_width


def _blocks(total: int) -> list[tuple[int, int]]:
    if total == 0:
        return []
    size = max(4096, math.ceil(total / 256))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


class _VectorDecoder:
    """Maps a candidate index to its coefficient vector, honoring the
    collapse restriction's split into free prefix and constrained suffix."""

    def __init__(self, spec: SearchSpec) -> None:
        self.m = spec.coeff_modulus
        self.width = spec.vector_width
        self.valid: Optional[list[tuple[int, ...]]] = None
        if spec.restriction == "collapse" and spec.deg_x == 2:
            lead_width = spec.deg_y + 1
            self.valid = _collapse_leading_tuples(self.m, spec.n, lead_width)
            self.free_width = self.width - lead_width

    def __call__(self, idx: int) -> list[int]:
        if self.valid is None:
            return _digits(idx, self.m, self.width)
        prefix_idx, valid_idx = divmod(idx, len(self.valid))
        return _digits(prefix_idx, self.m, self.free_width) + list(self.valid[valid_idx])


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


def _leading_positions(spec: SearchSpec) -> list[int]:
    if spec.deg_x < 2:
        return []
    width = spec.deg_y + 1
    return list(range(2 * width, 3 * width))


def _vector_collapses(spec: SearchSpec, vector: list[int]) -> bool:
    """Whether the quadratic-row coefficient A(j) vanishes mod n for every
    residue j; trivially true when there is no quadratic row."""
    positions = _leading_positions(spec)
    if not positions:
        return True
    m = spec.coeff_modulus
    coeffs = [vector[t] for t in positions]
    for j in range(m):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * j + c) % m
        if acc % spec.n != 0:
            return False
    return True


class _SweepMemo:
    """Tile verdicts of one sweep in one process, keyed by column-phase class,
    and the raw tiles whose verdicts were already cross-checked against their
    class."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        self.cross_checked: set[tuple[int, ...]] = set()


def _tile_columns(flat, period: int) -> list[tuple[int, ...]]:
    # `flat` holds the tile row-major, entry (i, j) at i * period + j
    return [tuple(flat[j::period]) for j in range(period)]


def _tile_verdicts(
    tile_cols: list[tuple[int, ...]],
    period: int,
    order: int,
    r_range: tuple[int, int],
    c_range: tuple[int, int],
) -> list[tuple[int, int]]:
    out = []
    for R in _dim_values(r_range):
        reps = -(-R // period)
        cols_r = [(tc * reps)[:R] for tc in tile_cols]
        for C in _dim_values(c_range):
            if C > period:
                # columns 0 and `period` are the same residue column; their
                # shift-0 inner product is R, so condition 1 cannot hold
                continue
            if _aop_holds_columns(cols_r[:C], R, order):
                out.append((R, C))
    return out


def _build_index_fn(spec: SearchSpec, vector: list[int]):
    poly = PolyIndex.from_coeff_vector(spec.coeff_modulus, spec.deg_x, spec.deg_y, vector)
    if spec.family == "poly":
        return poly
    return FlooredIndex(poly, spec.n, spec.k)


def _generate_direct(spec: SearchSpec, fn, rows: int, cols: int) -> PhaseArray:
    if spec.family == "poly":
        return generate_poly_array(fn, rows, cols)
    return generate_floored_array(fn, rows, cols)


def _spot_verify(
    spec: SearchSpec,
    vector: list[int],
    tile_cols: list[tuple[int, ...]],
    verdicts: list[tuple[int, int]],
) -> int:
    """Slow-path cross-check for one sampled candidate.

    Regenerates the array straight from the index function, confirms the
    tile matches, confirms the duplicated column equals column 0 entrywise,
    and re-runs every pruned (R, C) combination through the full check.
    Returns the number of verification units (tile confirmation plus each
    prune decision re-examined); raises on any mismatch.
    """
    period = spec.coeff_modulus
    order = spec.alphabet_order
    r_hi = spec.r_range[1]
    c_hi = spec.c_range[1]
    fn = _build_index_fn(spec, vector)
    direct = _generate_direct(spec, fn, max(r_hi, period), max(c_hi, period + 1))
    for i in range(period):
        for j in range(period):
            if direct.entry(i, j) != tile_cols[j][i]:
                raise AssertionError(
                    f"tile disagrees with direct generation at {(i, j)} "
                    f"for vector {vector}"
                )
    checked = 1
    for R in _dim_values(spec.r_range):
        dup = tuple(direct.column(period)[:R])
        base = tuple(direct.column(0)[:R])
        for C in _dim_values(spec.c_range):
            if C <= period:
                continue
            if dup != base:
                raise AssertionError(
                    f"columns 0 and {period} differ under direct generation "
                    f"for vector {vector}"
                )
            cols = [tuple(direct.column(j)[:R]) for j in range(C)]
            if _aop_holds_columns(cols, R, order):
                raise AssertionError(
                    f"full check accepted pruned combination {(R, C)} "
                    f"for vector {vector}"
                )
            checked += 1
    for R, C in verdicts:
        arr = _generate_direct(spec, fn, R, C)
        if not check_aop(arr).holds:
            raise AssertionError(
                f"recorded hit {(R, C)} fails the public check for vector {vector}"
            )
    return checked


def _index_function_block(
    spec: SearchSpec, start: int, stop: int, memo: _SweepMemo
) -> dict:
    m = spec.coeff_modulus
    order = spec.alphabet_order
    decoder = _VectorDecoder(spec)
    mono = _monomial_rows(spec)
    is_floored = spec.family == "floored"
    n = spec.n
    k_sq = spec.k * spec.k if is_floored else 0
    hits: list[dict] = []
    histogram: dict[str, int] = {}
    tested = 0
    hits_total = 0
    max_len = 0
    spot_checks = 0
    for idx in range(start, stop):
        if spec.filter_mod > 1 and idx % spec.filter_mod != spec.filter_residue:
            continue
        vector = decoder(idx)
        if spec.symmetry == "phase-shift":
            # canonicalize the constant coefficient: bumping it by `step`
            # rotates every generated exponent by one alphabet step
            step = n if is_floored else 1
            if vector[0] // step != 0:
                continue
        tested += 1
        flat = []
        for row in mono:
            v = 0
            for t, c in enumerate(vector):
                if c:
                    v += c * row[t]
            v %= m
            flat.append(v // n if is_floored else v)
        # the column-phase class: column j shifted by its row-0 entry flat[j]
        key = tuple([(v - b) % order for v, b in zip(flat, flat[:m] * m)])
        verdicts = memo.verdicts.get(key)
        if verdicts is None:
            verdicts = _tile_verdicts(
                _tile_columns(key, m), m, order, spec.r_range, spec.c_range
            )
            memo.verdicts[key] = verdicts
        if idx % SPOT_SAMPLE_STRIDE == 0:
            tile_cols = _tile_columns(flat, m)
            spot_checks += _spot_verify(spec, vector, tile_cols, verdicts)
            raw = tuple(flat)
            if raw != key and raw not in memo.cross_checked:
                memo.cross_checked.add(raw)
                direct = _tile_verdicts(tile_cols, m, order, spec.r_range, spec.c_range)
                if direct != verdicts:
                    raise AssertionError(
                        f"tile of vector {vector} has verdicts {direct}, "
                        f"its column-phase class {verdicts}"
                    )
        if not verdicts:
            continue
        collapses = _vector_collapses(spec, vector) if is_floored else False
        for R, C in verdicts:
            hits_total += 1
            length = R * C
            max_len = max(max_len, length)
            dims = f"{R}x{C}"
            histogram[dims] = histogram.get(dims, 0) + 1
            if len(hits) < spec.hit_limit:
                hit = {"vector": list(vector), "rows": R, "cols": C, "divisor": C}
                if is_floored:
                    hit["collapse"] = collapses
                    hit["exceeds_base_square"] = length > k_sq
                hits.append(hit)
    return {
        "hits": hits,
        "tested": tested,
        "hits_total": hits_total,
        "histogram": histogram,
        "max_hit_length": max_len,
        "spot_checks": spot_checks,
        "convention_counts": {},
    }


def _raw_phase_block(spec: SearchSpec, start: int, stop: int) -> dict:
    n, L = spec.n, spec.length
    hits: list[dict] = []
    histogram: dict[str, int] = {}
    tested = 0
    hits_total = 0
    max_len = 0
    for idx in range(start, stop):
        if spec.filter_mod > 1 and idx % spec.filter_mod != spec.filter_residue:
            continue
        tested += 1
        exps = tuple(_digits(idx, n, L))
        seq = PhaseSequence(n, exps)
        if not is_perfect_sequence(seq):
            continue
        divisors = []
        for C in range(1, L + 1):
            if L % C:
                continue
            if check_aop(PhaseArray(n, L // C, C, exps)).holds:
                divisors.append(C)
        hits_total += 1
        max_len = L
        if len(hits) < spec.hit_limit:
            hits.append({"exponents": list(exps), "aop_divisors": divisors})
    return {
        "hits": hits,
        "tested": tested,
        "hits_total": hits_total,
        "histogram": histogram,
        "max_hit_length": max_len,
        "spot_checks": 0,
        "convention_counts": {},
    }


def _raw_quaternion_block(spec: SearchSpec, start: int, stop: int) -> dict:
    import numpy as np

    L = spec.length
    mul = np.asarray(MUL, dtype=np.int8)
    conj = np.asarray(CONJ, dtype=np.int8)
    vec = np.asarray(VEC, dtype=np.int8)
    idxs = np.arange(start, stop, dtype=np.int64)
    if spec.filter_mod > 1:
        idxs = idxs[idxs % spec.filter_mod == spec.filter_residue]
    tested = int(idxs.size)
    pows = 8 ** np.arange(L - 1, -1, -1, dtype=np.int64)
    seqs = ((idxs[:, None] // pows[None, :]) % 8).astype(np.int8)
    survivors: dict[str, set[int]] = {}
    for convention in ("right", "left"):
        alive = idxs
        table = seqs
        for tau in range(1, L):
            shifted = np.roll(table, -tau, axis=1)
            if convention == "right":
                prod = mul[table, conj[shifted]]
            else:
                prod = mul[conj[table], shifted]
            keep = (vec[prod].sum(axis=1) == 0).all(axis=1)
            alive = alive[keep]
            table = table[keep]
            if alive.size == 0:
                break
        survivors[convention] = set(int(g) for g in alive)
    hits: list[dict] = []
    counts = {"right": 0, "left": 0}
    hits_total = 0
    for g in sorted(survivors["right"] | survivors["left"]):
        seq = QuaternionSequence(tuple(_digits(g, 8, L)))
        conventions = [c for c in ("right", "left") if quat_is_perfect(seq, c)]
        if set(conventions) != {c for c in ("right", "left") if g in survivors[c]}:
            raise AssertionError(
                f"table funnel and direct verification disagree on {seq.symbols()}"
            )
        if not conventions:
            raise AssertionError(f"funnel survivor {seq.symbols()} is not perfect")
        for c in conventions:
            counts[c] += 1
        hits_total += 1
        if len(hits) < spec.hit_limit:
            hits.append({"symbols": list(seq.symbols()), "conventions": conventions})
    return {
        "hits": hits,
        "tested": tested,
        "hits_total": hits_total,
        "histogram": {},
        "max_hit_length": L if hits_total else 0,
        "spot_checks": 0,
        "convention_counts": counts,
    }


def _run_block(spec: SearchSpec, block: tuple[int, int], memo: _SweepMemo) -> dict:
    was_enabled = audit.enabled
    before = (audit.checked, audit.disagreements)
    if spec.audit and not was_enabled:
        audit.enabled = True
    try:
        if spec.family in ("poly", "floored"):
            result = _index_function_block(spec, block[0], block[1], memo)
        elif spec.family == "raw-phase":
            result = _raw_phase_block(spec, block[0], block[1])
        else:
            result = _raw_quaternion_block(spec, block[0], block[1])
    finally:
        if spec.audit and not was_enabled:
            audit.enabled = False
    if spec.audit:
        result["audit_checked"] = audit.checked - before[0]
        result["audit_disagreements"] = audit.disagreements - before[1]
    else:
        result["audit_checked"] = 0
        result["audit_disagreements"] = 0
    if spec.progress_every > 0:
        print(f"block {block[0]}..{block[1]} done", file=sys.stderr)
    return result


# Each pool worker's memo, made fresh by `_start_worker` when the pool of one
# `run_search` call starts; the parent process never sets it.
_worker_memo: Optional[_SweepMemo] = None


def _start_worker() -> None:
    global _worker_memo
    _worker_memo = _SweepMemo()


def _run_block_in_worker(args: tuple[SearchSpec, tuple[int, int]]) -> dict:
    return _run_block(*args, _worker_memo)


def run_search(spec: SearchSpec) -> SearchReport:
    """Execute a sweep.  Raises BudgetExceeded (with the exact count) before
    doing any work if the candidate space is larger than the budget."""
    t0 = time.monotonic()
    total = _index_space_size(spec)
    if spec.family in ("poly", "floored"):
        if spec.r_range[1] < spec.r_range[0] or spec.c_range[1] < spec.c_range[0]:
            total = 0
    if total > spec.budget:
        raise BudgetExceeded(total, spec.budget)
    blocks = _blocks(total)
    if spec.workers <= 1 or len(blocks) <= 1:
        memo = _SweepMemo()
        results = [_run_block(spec, b, memo) for b in blocks]
    else:
        with ProcessPoolExecutor(
            max_workers=spec.workers, initializer=_start_worker
        ) as pool:
            results = list(pool.map(_run_block_in_worker, [(spec, b) for b in blocks]))
    hits: list[dict] = []
    histogram: dict[str, int] = {}
    conv_counts: dict[str, int] = {}
    tested = 0
    hits_total = 0
    max_len = 0
    spot_checks = 0
    audit_checked = 0
    audit_disagreements = 0
    for r in results:
        if len(hits) < spec.hit_limit:
            hits.extend(r["hits"][: spec.hit_limit - len(hits)])
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
    limit = spec.bound_limit
    return SearchReport(
        spec=spec,
        space_size=_index_space_size(spec),
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


def enumerate_poly(spec: SearchSpec) -> SearchReport:
    if spec.family != "poly":
        raise ValueError(f"expected a poly spec, got {spec.family!r}")
    return run_search(spec)


def enumerate_floored(spec: SearchSpec) -> SearchReport:
    if spec.family != "floored":
        raise ValueError(f"expected a floored spec, got {spec.family!r}")
    return run_search(spec)


def enumerate_raw(spec: SearchSpec) -> SearchReport:
    if not spec.family.startswith("raw"):
        raise ValueError(f"expected a raw spec, got {spec.family!r}")
    return run_search(spec)
