"""Sweep engine: brute-force agreement, prune soundness, determinism across
worker counts, budget refusal, filters, and the raw families."""

import concurrent.futures
import hashlib
import itertools
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aopseq.aop import AopVerdict, check_aop
from aopseq.correlation import diff_counts
from aopseq.cyclotomic import counts_is_zero
from aopseq.indexfn import (
    FlooredIndex, PolyIndex, generate_floored_array, generate_poly_array,
)
from aopseq.quaternion import UNIT_SYMBOLS, QuaternionSequence, quat_is_perfect
from aopseq import indexfn, search
from aopseq.search import (
    BudgetExceeded,
    SearchSpec,
    run_search,
)
from aopseq.seqmodel import PhaseArray


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(family="nope", n=2)
    with pytest.raises(ValueError):
        SearchSpec(family="poly", n=0)
    with pytest.raises(ValueError):
        SearchSpec(family="floored", n=2, k=0)
    with pytest.raises(ValueError):
        SearchSpec(family="poly", n=2, restriction="collapse")
    with pytest.raises(ValueError):
        SearchSpec(family="floored", n=2, k=2, deg_x=3, restriction="collapse")
    with pytest.raises(ValueError):
        SearchSpec(family="raw-quaternion", length=0)
    with pytest.raises(ValueError):
        SearchSpec(family="raw-phase", n=2, length=4, symmetry="phase-shift")
    with pytest.raises(ValueError):
        SearchSpec(family="poly", n=2, budget=0)
    with pytest.raises(ValueError):
        SearchSpec(family="poly", n=2, filter_mod=2, filter_residue=5)
    with pytest.raises(ValueError, match="progress_every"):
        SearchSpec(family="poly", n=2, progress_every=-5)


def test_total_candidates_of_small_spaces():
    poly = SearchSpec(family="poly", n=2)
    raw = SearchSpec(family="raw-phase", n=2, length=2)
    assert run_search(poly).total_candidates == 512  # 2^9 bi-quadratics
    assert run_search(raw).total_candidates == 4


def brute_force_hits(n, deg_x, deg_y, r_range, c_range):
    """Reference: regenerate every array directly and run the public check."""
    m = n
    width = (deg_x + 1) * (deg_y + 1)
    found = []
    for idx in range(m**width):
        vec = []
        rem = idx
        for _ in range(width):
            vec.append(rem % m)
            rem //= m
        vec.reverse()
        p = PolyIndex.from_coeff_vector(m, deg_x, deg_y, vec)
        for R in range(r_range[0], r_range[1] + 1):
            for C in range(c_range[0], c_range[1] + 1):
                if check_aop(generate_poly_array(p, R, C)).holds:
                    found.append((tuple(vec), R, C))
    return found


def test_sweep_agrees_with_brute_force():
    """Bilinear polynomials over n=2 with C ranging past the period: the
    engine's prune and tile logic must reproduce plain enumeration."""
    spec = SearchSpec(
        family="poly", n=2, deg_x=1, deg_y=1, r_range=(1, 4), c_range=(1, 5)
    )
    report = run_search(spec)
    want = brute_force_hits(2, 1, 1, (1, 4), (1, 5))
    got = [(tuple(h["vector"]), h["rows"], h["cols"]) for h in report.hits]
    assert got == want
    assert report.hits_total == len(want)
    assert report.total_candidates == 16


def test_determinism_across_worker_counts():
    specs = [
        SearchSpec(
            family="poly",
            n=2,
            deg_x=2,
            deg_y=2,
            r_range=(1, 6),
            c_range=(1, 6),
            workers=w,
        )
        for w in (1, 2, 3)
    ]
    outputs = [run_search(s).canonical_json() for s in specs]
    assert outputs[0] == outputs[1] == outputs[2]


def test_budget_refusal_names_exact_count():
    spec = SearchSpec(family="poly", n=3, deg_x=2, deg_y=2, budget=100)
    with pytest.raises(BudgetExceeded) as exc:
        run_search(spec)
    assert exc.value.count == 3**9
    assert exc.value.budget == 100
    assert str(3**9) in str(exc.value)


def test_empty_dimension_ranges_yield_empty_report():
    spec = SearchSpec(
        family="poly", n=2, deg_x=1, deg_y=1, r_range=(3, 2), c_range=(1, 2)
    )
    report = run_search(spec)
    assert report.total_candidates == 0
    assert report.hits == [] and report.hits_total == 0


def test_filter_mod_partitions_the_space():
    base = dict(family="poly", n=2, deg_x=2, deg_y=1, r_range=(1, 4), c_range=(1, 4))
    full = run_search(SearchSpec(**base))
    parts = [
        run_search(SearchSpec(**base, filter_mod=3, filter_residue=r))
        for r in range(3)
    ]
    assert sum(p.total_candidates for p in parts) == full.total_candidates
    assert sum(p.hits_total for p in parts) == full.hits_total
    merged = {}
    for p in parts:
        for key, c in p.hit_histogram.items():
            merged[key] = merged.get(key, 0) + c
    assert merged == full.hit_histogram


def test_phase_shift_symmetry_counts():
    """Canonicalising the constant coefficient keeps exactly one candidate
    per orbit; for poly over n the orbit size is n."""
    base = dict(family="poly", n=2, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 4))
    full = run_search(SearchSpec(**base))
    reduced = run_search(SearchSpec(**base, symmetry="phase-shift"))
    assert full.total_candidates == 2 * reduced.total_candidates
    # a global phase never changes an AOP verdict
    assert full.hits_total == 2 * reduced.hits_total
    for key, c in reduced.hit_histogram.items():
        assert full.hit_histogram[key] == 2 * c


def test_floored_with_unit_divisor_matches_poly():
    """n=1 makes floor(p/1) mod K the plain polynomial construction over K,
    so both engines must find identical structures."""
    fl = run_search(
        SearchSpec(
            family="floored", n=1, k=3, deg_x=1, deg_y=1, r_range=(1, 4), c_range=(1, 4)
        )
    )
    po = run_search(
        SearchSpec(
            family="poly", n=3, deg_x=1, deg_y=1, r_range=(1, 4), c_range=(1, 4)
        )
    )
    assert fl.total_candidates == po.total_candidates == 81
    assert fl.hits_total == po.hits_total
    assert fl.hit_histogram == po.hit_histogram
    assert [(h["vector"], h["rows"], h["cols"]) for h in fl.hits] == [
        (h["vector"], h["rows"], h["cols"]) for h in po.hits
    ]


def test_collapse_restriction_subsets_full_sweep():
    base = dict(
        family="floored", n=2, k=2, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 4)
    )
    full = run_search(SearchSpec(**base))
    restricted = run_search(SearchSpec(**base, restriction="collapse"))
    assert restricted.total_candidates < full.total_candidates
    assert restricted.hits_total <= full.hits_total
    # every restricted hit is flagged as collapsing
    assert all(h["collapse"] for h in restricted.hits)
    # and the restriction enumerates exactly the A = 0 (mod n) tails
    tails = search._tail_vectors(SearchSpec(**base, restriction="collapse"))
    assert restricted.total_candidates == (4**6) * len(tails)


def test_floored_hits_report_base_square_flag():
    spec = SearchSpec(
        family="floored", n=2, k=2, deg_x=2, deg_y=2, r_range=(2, 2), c_range=(2, 2)
    )
    report = run_search(spec)
    assert report.hits, "expected 2x2 structures over the floored alphabet"
    for h in report.hits:
        assert h["exceeds_base_square"] == (h["rows"] * h["cols"] > 4)


def test_raw_phase_frozen_results():
    report = run_search(SearchSpec(family="raw-phase", n=2, length=4))
    assert report.total_candidates == 16
    assert report.hits_total == 8
    assert {tuple(h["exponents"]) for h in report.hits} == {
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 1, 1, 1),
        (1, 0, 0, 0),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
    }
    for h in report.hits:
        assert h["aop_divisors"] == [1, 2]


def test_raw_phase_length_two_has_no_hits():
    # theta(1) = w^(e0-e1) + w^(e1-e0) is -2 or 2 over the binary alphabet
    report = run_search(SearchSpec(family="raw-phase", n=2, length=2))
    assert report.hits_total == 0
    # a single element is vacuously perfect
    singles = run_search(SearchSpec(family="raw-phase", n=2, length=1))
    assert singles.hits_total == 2


def test_raw_quaternion_funnel_against_direct():
    report = run_search(SearchSpec(family="raw-quaternion", length=4))
    assert report.total_candidates == 4096
    assert report.convention_counts == {"right": 128, "left": 128}
    symbols = {tuple(h["symbols"]) for h in report.hits}
    assert ("i", "j", "i", "-j") in symbols
    # cross-check a slice of the hit list directly
    for h in report.hits[:16]:
        seq = QuaternionSequence.from_symbols(h["symbols"])
        for conv in h["conventions"]:
            assert quat_is_perfect(seq, conv)
    # and spot-check that non-hits are truly not perfect
    assert not quat_is_perfect(
        QuaternionSequence.from_symbols(["1", "1", "1", "1"]), "right"
    )


def test_canonical_json_shape():
    report = run_search(SearchSpec(family="raw-phase", n=2, length=2))
    data = json.loads(report.canonical_json())
    assert data["family"] == "raw-phase"
    assert "wall_time_s" not in data
    assert "workers" not in data
    assert "worker_chunks" not in data
    assert "audit_checked" not in data
    assert data["total_candidates"] == 4
    # canonical output is stable through a round trip
    assert (
        json.dumps(data, sort_keys=True, indent=2) + "\n" == report.canonical_json()
    )


def test_hit_limit_caps_list_not_tallies():
    spec = SearchSpec(
        family="poly", n=2, deg_x=2, deg_y=2, r_range=(1, 1), c_range=(1, 1),
        hit_limit=10,
    )
    report = run_search(spec)
    # every candidate is a vacuous 1x1 hit; the list is capped, the counts not
    assert len(report.hits) == 10
    assert report.hits_total == 512
    assert report.hit_histogram == {"1x1": 512}


@st.composite
def tiles_with_column_phases(draw):
    """A tile (random, or a Frank tile of a divisor of the order with its
    exponents scaled up, which has hits) and one phase offset per column."""
    order = draw(st.integers(2, 16))
    period = draw(st.integers(1, 6))
    if order % period == 0 and draw(st.booleans()):
        step = order // period
        cols = [tuple(i * j * step % order for i in range(period)) for j in range(period)]
    else:
        cols = [
            tuple(draw(st.lists(st.integers(0, order - 1), min_size=period,
                                max_size=period)))
            for _ in range(period)
        ]
    phases = draw(st.lists(st.integers(0, order - 1), min_size=period,
                           max_size=period))
    r_hi = draw(st.integers(1, 2 * period))
    return order, period, cols, phases, r_hi


@given(tiles_with_column_phases())
@settings(max_examples=200, deadline=None)
def test_tile_verdicts_invariant_under_column_phases(case):
    """The search memo keys verdicts by column-phase class; this is the
    fact that makes that sound, for orders 2-16 (6, 10, 12, 15 included)."""
    order, period, cols, phases, r_hi = case
    shifted = [tuple((e + p) % order for e in col) for col, p in zip(cols, phases)]
    ranges = ((1, r_hi), (1, period + 1))
    assert search._VerdictTables(period, order, *ranges).verdicts(shifted) == (
        search._VerdictTables(period, order, *ranges).verdicts(cols)
    )


def test_no_verdict_memo_carries_across_sweeps(monkeypatch):
    """Spot-check verdict passes, pair-table fills and prefix-table fills
    all start again in a second sweep of the same spec."""
    calls = []
    for owner, name in ((search, "_verdict_pass"), (search, "_pair_mask"),
                        (search._VerdictTables, "_extend")):
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    spec = SearchSpec(family="poly", n=2, deg_x=2, deg_y=2,
                      r_range=(1, 4), c_range=(1, 4))
    first = run_search(spec)
    first_calls = Counter(calls)
    calls.clear()
    second = run_search(spec)
    assert set(first_calls) == {"_verdict_pass", "_pair_mask", "_extend"}
    assert Counter(calls) == first_calls
    assert second.canonical_json() == first.canonical_json()


def brute_force_quaternion_hits(length, filter_mod=1, filter_residue=0):
    """Reference: every unit sequence of the length, in index order, checked
    directly under both conventions."""
    found = []
    for idx in range(filter_residue, 8**length, filter_mod):
        seq = QuaternionSequence(tuple(search._digits(idx, 8, length)))
        conventions = [c for c in ("right", "left") if quat_is_perfect(seq, c)]
        if conventions:
            found.append({"symbols": list(seq.symbols()), "conventions": conventions})
    return found


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_raw_quaternion_orbits_match_brute_force(length):
    report = run_search(SearchSpec(family="raw-quaternion", length=length))
    want = brute_force_quaternion_hits(length)
    assert report.hits == want
    assert report.hits_total == len(want)
    assert report.total_candidates == 8**length
    assert report.convention_counts == {
        c: sum(c in h["conventions"] for h in want) for c in ("right", "left")
    }


def test_raw_quaternion_filter_matches_filtered_brute_force():
    report = run_search(
        SearchSpec(family="raw-quaternion", length=4, filter_mod=3, filter_residue=1)
    )
    want = brute_force_quaternion_hits(4, 3, 1)
    assert want
    assert report.hits == want
    assert report.hits_total == len(want)
    assert report.total_candidates == len(range(1, 8**4, 3))


def test_raw_quaternion_hit_limit_keeps_lowest_indices():
    """Orbit members of one block spread over the whole index space, so the
    capped list must be the first hits by global index, not by block.  L = 8
    at filter_mod 7 has 32 blocks and 240 hits, so the cap falls across
    blocks."""
    spec = dict(family="raw-quaternion", length=8, filter_mod=7, filter_residue=3)
    full = run_search(SearchSpec(**spec))
    assert len(full.worker_chunks) == 32
    assert full.hits_total > 40
    assert len(full.hits) == full.hits_total
    order = [[UNIT_SYMBOLS.index(x) for x in h["symbols"]] for h in full.hits]
    assert order == sorted(order)
    capped = run_search(SearchSpec(**spec, hit_limit=40))
    assert capped.hits == full.hits[:40]
    assert capped.hits_total == full.hits_total
    assert capped.convention_counts == full.convention_counts


def test_raw_quaternion_reports_identical_across_worker_counts():
    """L = 8 at filter_mod 7 has 32 blocks with hits, so 2 and 4 workers
    split real hit lists across processes."""
    reports = [run_search(SearchSpec(family="raw-quaternion", length=8, filter_mod=7,
                                     filter_residue=3, workers=w))
               for w in (1, 2, 4)]
    assert [len(r.worker_chunks) for r in reports] == [32, 32, 32]
    assert reports[0].hits_total > 0
    outputs = [r.canonical_json() for r in reports]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("length, blocks", [(6, 1), (7, 4), (8, 32)])
def test_raw_quaternion_blocks_hold_at_least_two_to_the_sixteen(length, blocks):
    """Raw-quaternion blocks hold at least 2^16 representatives, so each
    block's fixed numpy and pool cost stays small beside its work."""
    report = run_search(SearchSpec(family="raw-quaternion", length=length,
                                   filter_mod=7, filter_residue=3))
    assert len(report.worker_chunks) == blocks
    assert report.worker_chunks[0]["stop"] == min(1 << 16, 8 ** (length - 1))


def test_raw_quaternion_sample_mismatch_raises(monkeypatch):
    """The sampled unquotiented funnel must equal the expanded orbits: a
    single-block sweep whose sample funnel wrongly passes raw index 0,
    (1, 1, 1, 1), is refused.  The sample is the one funnel call that starts
    at shift 1; representatives reach the funnel only from shift 2."""
    real = search._quat_funnel
    firsts = []

    def sample_passes_index_zero(seqs, tables, first=1):
        out = real(seqs, tables, first)
        firsts.append((first, len(seqs)))
        if first == 1:
            out["right"] = np.union1d(out["right"], [0])
        return out

    monkeypatch.setattr(search, "_quat_funnel", sample_passes_index_zero)
    with pytest.raises(AssertionError, match="unquotiented funnel"):
        run_search(SearchSpec(family="raw-quaternion", length=4))
    sample_size = len(range(0, 8**4, search.SPOT_SAMPLE_STRIDE))
    assert [f for f in firsts if f[0] == 1] == [(1, sample_size)]
    assert {first for first, _ in firsts} == {1, 2}


def row_shift_one_sums(indices, length, table):
    """The reference: the shift-1 sum as the row funnel forms it, one gather
    per unit pair on the expanded digits and a row sum."""
    seqs = search._unit_digits(indices, length)
    doubled = np.concatenate([seqs, seqs], axis=1)
    return table[seqs << 3 | doubled[:, 1 : 1 + length]].sum(axis=1, dtype=table.dtype)


def row_shift_one_survivors(start, stop, length, table, lookup=None):
    """The reference for `_shift_one_survivors`: the representatives in
    [start, stop) whose row-funnel shift-1 sum vanishes."""
    reps = np.arange(start, stop, dtype=np.int64)
    return reps[row_shift_one_sums(reps, length, table) == 0]


def lookup_mismatches(length):
    """The representatives in the ranges of `block_bounds` that the lookup
    and the row funnel's shift-1 sum disagree on, either convention."""
    memo = search._SweepMemo(SearchSpec(family="raw-quaternion", length=length), [])
    bad = set()
    for convention, table in memo.quat_tables.items():
        for lo, hi in block_bounds(length):
            got = search._shift_one_survivors(lo, hi, length, table,
                                              memo.quat_lookup[convention])
            want = row_shift_one_survivors(lo, hi, length, table)
            bad.update(set(got.tolist()) ^ set(want.tolist()))
    return bad


def block_bounds(length):
    """The whole representative range and two ranges whose bounds are not
    multiples of 8^(L // 2)."""
    total, low = 8 ** (length - 1), 8 ** (length // 2)
    return ((0, total), (5, min(low + 3, total)), (low - 3, total - 1))


@pytest.mark.parametrize("length", range(2, 8))
def test_split_shift_one_matches_row_funnel(length):
    """Every representative at L = 2..7, both conventions: over the whole
    range and over block bounds that are not multiples of 8^(L // 2), the
    lookup returns, in ascending order, exactly the representatives whose
    row-funnel shift-1 sum vanishes, and the survivors of every shift equal
    the row funnel's from shift 1."""
    memo = search._SweepMemo(SearchSpec(family="raw-quaternion", length=length), [])
    for lo, hi in block_bounds(length):
        reps = np.arange(lo, hi, dtype=np.int64)
        rows = search._quat_funnel(search._unit_digits(reps, length), memo.quat_tables)
        split = search._rep_survivors(lo, hi, length, memo)
        for convention, table in memo.quat_tables.items():
            got = search._shift_one_survivors(lo, hi, length, table,
                                              memo.quat_lookup[convention])
            assert got.tolist() == row_shift_one_survivors(lo, hi, length, table).tolist()
            assert split[convention].tolist() == (lo + rows[convention]).tolist()


def test_split_reports_match_row_funnel_reports(monkeypatch):
    """Whole sweeps, filter_mod=3 included and with blocks cut at bounds that
    are not multiples of 8^(L // 2), report the same as sweeps whose shift 1
    takes the row funnel's sum."""
    specs = [SearchSpec(family="raw-quaternion", length=L, filter_mod=3,
                        filter_residue=r) for L, r in ((5, 2), (6, 0), (6, 1))]
    split = [run_search(spec).canonical_json() for spec in specs]
    monkeypatch.setattr(search, "_shift_one_survivors", row_shift_one_survivors)
    monkeypatch.setattr(search, "_blocks", lambda total, least: [
        (lo, min(lo + 1001, total)) for lo in range(0, total, 1001)])
    assert [run_search(spec).canonical_json() for spec in specs] == split
    assert json.loads(split[1])["hits_total"] > 0


def test_split_without_wrap_term_is_caught(monkeypatch):
    """Negative control: lookup keys built without the wrap pair (last low
    digit, first high digit) fail the differential, and a sweep refuses
    them."""
    def without_wrap(table, length):
        hsum, lsum = search._half_sums(table, length)
        low = np.arange(8 ** (length // 2))
        lows = np.lexsort((lsum, low >> 3 * (length // 2 - 1)))
        return hsum, lows, lsum[lows]

    monkeypatch.setattr(search, "_shift_one_lookup", without_wrap)
    assert lookup_mismatches(5)
    with pytest.raises(AssertionError, match="unquotiented funnel"):
        run_search(SearchSpec(family="raw-quaternion", length=6))


def test_quaternion_tables_built_once_per_sweep(monkeypatch):
    """In a serial 4-block L = 7 sweep the pair tables are built once and
    the shift-1 lookup once per convention, each holding 8^(L // 2) lows
    and keys; no lookup is built at L = 1."""
    calls = []
    built = []
    for name in ("_packed_weight_tables", "_shift_one_lookup"):
        real = getattr(search, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            out = real(*args)
            built.append(out)
            return out

        monkeypatch.setattr(search, name, counting)
    report = run_search(SearchSpec(family="raw-quaternion", length=7))
    assert len(report.worker_chunks) == 4
    assert calls == ["_packed_weight_tables", "_shift_one_lookup", "_shift_one_lookup"]
    for hsum, lows, keys in built[1:]:
        assert len(hsum) == 8**4
        assert len(lows) == len(keys) == 8**3
        assert sorted(lows.tolist()) == list(range(8**3))
    calls.clear()
    run_search(SearchSpec(family="raw-quaternion", length=1))
    assert calls == ["_packed_weight_tables"]


# sha256 of the canonical raw-quaternion L = 9 report, as written before
# shift 1 was split into half tables
QUATERNION_L9_SHA256 = "734c95269a3d0c8ee1d62b9b6dd5c8fb1a34ff633d2abe26623f660ebd88beef"


def test_raw_quaternion_length_nine_report_unchanged():
    report = run_search(SearchSpec(family="raw-quaternion", length=9, hit_limit=8192,
                                   budget=2 * 10**8, workers=2))
    assert report.total_candidates == 8**9
    assert len(report.worker_chunks) == 256
    digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
    assert digest == QUATERNION_L9_SHA256


def test_collapse_suffixes_computed_once_per_sweep(monkeypatch):
    """The parent enumerates the tail list once and hands it to every
    process; no block or pool worker enumerates it again."""
    calls = []
    real = search._tail_vectors

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(search, "_tail_vectors", counting)
    for workers in (1, 2):
        spec = SearchSpec(family="floored", n=1, k=3, deg_x=2, deg_y=2,
                          r_range=(1, 1), c_range=(1, 1), restriction="collapse",
                          workers=workers)
        calls.clear()
        report = run_search(spec)
        assert len(report.worker_chunks) > 1
        assert report.total_candidates == 3**9
        assert calls == [spec]


def vanishing_tails(m, n, width):
    """Reference: the tails of `width` coefficients mod m whose polynomial
    sum_b c_b j^b vanishes mod n at every j in [0, m), by plain evaluation."""
    return [t for t in itertools.product(range(m), repeat=width)
            if all(sum(c * j**b for b, c in enumerate(t)) % m % n == 0 for j in range(m))]


@pytest.mark.parametrize("n,k,deg_y", [
    (1, 3, 2), (2, 2, 2), (3, 1, 3), (4, 1, 4), (6, 1, 3), (2, 3, 3), (3, 2, 2),
    (8, 1, 4), (12, 1, 3), (5, 1, 4),
])
def test_collapse_suffix_count_matches_enumeration(n, k, deg_y):
    """`_tail_count` equals the length of `_tail_vectors` for collapse specs
    with a quadratic row (against a plain enumeration too), collapse specs
    with deg_x < 2 and unrestricted floored and poly specs, where every tail
    of deg_y + 1 digits mod m is kept in lexicographic order."""
    m = n * k
    collapse = SearchSpec(family="floored", n=n, k=k, deg_x=2, deg_y=deg_y,
                          restriction="collapse")
    assert search._tail_vectors(collapse) == vanishing_tails(m, n, deg_y + 1)
    assert search._tail_count(collapse) == len(search._tail_vectors(collapse))
    every = list(itertools.product(range(m), repeat=deg_y + 1))
    for spec in (
        replace(collapse, deg_x=0),
        replace(collapse, deg_x=1),
        replace(collapse, restriction=""),
        SearchSpec(family="poly", n=m, deg_x=2, deg_y=deg_y),
    ):
        assert search._tail_vectors(spec) == every
        assert search._tail_count(spec) == len(every)


def reference_index_sweep(spec):
    """Direct reference for poly and floored sweeps: decode every index in
    the filter, build its tile by dot products with the monomial values, and
    take its verdicts from `uncut_tile_verdicts` over the cells the sweep
    does not prune, R < 2m and C <= m."""
    m = spec.coeff_modulus
    n = spec.n
    floored = spec.family == "floored"
    divisor = n if floored else 1
    tail_width = spec.deg_y + 1
    head_width = spec.vector_width - tail_width
    tails = search._tail_vectors(spec)
    monomials = [
        [pow(i, a, m) * pow(j, b, m) % m
         for a in range(spec.deg_x + 1) for b in range(spec.deg_y + 1)]
        for i in range(m) for j in range(m)
    ]
    space = m**head_width * len(tails)
    by_tile = {}
    hits, histogram = [], {}
    tested = hits_total = max_len = 0
    for idx in range(spec.filter_residue, space, spec.filter_mod):
        head, tail = divmod(idx, len(tails))
        vector = list(search._digits(head, m, head_width)) + list(tails[tail])
        if spec.symmetry == "phase-shift" and vector[0] >= divisor:
            continue
        tested += 1
        tile = tuple(
            sum(c * v for c, v in zip(vector, row)) % m // divisor for row in monomials
        )
        if tile not in by_tile:
            by_tile[tile] = uncut_tile_verdicts(
                [tile[j::m] for j in range(m)], m, spec.alphabet_order,
                (spec.r_range[0], min(spec.r_range[1], 2 * m - 1)),
                (spec.c_range[0], min(spec.c_range[1], m)),
            )
        lead = vector[2 * tail_width : 3 * tail_width] if spec.deg_x >= 2 else []
        collapse = all(
            sum(c * j**b for b, c in enumerate(lead)) % m % n == 0 for j in range(m)
        )
        for R, C in by_tile[tile]:
            hits_total += 1
            max_len = max(max_len, R * C)
            histogram[f"{R}x{C}"] = histogram.get(f"{R}x{C}", 0) + 1
            if len(hits) < spec.hit_limit:
                hit = {"vector": vector, "rows": R, "cols": C, "divisor": C}
                if floored:
                    hit["collapse"] = collapse
                    hit["exceeds_base_square"] = R * C > spec.k**2
                hits.append(hit)
    return tested, hits, hits_total, histogram, max_len


def differential_cases():
    cases = []
    for family, n, k in (("poly", 2, 0), ("floored", 2, 2)):
        for deg_x in range(4):
            for deg_y in range(3):
                m = n * (k or 1)
                space = m ** ((deg_x + 1) * (deg_y + 1))
                # thin the largest spaces to a few thousand candidates
                mod = 1 if space <= 4096 else space // 2048 + 1
                cases.append(dict(family=family, n=n, k=k, deg_x=deg_x, deg_y=deg_y,
                                  filter_mod=mod, filter_residue=mod // 2))
    cases += [
        dict(family="poly", n=3, deg_x=2, deg_y=2, filter_mod=7, filter_residue=3),
        dict(family="poly", n=3, deg_x=1, deg_y=2, symmetry="phase-shift"),
        dict(family="poly", n=2, deg_x=3, deg_y=0, symmetry="phase-shift",
             filter_mod=3, filter_residue=2),
        dict(family="floored", n=2, k=2, deg_x=2, deg_y=1, symmetry="phase-shift"),
        dict(family="floored", n=2, k=2, deg_x=0, deg_y=2, symmetry="phase-shift"),
        dict(family="floored", n=2, k=2, deg_x=2, deg_y=1, restriction="collapse"),
        dict(family="floored", n=2, k=2, deg_x=2, deg_y=2, restriction="collapse",
             symmetry="phase-shift", filter_mod=13, filter_residue=4),
        dict(family="floored", n=2, k=2, deg_x=1, deg_y=2, restriction="collapse",
             filter_mod=3, filter_residue=0),
        dict(family="floored", n=3, k=1, deg_x=2, deg_y=1, filter_mod=5,
             filter_residue=1),
    ]
    return cases


@pytest.mark.parametrize(
    "case", differential_cases(),
    ids=lambda c: "-".join(f"{v}" for v in c.values()),
)
def test_composed_tiles_match_direct_reference(case):
    spec = SearchSpec(**case, r_range=(1, 4), c_range=(1, 5), hit_limit=10**6)
    report = run_search(spec)
    tested, hits, hits_total, histogram, max_len = reference_index_sweep(spec)
    assert report.total_candidates == tested
    assert report.hits == hits
    assert report.hits_total == hits_total
    assert report.hit_histogram == histogram
    assert report.max_hit_length == max_len


def test_hit_cap_across_blocks_is_independent_of_workers():
    """Blocks return at most `hit_limit` compact records and the parent keeps
    the first `hit_limit` in block order, for a cap below, at and above one
    block's hit count, and for one that splits a candidate's hits."""
    base = dict(family="floored", n=2, k=2, deg_x=3, deg_y=1, r_range=(1, 3),
                c_range=(1, 3), filter_mod=3, filter_residue=1)
    uncapped = run_search(SearchSpec(**base, hit_limit=10**6))
    assert len(uncapped.worker_chunks) > 4
    assert len(uncapped.hits) == uncapped.hits_total
    spec = SearchSpec(**base)
    first = search._run_block(spec, (0, uncapped.worker_chunks[0]["stop"]),
                              search._SweepMemo(spec, search._tail_vectors(spec)))
    per_block = first["hits_total"]
    assert 0 < per_block < uncapped.hits_total
    hits = uncapped.hits
    split = next(i for i in range(per_block + 2, len(hits))
                 if hits[i]["vector"] == hits[i - 1]["vector"])
    for limit in (per_block - 1, per_block, per_block + 1, split):
        outputs = [
            run_search(SearchSpec(**base, hit_limit=limit, workers=w))
            for w in (1, 2, 4, 16)
        ]
        assert outputs[0].hits == hits[:limit]
        assert outputs[0].hits_total == uncapped.hits_total
        texts = [r.canonical_json() for r in outputs]
        assert texts[1:] == texts[:-1]


@pytest.mark.parametrize("base", [
    dict(family="floored", n=2, k=2, deg_x=3, deg_y=1, r_range=(1, 3), c_range=(1, 3)),
    dict(family="raw-phase", n=3, length=9),
], ids=["floored", "raw-phase"])
def test_hit_room_is_spent_once_per_process(base):
    """One memo runs two ascending blocks: once the first has recorded
    `hit_limit` hits, the second ships no record but counts every hit.
    A memo that meets a block below its previous one raises."""
    spec = SearchSpec(**base, hit_limit=5)
    vectors = search._tail_vectors(spec) if spec.family == "floored" else []
    low, high = (0, 4096), (4096, 8192)
    alone = search._run_block(spec, high, search._SweepMemo(spec, vectors))
    assert len(alone["hits"]) > 0
    memo = search._SweepMemo(spec, vectors)
    assert len(search._run_block(spec, low, memo)["hits"]) > 0
    assert memo.room <= 0
    second = search._run_block(spec, high, memo)
    assert second["hits"] == []
    assert second["tested"] == alone["tested"]
    assert second["hits_total"] == alone["hits_total"] > 0
    assert second["histogram"] == alone["histogram"]
    memo = search._SweepMemo(spec, vectors)
    search._run_block(spec, high, memo)
    with pytest.raises(RuntimeError, match="starts below 8192"):
        search._run_block(spec, low, memo)


@pytest.mark.parametrize("base", [
    # 27 tails: block edges at multiples of 4096 fall inside heads
    dict(family="poly", n=3, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 4)),
    # 16 tails: a head's first filtered tail moves with its index
    dict(family="floored", n=2, k=2, deg_x=3, deg_y=1, r_range=(1, 3), c_range=(1, 3),
         filter_mod=3, filter_residue=1),
    dict(family="poly", n=3, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 4),
         symmetry="phase-shift"),
], ids=["poly-mid-head-edges", "floored-filter", "poly-phase-shift"])
def test_span_counts_match_per_candidate_tallies(base):
    """Blocks tally each head from its span's cached verdict counts.  At
    hit_limit 0 a head reads its verdicts only at its span's first read;
    with room to spare every head reads them to record its hits.  Both must
    count what the per-candidate reference counts."""
    counted = run_search(SearchSpec(**base, hit_limit=0))
    picked = run_search(SearchSpec(**base, hit_limit=10**9))
    assert counted.hits == []
    assert len(picked.hits) == picked.hits_total > 0
    tested, _, hits_total, histogram, max_len = reference_index_sweep(counted.spec)
    for report in (counted, picked):
        assert report.total_candidates == tested
        assert report.hits_total == hits_total
        assert report.hit_histogram == histogram
        assert report.max_hit_length == max_len
    assert counted.spot_checks == picked.spot_checks


def test_raw_phase_hit_cap_across_blocks():
    """Raw-phase blocks hold at most `hit_limit` records and the parent cuts
    the merged list once, for caps of none, one block's share, one past it,
    and most of the list."""
    base = dict(family="raw-phase", n=3, length=9)
    uncapped = run_search(SearchSpec(**base, hit_limit=10**6))
    assert len(uncapped.worker_chunks) == 5
    assert uncapped.hits_total == len(uncapped.hits) == 162
    for limit in (0, 34, 35, 100):
        outputs = [
            run_search(SearchSpec(**base, hit_limit=limit, workers=w)) for w in (1, 2)
        ]
        assert outputs[0].hits == uncapped.hits[:limit]
        assert outputs[0].hits_total == uncapped.hits_total
        assert outputs[0].canonical_json() == outputs[1].canonical_json()


@pytest.mark.parametrize("spec,calls", [
    (SearchSpec(family="poly", n=2, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 4)),
     {"check_aop": 10}),
    (SearchSpec(family="floored", n=2, k=2, deg_x=1, deg_y=1, r_range=(1, 4),
                c_range=(1, 6)),
     {"check_aop": 3}),
], ids=["poly", "floored"])
def test_spot_check_calls_through_module_globals(monkeypatch, spec, calls):
    """Each recorded hit of a sampled candidate is decided by `check_aop`,
    through the name in `aopseq.search` so that wrappers installed there see
    every call.  Sampled arrays come from the sweep's exact grids, so no
    index-function generator runs."""
    seen = dict.fromkeys(("generate_poly_array", "generate_floored_array", "_exponents",
                          "check_aop"), 0)
    for name in seen:
        module = search if name == "check_aop" else indexfn
        def counting(*args, _real=getattr(module, name), _name=name):
            seen[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    report = run_search(spec)
    assert report.spot_checks > 0
    assert seen == {**dict.fromkeys(seen, 0), **calls}


def test_composed_tile_disagreeing_with_direct_tile_raises(monkeypatch):
    """Index 0 is sampled; its composed tile is head tile 0 plus tail tile 0,
    which is made wrong here, so its direct array, whose top-left block is
    the direct tile, must fail the periodic extension of the composed tile."""
    real = search._tail_tiles

    def wrong_first_tail(spec, vectors, mono):
        tiles = real(spec, vectors, mono)
        first = list(tiles[0])
        first[1] = (first[1] + spec.n) % spec.coeff_modulus  # one floored step
        return [tuple(first)] + tiles[1:]

    monkeypatch.setattr(search, "_tail_tiles", wrong_first_tail)
    with pytest.raises(AssertionError, match="composed tile"):
        run_search(SearchSpec(family="floored", n=2, k=2, deg_x=1, deg_y=1,
                              r_range=(1, 2), c_range=(1, 2)))


@pytest.mark.parametrize("workers", [3, 10**5])
def test_pool_starts_at_most_one_process_per_block(monkeypatch, workers):
    """Under fork a pool starts every process it may use at the first
    submit, so `_block_results` asks for no more than there are blocks.  The
    pool here records the count asked for and runs every block inline."""
    started = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(search, "_worker_state", ())
    spec = SearchSpec(family="floored", n=2, k=2, deg_x=3, deg_y=1, r_range=(2, 3),
                      c_range=(2, 3), workers=workers)
    report = run_search(spec)
    blocks = len(report.worker_chunks)
    assert blocks == 16
    assert started == [min(workers, blocks)]
    assert report.canonical_json() == run_search(replace(spec, workers=1)).canonical_json()


def test_table_entries_count_the_built_tables():
    """The closed-form table count that the cap reads is the size of the
    tables a sweep builds, and criterion 12's sweep passes the cap."""
    for spec in (SearchSpec(family="floored", n=2, k=2, deg_x=2, deg_y=1,
                            r_range=(1, 6), c_range=(1, 3), restriction="collapse"),
                 SearchSpec(family="poly", n=3, deg_x=0, deg_y=2, r_range=(1, 2))):
        memo = search._SweepMemo(spec, search._tail_vectors(spec))
        tables = (memo.tails, memo.last_head_tiles, memo.exact_tails, memo.exact_last)
        assert search._table_entries(spec) == sum(len(t) for table in tables for t in table)
    big = SearchSpec(family="poly", n=5, r_range=(1, 25), c_range=(1, 25))
    assert search._table_entries(big) == 250 * (25 + 25 * 25) <= search.MAX_TABLE_ENTRIES
    with pytest.raises(ValueError, match="past the cap of"):
        run_search(replace(big, n=7, r_range=(1, 49), c_range=(1, 49)))


def test_index_sweeps_do_not_import_numpy(loaded_modules):
    """Importing numpy costs more than a small sweep; the poly and floored
    paths stay pure Python."""
    loaded = loaded_modules(
        "from aopseq import SearchSpec, run_search\n"
        "run_search(SearchSpec(family='poly', n=3, deg_x=1, deg_y=1,"
        " r_range=(1, 3), c_range=(1, 3)))\n"
        "run_search(SearchSpec(family='floored', n=2, k=2, deg_x=1, deg_y=1,"
        " r_range=(1, 4), c_range=(1, 4), restriction='collapse'))\n"
    )
    assert "numpy" not in loaded


def test_serial_sweeps_load_no_pool_scatter_or_indexfn(loaded_modules):
    """The pool machinery is imported when a pool starts, and a sweep never
    needs the scatter tracer or the index-function generators."""
    loaded = loaded_modules(
        "from aopseq import SearchSpec, run_search\n"
        "run_search(SearchSpec(family='poly', n=3, deg_x=1, deg_y=1,"
        " r_range=(1, 3), c_range=(1, 3)))\n"
    )
    assert "aopseq.search" in loaded
    assert not {m for m in loaded if m.startswith("concurrent")}
    assert not loaded & {"aopseq.scatter", "aopseq.indexfn"}


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_lines_come_from_the_parent(workers, capfd):
    spec = SearchSpec(family="floored", n=2, k=2, deg_x=3, deg_y=1,
                      r_range=(2, 3), c_range=(2, 3), workers=workers)
    quiet = run_search(spec)
    assert len(quiet.worker_chunks) > 1
    assert capfd.readouterr().err == ""
    # the quiet run is the default spec, and the default is progress_every=0
    assert spec.progress_every == 0
    loud = run_search(replace(spec, progress_every=1))
    lines = capfd.readouterr().err.splitlines()
    assert loud.canonical_json() == quiet.canonical_json()
    blocks = len(loud.worker_chunks)
    assert len(lines) == blocks
    for number, line in enumerate(lines, 1):
        assert line.startswith(f"block {number}/{blocks}: ")
        assert "/s, ETA " in line
    assert lines[-1].endswith("ETA 0.0s")
    assert f"{loud.total_candidates} candidates" in lines[-1]
    # every N-th block and the last one (16 blocks: N = 5 ends on 15, 16)
    for every in (2, 5):
        run_search(replace(spec, progress_every=every))
        numbers = [int(line.split()[1].split("/")[0])
                   for line in capfd.readouterr().err.splitlines()]
        assert numbers == [b for b in range(1, blocks + 1) if b % every == 0 or b == blocks]


def test_raw_phase_divisors_only_for_recorded_hits(monkeypatch):
    """AOP divisors are computed for the records a block keeps and for no
    other perfect sequence: n=3 L=9 has 162 hits, three divisors each."""
    calls = []

    def counting(array, _real=search.check_aop):
        calls.append(array.cols)
        return _real(array)

    monkeypatch.setattr(search, "check_aop", counting)
    spec = SearchSpec(family="raw-phase", n=3, length=9, hit_limit=0)
    assert run_search(spec).hits_total == 162
    assert calls == []
    assert len(run_search(replace(spec, hit_limit=4096)).hits) == 162
    assert len(calls) == 486


FLOORED_SPOT = SearchSpec(family="floored", n=2, k=2, deg_x=1, deg_y=1,
                          r_range=(1, 6), c_range=(1, 6))


def wrong_grid_memo(grids, cell):
    """A `_SweepMemo` whose every exact grid in the list named `grids`
    ("exact_tails" or "exact_last") is one floored step (n) off at `cell`."""
    class WrongGrid(search._SweepMemo):
        def __init__(self, spec, vectors):
            super().__init__(spec, vectors)
            for grid in getattr(self, grids):
                grid[cell[0] * self.width + cell[1]] += spec.n

    return WrongGrid


def test_direct_array_off_its_tile_extension_raises(monkeypatch):
    """Cell (m, 1) lies outside the top-left tile and outside column m; a
    direct array changed there must still fail the periodic-extension check."""
    m = FLOORED_SPOT.coeff_modulus
    monkeypatch.setattr(search, "_SweepMemo", wrong_grid_memo("exact_last", (m, 1)))
    with pytest.raises(AssertionError, match="periodic extension of its tile at") as exc:
        run_search(FLOORED_SPOT)
    assert f"tile at {(m, 1)} for vector" in str(exc.value)


def test_wrong_exact_tail_grid_raises(monkeypatch):
    """Control on the other grid: every exact tail grid one floored step off
    at (1, 1), inside the tile, fails the first sample (index 0)."""
    monkeypatch.setattr(search, "_SweepMemo", wrong_grid_memo("exact_tails", (1, 1)))
    with pytest.raises(AssertionError, match="periodic extension of its tile at") as exc:
        run_search(FLOORED_SPOT)
    assert "tile at (1, 1) for vector [0, 0, 0, 0]" in str(exc.value)


GRID_CASES = [
    dict(family=family, n=n, k=k, deg_x=deg_x, deg_y=deg_y, r_range=(1, 6), c_range=(1, 5))
    for family, n, k in (("poly", 4, 0), ("floored", 2, 2))
    for deg_x, deg_y in ((0, 4), (1, 2), (2, 1), (3, 1))
] + [
    dict(family="poly", n=2, deg_x=2, deg_y=2, r_range=(1, 5), c_range=(1, 4)),
    dict(family="floored", n=2, k=2, deg_x=2, deg_y=2, r_range=(1, 6), c_range=(1, 6),
         restriction="collapse", filter_mod=3, filter_residue=1),
    dict(family="floored", n=2, k=2, deg_x=2, deg_y=1, r_range=(1, 4), c_range=(1, 5),
         symmetry="phase-shift"),
    dict(family="poly", n=3, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 4),
         symmetry="phase-shift", filter_mod=3, filter_residue=2),
    # r_hi, c_hi < m: the direct array is still m x (m + 1)
    dict(family="poly", n=5, deg_x=1, deg_y=1, r_range=(1, 3), c_range=(1, 2)),
    dict(family="floored", n=2, k=3, deg_x=1, deg_y=1, r_range=(2, 4), c_range=(1, 3)),
]


@pytest.mark.parametrize("case", GRID_CASES,
                         ids=lambda c: "-".join(f"{v}" for v in c.values()))
def test_sampled_grids_match_the_generators(monkeypatch, case):
    """Differential: every sample's direct array from the exact grids equals
    the index function's generated R' x C' array, and every array a recorded
    hit hands to `check_aop` equals the generated R x C one."""
    spec = SearchSpec(**case, hit_limit=10**6)
    m = spec.coeff_modulus
    tails = search._tail_vectors(spec)
    head_width = spec.vector_width - spec.deg_y - 1
    real_spot, real_check = search._spot_check, search.check_aop
    sampled, arrays, hit_arrays = [], [], []

    def spot(spec_, memo, idx, composed, direct, verdicts):
        head, tail = divmod(idx, len(tails))
        vector = search._digits(head, m, head_width) + list(tails[tail])
        fn = PolyIndex.from_coeff_vector(m, spec.deg_x, spec.deg_y, vector)
        generate = generate_poly_array
        if spec.family == "floored":
            fn, generate = FlooredIndex(fn, spec.n, spec.k), generate_floored_array
        shape = (max(spec.r_range[1], m), max(spec.c_range[1], m + 1))
        assert direct == list(generate(fn, *shape).exponents), (idx, vector)
        arrays.clear()
        units = real_spot(spec_, memo, idx, composed, direct, verdicts)
        assert arrays == [generate(fn, R, C) for R, C in verdicts], (idx, vector)
        sampled.append((idx, vector))
        hit_arrays.extend(arrays)
        return units

    def check(array):
        arrays.append(array)
        return real_check(array)

    monkeypatch.setattr(search, "_spot_check", spot)
    monkeypatch.setattr(search, "check_aop", check)
    report = run_search(spec)
    divisor = spec.n if spec.family == "floored" else 1
    want = [
        idx for idx in range(0, m**head_width * len(tails), search.SPOT_SAMPLE_STRIDE)
        if idx % spec.filter_mod == spec.filter_residue
        and not (spec.symmetry and (search._digits(idx // len(tails), m, head_width)
                                    or [0])[0] >= divisor)
    ]
    assert [idx for idx, _ in sampled] == want
    assert len(want) > 1
    assert hit_arrays and report.spot_checks > 0


def test_pruned_width_accepted_by_the_full_check_raises(monkeypatch):
    """A spot-check verdict pass that accepts every width past the period
    m = 4 must be caught by the sampled re-decision of the pruned column
    counts (class verdicts never reach that pass)."""
    real = search._verdict_pass

    def accepting(columns, r_values, c_values, order):
        wide = {(R, C) for R in r_values for C in c_values if C > 4}
        return sorted(wide.union(real(columns, r_values, c_values, order)))

    monkeypatch.setattr(search, "_verdict_pass", accepting)
    with pytest.raises(AssertionError, match="full check accepted pruned combination"):
        run_search(FLOORED_SPOT)


def test_pruned_widths_re_decided_once_per_sampled_raw_tile(monkeypatch):
    """Every sample counts its spot units and builds its direct array, but
    the pruned (R, C) are re-decided only for the first sample of each
    distinct raw tile: one pass per R over c_hi = 6 > m = 4 direct columns,
    while class verdict passes see at most m columns."""
    spec = SearchSpec(family="floored", n=2, k=2, deg_x=1, deg_y=2,
                      r_range=(1, 6), c_range=(1, 6))
    counts = {"samples": 0, "hit_checks": 0, "spot_passes": 0}
    real_spot, real_check = search._spot_check, search.check_aop
    real_pass = search._verdict_pass

    def spot(*args):
        counts["samples"] += 1
        return real_spot(*args)

    def check(array):
        counts["hit_checks"] += 1
        return real_check(array)

    def verdict_pass(columns, r_values, c_values, order):
        counts["spot_passes"] += len(columns) == 6
        return real_pass(columns, r_values, c_values, order)

    monkeypatch.setattr(search, "_spot_check", spot)
    monkeypatch.setattr(search, "check_aop", check)
    monkeypatch.setattr(search, "_verdict_pass", verdict_pass)
    report = run_search(spec)
    m = spec.coeff_modulus
    mono = search._monomial_rows(spec)
    samples = range(0, report.total_candidates, search.SPOT_SAMPLE_STRIDE)
    raw_tiles = {
        tuple(sum(c * r for c, r in zip(search._digits(idx, m, spec.vector_width), row))
              % m // spec.n for row in mono)
        for idx in samples
    }
    assert report.total_candidates == 4096
    assert report.spot_checks == 533
    # one direct array per sample and one R x C block per recorded hit
    assert counts["samples"] == len(samples) == 41
    assert counts["samples"] + counts["hit_checks"] == 103
    assert len(raw_tiles) < len(samples)
    assert counts["spot_passes"] == len(raw_tiles)


def test_cut_row_accepted_by_the_full_check_raises(monkeypatch):
    """With no width pruned (C <= m = 2), the first sample of each raw tile
    still re-decides every R >= 2m on its direct columns.  Class verdict
    passes never run there, so a pass that accepts every width from R = 4
    on leaves the verdicts alone and only that re-decision sees it."""
    real = search._verdict_pass

    def accepting(columns, r_values, c_values, order):
        found = real(columns, r_values, c_values, order)
        return [(R, C) for R in r_values for C in c_values if R >= 4 or (R, C) in found]

    monkeypatch.setattr(search, "_verdict_pass", accepting)
    spec = SearchSpec(family="poly", n=2, deg_x=2, deg_y=2, r_range=(1, 5),
                      c_range=(1, 2))
    with pytest.raises(AssertionError, match=r"pruned combination \(4, 1\)"):
        run_search(spec)


@pytest.mark.parametrize("spec", [
    SearchSpec(family="poly", n=3, deg_x=1, deg_y=1, r_range=(1, 4), c_range=(1, 4)),
    SearchSpec(family="floored", n=2, k=2, deg_x=1, deg_y=1, r_range=(1, 6),
               c_range=(1, 6)),
], ids=["poly", "floored"])
def test_dropped_class_verdict_raises(monkeypatch, spec):
    """Negative control: class verdicts that miss a true verdict would only
    lower the tallies.  The first sample of each tile decides every (R, C)
    on its direct columns and must find exactly its class's verdicts, so
    the sweep refuses them."""
    real = search._VerdictTables.verdicts
    monkeypatch.setattr(search._VerdictTables, "verdicts",
                        lambda *args: real(*args)[:-1])
    with pytest.raises(AssertionError, match=r"full check accepted \(\d+, \d+\)"):
        run_search(spec)


def test_tail_count_off_by_one_raises(monkeypatch):
    """The tail list and its closed-form count must agree before a sweep
    runs a block."""
    real = search._tail_count
    monkeypatch.setattr(search, "_tail_count", lambda spec: real(spec) + 1)
    with pytest.raises(AssertionError, match="9 tails enumerated, 10 counted"):
        run_search(SearchSpec(family="poly", n=3, deg_x=1, deg_y=1))


def test_recorded_hit_failing_the_public_check_raises(monkeypatch):
    """Every candidate of a 1 x 1 range is a hit, so sample 0 records one,
    and a public check that rejects it stops the sweep."""
    monkeypatch.setattr(search, "check_aop", lambda array: AopVerdict(
        False, "condition-1", (0, 1, 0), array.cols))
    with pytest.raises(AssertionError,
                       match=r"recorded hit \(1, 1\) fails the public check "
                             r"for vector \[0, 0, 0, 0\]"):
        run_search(SearchSpec(family="poly", n=2, deg_x=1, deg_y=1))


def test_flipped_funnel_weight_raises(monkeypatch):
    """A packed pair table with the weight of (1, 1) negated passes
    sequences that the direct quaternion check rejects."""
    real = search._packed_weight_tables

    def flipped(length):
        tables = real(length)
        tables["right"][0] = -tables["right"][0]
        return tables

    monkeypatch.setattr(search, "_packed_weight_tables", flipped)
    with pytest.raises(AssertionError, match=r"packed-weight funnel finds "
                                             r"\('1', '1', '1', '-1'\) perfect under"):
        run_search(SearchSpec(family="raw-quaternion", length=4))


def head_tile_group(spec):
    """Every head tile mod m, by closure: the subgroup of tiles generated by
    the monomial columns of the head coefficients."""
    m = spec.coeff_modulus
    mono = search._monomial_rows(spec)
    group = {(0,) * (m * m)}
    for col in range(spec.vector_width - spec.deg_y - 1):
        multiples = {tuple(k * row[col] % m for row in mono) for k in range(m)}
        group = {tuple([(a + b) % m for a, b in zip(h, x)])
                 for h in group for x in multiples}
    return group


def shared_tail_cases():
    cases = []
    for m in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        p = next(d for d in range(2, m + 1) if m % d == 0) if m > 1 else 1
        for deg_x in range(4):
            for deg_y in range(3):
                if m ** (deg_x * (deg_y + 1)) > 4096:
                    continue
                cases.append(dict(family="poly", n=m, deg_x=deg_x, deg_y=deg_y))
                cases.append(dict(family="floored", n=p, k=m // p, deg_x=deg_x,
                                  deg_y=deg_y))
    for n, k in ((1, 2), (2, 1), (2, 2), (3, 1), (1, 4), (2, 3), (3, 2), (4, 2),
                 (2, 4), (6, 1), (3, 4), (4, 3), (12, 1)):
        for deg_y in range(3):
            if (n * k) ** (2 * (deg_y + 1)) <= 4096:
                cases.append(dict(family="floored", n=n, k=k, deg_x=2, deg_y=deg_y,
                                  restriction="collapse"))
    return cases


@pytest.mark.parametrize("case", shared_tail_cases(),
                         ids=lambda c: "-".join(f"{v}" for v in c.values()))
def test_shared_tails_are_the_tails_among_head_tiles(case):
    """The closed form (deg_x! q_s(j) = 0 mod m at every j) picks exactly the
    tails whose tile is a head tile, against the enumerated head tiles."""
    spec = SearchSpec(**case)
    vectors = search._tail_vectors(spec)
    tails = search._tail_tiles(spec, vectors, search._monomial_rows(spec))
    heads = head_tile_group(spec)
    want = [s for s, tile in enumerate(tails) if tile in heads]
    assert search._shared_tails(spec, vectors) == want


SHARED_SPEC = SearchSpec(family="floored", n=2, k=2, deg_x=2, deg_y=1,
                         r_range=(1, 4), c_range=(1, 5))


def test_tail_outside_the_head_tiles_is_never_read(monkeypatch):
    """Sharing is sound for any tail: a head tile h + tails[s] reads h's row
    at s (+) t because both compose to h + tails[s (+) t].  A tail outside
    the head tiles only registers tiles that no head reaches, so adding one
    changes no report and no verdict count."""
    calls = []
    real_verdicts = search._class_verdicts

    def counting(*args):
        calls.append(1)
        return real_verdicts(*args)

    monkeypatch.setattr(search, "_class_verdicts", counting)
    plain = run_search(SHARED_SPEC)
    plain_calls = len(calls)
    real = search._shared_tails
    shared = real(SHARED_SPEC, search._tail_vectors(SHARED_SPEC))
    outside = next(s for s in itertools.count() if s not in shared)
    monkeypatch.setattr(search, "_shared_tails",
                        lambda spec, vectors: real(spec, vectors) + [outside])
    calls.clear()
    assert run_search(SHARED_SPEC).canonical_json() == plain.canonical_json()
    assert len(calls) == plain_calls


def test_wrong_shared_row_index_map_raises(monkeypatch):
    """A head tile h + tails[s] that read h's row without its index map
    would take the verdicts of h + tails[t] for h + tails[s] + tails[t];
    the sampled comparison with each index's own tile refuses it."""
    def unshifted(spec, vectors, shared):
        return [list(range(len(vectors)))] * len(shared)

    monkeypatch.setattr(search, "_tail_shifts", unshifted)
    with pytest.raises(AssertionError, match="through its head tile's shared row"):
        run_search(SHARED_SPEC)


def test_class_verdicts_once_per_shared_row_slot(monkeypatch):
    """Serial verdict-class calls on the benchmark sweeps.  Head tiles that
    differ by column constants share a row: sweep-floored (16 of 64 tails
    shared) fills 16 rows of 64 slots, sweep-poly (only the zero tail
    shared) 27 rows of 27 slots, one per x^1 and x^2 head rows, because its
    x^0 row only adds a constant to each column.  Their index-function
    blocks keep the 4,096 minimum: 64 and 5 blocks."""
    calls = []
    real = search._class_verdicts

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(search, "_class_verdicts", counting)
    floored = SearchSpec(family="floored", n=2, k=2, deg_x=2, deg_y=2,
                         r_range=(1, 8), c_range=(1, 8))
    assert len(search._shared_tails(floored, search._tail_vectors(floored))) == 16
    floored_report = run_search(floored)
    assert floored_report.total_candidates == 262144
    assert len(floored_report.worker_chunks) == 64
    assert len(calls) == 1024
    calls.clear()
    poly = SearchSpec(family="poly", n=3, deg_x=2, deg_y=2,
                      r_range=(1, 9), c_range=(1, 9))
    assert search._shared_tails(poly, search._tail_vectors(poly)) == [0]
    poly_report = run_search(poly)
    assert poly_report.total_candidates == 19683
    assert len(poly_report.worker_chunks) == 5
    assert len(calls) == 729


@pytest.mark.parametrize("spec", [
    SearchSpec(family="floored", n=2, k=2, deg_x=2, deg_y=2, r_range=(1, 8),
               c_range=(1, 8)),
    SearchSpec(family="poly", n=4, deg_x=2, deg_y=2, r_range=(1, 5), c_range=(1, 5)),
], ids=["floored22", "poly4"])
def test_every_row_slot_holds_its_composed_class(spec):
    """After a serial sweep every row is complete, and slot t of each head's
    row holds the class verdicts of that head's tile, built from all its
    head digits, composed with tails[t]: rows a head filled and rows copied
    for a shared tail alike."""
    vectors = search._tail_vectors(spec)
    memo = search._SweepMemo(spec, vectors)
    for block in search._blocks(search._index_space_size(spec), 4096):
        search._run_block(spec, block, memo)
    assert len(memo.shared) > 1
    assert all(type(row) is list and len(row) == len(memo.tails) and None not in row
               for row in memo.rows.values())
    m = spec.coeff_modulus
    divisor = spec.n if spec.family == "floored" else 1
    head_width = spec.vector_width - spec.deg_y - 1
    for head in range(m**head_width):
        digits = search._digits(head, m, head_width)
        head_tile = search._row_tiles([digits], memo.mono, slice(0, head_width), m)[0]
        row = memo.rows[search._row_key(head_tile, m, divisor)]
        want = [search._class_verdicts(spec, memo, [(h + v) % m // divisor
                                                    for h, v in zip(head_tile, tail)])
                for tail in memo.tails]
        assert row == want, f"head {head} ({digits})"


def test_row_key_ignoring_the_floored_divisor_raises(monkeypatch):
    """A floored row key that removes each column's whole row-0 entry, not
    just its multiple of n, shares a row between head tiles whose columns
    differ by a constant that is no multiple of n.  Their composed tiles
    floor differently, so they can lie in different classes; the sampled
    comparison with each index's own class refuses the shared verdicts."""
    real = search._row_key
    monkeypatch.setattr(search, "_row_key",
                        lambda tile, period, divisor: real(tile, period, 1))
    spec = SearchSpec(family="floored", n=2, k=2, deg_x=2, deg_y=2,
                      r_range=(1, 8), c_range=(1, 8))
    with pytest.raises(AssertionError, match="through its head tile's shared row"):
        run_search(spec)


# (family, period m, alphabet order): poly at m = 2..6 and floored at
# (n, K) = (2, 2), (2, 3), (3, 2), where m = nK and the order is K
PERIODIC_ROW_CASES = [("poly", m, m) for m in range(2, 7)] + [
    ("floored", n * k, k) for n, k in ((2, 2), (2, 3), (3, 2))
]
PERIODIC_ROW_IDS = [f"{f}-m{m}-o{o}" for f, m, o in PERIODIC_ROW_CASES]


def cut_row_counts(period):
    """The row counts the engine decides by periodicity, up to 4m."""
    return range(search._periodic_rows(period), 4 * period + 1)


def shift_period_counts(column, period, order, rows):
    """Condition 2's term counts at shift m of one m-periodic column cut at
    `rows` rows."""
    cut = (column * -(-rows // period))[:rows]
    return diff_counts(((cut, cut, period),), order)


@pytest.mark.parametrize("family,period,order", PERIODIC_ROW_CASES,
                         ids=PERIODIC_ROW_IDS)
def test_rows_from_twice_the_period_fail_condition_2(family, period, order):
    """The premise of the row cut, over every column of length m with entry
    0 at row 0 (a column-phase class column) and every cut row count R:
    shift m puts at least R - m terms on exponent 0, and for every tuple of
    up to 3 such columns at m <= 3 the summed count vector is nonzero."""
    columns = [(0,) + rest for rest in itertools.product(range(order), repeat=period - 1)]
    rows_cut = cut_row_counts(period)
    assert rows_cut, "no row count is decided by periodicity up to 4m"
    for rows in rows_cut:
        vectors = [shift_period_counts(c, period, order, rows) for c in columns]
        assert all(v[0] >= rows - period for v in vectors), rows
        if period > 3:
            continue
        for size in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(vectors, size):
                summed = [sum(terms) for terms in zip(*combo)]
                assert not counts_is_zero(summed, order), (rows, combo)


@st.composite
def periodic_column_tuples(draw):
    family, period, order = draw(st.sampled_from(
        [case for case in PERIODIC_ROW_CASES if case[1] >= 4]))
    column = st.lists(st.integers(0, order - 1), min_size=period - 1,
                      max_size=period - 1).map(lambda rest: (0, *rest))
    columns = draw(st.lists(column, min_size=1, max_size=period))
    rows = draw(st.sampled_from(cut_row_counts(period)))
    return period, order, columns, rows


@given(periodic_column_tuples())
@settings(max_examples=300, deadline=None)
def test_cut_rows_fail_condition_2_for_drawn_column_tuples(case):
    """The premise's sum at m = 4..6, on drawn tuples of up to m columns."""
    period, order, columns, rows = case
    vectors = [shift_period_counts(c, period, order, rows) for c in columns]
    summed = [sum(terms) for terms in zip(*vectors)]
    assert not counts_is_zero(summed, order)


def uncut_tile_verdicts(cols, period, order, r_range, c_range):
    """Reference: the public check of every R x C block, R-major, of the
    tile columns extended periodically to R rows."""
    return [
        (R, C)
        for R in range(r_range[0], r_range[1] + 1)
        for C in range(c_range[0], c_range[1] + 1)
        if check_aop(PhaseArray(order, R, C, tuple(
            cols[j][i % period] for i in range(R) for j in range(C)))).holds
    ]


@st.composite
def sampled_classes(draw):
    family, period, order = draw(st.sampled_from(PERIODIC_ROW_CASES))
    spec = (SearchSpec(family="poly", n=period) if family == "poly"
            else SearchSpec(family="floored", n=period // order, k=order))
    vector = draw(st.lists(st.integers(0, period - 1), min_size=spec.vector_width,
                           max_size=spec.vector_width))
    if draw(st.booleans()):
        # no x^2 row: columns linear in i, where the hits are
        vector[2 * (spec.deg_y + 1):] = [0] * (spec.deg_y + 1)
    divisor = spec.n if family == "floored" else 1
    flat = [sum(c * r for c, r in zip(vector, row)) % period // divisor
            for row in search._monomial_rows(spec)]
    return period, order, search._phase_class(flat, period, order)


@given(sampled_classes())
@settings(max_examples=150, deadline=None)
def test_cut_tile_verdicts_match_an_uncut_pass(case):
    """For classes of real poly and floored tiles, R <= 4m and C <= m, the
    verdicts with rows R >= 2m cut equal a verdict pass at every R.

    This differential alone cannot tell a sound cut from an unsound one:
    cutting every R > m, which is not sound, still matched every report
    hash in the probe that preceded this rule, because no sampled tile has
    a hit there.  The premise tests above are the gate for the cut."""
    period, order, key = case
    cols = search._tile_columns(key, period)
    ranges = ((1, 4 * period), (1, period))
    assert search._VerdictTables(period, order, *ranges).verdicts(cols) == (
        uncut_tile_verdicts(cols, period, order, *ranges)
    )


@st.composite
def tiles_over_a_column_pool(draw):
    """At an order 2-12 and a period 1-6: a few tiles drawn from one small
    pool of columns, so that they share column pairs and prefixes, plus,
    when the period divides the order, a Frank tile with its columns
    permuted and phased (it has the AOP at R = C = period); and row and
    column ranges, possibly empty, with R up to 4 periods."""
    order = draw(st.integers(2, 12))
    period = draw(st.integers(1, 6))
    column = st.tuples(*[st.integers(0, order - 1)] * period)
    pool = draw(st.lists(column, min_size=1, max_size=4, unique=True))
    tiles = draw(st.lists(st.lists(st.sampled_from(pool), min_size=period,
                                   max_size=period), min_size=1, max_size=6))
    if order % period == 0:
        step = order // period
        frank = [tuple(i * j * step % order for i in range(period)) for j in range(period)]
        phases = draw(st.lists(st.integers(0, order - 1), min_size=period,
                               max_size=period))
        tiles.append([tuple((e + p) % order for e in col)
                      for col, p in zip(draw(st.permutations(frank)), phases)])
    r_lo = draw(st.integers(1, 2 * period))
    c_lo = draw(st.integers(1, period))
    ranges = ((r_lo, draw(st.integers(r_lo - 1, 4 * period))),
              (c_lo, draw(st.integers(c_lo - 1, period))))
    return order, period, tiles, ranges


@given(tiles_over_a_column_pool())
@settings(max_examples=400, deadline=None)
def test_verdict_tables_match_an_uncut_reference(case):
    """The class-verdict kernel against the public check at every row count
    up to 4 periods, tile after tile on one set of tables."""
    order, period, tiles, ranges = case
    tables = search._VerdictTables(period, order, *ranges)
    for cols in tiles:
        assert tables.verdicts(cols) == uncut_tile_verdicts(cols, period, order, *ranges)


@pytest.mark.parametrize("spec", [
    SearchSpec(family="poly", n=3, deg_x=2, deg_y=1, r_range=(1, 9), c_range=(1, 9)),
    SearchSpec(family="floored", n=2, k=2, deg_x=1, deg_y=1, r_range=(1, 8),
               c_range=(1, 8)),
], ids=["poly", "floored"])
def test_class_verdicts_do_not_run_the_spot_check_kernel(monkeypatch, spec):
    """The spot check's direct pass cross-checks the class verdicts only
    while they come from another kernel: with the public check's condition
    scanners made to report no violation, every tile's class verdicts stay
    as they were."""
    m = spec.coeff_modulus
    divisor = spec.n if spec.family == "floored" else 1
    vectors = itertools.product(range(m), repeat=spec.vector_width)
    tiles = search._row_tiles(vectors, search._monomial_rows(spec), slice(None), m)
    flats = [[v // divisor for v in tile] for tile in tiles]

    def all_verdicts():
        memo = search._SweepMemo(spec, search._tail_vectors(spec))
        return [search._class_verdicts(spec, memo, flat) for flat in flats]

    want = all_verdicts()
    assert any(C > 1 for verdicts in want for _, C in verdicts)
    monkeypatch.setattr(search, "_condition_1_witness", lambda cols, rows, order: None)
    monkeypatch.setattr(search, "_condition_2_witness", lambda cols, rows, order: None)
    assert all_verdicts() == want


def test_pair_table_calling_every_pair_orthogonal_raises(monkeypatch):
    """Class verdicts from a pair table that finds every column pair
    orthogonal at every R accept cells that fail condition 1; the first
    sample of such a tile re-decides them on its direct columns."""
    monkeypatch.setattr(search, "_pair_mask", lambda u, v, r_values, order:
                        sum(1 << R for R in r_values))
    spec = SearchSpec(family="poly", n=3, deg_x=2, deg_y=2, r_range=(1, 9),
                      c_range=(1, 9))
    with pytest.raises(AssertionError, match=r"full check rejected \(\d+, \d+\)"):
        run_search(spec)


# sha256 of each canonical report as written before head tiles shared rows
SHARED_ROW_REPORTS = [
    (dict(family="poly", n=4, deg_x=2, deg_y=2, r_range=(1, 4), c_range=(1, 5)),
     "ef137077d95596bc4d3169b4b4d894bc86b1942122d93194b1b0c4623de1490d"),
    (dict(family="floored", n=2, k=2, deg_x=2, deg_y=2, r_range=(1, 4),
          c_range=(1, 5)),
     "ee784f292cfb7577fbf855e2a5197dbcde7b3e2ae7313948c501d6c641cdc2be"),
    (dict(family="floored", n=3, k=2, deg_x=2, deg_y=2, r_range=(1, 3),
          c_range=(1, 7), restriction="collapse"),
     "2a41688604cc9ea7ad22a2a83ea5a76fd102ada9fcf575d6311d616d5014765c"),
    (dict(family="floored", n=2, k=2, deg_x=3, deg_y=1, r_range=(1, 4),
          c_range=(1, 5), filter_mod=7, filter_residue=3),
     "cdc0cb38eb45c682c63e27a72fdb52b6f3d5c23691e0186dd62eb08a2e989421"),
    (dict(family="poly", n=4, deg_x=3, deg_y=1, r_range=(1, 4), c_range=(1, 5),
          symmetry="phase-shift"),
     "4c766487e5f58343a1aa569ab257cf5c71617c472fa734deb6e3b19d7bb1806f"),
]


@pytest.mark.parametrize("case,digest", SHARED_ROW_REPORTS,
                         ids=["poly4", "floored22", "floored32-collapse",
                              "filter7", "phase-shift"])
def test_shared_row_reports_unchanged_at_any_worker_count(case, digest):
    """Specs whose shared tails are more than the zero tail keep the reports
    they had when every head tile filled its own row, at 1, 2 and 4 workers."""
    spec = SearchSpec(**case)
    assert len(search._shared_tails(spec, search._tail_vectors(spec))) > 1
    for workers in (1, 2, 4):
        text = run_search(replace(spec, workers=workers)).canonical_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
