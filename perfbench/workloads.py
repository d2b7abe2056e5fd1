"""The four workloads of the aopseq benchmark and their correctness gates.

Each workload runs against the public API of `aopseq` and is measured in
two ways:

* `measure` (end-to-end, tracing off) repeats the workload for the given
  number of seconds, checks every output, times set-up in fresh
  interpreters and reads the peak RSS.
* `trace` (per layer) runs the workload once with spans around the calls
  between modules (see `tracing.py`), once untraced for the overhead ratio,
  and runs the zero-test micro-benchmark.

Sweeps are fully determined by their spec; the seed shapes the verify-batch
requests and the zero-test vectors.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import aopseq
from aopseq import SearchSpec, run_search
from aopseq.cli import read_object
from aopseq.cyclotomic import counts_is_zero

from reference import reference_verdict
from tracing import Tracer, layer_totals

SETUP_LAUNCHES = 15  # timed fresh-interpreter launches per run; one more, untimed, goes first
ZERO_TEST_ORDERS = (2, 3, 4, 5, 8, 6, 12, 15)  # also the verify-batch orders
VERIFY_MAX_DIM = 8  # random verify-batch arrays are R x C with R, C <= this
ZERO_TEST_VECTORS = 64  # per order, half of them vanishing
ZERO_TEST_SLICE_S = 0.1


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # human-readable lines
    problems: list = field(default_factory=list)  # one per failed operation

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_setup(root: Path, code: str, expect) -> tuple[float, list]:
    """Median wall time of fresh interpreters that import aopseq and run
    `code`; `expect(stdout, returncode)` returns a problem string or None."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times, problems = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=root, env=env,
                capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"set-up launch {launch} ran past 30 s")
            break
        elapsed = time.perf_counter() - t0
        problem = expect(proc.stdout, proc.returncode)
        if problem:
            problems.append(f"set-up launch {launch}: {problem}; stderr: {proc.stderr[-400:]}")
        elif launch:
            times.append(elapsed)
    return (statistics.median(times) if times else 0.0), problems


# --- sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """An exhaustive `run_search` sweep; `spec` and `warmup` are SearchSpec
    keyword arguments, `warmup` being the family's smallest sweep."""

    name: str
    spec: dict
    warmup: dict

    def check(self, report, golden: dict) -> list:
        problems = []
        digest = sha256(report.canonical_json())
        if digest != golden["report_sha256"]:
            problems.append(f"{self.name}: canonical report sha256 {digest} != golden")
        if report.audit_disagreements:
            problems.append(f"{self.name}: {report.audit_disagreements} audit disagreements")
        if report.bound_violated:
            problems.append(f"{self.name}: length bound violated ({report.max_hit_length})")
        return problems

    def _timed(self, spec: SearchSpec, golden: dict, out: Outcome, run=run_search):
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            report = run(spec)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed sweep is counted, the run goes on
            out.fail(f"{self.name}: {type(exc).__name__}: {exc}")
            return None, 0.0
        problems = self.check(report, golden)
        if problems:
            out.fail("; ".join(problems))
            return None, 0.0
        return report, wall

    def measure(self, root: Path, seconds: float, golden: dict) -> Outcome:
        out = Outcome()
        spec = SearchSpec(**self.spec)
        walls, candidates = [], 0
        t0 = time.perf_counter()
        while out.attempted == 0 or time.perf_counter() - t0 < seconds:
            report, wall = self._timed(spec, golden, out)
            if report is not None:
                walls.append(wall)
                candidates = report.total_candidates
        rss = peak_rss_mb()
        code = (
            "import hashlib, aopseq\n"
            f"report = aopseq.run_search(aopseq.SearchSpec(**{self.warmup!r}))\n"
            "print(hashlib.sha256(report.canonical_json().encode()).hexdigest())\n"
        )
        want = golden["warmup_sha256"]
        setup_s, problems = time_setup(
            root, code,
            lambda stdout, rc: None if rc == 0 and stdout.strip() == want
            else f"exit {rc}, warm-up report sha256 {stdout.strip()!r} != golden",
        )
        for p in problems:
            out.fail(p)
        walls.sort()
        ms = [w * 1000.0 for w in walls]
        if walls:
            median = statistics.median(walls)
            out.metrics["throughput_per_s"] = candidates / median
            out.metrics["latency_p50_ms"] = statistics.median(ms)
            out.metrics["latency_p99_ms"] = percentile(ms, 99)
            rates = [candidates / w for w in walls]
            out.notes.append(
                f"candidates_per_s = {candidates / median:.6g} 1/s "
                f"({candidates} candidates per sweep; {spread(rates)})"
            )
            out.notes.append(f"sweep wall ms: {spread(ms)}")
        out.metrics["setup_s"] = setup_s
        out.metrics["peak_rss_mb"] = rss
        return out

    def trace(self, root: Path, seed: int, golden: dict, trace_dir: Path) -> Outcome:
        out = Outcome()
        rates = zero_test_rates(seed, out)
        one = replace(SearchSpec(**self.spec), workers=1)
        _, wall_1 = self._timed(one, golden, out)
        _, wall_2 = self._timed(replace(one, workers=2), golden, out)
        tracer = Tracer(self.name)
        with tracer.patched():
            traced_run = tracer.wrap(run_search, "search.run_search")
            report, wall_t = self._timed(one, golden, out, run=traced_run)
        tracer.write(trace_dir / f"trace-{self.name}-seed{seed}.npz")
        summary = tracer.summary()
        out.notes.append(f"untraced 1-worker wall {wall_1:.3f} s, 2-worker wall {wall_2:.3f} s")
        out.notes.extend(describe_spans(summary))
        out.metrics.update(layer_metrics(summary, rates))
        if report is not None and wall_1 and wall_2:
            verdict_calls = summary.get("aop.verdict_columns", {}).get("calls", 0)
            out.metrics.update({
                "search.verdict_calls": verdict_calls,
                "search.verdict_calls_per_candidate": verdict_calls / report.total_candidates,
                "search.spot_checks": report.spot_checks,
                "search.pool_speedup": wall_1 / wall_2,
                "cyclotomic.audit_checked": report.audit_checked,
                "cyclotomic.audit_disagreements": report.audit_disagreements,
                "trace_overhead_ratio": wall_t / wall_1,
            })
        return out


SWEEPS = {
    s.name: s
    for s in (
        Sweep(
            "sweep-poly",
            dict(family="poly", n=3, deg_x=2, deg_y=2, r_range=(1, 9), c_range=(1, 9),
                 audit=True, workers=1),
            dict(family="poly", n=3, deg_x=0, deg_y=0, audit=True, workers=1),
        ),
        Sweep(
            "sweep-floored",
            dict(family="floored", n=2, k=2, deg_x=2, deg_y=2, r_range=(1, 8), c_range=(1, 8),
                 audit=True, workers=2),
            dict(family="floored", n=2, k=2, deg_x=0, deg_y=0, audit=True, workers=2),
        ),
        Sweep(
            "sweep-quat",
            dict(family="raw-quaternion", length=8, hit_limit=8192, workers=2),
            dict(family="raw-quaternion", length=1, hit_limit=8192, workers=2),
        ),
    )
}


# --- verify-batch -----------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str  # "random" or "frank"
    order: int
    rows: int
    cols: int
    exponents: tuple
    expected: tuple  # reference_verdict(...)


def frank_with_phases(n: int, phases) -> tuple:
    """n x n Frank array (exponent i*j) with a constant phase added to each
    column; the AOP and perfection hold for every choice of phases."""
    return tuple((i * j + phases[j]) % n for i in range(n) for j in range(n))


def write_phase_array(path: Path, order: int, rows: int, cols: int, exponents) -> None:
    path.write_text(
        "format: phase-array/1\n"
        f"order: {order}\nrows: {rows}\ncols: {cols}\n"
        "exponents: " + ",".join(map(str, exponents)) + "\n"
    )


def verdict_of(api, path: Path) -> tuple:
    """One request: parse the file, then every predicate on the array.
    Returns the parsed array and the verdict tuple."""
    arr = api.read_object(path)
    verdict = api.check_aop(arr)
    return arr, (
        verdict.holds,
        verdict.failing_condition,
        list(verdict.witness) if verdict.witness is not None else None,
        api.is_perfect_array(arr),
        api.is_perfect_sequence(api.flatten(arr)),
        api.decomposition_check_all(arr),
        api.projection_sum_check_all(arr),
    )


class Api:
    """The calls a verify request makes, optionally as traced spans."""

    CALLS = {
        "read_object": (read_object, "cli.read_object"),
        "check_aop": (aopseq.check_aop, "aop.check_aop"),
        "is_perfect_array": (aopseq.is_perfect_array, "aop.is_perfect_array"),
        "flatten": (aopseq.flatten, "seqmodel.flatten"),
        "is_perfect_sequence": (aopseq.is_perfect_sequence, "aop.is_perfect_sequence"),
        "decomposition_check_all": (aopseq.decomposition_check_all,
                                    "correlation.decomposition_check_all"),
        "projection_sum_check_all": (aopseq.projection_sum_check_all,
                                     "correlation.projection_sum_check_all"),
    }

    def __init__(self, tracer: Tracer | None = None) -> None:
        for attr, (fn, span) in self.CALLS.items():
            setattr(self, attr, tracer.wrap(fn, span) if tracer else fn)


@dataclass(frozen=True)
class VerifyBatch:
    """Closed loop, one client: each request verifies one phase-array file.

    A block holds `random_count` random arrays (R, C <= 8, any order of
    ZERO_TEST_ORDERS) and, per order, a fixed number of n x n Frank arrays with
    random column phases, shuffled.  Runs serve whole blocks, so every run
    has the same mix.  The Frank counts put the p99 rank (13th slowest of
    1302) in the middle of the 14 Frank n=12 requests, not on the edge
    between two array sizes.
    """

    name: str = "verify-batch"
    random_count: int = 1250
    frank_counts: tuple = ((15, 6), (12, 14), (8, 7), (6, 5), (5, 5), (4, 5), (3, 5), (2, 5))

    def block(self, seed: int, index: int) -> list[Request]:
        rng = random.Random(seed * 1_000_003 + index)
        specs = []
        for _ in range(self.random_count):
            n = rng.choice(ZERO_TEST_ORDERS)
            rows, cols = rng.randint(1, VERIFY_MAX_DIM), rng.randint(1, VERIFY_MAX_DIM)
            specs.append(("random", n, rows, cols,
                          tuple(rng.randrange(n) for _ in range(rows * cols))))
        for n, count in self.frank_counts:
            for _ in range(count):
                phases = [rng.randrange(n) for _ in range(n)]
                specs.append(("frank", n, n, n, frank_with_phases(n, phases)))
        rng.shuffle(specs)
        requests = []
        for kind, n, rows, cols, exps in specs:
            expected = reference_verdict(n, rows, cols, exps)
            if kind == "frank" and not (expected[0] and expected[3] and expected[4]):
                raise RuntimeError(f"float reference rejects a Frank array of order {n}")
            requests.append(Request(kind, n, rows, cols, exps, expected))
        return requests

    def _serve(self, api, requests, workdir: Path, out: Outcome, latencies: list,
               verdicts: list, root_span=None) -> None:
        paths = []
        for i, req in enumerate(requests):
            path = workdir / f"r{i}.txt"
            write_phase_array(path, req.order, req.rows, req.cols, req.exponents)
            paths.append(path)
        serve = root_span(verdict_of) if root_span else verdict_of
        for req, path in zip(requests, paths):
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                arr, got = serve(api, path)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed request is counted, the loop goes on
                out.fail(f"{req.kind} order {req.order} {req.rows}x{req.cols}: "
                         f"{type(exc).__name__}: {exc}")
                continue
            verdicts.append(got)
            if (arr.order, arr.rows, arr.cols, arr.exponents) != (
                req.order, req.rows, req.cols, req.exponents
            ):
                out.fail(f"{path.name}: parsed array differs from the written one")
            elif got != req.expected:
                out.fail(f"{req.kind} order {req.order} {req.rows}x{req.cols}: "
                         f"verdict {got} != reference {req.expected}")
            else:
                latencies.append(dt)
        for path in paths:
            path.unlink()

    def _check_digest(self, seed: int, verdicts: list, golden: dict, out: Outcome) -> None:
        if seed != golden["seed"]:
            return
        digest = sha256(json.dumps(verdicts))
        if digest != golden["block0_sha256"]:
            out.fail(f"{self.name}: block-0 verdict digest {digest} != golden")

    def measure(self, root: Path, seconds: float, seed: int, golden: dict,
                workdir: Path) -> Outcome:
        out = Outcome()
        api = Api()
        latencies: list = []
        t0 = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - t0 < seconds:
            verdicts: list = []
            self._serve(api, self.block(seed, index), workdir, out, latencies, verdicts)
            if index == 0:
                self._check_digest(seed, verdicts, golden, out)
            index += 1
        rss = peak_rss_mb()
        frank = workdir / "frank8.txt"
        n = 8
        write_phase_array(frank, n, n, n, frank_with_phases(n, [0] * n))
        code = f"import sys, aopseq.cli\nsys.exit(aopseq.cli.main(['verify', {str(frank)!r}]))\n"
        setup_s, problems = time_setup(
            root, code,
            lambda stdout, rc: None if rc == 0 and "verdict: holds" in stdout
            else f"exit {rc}, output {stdout[-200:]!r}",
        )
        for p in problems:
            out.fail(p)
        latencies.sort()
        ms = [x * 1000.0 for x in latencies]
        if latencies:
            out.metrics["throughput_per_s"] = len(latencies) / sum(latencies)
            out.metrics["latency_p50_ms"] = statistics.median(ms)
            out.metrics["latency_p99_ms"] = percentile(ms, 99)
            out.notes.append(
                f"verify_per_s = {out.metrics['throughput_per_s']:.6g} 1/s, "
                f"verify_p50_ms = {out.metrics['latency_p50_ms']:.6g} ms, "
                f"verify_p99_ms = {out.metrics['latency_p99_ms']:.6g} ms "
                f"over {len(ms)} requests in {index} blocks"
            )
        out.metrics["setup_s"] = setup_s
        out.metrics["peak_rss_mb"] = rss
        return out

    def trace(self, root: Path, seed: int, golden: dict, trace_dir: Path,
              workdir: Path) -> Outcome:
        out = Outcome()
        rates = zero_test_rates(seed, out)
        requests = self.block(seed, 0)
        plain: list = []
        verdicts: list = []
        self._serve(Api(), requests, workdir, out, plain, verdicts)
        self._check_digest(seed, verdicts, golden, out)
        tracer = Tracer(self.name)
        traced: list = []
        with tracer.patched():
            self._serve(Api(tracer), requests, workdir, out, traced, [],
                        root_span=lambda fn: tracer.wrap(fn, "bench.request"))
        tracer.write(trace_dir / f"trace-{self.name}-seed{seed}.npz")
        summary = tracer.summary()
        out.notes.extend(describe_spans(summary))
        out.metrics.update(layer_metrics(summary, rates))
        if plain and traced:
            out.metrics["trace_overhead_ratio"] = sum(traced) / sum(plain)
        return out


VERIFY_BATCH = VerifyBatch()


# --- per-layer metrics --------------------------------------------------------


def zero_test_vectors(order: int, seed: int, count: int = ZERO_TEST_VECTORS) -> list:
    """Count vectors of one order: even positions vanish (a sum of rotated
    full cosets of a prime-order subgroup), odd ones are the same kind of
    sum plus one extra root and so cannot vanish."""
    rng = random.Random(seed * 7919 + order)
    primes = [p for p in range(2, order + 1)
              if order % p == 0 and all(p % q for q in range(2, p))]
    vectors = []
    for k in range(count):
        counts = [0] * order
        for _ in range(rng.randint(2, 6)):
            p = rng.choice(primes)
            step = order // p
            r, m = rng.randrange(step), rng.randint(1, 4)
            for t in range(p):
                counts[r + t * step] += m
        vanishes = k % 2 == 0
        if not vanishes:
            counts[rng.randrange(order)] += 1
        vectors.append((counts, vanishes))
    rng.shuffle(vectors)
    return vectors


def zero_test_rates(seed: int, out: Outcome) -> dict:
    """Zero tests per second by order on frozen vectors; every verdict is
    checked.  Runs untraced, before any span is recorded."""
    rates = {}
    for order in ZERO_TEST_ORDERS:
        vectors = zero_test_vectors(order, seed)
        for counts, vanishes in vectors:
            out.attempted += 1
            if counts_is_zero(counts, order) != vanishes:
                out.fail(f"zero test of order {order} on {counts}: expected {vanishes}")
        samples = []
        for _ in range(3):
            calls = 0
            t0 = time.perf_counter()
            while True:
                for counts, _ in vectors:
                    counts_is_zero(counts, order)
                calls += len(vectors)
                elapsed = time.perf_counter() - t0
                if elapsed >= ZERO_TEST_SLICE_S:
                    break
            samples.append(calls / elapsed)
        rates[f"cyclotomic.zero_tests_per_s.o{order}"] = statistics.median(samples)
    return rates


def layer_metrics(summary: dict, rates: dict) -> dict:
    """Every per-layer metric from one traced pass; a layer the workload
    never reaches reads 0.  Sweep-only counts are filled in by the caller."""
    search_calls, search_self = layer_totals(summary, "search")
    aop_calls, aop_self = layer_totals(summary, "aop")
    corr_calls, corr_self = layer_totals(summary, "correlation")
    _, seq_self = layer_totals(summary, "seqmodel")
    cli_calls, cli_self = layer_totals(summary, "cli")
    gen_calls, gen_self = layer_totals(summary, "indexfn")
    quat_calls, quat_self = layer_totals(summary, "quaternion")
    zero = summary.get("cyclotomic.zero_test", {"calls": 0, "self_s": 0.0})
    audit = summary.get("cyclotomic.audit", {"total_s": 0.0})
    metrics = {
        "search.self_s": search_self,
        "search.verdict_calls": 0,
        "search.verdict_calls_per_candidate": 0.0,
        "search.spot_checks": 0,
        "search.pool_speedup": 0.0,
        "aop.verdict_s": aop_self,
        "aop.calls": aop_calls,
        "cyclotomic.zero_tests": zero["calls"],
        "cyclotomic.zero_test_s": zero["self_s"],
        "cyclotomic.audit_s": audit["total_s"],
        "cyclotomic.audit_checked": 0,
        "cyclotomic.audit_disagreements": 0,
        "correlation.self_s": corr_self,
        "correlation.calls": corr_calls,
        "seqmodel.self_s": seq_self,
        "cli.parse_s": cli_self,
        "cli.parse_calls": cli_calls,
        "indexfn.generate_s": gen_self,
        "indexfn.generate_calls": gen_calls,
        "quaternion.direct_s": quat_self,
        "quaternion.direct_checks": quat_calls,
        "trace_overhead_ratio": 0.0,
    }
    metrics.update(rates)
    return metrics


def describe_spans(summary: dict) -> list:
    return [
        f"span {span}: {s['calls']} calls, {s['total_s']:.4f} s total, {s['self_s']:.4f} s self"
        for span, s in sorted(summary.items())
        if s["calls"]
    ]

