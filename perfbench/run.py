"""aopseq benchmark: one workload per call, or all four in turn.

    python3 perfbench/run.py --workload sweep-poly --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  `aopseq` is imported from `src/` next to
this directory.  `--trace 0` measures the end-to-end metrics of
`BENCHMARK.json` with tracing off; `--trace 1` runs the traced pass and
reports the per-layer metrics.  Human-readable lines go first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only when every
output checked out.  Span files and temporary inputs go to `.perfbench-work/`
in the repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"  # request files and span files
WORKLOADS = ("sweep-poly", "sweep-floored", "sweep-quat", "verify-batch")
# workload-specific names under which `--workload all` prints the generic metrics
SUMMARY_NAMES = {
    "sweep": {"throughput_per_s": "candidates_per_s", "latency_p50_ms": "sweep_p50_ms",
              "latency_p99_ms": "sweep_p99_ms"},
    "verify": {"throughput_per_s": "verify_per_s", "latency_p50_ms": "verify_p50_ms",
               "latency_p99_ms": "verify_p99_ms"},
}


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package() -> None:
    """Put `src/` first on the path and make sure `aopseq` comes from it."""
    src = ROOT / "src"
    if not (src / "aopseq" / "__init__.py").is_file():
        raise SystemExit(f"no aopseq package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import aopseq

    if Path(aopseq.__file__).resolve().parent != (src / "aopseq").resolve():
        raise SystemExit(f"aopseq was imported from {aopseq.__file__}, not from {src}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, goldens: dict):
    import workloads as w

    if workload in w.SWEEPS:
        sweep = w.SWEEPS[workload]
        golden = goldens["sweeps"][workload]
        if trace:
            return sweep.trace(ROOT, seed, golden, WORK)
        return sweep.measure(ROOT, seconds, golden)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        golden = goldens[workload]
        if trace:
            return w.VERIFY_BATCH.trace(ROOT, seed, golden, WORK, workdir)
        return w.VERIFY_BATCH.measure(ROOT, seconds, seed, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(outcome, metric_specs: list) -> dict:
    """The contract's result object; every listed metric must be present."""
    missing = [m["name"] for m in metric_specs if m["name"] not in outcome.metrics]
    if missing and outcome.correct:
        raise RuntimeError(f"benchmark did not compute {missing}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metric_specs
        },
    }


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        names = SUMMARY_NAMES["verify" if workload == "verify-batch" else "sweep"]
        rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        rows.append(f"{workload}: error_rate = {rate:.6g} ({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
            rows.append(f"{workload}: {names.get(name, name)} = {m['value']:.6g} {m['unit']}")
    print("\n".join(["summary:"] + rows))
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    goldens = json.loads((HERE / "goldens.json").read_text())
    outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace), goldens)
    specs = config["per_layer" if args.trace else "end_to_end"]
    line = result_line(outcome, specs)
    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    for problem in outcome.problems[:20]:
        print(f"{args.workload}: FAILED {problem}")
    if len(outcome.problems) > 20:
        print(f"{args.workload}: ... and {len(outcome.problems) - 20} more failures")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{args.workload}: error_rate = {rate:.6g} ({outcome.failed}/{outcome.attempted})")
    for name, m in line["metrics"].items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
