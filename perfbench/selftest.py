"""Quick self-test of the benchmark harness, on tiny inputs (well under a minute).

    python3 perfbench/selftest.py

Checks, for a tiny version of each workload kind and in both modes, that
every metric `BENCHMARK.json` names is emitted (end-to-end ones nonzero),
that the gates pass on correct goldens, and that a corrupted golden or a
wrong reference verdict trips them.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

run.import_package()
import workloads as w  # noqa: E402  (needs the path set up by run)

TINY_SWEEPS = (
    w.Sweep("sweep-poly",
            dict(family="poly", n=2, deg_x=1, deg_y=1, r_range=(1, 4), c_range=(1, 4),
                 audit=True, workers=1),
            w.SWEEPS["sweep-poly"].warmup),
    w.Sweep("sweep-floored",
            dict(family="floored", n=2, k=2, deg_x=1, deg_y=1, r_range=(1, 4), c_range=(1, 4),
                 audit=True, workers=2),
            w.SWEEPS["sweep-floored"].warmup),
    w.Sweep("sweep-quat",
            dict(family="raw-quaternion", length=4, hit_limit=8192, workers=2),
            w.SWEEPS["sweep-quat"].warmup),
)
TINY_VERIFY = w.VerifyBatch(random_count=40, frank_counts=((4, 1), (6, 1)))
SEED = 3


def corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures.append(what)

    def emitted(self, name: str, outcome, specs: list, nonzero: bool) -> None:
        self.expect(outcome.correct, f"{name}: gates pass ({outcome.problems[:2]})")
        try:
            line = run.result_line(outcome, specs)
        except RuntimeError as exc:
            self.expect(False, f"{name}: {exc}")
            return
        values = [m["value"] for m in line["metrics"].values()]
        self.expect(len(values) == len(specs), f"{name}: all {len(specs)} metrics emitted")
        if nonzero:
            self.expect(all(v > 0 for v in values), f"{name}: no end-to-end metric is 0")


def main() -> int:
    config = run.load_config()
    w.SETUP_LAUNCHES = 2
    work = run.WORK
    checks = Checks()
    for sweep in TINY_SWEEPS:
        report = w.run_search(w.SearchSpec(**sweep.spec))
        golden = dict(json.loads((run.HERE / "goldens.json").read_text())["sweeps"][sweep.name],
                      report_sha256=w.sha256(report.canonical_json()))
        checks.emitted(f"{sweep.name} measure", sweep.measure(run.ROOT, 0.2, golden),
                       config["end_to_end"], nonzero=True)
        checks.emitted(f"{sweep.name} trace", sweep.trace(run.ROOT, SEED, golden, work),
                       config["per_layer"], nonzero=False)
        bad = sweep.measure(run.ROOT, 0.2, dict(golden, report_sha256=corrupt(golden["report_sha256"])))
        checks.expect(not bad.correct and bad.failed > 0, f"{sweep.name}: corrupted report golden trips the gate")
        bad = sweep.measure(run.ROOT, 0.2, dict(golden, warmup_sha256=corrupt(golden["warmup_sha256"])))
        checks.expect(not bad.correct, f"{sweep.name}: corrupted warm-up golden trips the gate")

    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        verdicts: list = []
        TINY_VERIFY._serve(w.Api(), TINY_VERIFY.block(SEED, 0), workdir, w.Outcome(), [], verdicts)
        golden = {"seed": SEED, "block0_sha256": w.sha256(json.dumps(verdicts))}
        checks.emitted("verify-batch measure", TINY_VERIFY.measure(run.ROOT, 0.2, SEED, golden, workdir),
                       config["end_to_end"], nonzero=True)
        checks.emitted("verify-batch trace", TINY_VERIFY.trace(run.ROOT, SEED, golden, work, workdir),
                       config["per_layer"], nonzero=False)
        bad = TINY_VERIFY.measure(run.ROOT, 0.2, SEED, dict(golden, block0_sha256=corrupt(golden["block0_sha256"])), workdir)
        checks.expect(not bad.correct and bad.failed > 0, "verify-batch: corrupted verdict digest trips the gate")
        # a reference that disagrees with aopseq on one request must fail it
        requests = TINY_VERIFY.block(SEED, 0)
        flipped = dataclasses.replace(requests[0], expected=(not requests[0].expected[0],) + requests[0].expected[1:])
        out = w.Outcome()
        TINY_VERIFY._serve(w.Api(), [flipped] + requests[1:], workdir, out, [], [])
        checks.expect(out.failed == 1, "verify-batch: a verdict that disagrees with the reference fails")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = w.Outcome()
    w.zero_test_rates(SEED, out)
    checks.expect(out.correct and out.attempted == 8 * w.ZERO_TEST_VECTORS, "zero-test vectors get the expected verdicts")
    print(f"{len(checks.failures)} failed check(s)")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
