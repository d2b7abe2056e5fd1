"""The benchmark's verify gate as a test: block 0 of the verify-batch
workload at seed 0, served through `perfbench/workloads.py`, must match the
numpy reference request by request and the frozen block-0 digest, so a
verdict or witness change shows here before a benchmark run."""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  (perfbench modules import each other by name)


def test_verify_batch_block_zero_matches_reference_and_golden(tmp_path):
    golden = json.loads((PERFBENCH / "goldens.json").read_text())["verify-batch"]
    api = workloads.Api()
    verdicts = []
    for i, req in enumerate(workloads.VERIFY_BATCH.block(golden["seed"], 0)):
        path = tmp_path / f"r{i}.txt"
        workloads.write_phase_array(path, req.order, req.rows, req.cols, req.exponents)
        arr, got = workloads.verdict_of(api, path)
        assert (arr.order, arr.rows, arr.cols, arr.exponents) == (
            req.order, req.rows, req.cols, req.exponents
        )
        assert got == req.expected, f"{req.kind} order {req.order} {req.rows}x{req.cols}"
        verdicts.append(got)
    assert len(verdicts) == 1302
    assert workloads.sha256(json.dumps(verdicts)) == golden["block0_sha256"]
