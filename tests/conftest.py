"""Shared pytest wiring: the acceptance module records one verdict line per
criterion; echoing them in the terminal summary keeps them visible under
output capture.  `loaded_modules` runs code in a fresh interpreter and
reports what it imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def loaded_modules():
    """`run(code)` runs `code` in a fresh interpreter with `src/` on the path
    and returns the set of `aopseq`, `concurrent` and `numpy` modules loaded
    by the time it finished."""
    def run(code: str) -> set:
        report = (
            "\nimport json, sys\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.partition('.')[0] in ('aopseq', 'concurrent', 'numpy'))))\n"
        )
        out = subprocess.run([sys.executable, "-c", code + report],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        return set(json.loads(out.stdout.splitlines()[-1]))

    return run
