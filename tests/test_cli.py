"""Command surface: round trips, exit codes, file schema failure modes."""

import io
import json
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aopseq import cli, indexfn, search
from aopseq.cyclotomic import ConcordanceAudit
from aopseq.indexfn import frank_array
from aopseq.quaternion import QuaternionSequence
from aopseq.search import SearchSpec, run_search
from aopseq.seqmodel import PhaseArray, PhaseSequence, column_sum

README = Path(__file__).resolve().parents[1] / "README.md"


def test_construct_verify_sequence_round_trip(tmp_path):
    out = tmp_path / "seq.txt"
    assert cli.main(["construct", "--family", "frank", "--n", "3",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("format: phase-sequence/1\n")
    assert "provenance-command: construct" in text
    assert "provenance-tool-version: aopseq" in text
    assert cli.main(["verify", str(out)]) == 0
    # the flattened Frank sequence also passes the grouped-column check
    assert cli.main(["verify", str(out), "--divisor", "3"]) == 0


def test_construct_array_and_project(tmp_path, capsys):
    out = tmp_path / "arr.txt"
    assert cli.main(["construct", "--family", "frank", "--n", "4",
                     "--as-array", "--out", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0
    proj_out = tmp_path / "proj.txt"
    assert cli.main(["project", str(out), "--axis", "cols",
                     "--out", str(proj_out)]) == 0
    err = capsys.readouterr().err
    assert "perfect-projection: true" in err
    assert "peak-energy: 16" in err
    text = proj_out.read_text()
    assert text.startswith("format: projection/1\n")
    # the stored projection file verifies on its own
    assert cli.main(["verify", str(proj_out)]) == 0


def test_verify_failing_sequence_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseSequence(2, (0, 0, 0, 0)), fh, "test", {})
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "perfect: false" in out
    assert "verdict: fails" in out


def test_verify_float_mode_is_advisory(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseSequence(2, (0, 0, 0, 1)), fh, "test", {})
    assert cli.main(["verify", str(path), "--mode", "float"]) == 0
    out = capsys.readouterr().out
    assert "float-offpeak-max:" in out
    assert "config-mode: float" in out


def test_verify_array_failure_reports_witness(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseArray(2, 2, 2, (0, 0, 0, 0)), fh, "test", {})
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "aop: false" in out
    assert "aop-failing-condition: condition-1" in out
    assert "aop-witness:" in out


def test_malformed_files_exit_two(tmp_path):
    missing = tmp_path / "nope.txt"
    assert cli.main(["verify", str(missing)]) == 2
    bad_tag = tmp_path / "tag.txt"
    bad_tag.write_text("format: mystery/9\n")
    assert cli.main(["verify", str(bad_tag)]) == 2
    no_colon = tmp_path / "colon.txt"
    no_colon.write_text("format phase-sequence/1\n")
    assert cli.main(["verify", str(no_colon)]) == 2
    missing_field = tmp_path / "field.txt"
    missing_field.write_text("format: phase-sequence/1\norder: 2\n")
    assert cli.main(["verify", str(missing_field)]) == 2
    wrong_len = tmp_path / "len.txt"
    wrong_len.write_text(
        "format: phase-sequence/1\norder: 2\nlength: 3\nexponents: 0,1\n"
    )
    assert cli.main(["verify", str(wrong_len)]) == 2
    bad_ints = tmp_path / "ints.txt"
    bad_ints.write_text(
        "format: phase-sequence/1\norder: 2\nlength: 2\nexponents: 0,x\n"
    )
    assert cli.main(["verify", str(bad_ints)]) == 2


def test_duplicate_field_rejected(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text(
        "format: phase-sequence/1\norder: 2\nlength: 2\norder: 3\nexponents: 0,1\n"
    )
    with pytest.raises(cli.CliInputError, match="'order'"):
        cli.read_object(path)
    assert cli.main(["verify", str(path)]) == 2
    assert "'order'" in capsys.readouterr().err


def test_verify_divisor_mismatch_exits_two(tmp_path):
    path = tmp_path / "seq.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseSequence(2, (0, 0, 0, 1)), fh, "test", {})
    assert cli.main(["verify", str(path), "--divisor", "3"]) == 2


def test_verify_negative_divisor_exits_two(tmp_path, capsys):
    """A divisor below 1, 0 included, is refused for every file type before
    any predicate runs, never read as "no divisor"."""
    seq = tmp_path / "seq.txt"
    assert cli.main(["construct", "--family", "frank", "--n", "6", "--out", str(seq)]) == 0
    frank = tmp_path / "frank4.txt"
    assert cli.main(["construct", "--n", "4", "--as-array", "--out", str(frank)]) == 0
    proj = tmp_path / "proj4.txt"
    assert cli.main(["project", str(frank), "--out", str(proj)]) == 0
    quat = tmp_path / "quat.txt"
    quat.write_text("format: quaternion-sequence/1\nlength: 4\nsymbols: i,j,i,-j\n")
    capsys.readouterr()
    for path in (seq, frank, proj, quat):
        for divisor in ("-6", "0", "-4"):
            assert cli.main(["verify", str(path), "--divisor", divisor]) == 2
            assert capsys.readouterr() == ("", "--divisor must be positive\n")


def test_verify_divisor_on_files_without_one_exits_two(tmp_path, capsys):
    """An array file's only divisor is its column count, and quaternion and
    projection files have none: the 4x4 Frank array with `--divisor 3` is
    an input error, not `aop: true`."""
    frank = tmp_path / "frank4.txt"
    assert cli.main(["construct", "--family", "frank", "--n", "4", "--as-array",
                     "--out", str(frank)]) == 0
    proj = tmp_path / "proj4.txt"
    assert cli.main(["project", str(frank), "--out", str(proj)]) == 0
    quat = tmp_path / "quat.txt"
    quat.write_text("format: quaternion-sequence/1\nlength: 4\nsymbols: i,j,i,-j\n")
    assert cli.main(["verify", str(frank), "--divisor", "4"]) == 0
    assert "aop: true" in capsys.readouterr().out
    for divisor in ("3", "2", "16"):
        assert cli.main(["verify", str(frank), "--divisor", divisor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"divisor {divisor} differs from the array's 4 columns\n"
    for path in (quat, proj):
        assert cli.main(["verify", str(path), "--divisor", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--divisor applies to phase-sequence and phase-array files" in captured.err


def test_quaternion_file_round_trip(tmp_path, capsys):
    path = tmp_path / "quat.txt"
    path.write_text(
        "format: quaternion-sequence/1\nlength: 4\nsymbols: i,j,i,-j\n"
    )
    assert cli.main(["verify", str(path), "--convention", "both"]) == 0
    out = capsys.readouterr().out
    assert "perfect-right: true" in out
    assert "perfect-left: true" in out
    const = tmp_path / "const.txt"
    const.write_text("format: quaternion-sequence/1\nlength: 2\nsymbols: 1,1\n")
    assert cli.main(["verify", str(const)]) == 1


def test_search_cli_writes_canonical_report(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["search", "--family", "poly", "--n", "2", "--deg-x", "1",
         "--deg-y", "1", "--min-r", "1", "--max-r", "4", "--min-c", "1",
         "--max-c", "4", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    library = run_search(
        SearchSpec(family="poly", n=2, deg_x=1, deg_y=1,
                   r_range=(1, 4), c_range=(1, 4))
    ).canonical_json()
    assert text == library
    data = json.loads(text)
    assert data["total_candidates"] == 16


def test_search_cli_budget_and_bad_spec(tmp_path, capsys):
    code = cli.main(
        ["search", "--family", "poly", "--n", "3", "--budget", "10"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(3**9) in err
    assert cli.main(["search", "--family", "bogus", "--n", "2"]) == 2


def test_search_negative_progress_every_exits_two(capsys):
    code = cli.main(["search", "--family", "poly", "--n", "2", "--progress-every", "-5"])
    assert code == cli.EXIT_INPUT_ERROR
    assert "progress_every must be non-negative" in capsys.readouterr().err


def collapse_space_n3_k4(deg_y):
    """Exact size of the floored n=3 K=4 collapse space: 12^(2w) free
    prefixes times 4^w * 3^(w-3) suffixes, w = deg_y + 1 (a null polynomial
    mod 3 of degree < w has falling-factorial coefficients b_i with
    i! b_i = 0 mod 3, any b_i for i >= 3)."""
    w = deg_y + 1
    return 12 ** (2 * w) * 4**w * 3 ** (w - 3)


@pytest.mark.parametrize("deg_y", [8, 6])
def test_oversized_collapse_enumeration_exits_two_quickly(deg_y, capsys):
    """floored n=3 K=4 would enumerate 12^(deg_y+1) quadratic-row tuples for
    its collapse suffixes; the space is counted in closed form, so the
    refusal, with the exact count, comes before any tuple is tested."""
    t0 = time.monotonic()
    code = cli.main(
        ["search", "--family", "floored", "--n", "3", "--k", "4", "--deg-y",
         str(deg_y), "--restriction", "collapse", "--max-r", "2", "--max-c", "2"]
    )
    elapsed = time.monotonic() - t0
    assert code == 2
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    err = capsys.readouterr().err
    assert f"candidate space holds {collapse_space_n3_k4(deg_y)} entries" in err
    assert f"budget {10**8}" in err


def test_empty_collapse_sweep_reports_its_space_quickly(capsys):
    t0 = time.monotonic()
    code = cli.main(
        ["search", "--family", "floored", "--n", "3", "--k", "4", "--deg-y", "6",
         "--restriction", "collapse", "--min-r", "2", "--max-r", "1"]
    )
    elapsed = time.monotonic() - t0
    assert code == 0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report = json.loads(capsys.readouterr().out)
    assert report["total_candidates"] == 0
    assert report["space_size"] == collapse_space_n3_k4(6)


def test_oversized_sweep_tables_exit_two_before_any_table(monkeypatch, capsys):
    """poly n=1500 deg 0 sweeps only 1,500 candidates, but its tables would
    hold (tails + last-row values) x (m^2 + R' x C') entries; the count is
    closed-form, so the refusal comes before any table is built."""
    def unreachable(*args):
        raise AssertionError("sweep tables were built")

    monkeypatch.setattr(search, "_SweepMemo", unreachable)
    t0 = time.monotonic()
    code = cli.main(["search", "--family", "poly", "--n", "1500", "--deg-x", "0",
                     "--deg-y", "0"])
    assert code == cli.EXIT_INPUT_ERROR
    assert time.monotonic() - t0 < 1.0
    entries = 1501 * (1500**2 + 1500 * 1501)
    assert f"would hold {entries} entries" in capsys.readouterr().err


def test_search_jobs_past_the_cap_exit_two_before_the_sweep(monkeypatch, capsys):
    """No worker process is asked for past MAX_JOBS; at the cap the sweep is
    reached (here a stand-in that fails with exit 3)."""
    def unreachable(spec):
        raise AssertionError("sweep started")

    monkeypatch.setattr(search, "run_search", unreachable)
    argv = ["search", "--family", "poly", "--n", "2", "--jobs"]
    assert cli.main(argv + [str(cli.MAX_JOBS + 1)]) == cli.EXIT_INPUT_ERROR
    assert f"exceeds the cap of {cli.MAX_JOBS}" in capsys.readouterr().err
    assert cli.main(argv + [str(cli.MAX_JOBS)]) == cli.EXIT_INVARIANT_VIOLATION


def test_search_summary_counts_the_workers_that_ran(tmp_path, capsys):
    """Poly n=2 has 512 candidates, one block, so it runs in the calling
    process whatever --jobs asks, and the summary says so."""
    out = tmp_path / "r.json"
    code = cli.main(["search", "--family", "poly", "--n", "2", "--jobs", "8",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert "with 1 worker(s)" in capsys.readouterr().err


def test_search_cli_bound_violation_exits_three(tmp_path, monkeypatch, capsys):
    real = run_search(
        SearchSpec(family="poly", n=2, deg_x=1, deg_y=1,
                   r_range=(1, 2), c_range=(1, 2))
    )
    real.bound_violated = True
    real.max_hit_length = 99
    monkeypatch.setattr(search, "run_search", lambda spec: real)
    out = tmp_path / "r.json"
    code = cli.main(
        ["search", "--family", "poly", "--n", "2", "--out", str(out)]
    )
    assert code == 3
    assert out.exists()  # the report is still written for inspection
    assert "bound violation" in capsys.readouterr().err


def test_construct_self_validation_exits_three(monkeypatch, capsys):
    broken = PhaseArray(2, 2, 2, (0, 0, 0, 0))
    monkeypatch.setattr(indexfn, "frank_array", lambda n: broken)
    assert cli.main(["construct", "--family", "frank", "--n", "2"]) == 3
    assert "self-validation" in capsys.readouterr().err


def test_construct_input_errors(tmp_path, capsys):
    assert cli.main(["construct", "--family", "other", "--n", "2"]) == 2
    assert cli.main(["construct", "--family", "frank", "--n", "0"]) == 2
    # order n above the cap is a file no reader accepts: refused before any
    # construction or self-validation work, and nothing is written
    out = tmp_path / "big.txt"
    t0 = time.monotonic()
    code = cli.main(["construct", "--n", str(cli.MAX_ORDER + 1), "--out", str(out)])
    assert code == 2
    assert time.monotonic() - t0 < 5.0
    assert not out.exists()
    assert f"cap of {cli.MAX_ORDER}" in capsys.readouterr().err


def test_scatter_cli(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    code = cli.main(
        ["scatter", "--n", "2", "--k", "2", "--a", "2,0", "--b", "0,0",
         "--cc", "0,0", "--rows", "4", "--out-dir", str(out_dir)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "collapse: true" in out
    assert "period-verified: true" in out
    assert "final-sum 0,1:" in out
    csv = (out_dir / "trace_0_1.csv").read_text().splitlines()
    assert csv[0].startswith("i,gauss_re")
    assert len(csv) == 1 + 4
    # malformed value tables are input errors
    assert cli.main(
        ["scatter", "--n", "2", "--k", "2", "--a", "2", "--b", "0,0",
         "--cc", "0,0", "--rows", "4"]
    ) == 2
    assert cli.main(
        ["scatter", "--n", "2", "--k", "2", "--a", "2,x", "--b", "0,0",
         "--cc", "0,0", "--rows", "4"]
    ) == 2
    # order n*K past the cap is refused before any table of that size exists
    capsys.readouterr()
    t0 = time.monotonic()
    assert cli.main(
        ["scatter", "--n", "1000000", "--k", "1000000", "--a", "2,0", "--b", "0,0",
         "--cc", "0,0", "--rows", "4"]
    ) == 2
    assert time.monotonic() - t0 < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap of {cli.MAX_ORDER}" in captured.err


@pytest.mark.parametrize("cols,rows", [(3, 10_000_000), (3, 100_001), (2, 300_001)])
def test_scatter_past_the_term_cap_exits_two_quickly(cols, rows, capsys):
    """Every column pair's trace keeps one term per row, so rows times column
    pairs is capped: past it the run is refused before any trace is built."""
    zeros = ",".join(["0"] * cols)
    t0 = time.monotonic()
    code = cli.main(["scatter", "--n", "2", "--k", "2", "--a", zeros, "--b", zeros,
                     "--cc", zeros, "--rows", str(rows)])
    assert code == 2
    assert time.monotonic() - t0 < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cap of {cli.MAX_SCATTER_TERMS}" in captured.err


def test_project_rejects_non_arrays(tmp_path):
    path = tmp_path / "seq.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseSequence(2, (0, 0, 0, 1)), fh, "test", {})
    assert cli.main(["project", str(path)]) == 2


def test_project_imperfect_array_exits_one(tmp_path, capsys):
    path = tmp_path / "arr.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseArray(2, 2, 2, (0, 0, 0, 0)), fh, "test", {})
    assert cli.main(["project", str(path), "--axis", "rows"]) == 1
    assert "perfect-projection: false" in capsys.readouterr().err


def test_comment_and_blank_lines_tolerated(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text(
        "# hand-written example\n\nformat: phase-sequence/1\norder: 2\n"
        "length: 4\nexponents: 0,0,0,1\n"
    )
    assert cli.main(["verify", str(path)]) == 0


SMALL_AUDITED_SEARCH = [
    "search", "--family", "poly", "--n", "2", "--deg-x", "1", "--deg-y", "1",
    "--max-r", "4", "--max-c", "4", "--audit",
]


def test_search_cli_prints_audit_tallies(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(SMALL_AUDITED_SEARCH + ["--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "audit: checked " in err
    assert "disagreements 0" in err


def test_search_cli_audit_disagreement_exits_three(tmp_path, monkeypatch, capsys):
    def disagreeing_record(self, exact_zero, coeffs, order):
        self.checked += 1
        self.disagreements += 1

    monkeypatch.setattr(ConcordanceAudit, "record", disagreeing_record)
    out = tmp_path / "r.json"
    assert cli.main(SMALL_AUDITED_SEARCH + ["--out", str(out)]) == 3
    assert out.exists()  # the report is still written for inspection
    err = capsys.readouterr().err
    assert "audit disagreement" in err
    assert "disagreements 0" not in err


@pytest.mark.parametrize("body", [
    "format: phase-sequence/1\norder: 30000\nlength: 2\nexponents: 0,1\n",
    "format: phase-array/1\norder: 30000\nrows: 1\ncols: 2\nexponents: 0,1\n",
    "format: projection/1\norder: 30000\nlength: 1\nvalues: 1\n",
])
def test_oversized_order_exits_two_quickly(tmp_path, capsys, body):
    """The zero test's reduction table grows with the order, so a four-line
    file must not buy a minute of work: the order is capped at read time."""
    path = tmp_path / "big.txt"
    path.write_text(body)
    t0 = time.monotonic()
    assert cli.main(["verify", str(path)]) == 2
    assert time.monotonic() - t0 < 5.0
    assert f"cap of {cli.MAX_ORDER}" in capsys.readouterr().err


def _file_with_entries(fmt: str, entries: int) -> str:
    if fmt == "sequence":
        return (f"format: phase-sequence/1\norder: 64\nlength: {entries}\n"
                f"exponents: {','.join(['0'] * entries)}\n")
    if fmt == "array":
        return (f"format: phase-array/1\norder: 64\nrows: 1\ncols: {entries}\n"
                f"exponents: {','.join(['0'] * entries)}\n")
    if fmt == "quaternion":
        return (f"format: quaternion-sequence/1\nlength: {entries}\n"
                f"symbols: {','.join(['1'] * entries)}\n")
    if fmt == "projection":
        return f"format: projection/1\norder: 2\nlength: {entries}\nvalues: {';'.join(['1,0'] * entries)}\n"
    # one value that sums `entries` roots of unity
    return f"format: projection/1\norder: 2\nlength: 1\nvalues: {entries - 2},-2\n"


@pytest.mark.parametrize("fmt", ["sequence", "array", "quaternion", "projection", "roots"])
def test_files_past_the_entry_cap_exit_two_quickly(tmp_path, capsys, fmt):
    """A perfect input past the per-shift path's reach costs minutes, so a
    file one entry past the cap is refused when read, before any
    correlation; a file at the cap is read."""
    path = tmp_path / "big.txt"
    path.write_text(_file_with_entries(fmt, cli.MAX_ENTRIES + 1))
    t0 = time.monotonic()
    assert cli.main(["verify", str(path)]) == 2
    assert time.monotonic() - t0 < 5.0
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{cli.MAX_ENTRIES + 1} entries, past the cap of {cli.MAX_ENTRIES}" in err
    path.write_text(_file_with_entries(fmt, cli.MAX_ENTRIES))
    cli.read_object(path)


@pytest.mark.parametrize("fmt, entries", [
    ("sequence", cli.MAX_ENTRIES + 1), ("array", cli.MAX_ENTRIES + 1),
    ("quaternion", cli.MAX_ENTRIES + 1), ("projection", cli.MAX_ENTRIES + 1),
    ("declared", 4096 * 4096),
])
def test_files_past_the_entry_cap_are_refused_before_any_item_is_converted(
        tmp_path, capsys, monkeypatch, fmt, entries):
    """The cap is checked on the declared length (or rows x cols) and on the
    item count, so refusing a large file costs a count of its separators,
    not a parse of every item."""
    def unreachable(*args):
        raise AssertionError("an item was converted")

    monkeypatch.setattr(cli, "_int_list", unreachable)
    monkeypatch.setattr(cli, "CyclotomicInt", unreachable)
    monkeypatch.setattr(QuaternionSequence, "from_symbols", unreachable)
    path = tmp_path / "big.txt"
    path.write_text(
        "format: phase-array/1\norder: 64\nrows: 4096\ncols: 4096\nexponents: 0\n"
        if fmt == "declared" else _file_with_entries(fmt, entries)
    )
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"{path} holds {entries} entries, past the cap of {cli.MAX_ENTRIES}\n"
    )


def test_construct_past_the_entry_cap_exits_two_quickly(tmp_path, capsys):
    """`construct --n` validates its n^2 entries with the same per-shift
    checks, so an n within the order cap but past the entry cap is refused
    before any construction, and nothing is written."""
    out = tmp_path / "big.txt"
    t0 = time.monotonic()
    assert cli.main(["construct", "--n", "1024", "--out", str(out)]) == 2
    assert time.monotonic() - t0 < 5.0
    assert not out.exists()
    assert capsys.readouterr() == (
        "", f"--n 1024 makes 1048576 entries, past the cap of {cli.MAX_ENTRIES}\n"
    )


def test_order_at_the_cap_is_read(tmp_path):
    path = tmp_path / "cap.txt"
    path.write_text(
        f"format: phase-sequence/1\norder: {cli.MAX_ORDER}\nlength: 1\nexponents: 7\n"
    )
    assert cli.read_object(path).order == cli.MAX_ORDER
    assert cli.main(["verify", str(path)]) == 0


def test_verify_frank_sequence_at_the_cap_is_quick(tmp_path, capsys):
    """The Frank n=32 sequence written at order 1024 (exponent 32*(i*j mod 32))
    is perfect; its 1023 zero tests at order 1024 finish in well under 2 s."""
    path = tmp_path / "frank32.txt"
    exps = ",".join(str(32 * (i * j % 32)) for i in range(32) for j in range(32))
    path.write_text(f"format: phase-sequence/1\norder: 1024\nlength: 1024\nexponents: {exps}\n")
    t0 = time.perf_counter()
    assert cli.main(["verify", str(path)]) == 0
    elapsed = time.perf_counter() - t0
    assert "perfect: true" in capsys.readouterr().out.splitlines()
    assert elapsed < 2.0, f"verify took {elapsed:.2f} s"


def test_verify_echoes_only_settings_it_uses(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    with open(path, "w") as fh:
        cli.write_object(PhaseSequence(2, (0, 0, 0, 1)), fh, "test", {})
    assert cli.main(["verify", str(path)]) == 0
    config = [l for l in capsys.readouterr().out.splitlines() if l.startswith("config-")]
    assert [l.split(":")[0] for l in config] == [
        "config-command", "config-mode", "config-tool-version",
    ]


def readme_command_lines() -> list[str]:
    """Every `aopseq ...` line in the fenced blocks of README's "Command
    line" section, with backslash continuations joined."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands, fenced, pending = [], False, ""
    for line in section.splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.startswith("aopseq "):
            commands.append(line)
    return commands


def test_readme_command_examples_run(tmp_path, monkeypatch):
    """The documented commands run in order, each one exiting 0."""
    commands = readme_command_lines()
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)
        assert cli.main(argv[1:]) == 0, command


def _valid_file_texts() -> list[str]:
    objects = [
        PhaseSequence(4, (0, 1, 3, 2, 2)),
        PhaseArray(3, 2, 3, (0, 1, 2, 2, 1, 0)),
        QuaternionSequence.from_symbols(["1", "i", "-j", "k", "-1"]),
        column_sum(frank_array(3)),
    ]
    texts = []
    for obj in objects:
        buf = io.StringIO()
        cli.write_object(obj, buf, "test", {"seed": 1})
        texts.append(buf.getvalue())
    return texts


VALID_FILE_TEXTS = _valid_file_texts()

field_values = st.one_of(
    st.text(),
    st.integers().map(str),
    st.lists(st.integers(-10**6, 10**6), max_size=30).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["", "0", "-1", "1", "1024", "1025", "9" * 30, "1e3", " 3 ", ",", "1,,2",
                     "1;2", "0,1;1,0", "i,j,k", "x", "phase-array/1", "projection/1"]),
)


@st.composite
def mutated_files(draw):
    """A valid file of one of the four formats with one field's value
    replaced, or the field's line dropped."""
    lines = draw(st.sampled_from(VALID_FILE_TEXTS)).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    value = draw(st.one_of(st.none(), field_values))
    if value is None:
        del lines[k]
    else:
        lines[k] = lines[k].split(":", 1)[0] + ": " + value
    return "\n".join(lines) + "\n"


def _read_or_reject(path: Path) -> None:
    t0 = time.monotonic()
    try:
        cli.read_object(path)
    except cli.CliInputError:
        pass
    assert time.monotonic() - t0 < 2.0


fuzz_settings = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@fuzz_settings
@given(st.one_of(
    mutated_files(),
    st.text(),
    st.builds(lambda tag, body: f"format: {tag}\n{body}",
              st.sampled_from([t.splitlines()[0].split(": ")[1] for t in VALID_FILE_TEXTS]),
              st.text()),
))
def test_read_object_fuzzed_text_parses_or_raises_input_error(tmp_path, text):
    path = tmp_path / "fuzz.txt"
    path.write_text(text, encoding="utf-8")
    _read_or_reject(path)


@fuzz_settings
@given(st.one_of(st.binary(), st.sampled_from(VALID_FILE_TEXTS).map(lambda t: t.encode() + b"\xff\n")))
def test_read_object_fuzzed_bytes_parse_or_raise_input_error(tmp_path, data):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(data)
    _read_or_reject(path)
