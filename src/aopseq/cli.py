"""Command line surface and the bit-exact file formats behind it.

All objects are stored as line-oriented "key: value" text with a leading
format tag, integer lists as comma-separated fields, and a provenance block
recording the command, its parameters, and the tool version.  Exact
verdicts alone decide exit codes; float output is advisory.

Exit codes: 0 all requested predicates hold, 1 a predicate fails, 2 input
error, 3 invariant violation (a self-check or a sweep bound failed, which
is worth a loud, distinct signal).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO, Union

from . import __version__
from .aop import (
    AopVerdict,
    check_aop,
    is_perfect_array,
    is_perfect_projection,
    is_perfect_sequence,
)
from .correlation import autocorrelate, autocorrelate_2d
from .cyclotomic import CyclotomicInt
from .seqmodel import (
    PhaseArray,
    PhaseSequence,
    ProjectionSequence,
    column_sum,
    flatten,
    row_sum,
    unflatten,
)

# construct, search, scatter and quaternion files import the rest of the
# package when they run, so verifying a phase or projection file loads
# neither the sweep engine nor the pool machinery
if TYPE_CHECKING:
    from .quaternion import QuaternionSequence

    FileObject = Union[PhaseSequence, PhaseArray, QuaternionSequence, ProjectionSequence]

__all__ = [
    "CliInputError",
    "read_object",
    "write_object",
    "main",
]

EXIT_OK = 0
EXIT_PREDICATE_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INVARIANT_VIOLATION = 3


class CliInputError(ValueError):
    """Malformed file or inconsistent command inputs."""


# Largest alphabet order a file may declare, `construct --n` may write, and
# `scatter` may correlate over (n*K).  Every exact correlation value is a
# count vector with one entry per n-th root of unity, and the zero test keeps
# an index plan of the same size per order, so the memory a file costs grows
# with its declared order, not with its data.
MAX_ORDER = 1024

# Largest number of entries a file may hold and `construct --n` may write
# (n^2): rows x cols of an array, the length of a sequence, and, for a
# projection, the larger of its length and the number of roots of unity its
# values sum (R*C for the column sums of an R x C array).  A perfect input
# at order 32 or above stays on the per-shift path, where the condition-1
# scan of an n x n array makes n^2 (n-1)/2 zero tests, and a zero test at
# an order with three or four prime factors costs up to about 0.1 ms.  On a
# 2-vCPU host the 45 x 45 Frank array written at order 990 verifies in
# 7 s; at 4,096 entries the 60 x 60 one at order 1020 took 14 s (16 s with
# `--mode float`).
MAX_ENTRIES = 2048

# Largest number of trace terms (rows times column pairs) `scatter` builds.
# Each column pair's trace keeps one term per row, so time and memory grow
# with that product.  Three columns at 100,000 rows, the largest run
# accepted, took 1.1-1.4 s and 64 MB peak RSS on a 2-vCPU host.
MAX_SCATTER_TERMS = 300_000

# Most worker processes `search --jobs` may ask for.  A sweep cuts at most
# 256 blocks and starts one process per block at most, each a full copy of
# the sweep's tables.
MAX_JOBS = 64


def _provenance_lines(command: str, parameters: dict) -> list[str]:
    rendered = " ".join(f"{k}={parameters[k]}" for k in sorted(parameters))
    return [
        f"provenance-command: {command}",
        f"provenance-parameters: {rendered}",
        f"provenance-tool-version: aopseq {__version__}",
    ]


def _int_list(text: str) -> list[int]:
    try:
        return [int(f) for f in text.split(",")] if text else []
    except ValueError:
        raise CliInputError(f"expected a comma-separated integer list, got {text!r}")


def write_object(obj: FileObject, stream: TextIO, command: str, parameters: dict) -> None:
    if isinstance(obj, PhaseSequence):
        lines = [
            "format: phase-sequence/1",
            f"order: {obj.order}",
            f"length: {len(obj)}",
            "exponents: " + ",".join(str(e) for e in obj.exponents),
        ]
    elif isinstance(obj, PhaseArray):
        lines = [
            "format: phase-array/1",
            f"order: {obj.order}",
            f"rows: {obj.rows}",
            f"cols: {obj.cols}",
            "exponents: " + ",".join(str(e) for e in obj.exponents),
        ]
    elif isinstance(obj, ProjectionSequence):
        lines = [
            "format: projection/1",
            f"order: {obj.order}",
            f"length: {len(obj)}",
            "values: "
            + ";".join(",".join(str(c) for c in v.coeffs) for v in obj.values),
        ]
    else:
        from .quaternion import QuaternionSequence

        if not isinstance(obj, QuaternionSequence):
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        lines = [
            "format: quaternion-sequence/1",
            f"length: {obj.length}",
            "symbols: " + ",".join(obj.symbols()),
        ]
    lines += _provenance_lines(command, parameters)
    stream.write("\n".join(lines) + "\n")


def _parse_kv(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise CliInputError(f"line {lineno} is not a 'key: value' field: {raw!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in fields:
            raise CliInputError(f"line {lineno} repeats field {key!r}")
        fields[key] = value.strip()
    return fields


def _field(fields: dict[str, str], key: str) -> str:
    if key not in fields:
        raise CliInputError(f"missing field {key!r}")
    return fields[key]


def _order_field(fields: dict[str, str]) -> int:
    order = int(_field(fields, "order"))
    if order > MAX_ORDER:
        raise CliInputError(f"order {order} exceeds the cap of {MAX_ORDER}")
    return order


def _refuse_past_cap(path: Union[str, Path], entries: int) -> None:
    if entries > MAX_ENTRIES:
        raise CliInputError(f"{path} holds {entries} entries, past the cap of {MAX_ENTRIES}")


def _items(path: Union[str, Path], fields: dict[str, str], key: str, declared: int,
           sep: str = ",") -> str:
    """The unconverted `key` list, once neither its `declared` length (or
    rows x cols) nor its item count is past MAX_ENTRIES, so an oversized
    file is refused at the cost of counting its separators."""
    text = _field(fields, key)
    _refuse_past_cap(path, max(declared, text.count(sep) + 1 if text else 0))
    return text


def read_object(path: Union[str, Path]) -> FileObject:
    """Parse one file; refuse it when it declares an order above MAX_ORDER or
    holds more than MAX_ENTRIES entries."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    fields = _parse_kv(text)
    tag = _field(fields, "format")
    try:
        if tag == "phase-sequence/1":
            order = _order_field(fields)
            length = int(_field(fields, "length"))
            seq = PhaseSequence(
                order, tuple(_int_list(_items(path, fields, "exponents", length)))
            )
            if len(seq) != length:
                raise CliInputError("length field disagrees with the exponent list")
            return seq
        if tag == "phase-array/1":
            order = _order_field(fields)
            rows, cols = int(_field(fields, "rows")), int(_field(fields, "cols"))
            exponents = _items(path, fields, "exponents", rows * cols)
            return PhaseArray(order, rows, cols, tuple(_int_list(exponents)))
        if tag == "quaternion-sequence/1":
            from .quaternion import QuaternionSequence

            length = int(_field(fields, "length"))
            seq = QuaternionSequence.from_symbols(
                _items(path, fields, "symbols", length).split(",")
            )
            if seq.length != length:
                raise CliInputError("length field disagrees with the symbol list")
            return seq
        if tag == "projection/1":
            order = _order_field(fields)
            length = int(_field(fields, "length"))
            values = tuple(
                CyclotomicInt(order, tuple(int(c) for c in chunk.split(",")))
                for chunk in _items(path, fields, "values", length, ";").split(";")
            )
            proj = ProjectionSequence(order, values)
            if len(proj) != length:
                raise CliInputError("length field disagrees with the value list")
            # a value's coefficients count the roots of unity it sums
            _refuse_past_cap(path, sum(abs(c) for v in values for c in v.coeffs))
            return proj
    except CliInputError:
        raise
    except (ValueError, TypeError) as exc:
        raise CliInputError(f"malformed {tag} file: {exc}")
    raise CliInputError(f"unknown format tag {tag!r}")


def cmd_construct(args: argparse.Namespace) -> int:
    from .indexfn import frank_array

    if args.family != "frank":
        raise CliInputError(f"unknown family {args.family!r}")
    if args.n < 1:
        raise CliInputError("--n must be positive")
    if args.n > MAX_ORDER:
        raise CliInputError(f"--n {args.n} exceeds the cap of {MAX_ORDER}")
    if args.n * args.n > MAX_ENTRIES:
        raise CliInputError(
            f"--n {args.n} makes {args.n * args.n} entries, past the cap of {MAX_ENTRIES}"
        )
    array = frank_array(args.n)
    seq = flatten(array)
    # the formula is transcribed from the literature; never write a file
    # that fails its own predicates
    if not check_aop(array).holds or not is_perfect_sequence(seq):
        print("self-validation failed for the constructed object", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    obj: FileObject = array if args.as_array else seq
    params = {"family": args.family, "n": args.n, "as_array": args.as_array}
    if args.out:
        with open(args.out, "w") as fh:
            write_object(obj, fh, "construct", params)
    else:
        write_object(obj, sys.stdout, "construct", params)
    return EXIT_OK


def _float_advisory(obj: FileObject) -> list[str]:
    if isinstance(obj, PhaseSequence):
        profile = autocorrelate(obj)
    elif isinstance(obj, PhaseArray):
        profile = autocorrelate_2d(obj)
    else:
        return []
    offpeak = [abs(v) for v in profile.to_complex()[1:]]
    worst = max(offpeak) if offpeak else 0.0
    return [f"float-offpeak-max: {worst!r}"]


def _aop_lines(verdict: AopVerdict) -> list[str]:
    """The `aop:` line and, when it fails, its condition and witness."""
    lines = [f"aop: {str(verdict.holds).lower()}"]
    if not verdict.holds:
        lines.append(f"aop-failing-condition: {verdict.failing_condition}")
        lines.append("aop-witness: " + ",".join(str(w) for w in verdict.witness))
    return lines


def cmd_verify(args: argparse.Namespace) -> int:
    obj = read_object(args.path)
    lines = [
        "config-command: verify",
        f"config-mode: {args.mode}",
        f"config-tool-version: aopseq {__version__}",
    ]
    if args.divisor is not None:
        if args.divisor < 1:
            raise CliInputError("--divisor must be positive")
        # an array's divisor is its column count; other objects have none
        if isinstance(obj, PhaseArray):
            if args.divisor != obj.cols:
                raise CliInputError(
                    f"divisor {args.divisor} differs from the array's {obj.cols} columns"
                )
        elif not isinstance(obj, PhaseSequence):
            raise CliInputError("--divisor applies to phase-sequence and phase-array files")
        elif len(obj) % args.divisor:
            raise CliInputError(f"divisor {args.divisor} does not divide length {len(obj)}")
    holds = True
    if isinstance(obj, PhaseSequence):
        perfect = is_perfect_sequence(obj)
        holds &= perfect
        lines.append(f"perfect: {str(perfect).lower()}")
        if args.divisor is not None:
            verdict = check_aop(unflatten(obj, len(obj) // args.divisor, args.divisor))
            holds &= verdict.holds
            lines += _aop_lines(verdict)
    elif isinstance(obj, PhaseArray):
        verdict = check_aop(obj)
        perfect = is_perfect_array(obj)
        holds &= verdict.holds and perfect
        lines += _aop_lines(verdict)
        lines.append(f"perfect-array: {str(perfect).lower()}")
    elif isinstance(obj, ProjectionSequence):
        perfect = is_perfect_projection(obj)
        holds &= perfect
        lines.append(f"perfect-projection: {str(perfect).lower()}")
    else:
        from .quaternion import quat_is_perfect

        wanted = ("right", "left") if args.convention == "both" else (args.convention,)
        for conv in wanted:
            ok = quat_is_perfect(obj, conv)
            holds &= ok
            lines.append(f"perfect-{conv}: {str(ok).lower()}")
    if args.mode == "float":
        lines += _float_advisory(obj)
    lines.append(f"verdict: {'holds' if holds else 'fails'}")
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return EXIT_OK if holds else EXIT_PREDICATE_FAILED


def cmd_search(args: argparse.Namespace) -> int:
    from .search import BudgetExceeded, SearchSpec, run_search

    if args.jobs > MAX_JOBS:
        raise CliInputError(f"--jobs {args.jobs} exceeds the cap of {MAX_JOBS}")
    try:
        spec = SearchSpec(
            family=args.family,
            n=args.n,
            k=args.k,
            deg_x=args.deg_x,
            deg_y=args.deg_y,
            r_range=(args.min_r, args.max_r),
            c_range=(args.min_c, args.max_c),
            length=args.length,
            workers=args.jobs,
            budget=args.budget,
            restriction=args.restriction,
            symmetry=args.symmetry,
            audit=args.audit,
            hit_limit=args.hit_limit,
            filter_mod=args.filter_mod,
            filter_residue=args.filter_residue,
            progress_every=args.progress_every,
        )
        report = run_search(spec)
    except (BudgetExceeded, ValueError) as exc:
        raise CliInputError(str(exc)) from exc
    text = report.canonical_json()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(
        f"searched {report.total_candidates} candidates in "
        f"{report.wall_time_s:.2f}s with "
        f"{min(spec.workers, len(report.worker_chunks))} worker(s)",
        file=sys.stderr,
    )
    status = EXIT_OK
    if spec.audit:
        print(
            f"audit: checked {report.audit_checked}, "
            f"disagreements {report.audit_disagreements}",
            file=sys.stderr,
        )
        if report.audit_disagreements > 0:
            print("audit disagreement: exact and float zero tests differ", file=sys.stderr)
            status = EXIT_INVARIANT_VIOLATION
    if report.bound_violated:
        print(
            f"bound violation: hit of length {report.max_hit_length} "
            f"exceeds {report.bound_limit}",
            file=sys.stderr,
        )
        status = EXIT_INVARIANT_VIOLATION
    return status


def cmd_scatter(args: argparse.Namespace) -> int:
    from .scatter import BiQuadraticSpec, collapse_check, trace_crosscorrelation, write_trace_csv

    tables = [tuple(_int_list(t)) for t in (args.a, args.b, args.cc)]
    try:
        spec = BiQuadraticSpec(args.n, args.k, *tables, args.rows)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    if spec.period > MAX_ORDER:
        raise CliInputError(f"order n*K = {spec.period} exceeds the cap of {MAX_ORDER}")
    pairs = spec.cols * (spec.cols - 1) // 2
    if spec.rows * pairs > MAX_SCATTER_TERMS:
        raise CliInputError(
            f"--rows {spec.rows} over {pairs} column pairs makes {spec.rows * pairs} "
            f"trace terms, past the cap of {MAX_SCATTER_TERMS}"
        )
    report = collapse_check(spec)
    print(f"collapse: {str(report.collapsed).lower()}")
    print(f"period-verified: {str(report.period_verified).lower()}")
    print(f"checked-pairs: {report.checked_pairs}")
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for j1 in range(spec.cols):
        for j2 in range(j1 + 1, spec.cols):
            trace = trace_crosscorrelation(spec, j1, j2, args.tau)
            s = trace.final_sum
            print(f"final-sum {j1},{j2}: {s.real!r} {s.imag!r} abs={abs(s)!r}")
            if out_dir is not None:
                with open(out_dir / f"trace_{j1}_{j2}.csv", "w") as fh:
                    write_trace_csv(trace, fh)
    return EXIT_OK


def cmd_project(args: argparse.Namespace) -> int:
    obj = read_object(args.path)
    if not isinstance(obj, PhaseArray):
        raise CliInputError("projection needs a phase-array file")
    proj = column_sum(obj) if args.axis == "cols" else row_sum(obj)
    perfect = is_perfect_projection(proj)
    peak = sum(complex(v).real**2 + complex(v).imag**2 for v in proj.values)
    params = {"axis": args.axis, "source": str(args.path)}
    if args.out:
        with open(args.out, "w") as fh:
            write_object(proj, fh, "project", params)
    else:
        write_object(proj, sys.stdout, "project", params)
    print(f"perfect-projection: {str(perfect).lower()}", file=sys.stderr)
    print(f"peak-energy: {peak!r}", file=sys.stderr)
    return EXIT_OK if perfect else EXIT_PREDICATE_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aopseq",
        description="construct, verify, search, and analyze perfect sequences "
        "and arrays with orthogonal columns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a validated known-family object")
    p.add_argument("--family", default="frank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--as-array", action="store_true", dest="as_array")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check perfection/orthogonality predicates")
    p.add_argument("path")
    p.add_argument("--divisor", type=int, default=None)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--convention", choices=("right", "left", "both"), default="right")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively sweep a candidate space")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--deg-x", type=int, default=2, dest="deg_x")
    p.add_argument("--deg-y", type=int, default=2, dest="deg_y")
    p.add_argument("--min-r", type=int, default=1, dest="min_r")
    p.add_argument("--max-r", type=int, default=1, dest="max_r")
    p.add_argument("--min-c", type=int, default=1, dest="min_c")
    p.add_argument("--max-c", type=int, default=1, dest="max_c")
    p.add_argument("--length", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--restriction", default="")
    p.add_argument("--symmetry", default="")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--hit-limit", type=int, default=4096, dest="hit_limit")
    p.add_argument("--filter-mod", type=int, default=1, dest="filter_mod")
    p.add_argument("--filter-residue", type=int, default=0, dest="filter_residue")
    p.add_argument("--progress-every", type=int, default=0, dest="progress_every")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scatter", help="factor column correlations of a "
                       "floored bi-quadratic array")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", required=True, help="comma list, quadratic coefficient per column")
    p.add_argument("--b", required=True, help="comma list, linear coefficient per column")
    p.add_argument("--cc", required=True, help="comma list, constant per column")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--out-dir", default="", dest="out_dir")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("project", help="sum an array along one axis and test "
                       "the projection's perfection")
    p.add_argument("path")
    p.add_argument("--axis", choices=("rows", "cols"), default="cols")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AssertionError as exc:
        # internal cross-checks speak up with the refutation-grade code
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION


def console_entry() -> None:
    sys.exit(main())
