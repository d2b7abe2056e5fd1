"""Spans around the calls one aopseq module makes into another.

The traced pass swaps, inside the benchmark's own process, the module
attributes through which one module calls its neighbour (for example
`aopseq.search._aop_holds_columns` or `aopseq.aop.counts_is_zero`) for
wrappers that record one span per call: span name, start, end and the index
of the enclosing span.  Nothing in `src/aopseq` is edited.  Spans live in
typed arrays while the pass runs and are written to one `.npz` file when it
ends.

A span's layer is the part of its name before the first dot.  A layer's
self time is the time of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, owning class or "", attribute, span name).  A target that a later
# version of the package no longer has is skipped with a warning, so the
# layer reads as unreached instead of the pass crashing.
PATCHES = (
    ("aopseq.search", "", "_aop_holds_columns", "aop.verdict_columns"),
    ("aopseq.search", "", "check_aop", "aop.check_aop"),
    ("aopseq.search", "", "generate_poly_array", "indexfn.generate"),
    ("aopseq.search", "", "generate_floored_array", "indexfn.generate"),
    ("aopseq.search", "", "quat_is_perfect", "quaternion.direct_check"),
    ("aopseq.aop", "", "autocorrelate_2d", "correlation.autocorrelate_2d"),
    ("aopseq.aop", "", "counts_is_zero", "cyclotomic.zero_test"),
    ("aopseq.correlation", "", "counts_is_zero", "cyclotomic.zero_test"),
    # CyclotomicInt.is_zero reaches the zero test through this global
    ("aopseq.cyclotomic", "", "counts_is_zero", "cyclotomic.zero_test"),
    ("aopseq.cyclotomic", "ConcordanceAudit", "record", "cyclotomic.audit"),
    ("aopseq.correlation", "", "flatten", "seqmodel.flatten"),
    ("aopseq.correlation", "", "column_sum", "seqmodel.column_sum"),
    ("aopseq.seqmodel", "PhaseArray", "__init__", "seqmodel.PhaseArray"),
    ("aopseq.seqmodel", "PhaseSequence", "__init__", "seqmodel.PhaseSequence"),
)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, fn, span_name: str):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self):
        """Swap every reachable `PATCHES` target for its traced wrapper and
        put the originals back on exit."""
        undo = []
        try:
            for module, owner, attr, span_name in PATCHES:
                target = importlib.import_module(module)
                if owner:
                    target = getattr(target, owner, None)
                original = getattr(target, attr, None) if target is not None else None
                if original is None:
                    print(f"trace: {module}.{owner + '.' if owner else ''}{attr} not found; "
                          f"{span_name} stays empty", file=sys.stderr)
                    continue
                setattr(target, attr, self.wrap(original, span_name))
                undo.append((target, attr, original))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds."""
        n = len(self.end)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {
            span: {"calls": int(counts[i]), "total_s": float(totals[i]), "self_s": float(selfs[i])}
            for i, span in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent) and the workload."""
        t0 = self.start[0] if len(self.start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            workload=np.array(self.workload),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start) - t0,
            end=np.frombuffer(self.end) - t0,
        )


def layer_totals(summary: dict[str, dict[str, float]], layer: str) -> tuple[int, float]:
    """Calls and self time summed over the spans of one layer."""
    calls, own = 0, 0.0
    for span, s in summary.items():
        if span.split(".", 1)[0] == layer:
            calls += s["calls"]
            own += s["self_s"]
    return calls, own
