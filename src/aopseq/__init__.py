"""Perfect periodic sequences and arrays with mutually orthogonal columns.

Exact arithmetic over roots of unity is the source of truth everywhere;
float evaluation rides along as an advisory cross-check.

`import aopseq` runs no submodule: each exported name, and each submodule
(`aopseq.search`, ...), is imported on first access, so a call loads only
the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_HOMES = {
    "aop": (
        "AopVerdict",
        "aop_implies_perfect",
        "check_aop",
        "check_condition_1",
        "check_condition_2",
        "is_perfect_array",
        "is_perfect_projection",
        "is_perfect_sequence",
        "perfect_array_projection_check",
    ),
    "correlation": (
        "CorrelationProfile",
        "autocorrelate",
        "autocorrelate_2d",
        "crosscorrelate",
        "decomposition_check",
        "decomposition_check_all",
        "projection_autocorrelate",
        "projection_sum_check",
        "projection_sum_check_all",
    ),
    "cyclotomic": ("ConcordanceAudit", "CyclotomicInt", "audit"),
    "indexfn": (
        "FlooredIndex",
        "PolyIndex",
        "column_duplication_witness",
        "frank_array",
        "frank_index",
        "frank_sequence",
        "generate_floored_array",
        "generate_poly_array",
        "index_entry",
        "index_periodicity_check",
        "poly_eval",
    ),
    "quaternion": (
        "QuaternionSequence",
        "QuatUnit",
        "quat_autocorrelate",
        "quat_is_perfect",
        "structure_check",
    ),
    "scatter": (
        "BiQuadraticSpec",
        "CollapseReport",
        "ScatterTrace",
        "collapse_check",
        "decompose_term",
        "fractional_dependence_survey",
        "trace_crosscorrelation",
        "write_trace_csv",
    ),
    "search": ("BudgetExceeded", "SearchReport", "SearchSpec", "run_search"),
    "seqmodel": (
        "PhaseArray",
        "PhaseSequence",
        "ProjectionSequence",
        "column_sum",
        "flatten",
        "row_sum",
        "unflatten",
    ),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
