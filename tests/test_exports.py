"""Every exported name resolves, so a deletion cannot leave a stale entry;
`import aopseq` runs no submodule and a call loads only what it uses; no
invariant check in the package is an `assert` statement."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import aopseq

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(aopseq.__path__))


@pytest.mark.parametrize("name", ["aopseq"] + [f"aopseq.{m}" for m in SUBMODULES])
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_lazy_table_and_all_name_the_same_set():
    assert set(aopseq._EXPORTS) | {"__version__"} == set(aopseq.__all__)
    assert set(aopseq._EXPORTS) | set(SUBMODULES) <= set(dir(aopseq))


def test_bare_import_runs_no_submodule(loaded_modules):
    assert loaded_modules("import aopseq") == {"aopseq"}


def test_every_name_and_submodule_resolves_after_a_bare_import(loaded_modules):
    loaded = loaded_modules(
        "import aopseq, importlib\n"
        f"for m in {SUBMODULES!r}:\n"
        "    assert getattr(aopseq, m) is importlib.import_module('aopseq.' + m), m\n"
        "for name in aopseq.__all__:\n"
        "    assert getattr(aopseq, name) is not None, name\n"
        "assert aopseq.run_search is aopseq.search.run_search\n"
    )
    assert {f"aopseq.{m}" for m in SUBMODULES} <= loaded


@pytest.mark.parametrize("as_array", [True, False])
def test_verify_of_a_phase_file_loads_five_package_modules(tmp_path, loaded_modules,
                                                           as_array):
    """`verify` of a phase file needs the checks, correlation, the zero test and
    the shapes: not the sweep engine, the pool, the scatter tracer, the
    index functions or the quaternions."""
    from aopseq import cli

    path = tmp_path / "frank.txt"
    argv = ["construct", "--n", "4", "--out", str(path)] + ["--as-array"] * as_array
    assert cli.main(argv) == 0
    loaded = loaded_modules(
        f"import aopseq.cli\nassert aopseq.cli.main(['verify', {str(path)!r}]) == 0\n"
    )
    assert loaded == {"aopseq", "aopseq.aop", "aopseq.cli", "aopseq.correlation",
                      "aopseq.cyclotomic", "aopseq.seqmodel"}


def test_no_assert_statements_in_the_package():
    """`python -O` strips `assert` statements, so every invariant check in
    `aopseq` raises `AssertionError` itself."""
    found = []
    for path in sorted(pathlib.Path(aopseq.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"
