"""Every exported name resolves, so a deletion cannot leave a stale entry;
no invariant check in the package is an `assert` statement."""

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


def test_no_assert_statements_in_the_package():
    """`python -O` strips `assert` statements, so every invariant check in
    `aopseq` raises `AssertionError` itself."""
    found = []
    for path in sorted(pathlib.Path(aopseq.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements vanish under python -O: {found}"
