"""Every exported name resolves, so a deletion cannot leave a stale entry."""

import importlib
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
