"""Every name that the package and its modules export through ``__all__``
resolves, and no name is listed twice."""

import importlib
import pkgutil

import pytest

import copulascore

MODULES = ["copulascore"] + [
    f"copulascore.{info.name}" for info in pkgutil.iter_modules(copulascore.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
