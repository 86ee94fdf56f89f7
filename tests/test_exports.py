"""Every name that the package and its modules export through ``__all__``
resolves, no name is listed twice, and no module imports a name it does
not use."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # No linter runs on the package, so this catches a stale import of a
    # removed helper.  An import counts as used when the module reads the
    # name, lists it in __all__, or marks its line "# noqa: F401".
    module = importlib.import_module(name)
    source = inspect.getsource(module)
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                unused.append(f"line {node.lineno}: {bound}")
    assert unused == []
