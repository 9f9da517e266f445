import ast
import importlib
import inspect
import pkgutil

import pytest

import foldtrack

MODULES = sorted(m.name for m in pkgutil.iter_modules(foldtrack.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("foldtrack." + name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


# the modules that declare their public names
LISTED = [m for m in MODULES
          if hasattr(importlib.import_module("foldtrack." + m), "__all__")]


@pytest.mark.parametrize("name", LISTED)
def test_all_lists_exactly_the_public_names(name):
    """__all__ lists every def and class of the module's own whose name has
    no leading underscore, once each, and nothing else."""
    module = importlib.import_module("foldtrack." + name)
    tree = ast.parse(inspect.getsource(module))
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert sorted(public) == sorted(module.__all__)
