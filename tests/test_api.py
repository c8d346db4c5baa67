import importlib
import pkgutil

import pytest

import stlmask

MODULES = ["stlmask"] + [f"stlmask.{m.name}" for m in pkgutil.iter_modules(stlmask.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but left in __all__ breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
