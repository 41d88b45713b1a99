import importlib
import pkgutil

import pytest

import stmoments

MODULES = ["stmoments"] + [f"stmoments.{m.name}" for m in pkgutil.iter_modules(stmoments.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_names_resolve(name):
    # a name deleted from a module but left in its __all__ (or in the
    # package's imports) fails here
    module = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(module, "__all__", ()):
        assert attr in namespace and namespace[attr] is getattr(module, attr), attr
