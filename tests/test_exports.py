import importlib
import pkgutil

import pytest

import neuralfield

PACKAGE_MODULES = [
    "neuralfield",
    *(f"neuralfield.{info.name}" for info in pkgutil.iter_modules(neuralfield.__path__)),
]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # `from module import *` only when someone runs it
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
