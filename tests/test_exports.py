import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_package_loads_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency (scipy only reads the benchmark's
    # machine record): importing every module of the package, the CLI
    # included, loads no other third-party module. The baseline is taken
    # first, as site hooks load modules before any import.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import importlib, pkgutil\n"
        "import neuralfield\n"
        "for info in pkgutil.iter_modules(neuralfield.__path__):\n"
        "    importlib.import_module(f'neuralfield.{info.name}')\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))\n"
    )
    src = Path(neuralfield.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert {"neuralfield", "numpy"} <= loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"neuralfield", "numpy"}) == []
