import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vranphy

SRC = Path(vranphy.__file__).resolve().parent.parent

IMPORT_ALL = """
import pkgutil, sys
import vranphy
names = [m.name for m in pkgutil.walk_packages(vranphy.__path__, "vranphy.")]
for name in names:
    __import__(name)
assert "vranphy.backends.model" in sys.modules, names
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_importing_every_module_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("package", ["vranphy.backends",
                                     "vranphy.deployment", "vranphy.nr"])
def test_every_exported_name_resolves(package):
    """A name left in ``__all__`` after its object is deleted fails only
    at a star import, which no other test makes."""
    module = importlib.import_module(package)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
