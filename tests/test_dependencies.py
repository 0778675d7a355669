"""numpy is the package's only runtime dependency; scipy is a test oracle."""

import os
import pathlib
import subprocess
import sys

import lstmpc

IMPORT_ALL_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None          # any 'import scipy...' now raises ImportError
import lstmpc
for mod in pkgutil.iter_modules(lstmpc.__path__):
    importlib.import_module("lstmpc." + mod.name)
"""


def test_every_module_imports_without_scipy():
    src = str(pathlib.Path(lstmpc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", IMPORT_ALL_WITHOUT_SCIPY],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
