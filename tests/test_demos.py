"""The demos that run in seconds exit cleanly against the current API.

Each runs in a subprocess from an empty working directory, so files a demo
writes (demo 03's trace) stay out of the checkout, and with ``-W error``,
so a warning fails it as it fails the test suite. Demo 01 trains a model
from scratch and is left out for its run time.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import lstmpc

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["02_certification_constants.py",
                                  "03_closed_loop_benchmark.py",
                                  "04_observer_convergence.py"])
def test_demo_runs(demo, tmp_path):
    src = str(pathlib.Path(lstmpc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
