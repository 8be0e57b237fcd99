"""numpy is the package's only runtime dependency.

The check runs in a fresh interpreter: the test session itself may have
imported anything.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import sys

import numpy as np

import twosphere.cli  # noqa: F401
from conftest import exact_problem, make_micro_truth
from twosphere import calibrate
from twosphere.projector import compose, decompose

truth = make_micro_truth()
K, R, T = decompose(compose(truth.proj_intrinsics, truth.rotation, truth.translation))
assert abs(K.fx - truth.proj_intrinsics.fx) < 1e-6
assert np.allclose(R, truth.rotation) and np.allclose(T, truth.translation)
result = calibrate(exact_problem(truth))
assert abs(result.camera.fx - truth.camera.fx) < 1.0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_cli_decompose_and_calibrate_import_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=TESTS,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
