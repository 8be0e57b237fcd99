"""numpy is the package's only runtime dependency, and the calibration path
does not import the renderer.

The numpy check runs in a fresh interpreter: the test session itself may have
imported anything. The renderer check reads the package's import statements:
importing any submodule runs ``twosphere/__init__``, which imports the
renderer for its public names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "twosphere"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

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


def imported_modules(source: str) -> set:
    """The package modules that ``source`` imports anywhere in its code:
    ``from .m import``, ``from . import m``, ``from twosphere(.m) import`` and
    ``import twosphere.m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("twosphere.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:  # absolute: twosphere's own only, named below the package
                if module.split(".")[0] != "twosphere":
                    continue
                module = module.removeprefix("twosphere").lstrip(".")
            elif node.level > 1:
                continue
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found & MODULES


def reachable(start: str) -> set:
    """The package modules that importing module ``start`` imports, directly or not."""
    edges = {m: imported_modules((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    seen, todo = set(), [start]
    while todo:
        new = edges[todo.pop()] - seen
        seen |= new
        todo += new
    return seen


@pytest.mark.parametrize("source", [
    "from .simulate import render_scene",
    "from . import phase, simulate",
    "from twosphere.simulate import preset",
    "from twosphere import simulate",
    "import twosphere.simulate as sim",
    "def load():\n    from .simulate import preset\n",
])
def test_every_import_form_is_seen(source):
    assert "simulate" in imported_modules(source)


@pytest.mark.parametrize("module", ["scene", "calibrate", "pipeline", "reconstruct"])
def test_the_calibration_path_does_not_reach_the_renderer(module):
    assert "simulate" in MODULES and "scene" in reachable("cli")
    assert "simulate" not in reachable(module)
