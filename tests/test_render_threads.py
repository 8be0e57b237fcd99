"""A warmed noiseless render, calibration and reconstruction each run on one
thread. (A noisy render draws its noise on one worker thread of its own; see
``test_simulate.TestIntensityNoise``.)

On some hosts a frame-sized BLAS product, stacked or 2-D, starts
OpenBLAS's thread pool, whose threads keep spinning after the call returns,
so the process uses more CPU time than wall time. The render lifts and
projects each disc through calibrate's kernel cores, ``lift_pixels`` and
``project_stack``, so those cores must stay BLAS-free; so must the stride-1
triangulation. A second noiseless render, calibration and reconstruction
must each use at most 1.2 s of CPU per second of wall.

The check runs in a fresh interpreter with OpenBLAS free to start its
threads. It times the second call of each stage, after a pause: the first
one may still see the pool spin once while it starts. On a host with one
CPU, or whose OpenBLAS runs these products on one thread, no second thread
spins, so those tests pass without testing anything. A static check of the
cores' source holds on every host: none of them calls a BLAS product.
"""

import ast
import inspect
import os
import textwrap
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import time

from twosphere.pipeline import run_calibration
from twosphere.reconstruct import reconstruct_cloud
from twosphere.simulate import NoiseSpec, preset, render_scene

truth = preset("cppB")
bundle = render_scene(truth.with_noise(NoiseSpec(0.5, 0.01, seed=0)))
result, _ = run_calibration(bundle)
cloud = lambda: reconstruct_cloud(bundle, result.camera, result.proj_matrix, stride=1)
cloud()
for work in (lambda: render_scene(truth), lambda: run_calibration(bundle), cloud):
    time.sleep(0.5)
    wall, cpu = time.perf_counter(), time.process_time()
    work()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    print(cpu / wall)
"""

# the variables OpenBLAS reads for its thread count
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture(scope="module")
def cpu_per_wall():
    """CPU seconds per wall second of the second cppB render (noiseless), and
    of the second calibration and stride-1 reconstruction (noisy), by stage."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(TESTS.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return dict(zip(("render", "calibration", "reconstruction"), map(float, done.stdout.split())))


def test_second_cppb_render_uses_one_thread(cpu_per_wall):
    ratio = cpu_per_wall["render"]
    assert ratio <= 1.2, f"the second render used {ratio:.2f} s of CPU per second of wall"


def test_second_noisy_cppb_calibration_uses_one_thread(cpu_per_wall):
    ratio = cpu_per_wall["calibration"]
    assert ratio <= 1.2, f"the second calibration used {ratio:.2f} s of CPU per second of wall"


def test_second_noisy_cppb_reconstruction_uses_one_thread(cpu_per_wall):
    ratio = cpu_per_wall["reconstruction"]
    assert ratio <= 1.2, f"the second reconstruction used {ratio:.2f} s of CPU per second of wall"


# the numpy calls that hand a product to BLAS; ``@`` is checked as an operator
BLAS_CALLS = {"matmul", "dot", "tensordot", "inner"}


def blas_products(function) -> list[int]:
    """Source lines of ``function`` that take a BLAS product."""
    lines = inspect.getsourcelines(function)[1]
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return [
        lines + node.lineno - 1
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS
        or isinstance(node, ast.Name) and node.id in BLAS_CALLS
    ]


def test_render_and_triangulation_cores_take_no_blas_product():
    from twosphere import projector, reconstruct, sphere

    cores = (sphere.lift_pixels, projector.project_stack, reconstruct._dot3,
             reconstruct._ray_geometry, reconstruct._midpoints, reconstruct._surface_error)
    found = {core.__qualname__: blas_products(core) for core in cores}
    assert not any(found.values()), f"BLAS products at source lines {found}"
