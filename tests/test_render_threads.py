"""A warmed ``render_scene`` runs on one thread.

At frame sizes the stacked BLAS products of ``lift_pixels`` and
``project_stack`` start OpenBLAS's thread pool, whose threads keep spinning
after the call returns, so the process uses more CPU time than wall time.
The render lifts and projects each disc without BLAS, so a second render
must use at most 1.2 s of CPU per second of wall.

The check runs in a fresh interpreter with OpenBLAS free to start its
threads. It times the second render, after a pause: the first one may still
see the pool spin once while it starts. On a host with one CPU no second
thread can run in parallel, so the test passes without testing anything.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import time

from twosphere.simulate import preset, render_scene

truth = preset("cppB")
render_scene(truth)
time.sleep(0.5)
wall, cpu = time.perf_counter(), time.process_time()
render_scene(truth)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(cpu / wall)
"""

# the variables OpenBLAS reads for its thread count
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_second_cppb_render_uses_one_thread():
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
    ratio = float(done.stdout)
    assert ratio <= 1.2, f"the second render used {ratio:.2f} s of CPU per second of wall"
