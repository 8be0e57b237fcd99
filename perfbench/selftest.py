"""Self-test of the benchmark harness on a small scene (under a minute).

    python3 perfbench/selftest.py

Asserts that every metric BENCHMARK.json names is printed with its unit, on
every workload and in both modes; that the correctness checks trip on a
deliberately perturbed calibration; and that the traced self times of an op
sum to its wall time. Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import numpy as np

import run

run.import_program()
tracing, workloads = run.tracing, run.workloads

from twosphere import Intrinsics, SceneTruth, SpherePose  # noqa: E402
from twosphere.calibrate import evaluate_against_truth  # noqa: E402
from twosphere.simulate import rotation_about_y  # noqa: E402

ROTATION = rotation_about_y(15.0)

# an 800 x 600 camera on the presets' projector and sphere layout, with a
# fifth of the workloads' noise so that its small discs meet the same bounds
TINY = SceneTruth(
    camera=Intrinsics(fx=700.0, fy=702.0, skew=-2.0, u0=405.0, v0=295.0),
    cam_w=800,
    cam_h=600,
    proj_intrinsics=Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8),
    proj_w=854,
    proj_h=480,
    rotation=ROTATION,
    translation=-ROTATION @ np.array([1.0, 0.0, 0.0]),
    spheres=(
        SpherePose(center=np.array([-0.55, -0.25, 4.0]), radius=0.40),
        SpherePose(center=np.array([0.85, 0.35, 6.0]), radius=0.55),
    ),
)
SCENE = {"scene": TINY, "noise": (0.1, 0.002)}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def printed_metrics(workload: str, trace: int) -> dict:
    """Run the harness on the tiny scene; the metrics of its last stdout line."""
    args = Namespace(workload=workload, seed=3, seconds=0.1, trace=trace)
    out = run.run(workload, args.seed, args.seconds, bool(trace), **SCENE)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        run.report(args, {}, out)
    last = json.loads(text.getvalue().strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}
          and last["correct"] and last["attempted"] >= 1,
          f"{workload} trace {trace}: result line keys, all ops correct")
    return {name: m["unit"] for name, m in last["metrics"].items()}


def test_metrics_printed(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
          "BENCHMARK.json lists the workloads run.py runs")
    for workload in run.WORKLOAD_NAMES:
        check(printed_metrics(workload, 0) == e2e,
              f"{workload}: every end-to-end metric printed with its unit")
        check(printed_metrics(workload, 1) == layers,
              f"{workload}: every per-layer metric printed with its unit")


def test_checks_trip(work) -> None:
    wl = workloads.CalibrateNoisy(5, **SCENE)
    wl.setup()
    result, report = wl.op(0)
    check(not wl.check(0, (result, report)).problems, "calibrate: unperturbed op passes")
    camera = dataclasses.replace(result.camera, fx=1.2 * result.camera.fx)
    bad = dataclasses.replace(result, camera=camera)
    problems = wl.check(0, (bad, evaluate_against_truth(bad, wl.bundles[0].truth))).problems
    check(any("camera error" in p for p in problems)
          and any("differs" in p for p in problems),
          "calibrate: a 20 % fx error trips the error bound and the determinism check")

    wl = workloads.CliChain(5, work_dir=work, **SCENE)
    wl.setup()
    run_dir, codes = wl.op(0)
    calib = run_dir / "bundle" / "calib.json"
    payload = json.loads(calib.read_text())
    payload["camera"]["u0"] *= 1.01
    calib.write_text(json.dumps(payload))
    problems = wl.check(0, (run_dir, codes)).problems
    check(any("camera error" in p for p in problems),
          "cli: a 1 % u0 error in calib.json trips the criterion-1 bound")


def test_self_times(work) -> None:
    for cls in (workloads.CalibrateNoisy, workloads.CliChain):
        wl = cls(5, work_dir=work, **SCENE)
        wl.setup()
        tracer = tracing.Tracer()
        record = run.run_op(wl, 0, tracer)
        selfs = tracing.self_times(tracer.spans)
        root = tracer.spans[0]
        op_wall = root[4] - root[3]
        layer_sum = sum(selfs[1:])
        check(len(tracer.spans) > 10 and not tracer.missing and not record["problems"],
              f"{cls.name}: traced op correct, every binding found")
        check(min(selfs) >= 0.0 and layer_sum <= op_wall and record["wall_s"] <= op_wall,
              f"{cls.name}: layer self times {layer_sum:.4f} s within op wall {op_wall:.4f} s")
        check(abs(sum(selfs) - op_wall) < 1e-6,
              f"{cls.name}: self times including the op's own sum to its wall time")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        test_metrics_printed(spec)
        test_checks_trip(Path(work))
        test_self_times(Path(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
