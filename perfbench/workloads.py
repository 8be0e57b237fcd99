"""The benchmark's workloads: what one op does and how its output is checked.

Each workload is a closed loop, one op at a time. ``setup`` generates the
inputs, ``op(i)`` does the timed work, ``check(i, out)`` compares the output
with the scene's ground truth and releases what the op left behind. A scene
is a preset name or a ``SceneTruth``; the seed reaches the program only as
the noise seed of the scenes it is given.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from twosphere import cli, pipeline, simulate
from twosphere.calibrate import CalibResult, evaluate_against_truth

CONTOUR_SIGMA_PX = 0.5
INTENSITY_SIGMA = 0.01
CALIB_BUNDLES = 4
WARMUP = 999_999  # op index of the untimed warm-up op

# bounds of the acceptance criteria the checks apply
NOISY_CAM_PCT = 10.0  # criterion 2
EXACT_CAM_PCT = 0.1  # criterion 1
EXACT_PROJ_PCT = 0.5  # criterion 1
EXACT_RECON_REL = 1e-3  # criterion 7, noiseless

PARAMS = ("fx", "fy", "u0", "v0")


def op_seed(seed: int, i: int) -> int:
    """Noise seed of op ``i`` of a run with benchmark seed ``seed``."""
    return seed * 1_000_000 + i


def scene_truth(scene, noise_seed: int | None = None, noise=(CONTOUR_SIGMA_PX, INTENSITY_SIGMA)):
    """The scene's truth, with (contour px, intensity) noise when a seed is given."""
    truth = simulate.preset(scene) if isinstance(scene, str) else scene
    if noise_seed is None:
        return truth
    return truth.with_noise(simulate.NoiseSpec(*noise, seed=noise_seed))


def max_err_pct(report: dict, device: str) -> float:
    """Largest |relative error| in percent of fx, fy, u0 and v0."""
    return max(abs(report[device][k]) for k in PARAMS)


@dataclass
class Outcome:
    """Checked output of one op; ``problems`` is empty when it is correct."""

    problems: list = field(default_factory=list)
    cam_err_pct: float | None = None
    proj_err_pct: float | None = None
    recon_rel_rmse: float | None = None


def check_noisy(report: dict) -> Outcome:
    out = Outcome(cam_err_pct=max_err_pct(report, "camera"),
                  proj_err_pct=max_err_pct(report, "projector"))
    if not out.cam_err_pct <= NOISY_CAM_PCT:
        out.problems.append(f"camera error {out.cam_err_pct:.3g} % > {NOISY_CAM_PCT} %")
    return out


def check_exact(report: dict, rel_rmse: float) -> Outcome:
    out = Outcome(cam_err_pct=max_err_pct(report, "camera"),
                  proj_err_pct=max_err_pct(report, "projector"), recon_rel_rmse=rel_rmse)
    if not out.cam_err_pct < EXACT_CAM_PCT:
        out.problems.append(f"camera error {out.cam_err_pct:.3g} % >= {EXACT_CAM_PCT} %")
    if not out.proj_err_pct < EXACT_PROJ_PCT:
        out.problems.append(f"projector error {out.proj_err_pct:.3g} % >= {EXACT_PROJ_PCT} %")
    if not rel_rmse < EXACT_RECON_REL:
        out.problems.append(f"surface RMSE / radius {rel_rmse:.3g} >= {EXACT_RECON_REL}")
    return out


class Workload:
    """A workload on one scene (a preset name or a ``SceneTruth``) with the
    given (contour px, intensity) noise; temporary files go under work_dir."""

    name = ""
    default_scene = ""
    setup_repeats = 2  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, scene=None, work_dir: Path | None = None,
                 noise=(CONTOUR_SIGMA_PX, INTENSITY_SIGMA)):
        self.seed = seed
        self.scene = scene or self.default_scene
        self.work_dir = work_dir
        self.noise = noise


class CalibrateNoisy(Workload):
    """Calibrate and evaluate one of a few pre-rendered noisy bundles; every
    repeat on a bundle must reproduce its first result byte for byte."""

    name = "calibrate-cppB-noisy"
    default_scene = "cppB"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bundles: list = []
        self.first_json: dict = {}

    def setup(self) -> None:
        self.bundles = []  # release the previous set before rendering the next
        self.bundles = [
            simulate.render_scene(scene_truth(self.scene, op_seed(self.seed, k), self.noise))
            for k in range(CALIB_BUNDLES)
        ]

    def op(self, i: int):
        bundle = self.bundles[i % CALIB_BUNDLES]
        result, _ = pipeline.run_calibration(bundle)
        return result, evaluate_against_truth(result, bundle.truth)

    def check(self, i: int, out) -> Outcome:
        result, report = out
        outcome = check_noisy(report)
        text = json.dumps(result.to_json_dict(), sort_keys=True)
        first = self.first_json.setdefault(i % CALIB_BUNDLES, text)
        if text != first:
            outcome.problems.append("result differs from the first result on this bundle")
        return outcome


class CliChain(Workload):
    """The README chain through ``twosphere.cli.main`` in a fresh directory
    under ``work_dir``: simulate (f32 bundle), calibrate, reconstruct at
    stride 1."""

    name = "cli-cppB"
    default_scene = "cppB"
    setup_repeats = 3

    def setup(self) -> None:
        self.truth = scene_truth(self.scene)
        if isinstance(self.scene, str):
            self.scene_args = ["--preset", self.scene]
        else:
            config = self.work_dir / "scene.json"
            config.write_text(json.dumps(self.truth.to_config()))
            self.scene_args = ["--config", str(config)]

    def op(self, i: int):
        run_dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_dir))
        bundle = str(run_dir / "bundle")
        steps = [
            ["--quiet", "simulate", *self.scene_args, "--seed", str(op_seed(self.seed, i)),
             "--out", bundle],
            ["--quiet", "calibrate", bundle],
            ["--quiet", "reconstruct", bundle, f"{bundle}/calib.json",
             "--out-ply", str(run_dir / "cloud.ply"), "--out-stats", str(run_dir / "stats.json"),
             "--stride", "1"],
        ]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in steps]
        except BaseException:
            shutil.rmtree(run_dir)
            raise
        return run_dir, codes

    def check(self, i: int, out) -> Outcome:
        run_dir, codes = out
        try:
            if codes != [0, 0, 0]:
                return Outcome(problems=[f"exit codes {codes}"])
            calib_json = json.loads((run_dir / "bundle" / "calib.json").read_text())
            stats = json.loads((run_dir / "stats.json").read_text())
            result = CalibResult.from_json_dict(calib_json)
            rel = stats["surface_rmse"] / min(s.radius for s in self.truth.spheres)
            outcome = check_exact(evaluate_against_truth(result, self.truth), rel)
            with open(run_dir / "cloud.ply", "rb") as f:
                header = [f.readline() for _ in range(3)]
            if header[2] != f"element vertex {stats['points']}\n".encode():
                outcome.problems.append("PLY vertex count differs from the stats")
            return outcome
        finally:
            shutil.rmtree(run_dir)


WORKLOADS = {wl.name: wl for wl in (CalibrateNoisy, CliChain)}
