"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them live). Heavy campaigns (full-scale presets, the 10-seed noisy
study) run once in session fixtures and are shared across criteria.
"""

import copy
import json
import time

import numpy as np
import pytest

from conftest import MICRO_CONFIG

from twosphere import (
    Intrinsics,
    NoiseSpec,
    SpherePose,
    decode_wrapped,
    decompose,
    dlt_estimate,
    phase_to_proj_coord,
    pole_polar_residual,
    preset,
    project_points,
    project_sphere_to_conic,
    reconstruct_cloud,
    render_scene,
    run_calibration,
    sphere_center_from_conic,
    unwrap_ladder,
)
from twosphere.calibrate import evaluate_against_truth
from twosphere.cli import main as cli_main
from twosphere.geometry import constraint_pair
from twosphere.phase import pattern_value
from twosphere.projector import compose


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def relative_errors(est: Intrinsics, true: Intrinsics) -> dict:
    return {
        name: abs(100.0 * (getattr(est, name) - getattr(true, name)) / getattr(true, name))
        for name in ("fx", "fy", "skew", "u0", "v0")
    }


def run_preset(name: str, noise: NoiseSpec | None = None, recon_stride: int = 3) -> dict:
    """simulate -> calibrate -> reconstruct for one preset; summary only."""
    truth = preset(name)
    if noise is not None:
        truth = truth.with_noise(noise)
    t0 = time.perf_counter()
    bundle = render_scene(truth)
    result, _ = run_calibration(bundle)
    calib_seconds = time.perf_counter() - t0
    # per-point error relative to the nearest sphere's radius
    points, _, _ = reconstruct_cloud(bundle, result.camera, result.proj_matrix,
                                     stride=recon_stride)
    rel = []
    for pose in truth.spheres:
        d = np.abs(np.linalg.norm(points - pose.center[None, :], axis=1) - pose.radius)
        rel.append(d / pose.radius)
    rel_err = np.min(np.column_stack(rel), axis=1)
    return {
        "truth": truth,
        "camera_errors": relative_errors(result.camera, truth.camera),
        "camera_skew_abs": abs(result.camera.skew - truth.camera.skew),
        "projector_errors": relative_errors(result.proj_intrinsics, truth.proj_intrinsics),
        "report": evaluate_against_truth(result, truth),
        "calib_seconds": calib_seconds,
        "recon_rel_rmse": float(np.sqrt(np.mean(rel_err**2))),
        "converged": result.converged,
    }


@pytest.fixture(scope="session")
def cppA_noiseless():
    return run_preset("cppA")


@pytest.fixture(scope="session")
def cppB_noiseless():
    return run_preset("cppB")


@pytest.fixture(scope="session")
def noisy_campaign():
    """Ten seeded noisy cppA runs: calibration errors + reconstruction RMSE."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(10):
        noise = NoiseSpec(contour_sigma=0.5, intensity_sigma=0.01, seed=seed)
        runs.append(run_preset("cppA", noise=noise))
    return {"runs": runs, "total_seconds": time.perf_counter() - t0}


class TestCriterion1NoiselessRoundTrip:
    @pytest.mark.parametrize("which", ["cppA", "cppB"])
    def test_preset_recovery(self, which, cppA_noiseless, cppB_noiseless):
        run = cppA_noiseless if which == "cppA" else cppB_noiseless
        cam = run["camera_errors"]
        ok = (
            all(cam[k] < 0.1 for k in ("fx", "fy", "u0", "v0"))
            and run["camera_skew_abs"] < 2.0
            and all(v < 0.5 for v in run["projector_errors"].values())
            and run["calib_seconds"] < 60.0
        )
        announce(
            1,
            ok,
            f"{which} noiseless: camera rel% fx={cam['fx']:.2e} fy={cam['fy']:.2e} "
            f"u0={cam['u0']:.2e} v0={cam['v0']:.2e}, |skew err|={run['camera_skew_abs']:.2e} px, "
            f"projector max rel%={max(run['projector_errors'].values()):.2e}, "
            f"runtime={run['calib_seconds']:.1f}s (<60s)",
        )
        assert ok
        # the full-run error report populates all 12 rows
        from twosphere import format_error_report

        assert len(format_error_report(run["report"]).splitlines()) == 12


class TestCriterion2PaperRegimeNoise:
    def test_median_errors_under_ten_percent(self, noisy_campaign):
        runs = noisy_campaign["runs"]
        medians = {
            k: float(np.median([r["camera_errors"][k] for r in runs]))
            for k in ("fx", "fy", "u0", "v0")
        }
        ok = all(v < 10.0 for v in medians.values()) and noisy_campaign["total_seconds"] < 300.0
        announce(
            2,
            ok,
            "noisy cppA (sigma 0.5 px contour / 0.01 intensity, 10 seeds): median rel% "
            + " ".join(f"{k}={v:.3f}" for k, v in medians.items())
            + f", total {noisy_campaign['total_seconds']:.0f}s (<300s)",
        )
        assert ok


class TestCriterion3ConstraintFidelity:
    def test_pole_polar_residual_at_truth(self):
        truth = preset("cppA")
        c1 = project_sphere_to_conic(truth.spheres[0], truth.camera)
        c2 = project_sphere_to_conic(truth.spheres[1], truth.camera)
        bootstrap = Intrinsics(fx=truth.cam_w, fy=truth.cam_w, skew=0.0,
                               u0=truth.cam_w / 2, v0=truth.cam_h / 2)
        line, point = constraint_pair(c1, c2, bootstrap)
        residual = pole_polar_residual(line, point, truth.camera)
        ok = residual < 1e-9
        announce(3, ok, f"pole-polar residual at ground truth = {residual:.3e} (<1e-9)")
        assert ok


class TestCriterion4CodecExactness:
    def test_identity_sweep(self):
        span = 854.0
        freqs = (1, 8, 64)
        u = np.linspace(0.0, span, 10_000, endpoint=False)
        worst = 0.0
        for n_steps in (3, 4, 8):
            wrapped = []
            for f in freqs:
                stack = [pattern_value(f, k, n_steps, u, span) for k in range(n_steps)]
                wrapped.append(decode_wrapped(stack)[0])
            coords = phase_to_proj_coord(unwrap_ladder(wrapped, freqs), freqs[-1], span)
            worst = max(worst, float(np.max(np.abs(coords - u))))
        ok = worst < 1e-6
        announce(4, ok, f"render-decode-unwrap-map identity, worst |err| = {worst:.3e} px (<1e-6)")
        assert ok


class TestCriterion5DltOracle:
    def test_random_draws(self):
        rng = np.random.default_rng(500)
        worst = 0.0
        for _ in range(100):
            K_true = Intrinsics(
                fx=rng.uniform(400, 3500),
                fy=rng.uniform(400, 3500),
                skew=rng.uniform(5.0, 30.0) * rng.choice([-1.0, 1.0]),
                u0=rng.uniform(200, 1800),
                v0=rng.uniform(150, 1400),
            )
            angle = rng.uniform(-0.4, 0.4, 3)
            cx, sx = np.cos(angle[0]), np.sin(angle[0])
            cy, sy = np.cos(angle[1]), np.sin(angle[1])
            cz, sz = np.cos(angle[2]), np.sin(angle[2])
            R_true = (
                np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
                @ np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
                @ np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
            )
            T_true = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 2)])
            M_true = compose(K_true, R_true, T_true)
            X = np.column_stack(
                [rng.uniform(-1, 1, 24), rng.uniform(-1, 1, 24), rng.uniform(3, 9, 24)]
            )
            M = dlt_estimate(project_points(M_true, X), X)
            K, R, T = decompose(M)
            for name in ("fx", "fy", "skew", "u0", "v0"):
                worst = max(
                    worst,
                    abs(getattr(K, name) - getattr(K_true, name)) / abs(getattr(K_true, name)),
                )
            worst = max(worst, float(np.max(np.abs(R - R_true))))
            worst = max(worst, float(np.linalg.norm(T - T_true) / np.linalg.norm(T_true)))
        ok = worst < 1e-8
        announce(5, ok, f"DLT+decompose over 100 draws, worst relative error = {worst:.3e} (<1e-8)")
        assert ok


class TestCriterion6SpherePoseRoundTrip:
    def test_random_poses(self):
        rng = np.random.default_rng(600)
        K = Intrinsics(fx=1000.0, fy=1000.0, skew=0.0, u0=500.0, v0=300.0)
        worst_center = 0.0
        worst_conic = 0.0
        for _ in range(100):
            radius = rng.uniform(0.1, 1.5)
            depth = radius * rng.uniform(3.0, 100.0)
            pose = SpherePose(
                center=[rng.uniform(-0.2, 0.2) * depth, rng.uniform(-0.2, 0.2) * depth, depth],
                radius=radius,
            )
            conic = project_sphere_to_conic(pose, K)
            recovered = sphere_center_from_conic(conic, K, radius)
            worst_center = max(
                worst_center,
                float(np.linalg.norm(recovered.center - pose.center) / np.linalg.norm(pose.center)),
            )
            conic_back = project_sphere_to_conic(recovered, K)
            m1 = conic.normalized().matrix
            m2 = conic_back.normalized().matrix
            worst_conic = max(worst_conic, float(min(np.linalg.norm(m1 - m2), np.linalg.norm(m1 + m2))))
        ok = worst_center < 1e-9 and worst_conic < 1e-9
        announce(
            6, ok,
            f"sphere pose round trip over 100 poses: worst center rel err = {worst_center:.3e}, "
            f"worst implied-contour err = {worst_conic:.3e} (<1e-9)",
        )
        assert ok


class TestCriterion7Reconstruction:
    def test_noiseless(self, cppA_noiseless):
        rmse = cppA_noiseless["recon_rel_rmse"]
        ok = rmse < 1e-3
        announce(7, ok, f"noiseless cppA reconstruction rel RMSE = {rmse:.3e} (<1e-3 of radius)")
        assert ok

    def test_noisy(self, noisy_campaign):
        pooled = float(
            np.sqrt(np.mean([r["recon_rel_rmse"] ** 2 for r in noisy_campaign["runs"]]))
        )
        ok = pooled < 0.02
        announce(7, ok, f"noisy cppA reconstruction rel RMSE over 10 seeds = {pooled:.4f} (<0.02)")
        assert ok


class TestCriterion8Determinism:
    def test_cli_chain_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "scene.json"
        cfg = copy.deepcopy(MICRO_CONFIG)
        cfg_path.write_text(json.dumps(cfg))

        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            assert cli_main([
                "--quiet", "simulate", "--config", str(cfg_path), "--seed", "11",
                "--noise-contour", "0.3", "--noise-intensity", "0.005",
                "--out", str(out),
            ]) == 0
            assert cli_main(["--quiet", "calibrate", str(out)]) == 0
            ply = tmp_path / f"cloud_{tag}.ply"
            stats = tmp_path / f"stats_{tag}.json"
            assert cli_main([
                "--quiet", "reconstruct", str(out), str(out / "calib.json"),
                "--out-ply", str(ply), "--out-stats", str(stats),
            ]) == 0
            bundle_bytes = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            outputs.append(
                {"bundle": bundle_bytes, "ply": ply.read_bytes(), "stats": stats.read_bytes()}
            )
        ok = (
            outputs[0]["bundle"] == outputs[1]["bundle"]
            and outputs[0]["ply"] == outputs[1]["ply"]
            and outputs[0]["stats"] == outputs[1]["stats"]
        )
        announce(8, ok, "simulate/calibrate/reconstruct chains are byte-identical across runs")
        assert ok
