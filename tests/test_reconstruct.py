import numpy as np
import pytest

from twosphere import (
    Intrinsics,
    project_points,
    reconstruct_cloud,
    run_calibration,
    triangulate,
    write_ply,
)
from twosphere.errors import NearParallelRays
from twosphere.projector import compose
from twosphere.reconstruct import PLY_CHUNK_ROWS
from twosphere.simulate import rotation_about_y

K_PROJ = Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8)


class TestTriangulate:
    def test_recovers_hidden_points(self, bundle_small):
        truth = bundle_small.truth
        for corr in bundle_small.oracle:
            cam = corr.cam_px[:200]
            proj = corr.proj_px[:200]
            points = triangulate(cam, proj, truth.camera, truth.proj_matrix)
            err = np.linalg.norm(points - corr.points[:200], axis=1)
            assert np.max(err / np.linalg.norm(corr.points[:200], axis=1)) < 1e-8

    def test_principal_ray_stays_on_axis(self):
        K_cam = Intrinsics(fx=1.0, fy=1.0, skew=0.0, u0=0.0, v0=0.0)
        R = rotation_about_y(15.0)
        M = compose(K_PROJ, R, -R @ np.array([1.0, 0.0, 0.0]))
        X = np.array([[0.0, 0.0, 5.0]])
        x_p = project_points(M, X)[0]
        point = triangulate(np.array([0.0, 0.0]), x_p, K_cam, M)
        assert abs(point[0]) < 1e-9 and abs(point[1]) < 1e-9
        assert point[2] == pytest.approx(5.0, rel=1e-9)

    def test_zero_baseline_near_parallel(self):
        K_cam = Intrinsics(fx=1.0, fy=1.0, skew=0.0, u0=0.0, v0=0.0)
        M = compose(K_PROJ, rotation_about_y(15.0), np.zeros(3))  # no parallax
        X = np.array([[0.1, -0.05, 4.0]])
        x_c = X[0, :2] / X[0, 2]
        x_p = project_points(M, X)[0]
        with pytest.raises(NearParallelRays):
            triangulate(x_c, x_p, K_cam, M)

    @pytest.mark.parametrize("angle, parallel", [(0.9e-6, True), (1.1e-6, False)])
    def test_parallel_threshold_is_1e_6_rad(self, angle, parallel):
        # pixels whose camera and projector rays are `angle` rad apart
        K_cam = Intrinsics(fx=1000.0, fy=1000.0, skew=0.0, u0=500.0, v0=400.0)
        R = rotation_about_y(15.0)
        M = compose(K_PROJ, R, -R @ np.array([1.0, 0.0, 0.0]))
        d_cam = np.array([0.1, -0.05, 1.0]) / np.linalg.norm([0.1, -0.05, 1.0])
        normal = np.cross(d_cam, [0.0, 1.0, 0.0])
        d_prj = np.cos(angle) * d_cam + np.sin(angle) * normal / np.linalg.norm(normal)
        x_c, x_p = K_cam.as_matrix() @ d_cam, M.left @ d_prj
        x_c, x_p = x_c[:2] / x_c[2], x_p[:2] / x_p[2]
        if parallel:
            with pytest.raises(NearParallelRays):
                triangulate(x_c, x_p, K_cam, M)
        else:
            assert np.all(np.isfinite(triangulate(x_c, x_p, K_cam, M)))


class TestReconstructCloud:
    def test_truth_calibration_is_fixed_point(self, bundle_small):
        truth = bundle_small.truth
        points, errors, stats = reconstruct_cloud(
            bundle_small, truth.camera, truth.proj_matrix, stride=2
        )
        assert stats["points"] > 1000
        assert stats["surface_rmse"] < 1e-6

    def test_calibrated_reconstruction_small_scene(self, bundle_small):
        result, _ = run_calibration(bundle_small)
        _, _, stats = reconstruct_cloud(
            bundle_small, result.camera, result.proj_matrix, stride=2
        )
        mean_radius = np.mean([s.radius for s in bundle_small.truth.spheres])
        assert stats["surface_rmse"] < 1e-3 * mean_radius

    @pytest.mark.parametrize("stride", [1, 3])
    def test_equals_full_decode_then_grid_mask(self, bundle_small_noisy, stride):
        from twosphere.pipeline import decode_bundle

        truth = bundle_small_noisy.truth
        proj_px, valid = decode_bundle(bundle_small_noisy)
        xs, ys = bundle_small_noisy.pixels.T
        valid &= (xs % stride == 0) & (ys % stride == 0)
        expected = triangulate(
            bundle_small_noisy.pixels[valid].astype(float), proj_px[valid],
            truth.camera, truth.proj_matrix,
        )
        points, _, stats = reconstruct_cloud(
            bundle_small_noisy, truth.camera, truth.proj_matrix, stride=stride
        )
        assert stats["valid_pixels"] == len(expected) == stats["points"]
        assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, bundle_small, stride):
        truth = bundle_small.truth
        with pytest.raises(ValueError, match="stride"):
            reconstruct_cloud(bundle_small, truth.camera, truth.proj_matrix, stride=stride)

    def test_empty_after_masking(self, bundle_small):
        import copy

        hollow = copy.copy(bundle_small)
        hollow.stacks = {
            key: [np.full_like(img, 0.3) for img in stack]
            for key, stack in bundle_small.stacks.items()
        }
        points, errors, stats = reconstruct_cloud(
            hollow, bundle_small.truth.camera, bundle_small.truth.proj_matrix
        )
        assert stats["points"] == 0 and stats["valid_pixels"] == 0
        assert len(points) == 0


class TestPly:
    # values reaching %.8g's exponent, sign and rounding forms
    PTS = np.array([[1e-300, 1e20, -2.5e-7], [-0.0, 1.0 / 3.0, 123456789.0]])
    ERRS = np.array([0.1, -1e-5])
    HEADER = (
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
    )

    def test_exact_bytes_without_errors(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_ply(path, self.PTS)
        assert path.read_bytes() == (
            self.HEADER + "end_header\n"
            "1e-300 1e+20 -2.5e-07\n"
            "-0 0.33333333 1.2345679e+08\n"
        ).encode()

    def test_exact_bytes_with_errors(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_ply(path, self.PTS, self.ERRS)
        assert path.read_bytes() == (
            self.HEADER + "property float error\nend_header\n"
            "1e-300 1e+20 -2.5e-07 0.1\n"
            "-0 0.33333333 1.2345679e+08 -1e-05\n"
        ).encode()

    def test_rows_across_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=10.0, size=(2 * PLY_CHUNK_ROWS + 3, 3))
        errs = rng.exponential(size=len(pts))
        path = tmp_path / "cloud.ply"
        write_ply(path, pts, errs)
        body = path.read_text().split("end_header\n")[1]
        assert body == "".join(
            f"{x:.8g} {y:.8g} {z:.8g} {e:.8g}\n" for (x, y, z), e in zip(pts, errs)
        )

    def test_header_and_rows(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        errs = np.array([0.1, 0.2])
        path = tmp_path / "cloud.ply"
        write_ply(path, pts, errs)
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 2" in lines
        assert "property float error" in lines
        assert lines[-1].split() == ["4", "5", "6", "0.2"]

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, np.zeros((0, 3)))
        text = path.read_text()
        assert "element vertex 0" in text
        assert text.strip().endswith("end_header")
