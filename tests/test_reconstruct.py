import struct
import tracemalloc

import numpy as np
import pytest

from conftest import lit_correspondences

import twosphere.reconstruct as reconstruct
from twosphere import (
    Intrinsics,
    preset,
    project_points,
    reconstruct_cloud,
    render_scene,
    run_calibration,
    triangulate,
    write_ply,
)
from twosphere.errors import NearParallelRays
from twosphere.geometry import homogenize
from twosphere.pipeline import decode_bundle
from twosphere.projector import compose
from twosphere.simulate import rotation_about_y

K_PROJ = Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8)


class TestTriangulate:
    def test_recovers_hidden_points(self, bundle_small):
        truth = bundle_small.truth
        for corr in lit_correspondences(truth):
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
    def test_equals_full_decode_then_grid_mask(self, bundle_small_noisy, monkeypatch, stride):
        """The cloud does not depend on the block size. One-row blocks run at
        stride 3 only: at stride 1 the 48k calls take ~33 s."""
        from twosphere.pipeline import decode_bundle

        truth = bundle_small_noisy.truth
        proj_px, valid = decode_bundle(bundle_small_noisy)
        xs, ys = bundle_small_noisy.pixels.T
        valid &= (xs % stride == 0) & (ys % stride == 0)
        expected = triangulate(
            bundle_small_noisy.pixels[valid].astype(float), proj_px[valid],
            truth.camera, truth.proj_matrix,
        )
        expected_errors = np.min(
            [np.abs(np.linalg.norm(expected - s.center, axis=1) - s.radius) for s in truth.spheres],
            axis=0,
        )
        expected_stats = {
            "valid_pixels": len(expected),
            "points": len(expected),
            "skipped_parallel": 0,
            "surface_rmse": float(np.sqrt(np.mean(expected_errors**2))),
            "surface_mean": float(np.mean(expected_errors)),
            "surface_max": float(np.max(expected_errors)),
        }
        for block_rows in (7, 4096, 10**9) if stride == 1 else (1, 7, 4096, 10**9):
            monkeypatch.setattr(reconstruct, "BLOCK_ROWS", block_rows)
            points, errors, stats = reconstruct_cloud(
                bundle_small_noisy, truth.camera, truth.proj_matrix, stride=stride
            )
            assert points.tobytes() == expected.tobytes(), block_rows
            assert errors.tobytes() == expected_errors.tobytes(), block_rows
            assert stats == expected_stats, block_rows

    def test_working_memory_bounded_by_block_and_output(self):
        """cppB at stride 1 decodes 266k signal pixels; decoded all at once
        their float64 temporaries peak at ~30 MB above the output."""
        truth = preset("cppB")
        bundle = render_scene(truth)
        tracemalloc.start()
        try:
            points, errors, _ = reconstruct_cloud(bundle, truth.camera, truth.proj_matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - points.nbytes - errors.nbytes < 12e6

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, bundle_small, stride):
        truth = bundle_small.truth
        with pytest.raises(ValueError, match="stride"):
            reconstruct_cloud(bundle_small, truth.camera, truth.proj_matrix, stride=stride)

    def test_empty_after_masking(self, bundle_small, monkeypatch):
        import copy

        hollow = copy.copy(bundle_small)
        hollow.stacks = {
            key: [np.full_like(img, 0.3) for img in stack]
            for key, stack in bundle_small.stacks.items()
        }
        for block_rows in (4096, 10**9):  # twelve blocks, one block
            monkeypatch.setattr(reconstruct, "BLOCK_ROWS", block_rows)
            points, errors, stats = reconstruct_cloud(
                hollow, bundle_small.truth.camera, bundle_small.truth.proj_matrix
            )
            assert len(points) == 0 and errors is None
            # the schema of a non-empty cloud, every surface statistic null
            assert stats == {
                "valid_pixels": 0,
                "points": 0,
                "skipped_parallel": 0,
                "surface_rmse": None,
                "surface_mean": None,
                "surface_max": None,
            }


def einsum_ray_geometry(cam_px, proj_px, K_C, M_P):
    """Row-major reference of ``reconstruct._ray_geometry``: (n, 3) rays by einsum."""
    d_cam = np.einsum("ij,nj->ni", K_C.inverse(), homogenize(cam_px))
    d_prj = np.einsum("ij,nj->ni", np.linalg.inv(M_P.left), homogenize(proj_px))
    return d_cam, d_prj, M_P.center()


def einsum_midpoints(d_cam, d_prj, origin):
    """Row-major reference of ``reconstruct._midpoints``: (n, 3) points."""
    a = np.einsum("ni,ni->n", d_cam, d_cam)
    b = np.einsum("ni,ni->n", d_cam, d_prj)
    c = np.einsum("ni,ni->n", d_prj, d_prj)
    d = np.einsum("ni,i->n", d_cam, -origin)
    e = np.einsum("ni,i->n", d_prj, -origin)
    denom = a * c - b * b
    ok = denom > reconstruct.PARALLEL_ANGLE_RAD**2 * a * c
    denom = np.where(ok, denom, 1.0)
    s = (b * e - c * d) / denom
    t = (a * e - b * d) / denom
    return 0.5 * (s[:, None] * d_cam + origin[None, :] + t[:, None] * d_prj), ok


@pytest.fixture(scope="module", params=[None, (0.5, 0.01, 3), (0.0, 0.1, 2)],
                ids=["noiseless", "contour_0.5_seed3", "intensity_0.1_seed2"])
def cppb_calibrated(request):
    from twosphere import NoiseSpec

    truth = preset("cppB")
    if request.param is not None:
        truth = truth.with_noise(NoiseSpec(*request.param))
    bundle = render_scene(truth)
    result, _ = run_calibration(bundle)
    return bundle, result


class TestEinsumReference:
    """The coordinate-major cloud against the row-major einsum triangulation
    it replaced, over the whole decode at once. Each 3-term sum keeps
    einsum's order, so on numpy 2.4 on x86-64 the bytes are equal. Another
    host's einsum may sum in another order, and the midpoint amplifies that
    rounding: summing (0 + 1) + 2 instead moves the points by up to 2.4e-13
    lu (~260 ulp of their largest coordinate), and at intensity noise 0.1,
    whose background points reach 156 lu, by up to 1.6e-9 lu. The bound, 1e-9
    of the cloud's largest coordinate, allows that and no wrong ray or sign."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("calibration", ["true", "calibrated"])
    def test_matches_einsum_triangulation(self, cppb_calibrated, calibration, stride):
        bundle, result = cppb_calibrated
        truth = bundle.truth
        K_C, M_P = ((truth.camera, truth.proj_matrix) if calibration == "true"
                    else (result.camera, result.proj_matrix))
        proj_px, valid = decode_bundle(bundle)
        xs, ys = bundle.pixels.T
        valid &= (xs % stride == 0) & (ys % stride == 0)
        cam_px = bundle.pixels[valid].astype(float)
        expected, ok = einsum_midpoints(*einsum_ray_geometry(cam_px, proj_px[valid], K_C, M_P))
        expected = expected[ok]
        expected_errors = np.min(
            [np.abs(np.linalg.norm(expected - s.center, axis=1) - s.radius) for s in truth.spheres],
            axis=0,
        )

        points, errors, stats = reconstruct_cloud(bundle, K_C, M_P, stride=stride)
        assert (stats["valid_pixels"], stats["points"]) == (len(cam_px), len(expected))
        assert stats["skipped_parallel"] == np.count_nonzero(~ok)
        atol = 1e-9 * np.abs(expected).max()
        np.testing.assert_allclose(points, expected, rtol=0, atol=atol)
        np.testing.assert_allclose(errors, expected_errors, rtol=0, atol=atol)
        assert stats["surface_max"] == pytest.approx(float(expected_errors.max()), abs=atol)


def outside_both_silhouettes(truth, cam_px):
    """True where a camera pixel lies outside both true silhouettes."""
    from twosphere import project_sphere_to_conic

    pixels = np.asarray(cam_px, dtype=float)
    outside = np.ones(len(pixels), dtype=bool)
    for pose in truth.spheres:
        outside &= project_sphere_to_conic(pose, truth.camera).normalized().evaluate(pixels) >= 0
    return outside


class TestBackgroundInTheCloud:
    """Signal pixels outside both silhouettes that pass the modulation test
    enter a stride-1 cloud. cppB, no contour noise, true K and M: the row
    hull holds 22,641 such pixels (the padded boxes held 76,998). Of them,
    none decode valid at intensity sigma 0.01, 53 / 68 / 63 at 0.05 and
    5,104 / 5,072 / 5,075 at 0.1 (noise seeds 1 / 2 / 3); the boxes let
    181-215 and ~17.2k through."""

    @pytest.mark.parametrize("sigma, bound", [(0.01, 0), (0.05, 100), (0.1, 6000)])
    def test_background_points_within_bound(self, sigma, bound, monkeypatch):
        from twosphere import NoiseSpec

        seen = []
        ray_geometry = reconstruct._ray_geometry

        def record(cam_px, *args):
            seen.append(np.asarray(cam_px))
            return ray_geometry(cam_px, *args)

        monkeypatch.setattr(reconstruct, "_ray_geometry", record)
        for seed in (1, 2, 3):
            bundle = render_scene(preset("cppB").with_noise(NoiseSpec(0.0, sigma, seed)))
            assert np.count_nonzero(outside_both_silhouettes(bundle.truth, bundle.pixels)) == 22_641
            seen.clear()
            reconstruct_cloud(bundle, bundle.truth.camera, bundle.truth.proj_matrix, stride=1)
            background = np.count_nonzero(outside_both_silhouettes(bundle.truth, np.vstack(seen)))
            assert background <= bound, f"seed {seed}: {background} background points"


class TestPly:
    # float32 rounding forms: underflow to 0, a signed zero, values off the float32 grid
    PTS = np.array([[1e-300, 1e20, -2.5e-7], [-0.0, 1.0 / 3.0, 123456789.0]])
    ERRS = np.array([0.1, -1e-5])
    HEADER = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\n"
    )

    def test_exact_bytes_without_errors(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_ply(path, self.PTS)
        assert path.read_bytes() == self.HEADER + b"end_header\n" + struct.pack(
            "<6f", 0.0, 1e20, -2.5e-7, -0.0, 1.0 / 3.0, 123456789.0
        )

    def test_exact_bytes_with_errors(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_ply(path, self.PTS, self.ERRS)
        assert path.read_bytes() == (
            self.HEADER + b"property float error\nend_header\n"
            + struct.pack("<8f", 0.0, 1e20, -2.5e-7, 0.1, -0.0, 1.0 / 3.0, 123456789.0, -1e-5)
        )

    def test_float32_rounding(self, tmp_path):
        path = tmp_path / "cloud.ply"
        write_ply(path, self.PTS)
        x, _, _, neg_zero, third, big = np.frombuffer(
            path.read_bytes().split(b"end_header\n")[1], "<f4"
        )
        assert x == 0.0 and not np.signbit(x)  # 1e-300 underflows
        assert neg_zero == 0.0 and np.signbit(neg_zero)
        assert third == np.float32(1.0 / 3.0) and float(third) != 1.0 / 3.0
        assert big == np.float32(123456789.0) and float(big) == 123456792.0

    def test_random_rows_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=10.0, size=(10_003, 3))
        errs = rng.exponential(size=len(pts))
        path = tmp_path / "cloud.ply"
        write_ply(path, pts, errs)
        body = path.read_bytes().split(b"end_header\n")[1]
        expected = np.column_stack([pts, errs]).astype(np.float32)
        assert np.frombuffer(body, "<f4").reshape(-1, 4).tobytes() == expected.tobytes()

    def test_header_and_rows(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        errs = np.array([0.1, 0.2])
        path = tmp_path / "cloud.ply"
        write_ply(path, pts, errs)
        header, body = path.read_bytes().split(b"end_header\n")
        lines = header.decode("ascii").splitlines()
        assert lines[:3] == ["ply", "format binary_little_endian 1.0", "element vertex 2"]
        assert lines[-1] == "property float error"
        assert body[-16:] == struct.pack("<4f", 4.0, 5.0, 6.0, 0.2)

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, np.zeros((0, 3)), np.zeros(0))
        assert path.read_bytes() == (
            b"ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property float error\nend_header\n"
        )

    def test_empty_cloud_without_errors(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, np.zeros((0, 3)))
        assert path.read_bytes() == self.HEADER.replace(b"vertex 2", b"vertex 0") + b"end_header\n"
