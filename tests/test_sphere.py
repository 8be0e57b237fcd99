import tracemalloc

import numpy as np
import pytest

from twosphere import (
    Conic,
    Intrinsics,
    SpherePose,
    lift_pixel_to_sphere,
    preset,
    project_sphere_to_conic,
    sample_interior_pixels,
    sphere_center_from_conic,
)
from twosphere.errors import BehindCamera, NotASphereImage, RayMissesSphere
from twosphere.geometry import ellipse_parameters, homogenize, sample_conic_points
from twosphere.sphere import RIM_BLOCK, RIM_MARGIN_FRAC, RIM_MARGIN_PX, lift_pixels

K_IDENTITY = Intrinsics(fx=1.0, fy=1.0, skew=0.0, u0=0.0, v0=0.0)
TABLE_CAMERA = Intrinsics(fx=3277.5, fy=3277.8, skew=-18.6, u0=1699.4, v0=1330.1)


def tangent_ray_oracle(conic: Conic, K: Intrinsics, pose: SpherePose, n=500) -> float:
    """Max deviation of back-projected contour rays from sphere tangency.

    Independent check of a recovered pose: every silhouette ray must pass at
    distance exactly `radius` from the center.
    """
    pts = sample_conic_points(conic, n)
    dirs = (K.inverse() @ homogenize(pts).T).T
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # distance from center to the ray through the origin
    c = pose.center
    dist = np.linalg.norm(np.cross(dirs, np.broadcast_to(c, dirs.shape)), axis=1)
    return float(np.max(np.abs(dist - pose.radius)))


class TestSpherePose:
    def test_rejects_sphere_touching_camera(self):
        with pytest.raises(BehindCamera):
            SpherePose(center=[0.0, 0.0, 0.5], radius=1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            SpherePose(center=[0.0, 0.0, 5.0], radius=0.0)


class TestCenterFromConic:
    def test_axial_sphere_unit_intrinsics(self):
        # contour of center (0,0,5), r=1 under K=I is the circle of radius
        # 1/sqrt(24) about the origin (tangent cone half-angle asin(1/5))
        rho2 = 1.0 / 24.0
        conic = Conic.from_matrix(np.diag([1.0, 1.0, -rho2]))
        pose = sphere_center_from_conic(conic, K_IDENTITY, radius=1.0)
        np.testing.assert_allclose(pose.center, [0.0, 0.0, 5.0], atol=1e-9)
        assert tangent_ray_oracle(conic, K_IDENTITY, pose) < 1e-9

    def test_intrinsics_round_trip(self):
        K = Intrinsics(fx=1000.0, fy=1000.0, skew=0.0, u0=500.0, v0=300.0)
        true = SpherePose(center=[0.0, 0.0, 5.0], radius=1.0)
        pose = sphere_center_from_conic(project_sphere_to_conic(true, K), K, radius=1.0)
        np.testing.assert_allclose(pose.center, true.center, atol=1e-9)

    def test_grazing_sphere_at_table_scale(self):
        # sphere whose silhouette approaches the image border of the
        # full-scale camera; exact conic must still invert to 1e-8
        true = SpherePose(center=[-1.75, 0.0, 4.5], radius=0.4)
        conic = project_sphere_to_conic(true, TABLE_CAMERA)
        pose = sphere_center_from_conic(conic, TABLE_CAMERA, radius=0.4)
        err = np.linalg.norm(pose.center - true.center) / np.linalg.norm(true.center)
        assert err < 1e-8

    def test_round_trip_random_poses_and_intrinsics(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            depth_ratio = rng.uniform(3.0, 100.0)
            radius = rng.uniform(0.1, 2.0)
            depth = depth_ratio * radius
            lateral = rng.uniform(-0.25, 0.25, 2) * depth
            true = SpherePose(center=[lateral[0], lateral[1], depth], radius=radius)
            K = Intrinsics(
                fx=rng.uniform(400, 4000),
                fy=rng.uniform(400, 4000),
                skew=rng.uniform(-20, 20),
                u0=rng.uniform(-200, 2000),
                v0=rng.uniform(-200, 2000),
            )
            conic = project_sphere_to_conic(true, K)
            pose = sphere_center_from_conic(conic, K, radius=radius)
            err = np.linalg.norm(pose.center - true.center) / np.linalg.norm(true.center)
            assert err < 1e-8

    def test_gap_tolerance_rejects_distorted_cone(self):
        true = SpherePose(center=[-0.55, -0.25, 4.0], radius=0.4)
        conic = project_sphere_to_conic(true, TABLE_CAMERA)
        # a 20% focal error bends the cone elliptic for this off-axis sphere
        wrong = Intrinsics(fx=3277.5 * 1.2, fy=3277.8, skew=-18.6, u0=1699.4, v0=1330.1)
        with pytest.raises(NotASphereImage):
            sphere_center_from_conic(conic, wrong, radius=0.4, pair_gap_tol=1e-6)
        # disabling the check yields a usable approximate pose
        pose = sphere_center_from_conic(conic, wrong, radius=0.4, pair_gap_tol=None)
        assert pose.center[2] > 0

    def test_non_sphere_conic_rejected(self):
        imaginary = Conic.from_matrix(np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(NotASphereImage):
            sphere_center_from_conic(imaginary, K_IDENTITY, radius=1.0)
        with pytest.raises(NotASphereImage):
            sphere_center_from_conic(Conic.from_matrix(-imaginary.matrix), K_IDENTITY, radius=1.0)

    def test_either_conic_sign_gives_one_center(self):
        # the cone's lone eigenvalue sorts last for one sign and first for the other
        true = SpherePose(center=[-0.55, -0.25, 4.0], radius=0.4)
        conic = project_sphere_to_conic(true, TABLE_CAMERA)
        for c in (conic, Conic.from_matrix(-conic.matrix)):
            pose = sphere_center_from_conic(c, TABLE_CAMERA, radius=0.4)
            np.testing.assert_allclose(pose.center, true.center, rtol=1e-8)

    def test_center_behind_camera_raises(self):
        # the tangent cone of a sphere whose center lies within one radius of
        # the image plane, under K = I
        s = np.array([10.0, 0.0, 0.5])
        cone = Conic.from_matrix(np.outer(s, s) - (s @ s - 1.0) * np.eye(3))
        with pytest.raises(BehindCamera):
            sphere_center_from_conic(cone, K_IDENTITY, radius=1.0)


class TestLiftPixel:
    POSE = SpherePose(center=[0.0, 0.0, 5.0], radius=1.0)

    def test_axial_ray_near_intersection(self):
        x = lift_pixel_to_sphere(np.array([0.0, 0.0]), K_IDENTITY, self.POSE)
        np.testing.assert_allclose(x, [0.0, 0.0, 4.0], atol=1e-12)

    def test_silhouette_tangency(self):
        rho = 1.0 / np.sqrt(24.0)  # silhouette circle radius
        x = lift_pixel_to_sphere(np.array([rho, 0.0]), K_IDENTITY, self.POSE)
        assert abs(np.linalg.norm(x - self.POSE.center) - 1.0) < 1e-9
        # the ray direction must pass at distance r from the center
        d = np.array([rho, 0.0, 1.0])
        d /= np.linalg.norm(d)
        assert abs(np.linalg.norm(np.cross(d, self.POSE.center)) - 1.0) < 1e-9

    def test_interior_grid_reprojects(self, truth_small):
        pose = truth_small.spheres[0]
        K = truth_small.camera
        conic = project_sphere_to_conic(pose, K)
        pix = sample_interior_pixels(conic, stride=2)
        assert len(pix) >= 500
        pix = pix[:500]
        points = lift_pixel_to_sphere(pix, K, pose)
        on_sphere = np.abs(np.linalg.norm(points - pose.center, axis=1) - pose.radius)
        assert np.max(on_sphere) < 1e-10 * pose.radius
        reproj = (K.as_matrix() @ points.T).T
        reproj = reproj[:, :2] / reproj[:, 2:3]
        assert np.max(np.linalg.norm(reproj - pix, axis=1)) < 1e-9

    def test_near_intersection_is_closer_than_far(self):
        rng = np.random.default_rng(0)
        pix = rng.uniform(-0.12, 0.12, (50, 2))  # inside the 0.204 silhouette radius
        points = lift_pixel_to_sphere(pix, K_IDENTITY, self.POSE)
        dirs = points / np.linalg.norm(points, axis=1, keepdims=True)
        b = dirs @ self.POSE.center
        disc = b**2 - (self.POSE.center @ self.POSE.center - 1.0)
        far = b + np.sqrt(disc)
        near = np.linalg.norm(points, axis=1)
        assert np.all(near < far + 1e-12)

    def test_miss_raises(self):
        with pytest.raises(RayMissesSphere):
            lift_pixel_to_sphere(np.array([2.0, 0.0]), K_IDENTITY, self.POSE)

    def test_discriminant_band_clamps_to_tangency(self):
        # a pixel an epsilon outside the silhouette has a tiny negative
        # discriminant; within the tolerance band it clamps to the tangent
        # point instead of raising
        rho = 1.0 / np.sqrt(24.0)
        just_outside = np.array([rho * (1.0 + 1e-15), 0.0])
        x = lift_pixel_to_sphere(just_outside, K_IDENTITY, self.POSE)
        assert abs(np.linalg.norm(x - self.POSE.center) - 1.0) < 1e-6

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(9)
        angle = rng.uniform(0, 0.3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        cos, sin = np.cos(angle), np.sin(angle)
        cross = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        R = cos * np.eye(3) + sin * cross + (1 - cos) * np.outer(axis, axis)

        pix = np.array([0.05, -0.08])
        x = lift_pixel_to_sphere(pix, K_IDENTITY, self.POSE)
        # rotate pose and ray together: pixel of the rotated ray through K=I
        d_rot = R @ np.append(pix, 1.0)
        pix_rot = d_rot[:2] / d_rot[2]
        pose_rot = SpherePose(center=R @ self.POSE.center, radius=1.0)
        x_rot = lift_pixel_to_sphere(pix_rot, K_IDENTITY, pose_rot)
        np.testing.assert_allclose(x_rot, R @ x, atol=1e-12)


class TestLiftParity:
    """``lift_pixel_to_sphere`` is ``lift_pixels`` at B = 1, called with a
    whole cppB disc."""

    @staticmethod
    def batched(pix, truth, pose):
        points, misses = lift_pixels(
            pix.T, truth.camera.inverse()[None], pose.center[None], pose.radius
        )
        return points[0].T, misses[0]

    def test_single_pixel_lifts_to_a_point(self, cppb_disc):
        truth, pose, pix = cppb_disc
        single = lift_pixel_to_sphere(pix[0], truth.camera, pose)
        assert single.shape == (3,)
        np.testing.assert_array_equal(single, lift_pixel_to_sphere(pix[:1], truth.camera, pose)[0])

    def test_pixel_off_the_disc_misses(self, cppb_disc):
        truth, pose, pix = cppb_disc
        off = np.vstack([pix, [0.0, 0.0]])  # the frame's corner, far off the disc
        assert self.batched(off, truth, pose)[1] == 1
        with pytest.raises(RayMissesSphere, match=f"^1 of {len(off)} rays miss"):
            lift_pixel_to_sphere(off, truth.camera, pose)


class TestSampleInteriorPixels:
    def test_margin_and_interior(self, truth_small):
        conic = project_sphere_to_conic(truth_small.spheres[1], truth_small.camera)
        pix = sample_interior_pixels(conic, stride=3)
        assert len(pix) > 50
        assert np.all(pix == np.round(pix))  # integer grid
        assert np.all(conic.normalized().evaluate(pix) < 0)  # strictly inside
        boundary = sample_conic_points(conic, 2048)
        d = np.sqrt(
            np.min(np.sum((pix[:, None, :] - boundary[None, :, :]) ** 2, axis=-1), axis=1)
        )
        assert np.min(d) > 2.0

    def test_stride_spacing(self, truth_small):
        conic = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        pix = sample_interior_pixels(conic, stride=7)
        xs = np.unique(pix[:, 0])
        assert np.all(np.diff(xs) % 7 == 0)

    def test_blocked_rim_distance_equals_the_one_matrix_minimum(self):
        # cppB's sphere 0 at stride 4 keeps more than two blocks of grid points
        truth = preset("cppB")
        conic = project_sphere_to_conic(truth.spheres[0], truth.camera)
        for stride in (None, 4):
            pix = sample_interior_pixels(conic, stride)
            np.testing.assert_array_equal(pix, interior_one_matrix(conic, stride))
        assert len(pix) > 2 * RIM_BLOCK

    def test_stride_1_on_cppb_peaks_under_50_mb(self):
        # the rim distance of all ~100k grid points as one (grid, 256) matrix peaked at 423 MB
        truth = preset("cppB")
        conic = project_sphere_to_conic(truth.spheres[0], truth.camera)
        tracemalloc.start()
        try:
            pix = sample_interior_pixels(conic, stride=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pix) > 90_000
        assert peak < 50e6


def interior_one_matrix(conic: Conic, stride: int | None) -> np.ndarray:
    """Reference for ``sample_interior_pixels``: the rim distance of every
    interior grid point as the minimum over one (grid, boundary) matrix."""
    _, a, b, _ = ellipse_parameters(conic)
    margin = max(RIM_MARGIN_PX, RIM_MARGIN_FRAC * b)
    stride = stride or max(1, int(round(2.0 * a / 24.0)))
    boundary = sample_conic_points(conic, 256)
    x_lo, y_lo = np.floor(boundary.min(axis=0)).astype(int)
    x_hi, y_hi = np.ceil(boundary.max(axis=0)).astype(int)
    xs, ys = np.arange(x_lo, x_hi + 1, stride), np.arange(y_lo, y_hi + 1, stride)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2).astype(float)
    grid = grid[conic.normalized().evaluate(grid) < 0]
    d2 = np.min((grid[:, :1] - boundary[:, 0]) ** 2 + (grid[:, 1:] - boundary[:, 1]) ** 2, axis=1)
    return grid[np.sqrt(d2) > margin]
