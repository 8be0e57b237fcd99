"""Shared synthetic scenes for the test suite.

The "small" scene is a shrunk camera with the standard projector and the
same sphere layout as the shipped presets; it renders in well under a
second and exercises every pipeline stage. The "micro" scene is smaller
still, for CLI round trips. ``random_layouts`` renders seeded random
two-sphere layouts on the cppB rig for the robustness campaign.
``lit_correspondences`` rebuilds exact correspondences from a scene truth,
the reference the render and the decoder are checked against.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from twosphere import (Intrinsics, NoiseSpec, SceneTruth, SpherePose, preset, project_points,
                       render_scene)
from twosphere.errors import TwosphereError
from twosphere.simulate import rotation_about_y

ROT = rotation_about_y(15.0)
TRANS = -ROT @ np.array([1.0, 0.0, 0.0])

SPHERES = (
    SpherePose(center=np.array([-0.55, -0.25, 4.0]), radius=0.40),
    SpherePose(center=np.array([0.85, 0.35, 6.0]), radius=0.55),
)

PROJECTOR = Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8)


def make_small_truth(noise: NoiseSpec | None = None) -> SceneTruth:
    return SceneTruth(
        camera=Intrinsics(fx=700.0, fy=702.0, skew=-2.0, u0=405.0, v0=295.0),
        cam_w=800,
        cam_h=600,
        proj_intrinsics=PROJECTOR,
        proj_w=854,
        proj_h=480,
        rotation=ROT,
        translation=TRANS,
        spheres=SPHERES,
        noise=noise or NoiseSpec(),
    )


def make_micro_truth(noise: NoiseSpec | None = None) -> SceneTruth:
    return SceneTruth(
        camera=Intrinsics(fx=300.0, fy=301.0, skew=-1.0, u0=162.0, v0=118.0),
        cam_w=320,
        cam_h=240,
        proj_intrinsics=PROJECTOR,
        proj_w=854,
        proj_h=480,
        rotation=ROT,
        translation=TRANS,
        spheres=SPHERES,
        noise=noise or NoiseSpec(),
    )


MICRO_CONFIG = make_micro_truth().to_config()

LAYOUT_SEED = 12345


def random_layouts(count: int):
    """Render ``count`` seeded random two-sphere layouts on the cppB rig, one
    bundle at a time, with 0.5 px contour and 0.01 intensity noise.

    Each sphere in turn draws its depth z ~ U(3, 8), its radius r ~ U(0.25,
    0.6) and the image of its centre (u, v) ~ U(0.15, 0.85) x (w, h); the
    centre is z K^-1 (u, v, 1). A layout that ``render_scene`` refuses is
    skipped, and accepted layout i renders at noise seed i.
    """
    rig = preset("cppB")
    kinv = rig.camera.inverse()
    rng = np.random.default_rng(LAYOUT_SEED)
    accepted = 0
    while accepted < count:
        spheres = []
        for _ in range(2):
            z, r = rng.uniform(3, 8), rng.uniform(0.25, 0.6)
            u, v = rng.uniform(0.15, 0.85) * rig.cam_w, rng.uniform(0.15, 0.85) * rig.cam_h
            spheres.append(SpherePose(center=z * (kinv @ [u, v, 1.0]), radius=r))
        truth = replace(rig, spheres=spheres, noise=NoiseSpec(0.5, 0.01, seed=accepted))
        try:
            bundle = render_scene(truth)
        except TwosphereError:
            continue
        accepted += 1
        yield bundle


def reprojection_residuals(M, proj_px, points) -> np.ndarray:
    """Per-point Euclidean pixel distance ``|x_p - dehom(M X)|``, input order kept."""
    xp = np.asarray(proj_px, dtype=float).reshape(-1, 2)
    return np.linalg.norm(xp - project_points(M, points), axis=1)


def exact_observations(truth: SceneTruth):
    """Analytic observations bypassing the codec: exact conics and exact
    projector pixels at sampled interior camera pixels."""
    from twosphere import (
        SphereObservation,
        lift_pixel_to_sphere,
        project_points,
        project_sphere_to_conic,
        sample_interior_pixels,
    )

    M = truth.proj_matrix
    obs = []
    for pose in truth.spheres:
        conic = project_sphere_to_conic(pose, truth.camera)
        pix = sample_interior_pixels(conic)
        points = lift_pixel_to_sphere(pix, truth.camera, pose)
        obs.append(
            SphereObservation(conic=conic, cam_px=pix, proj_px=project_points(M, points))
        )
    return obs


class LitCorrespondences(NamedTuple):
    """One sphere's camera pixels, projector pixels and surface points."""

    cam_px: np.ndarray  # (n, 2)
    proj_px: np.ndarray  # (n, 2)
    points: np.ndarray  # (n, 3)


def lit_correspondences(truth: SceneTruth) -> list:
    """Per sphere, exact correspondences rebuilt from the truth alone: the
    interior pixel grid (``sample_interior_pixels``), lifted to the sphere,
    kept where the surface faces the projector centre, projected through
    the projector matrix."""
    from twosphere import lift_pixel_to_sphere, project_sphere_to_conic, sample_interior_pixels

    M = truth.proj_matrix
    proj_center = M.center()
    correspondences = []
    for pose in truth.spheres:
        pix = sample_interior_pixels(project_sphere_to_conic(pose, truth.camera))
        points = lift_pixel_to_sphere(pix, truth.camera, pose)
        normals = (points - pose.center) / pose.radius
        lit = np.einsum("ni,ni->n", normals, proj_center - points) > 0
        pix, points = pix[lit], points[lit]
        correspondences.append(LitCorrespondences(pix, project_points(M, points), points))
    return correspondences


def exact_problem(truth: SceneTruth):
    from twosphere import IscProblem

    radii = [s.radius for s in truth.spheres]
    return IscProblem(exact_observations(truth), radii, truth.cam_w, truth.cam_h)


@pytest.fixture(scope="session")
def truth_small() -> SceneTruth:
    return make_small_truth()


@pytest.fixture(scope="session")
def bundle_small(truth_small):
    return render_scene(truth_small)


@pytest.fixture(scope="session")
def bundle_small_noisy():
    truth = make_small_truth(NoiseSpec(contour_sigma=0.5, intensity_sigma=0.01, seed=7))
    return render_scene(truth)


@pytest.fixture(scope="session")
def cppb_disc():
    """cppB's sphere 0 as ``render_scene`` lifts it: the truth, the pose and
    the ~100k signal pixels inside the sphere's silhouette."""
    from twosphere.geometry import sample_conic_points
    from twosphere.simulate import (CONTOUR_SAMPLES, preset, project_sphere_to_conic,
                                    signal_pixels)

    truth = preset("cppB")
    pose = truth.spheres[0]
    conic = project_sphere_to_conic(pose, truth.camera)
    boundary = sample_conic_points(conic, CONTOUR_SAMPLES)
    pixels = signal_pixels([boundary], truth.cam_w, truth.cam_h)
    return truth, pose, pixels[conic.normalized().evaluate(pixels) < 0]
