"""Shared synthetic scenes for the test suite.

The "small" scene is a shrunk camera with the standard projector and the
same sphere layout as the shipped presets; it renders in well under a
second and exercises every pipeline stage. The "micro" scene is smaller
still, for CLI round trips.
"""

import numpy as np
import pytest

from twosphere import Intrinsics, NoiseSpec, SceneTruth, SpherePose, render_scene
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
