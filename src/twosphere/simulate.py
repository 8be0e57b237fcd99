"""Synthetic captures with exact ground truth: the shipped presets, and the
render of a scene truth (``scene``) into the contour points and fringe stacks
the physical rig would produce, so every estimation stage can be checked."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BehindCamera, RayMissesSphere, SphereOutOfView, SpheresOverlapInImage
from .geometry import Conic, Intrinsics, sample_conic_points
from .projector import project_stack
from .scene import (BLOCK_ROWS, SceneBundle, SceneTruth, _padded_boxes, _pixel_pairs,
                    rotation_about_y)
from .sphere import SpherePose, lift_pixels

from .scene import NoiseSpec  # kept: the benchmark's workloads read it here  # noqa: F401

__all__ = ["PRESET_NAMES", "preset", "project_sphere_to_conic", "render_scene"]

CONTOUR_SAMPLES = 256


# ---------------------------------------------------------------------------
# presets (two camera-projector rigs; shared projector and sphere layout)
# ---------------------------------------------------------------------------

_PROJECTOR = dict(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8)
_SPHERES = (
    SpherePose(center=np.array([-0.55, -0.25, 4.0]), radius=0.40),
    SpherePose(center=np.array([0.85, 0.35, 6.0]), radius=0.55),
)
# 15 deg yaw, unit baseline along camera +x (0.2x the mean sphere depth)
_ROTATION = rotation_about_y(15.0)
_TRANSLATION = -_ROTATION @ np.array([1.0, 0.0, 0.0])

PRESET_NAMES = ("cppA", "cppB")


def preset(name: str) -> SceneTruth:
    """Shipped scene presets for the two reference rigs, noise off."""
    if name == "cppA":
        camera = Intrinsics(fx=3277.5, fy=3277.8, skew=-18.6, u0=1699.4, v0=1330.1)
        cam_w, cam_h = 3384, 2704
    elif name == "cppB":
        camera = Intrinsics(fx=1791.1, fy=1789.2, skew=-1.4, u0=944.9, v0=561.4)
        cam_w, cam_h = 1920, 1200
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return SceneTruth(
        camera=camera,
        cam_w=cam_w,
        cam_h=cam_h,
        proj_intrinsics=Intrinsics(**_PROJECTOR),
        proj_w=854,
        proj_h=480,
        rotation=_ROTATION,
        translation=_TRANSLATION,
        spheres=_SPHERES,
    )


# ---------------------------------------------------------------------------
# forward projection
# ---------------------------------------------------------------------------

def project_sphere_to_conic(pose: SpherePose, K: Intrinsics) -> Conic:
    """Exact silhouette conic of a sphere: ``K^-T (s s^T - (|s|^2 - r^2) I) K^-1``.

    Sign-normalized so the result is a real ellipse with negative interior
    values. Raises BehindCamera unless depth exceeds the radius.
    """
    s = pose.center
    if s[2] <= pose.radius:
        raise BehindCamera("sphere does not clear the image plane")
    cone = np.outer(s, s) - (s @ s - pose.radius**2) * np.eye(3)
    kinv = K.inverse()
    return Conic.from_matrix(kinv.T @ cone @ kinv).normalized()


# ---------------------------------------------------------------------------
# scene rendering
# ---------------------------------------------------------------------------

def _check_in_frame(points: np.ndarray, w: int, h: int, what: str) -> None:
    if (
        points[:, 0].min() < 0.5
        or points[:, 1].min() < 0.5
        or points[:, 0].max() > w - 1.5
        or points[:, 1].max() > h - 1.5
    ):
        raise SphereOutOfView(f"{what} silhouette leaves the frame")


def _faces_projector(points: np.ndarray, pose: SpherePose, proj_center: np.ndarray) -> np.ndarray:
    """True where the sphere's surface at the coordinate-major (3, n) ``points``
    faces the projector centre."""
    normals = (points - pose.center[:, None]) / pose.radius
    return np.einsum("in,in->n", normals, proj_center[:, None] - points) > 0


def _draw_noise(stream: np.ndarray, in_hull: np.ndarray, seed: int, index: int,
                sigma: float) -> np.ndarray:
    """Image ``index``'s float32 intensity noise at the signal pixels.

    The image's stream is drawn into ``stream``, one value per pixel of the
    contours' padded bounding boxes, and the frame takes the values where
    ``in_hull`` is True, the signal pixels among those. So a signal pixel's
    noise does not depend on which box pixels the signal list leaves out.
    ``stream`` is scratch space, rewritten by every call.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, index]))
    rng.standard_normal(dtype=np.float32, out=stream)
    frame = stream[in_hull]
    frame *= sigma
    frame += 0.0  # -0.0 becomes +0.0, as in 0 + noise
    return frame


def _pattern_steps(freq: int, n_steps: int, coord, span: int):
    """``pattern_value(freq, k, n_steps, coord, span)`` for k = 0 .. n_steps - 1,
    bit for bit, from one phase argument ``2 pi freq coord / span``."""
    phase = 2.0 * np.pi * freq * np.ascontiguousarray(coord, dtype=float)
    phase /= span  # in place: one array of the disc's size at a time
    for step in range(n_steps):
        value = phase - 2.0 * np.pi * step / n_steps
        np.cos(value, out=value)
        value *= 0.5
        value += 0.5
        yield value


def _lit_pixels(truth: SceneTruth, pose: SpherePose, conic: Conic, pixels: np.ndarray):
    """(int32 index into ``pixels``, coded projector (x, y)) of one sphere's lit
    signal pixels: those inside its disc ``conic`` whose surface point faces
    the projector, each with the exact projector coordinate of that point.
    The pixels are taken ``BLOCK_ROWS`` at a time and every step is per
    pixel, so the result does not depend on the block size and no
    temporary outgrows one block. One call per sphere."""
    conic, K_inv, proj = conic.normalized(), truth.camera.inverse()[None], truth.proj_matrix
    lit_at, coded, misses, n_disc = [], [], 0, 0
    for start in range(0, len(pixels), BLOCK_ROWS):
        block = pixels[start:start + BLOCK_ROWS]
        at = np.flatnonzero(conic.evaluate(block) < 0)
        points, missed = lift_pixels(np.ascontiguousarray(block[at].T, dtype=float),  # (2, n)
                                     K_inv, pose.center[None], pose.radius)
        misses, n_disc = misses + missed[0], n_disc + len(at)
        lit = _faces_projector(points[0], pose, proj.center())
        # compress keeps the points C-contiguous, and with them einsum's order of
        # summation; a lit point lies in front of the projector (render_scene
        # checks that the sphere clears it), so none projects to infinity
        points = np.compress(lit, points, axis=2)
        projected, _ = project_stack(proj.m[None], points)
        coded.append(projected[0])
        lit_at.append((at[lit] + start).astype(np.int32))
    if misses:
        raise RayMissesSphere(f"{misses} of {n_disc} rays miss the sphere")
    return np.concatenate(lit_at), np.concatenate(coded, axis=1).T


def _fringe_stacks(truth: SceneTruth, n: int, lit_pixels: list, noise: list) -> dict:
    """The bundle's ``stacks`` of frames of ``n`` pixels: the pattern at each
    lit pixel's coded coordinate, 0 at every other pixel, plus the noise of
    image i (vertical then horizontal, frequency-major) once ``noise[i]`` has
    drawn it; no noise when ``noise`` is empty. A pattern set's steps are
    filled one disc at a time, so one disc's phase argument is held at once.
    Each disc's lit pixels are one boolean mask over the ``n`` pixels, made
    once: a masked fill costs about a third of an index scatter, and takes
    the same values in the same ascending order."""
    discs = []  # (lit mask over the n pixels, coded coordinates) per disc
    for at, coded in lit_pixels:
        mask = np.zeros(n, dtype=bool)
        mask[at] = True
        discs.append((mask, coded))
    stacks = {}
    image = 0
    for cfg in (truth.fringe_vertical, truth.fringe_horizontal):
        axis = 0 if cfg.orientation == "vertical" else 1
        for freq in cfg.freqs:
            stack = []
            for mask, coded in discs:
                steps = _pattern_steps(freq, cfg.n_steps, coded[:, axis], cfg.coded_span)
                for k, value in enumerate(steps):
                    if k == len(stack):  # the first disc takes each frame as it is drawn
                        stack.append(noise[image + k].result() if noise
                                     else np.zeros(n, dtype=np.float32))
                    if noise:  # the float32 pattern + noise, as a one-thread render adds
                        stack[k][mask] += value.astype(np.float32)
                    else:  # a write alone: reading the untouched zeros would fault them in
                        stack[k][mask] = value
            image += cfg.n_steps
            stacks[(cfg.orientation, freq)] = stack
    return stacks


def render_scene(truth: SceneTruth) -> SceneBundle:
    """Render fringe stacks and contour point sets of a scene truth.

    Deterministic for a fixed seed: every noise stream derives from
    ``SeedSequence([seed, purpose, index])`` so render order cannot matter.
    With intensity noise, one worker thread draws it (see ``_draw_noise``);
    the thread is joined before this returns or raises.

    Raises SphereOutOfView / SpheresOverlapInImage on infeasible geometry.
    """
    cam = truth.camera
    seed = truth.noise.seed

    conics = []
    boundaries = []
    for i, pose in enumerate(truth.spheres):
        conic = project_sphere_to_conic(pose, cam)
        boundary = sample_conic_points(conic, CONTOUR_SAMPLES)
        _check_in_frame(boundary, truth.cam_w, truth.cam_h, f"sphere {i} camera")
        # projector-side visibility: silhouette as seen from the projector
        center_p = truth.rotation @ pose.center + truth.translation
        try:
            pose_p = SpherePose(center=center_p, radius=pose.radius)
        except BehindCamera as exc:
            raise SphereOutOfView(f"sphere {i} is behind the projector") from exc
        boundary_p = sample_conic_points(
            project_sphere_to_conic(pose_p, truth.proj_intrinsics), CONTOUR_SAMPLES
        )
        _check_in_frame(boundary_p, truth.proj_w, truth.proj_h, f"sphere {i} projector")
        conics.append(conic)
        boundaries.append(boundary)

    for i, j in ((0, 1), (1, 0)):
        if np.any(conics[j].normalized().evaluate(boundaries[i]) < 0):
            raise SpheresOverlapInImage("sphere silhouettes overlap in the camera image")

    # contour points, perturbed along the local normal
    contours = []
    for i, (conic, boundary) in enumerate(zip(conics, boundaries)):
        pts = boundary.copy()
        if truth.noise.contour_sigma > 0:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
            grad = 2.0 * (np.column_stack([pts, np.ones(len(pts))]) @ conic.normalized().matrix)[:, :2]
            normals = grad / np.linalg.norm(grad, axis=1, keepdims=True)
            pts = pts + normals * rng.normal(0.0, truth.noise.contour_sigma, (len(pts), 1))
        contours.append(pts)

    boxes, in_hull = _padded_boxes(contours, truth.cam_w, truth.cam_h)
    pixels = _pixel_pairs(boxes[in_hull], truth.cam_w)  # = signal_pixels(contours, w, h)
    del boxes  # before the frames are allocated
    sigma = truth.noise.intensity_sigma
    # one worker draws each pattern image's noise (numpy draws without the
    # GIL) while this thread lifts the discs and computes the fringes
    pool = ThreadPoolExecutor(1)  # starts its thread on the first submit
    try:
        n_images = 2 * len(truth.freqs) * truth.n_steps  # both orientations
        # the streams run over the padded boxes (see _draw_noise); one scratch
        # stream serves every draw, as the pool's one worker runs them in turn
        stream = np.empty(len(in_hull), dtype=np.float32) if sigma > 0 else None
        noise = [pool.submit(_draw_noise, stream, in_hull, seed, index, sigma)
                 for index in range(n_images)] if sigma > 0 else []
        del stream, in_hull  # the last draw frees them
        lit_pixels = [_lit_pixels(truth, pose, conic, pixels)
                      for pose, conic in zip(truth.spheres, conics)]
        stacks = _fringe_stacks(truth, len(pixels), lit_pixels, noise)
    finally:
        pool.shutdown(cancel_futures=True)  # joins the worker, also on an exception

    return SceneBundle(truth=truth, contours=contours, pixels=pixels, stacks=stacks)
