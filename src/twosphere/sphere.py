"""Sphere pose from a silhouette conic, and lifting pixels to sphere surface points.

The camera sits at the origin looking down +z. Back-projecting a silhouette
conic C through intrinsics K gives the tangent cone ``Q ~ K^T C K``; its
symmetric eigendecomposition has a (near-)double eigenvalue pair for the
directions across the cone and a lone, opposite-signed eigenvalue along the
cone axis. The half-angle alpha and the known radius fix the center distance
``r / sin(alpha)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, NotASphereImage, RayMissesSphere
from .geometry import Conic, Intrinsics, ellipse_parameters, homogenize, sample_conic_points

__all__ = [
    "SpherePose",
    "sphere_center_from_conic",
    "lift_pixel_to_sphere",
    "sample_interior_pixels",
]

RIM_MARGIN_PX = 2.0  # least distance of an interior sample from the silhouette
RIM_MARGIN_FRAC = 0.05  # or this fraction of the semi-minor axis, if larger


@dataclass(frozen=True)
class SpherePose:
    """Sphere center (camera frame, length units) and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not self.center[2] > self.radius:
            raise BehindCamera(
                f"sphere depth {self.center[2]} does not clear the camera (radius {self.radius})"
            )


def sphere_center_from_conic(
    conic: Conic,
    K: Intrinsics,
    radius: float,
    pair_gap_tol: float | None = 1e-6,
) -> SpherePose:
    """Recover the sphere center from its image conic, given K and the radius.

    Parameters
    ----------
    pair_gap_tol : relative gap allowed between the two cone eigenvalues that
        should coincide for a true sphere image. 1e-6 suits exact conics;
        use ~1e-2 for conics fitted to noisy contours, or None to skip the
        check entirely (the calibration inner loop does this, since candidate
        intrinsics far from the truth legitimately bend the cone elliptic).

    Raises
    ------
    NotASphereImage
        Eigenvalues do not show the two-same-sign / one-opposite pattern,
        or the double pair splits beyond ``pair_gap_tol``.
    BehindCamera
        Recovered center depth does not exceed the radius (``SpherePose``).
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    Km = K.as_matrix()
    q = Km.T @ conic.matrix @ Km
    q = q / np.linalg.norm(q)
    evals, evecs = np.linalg.eigh(q)

    if np.min(np.abs(evals)) < 1e-12:
        raise NotASphereImage("back-projected cone is degenerate")
    # eigh sorts ascending, so the lone opposite-signed eigenvalue is the first or the last
    if evals[0] < 0 < evals[1]:
        lone, pair = 0, (1, 2)
    elif evals[1] < 0 < evals[2]:
        lone, pair = 2, (0, 1)
    else:
        raise NotASphereImage("cone eigenvalues all share one sign")

    lam_a, lam_b = abs(evals[pair[0]]), abs(evals[pair[1]])
    if pair_gap_tol is not None:
        gap = abs(lam_a - lam_b) / max(lam_a, lam_b)
        if gap > pair_gap_tol:
            raise NotASphereImage(
                f"double eigenvalue splits by {gap:.3e} (tolerance {pair_gap_tol:.1e})"
            )
    lam_pair = 0.5 * (lam_a + lam_b)
    lam_lone = abs(evals[lone])

    # tan^2(alpha) = lam_lone / lam_pair, distance = r / sin(alpha)
    distance = radius * np.sqrt((lam_pair + lam_lone) / lam_lone)
    axis = evecs[:, lone]
    if axis[2] < 0:
        axis = -axis
    return SpherePose(center=axis * distance, radius=radius)


def lift_pixel_to_sphere(pixel: np.ndarray, K: Intrinsics, pose: SpherePose) -> np.ndarray:
    """Near intersection of the back-projected pixel ray with the sphere.

    Accepts a single (2,) pixel or an (n, 2) batch; returns (3,) or (n, 3).
    Discriminants use unit-norm ray directions so the tolerance band scales
    with the scene: values in (-1e-12 |X_S|^2, 0] clamp to the tangent
    point; anything below is a hard miss.

    Raises RayMissesSphere if any ray misses.
    """
    single = np.asarray(pixel).ndim == 1
    pix = np.atleast_2d(np.asarray(pixel, dtype=float))
    dirs = (K.inverse() @ homogenize(pix).T).T
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    c = pose.center
    b = dirs @ c
    disc = b * b - (c @ c - pose.radius**2)
    miss = disc < -1e-12 * (c @ c)
    if np.any(miss):
        raise RayMissesSphere(f"{int(np.count_nonzero(miss))} of {len(miss)} rays miss the sphere")
    points = (b - np.sqrt(np.maximum(disc, 0.0)))[:, None] * dirs
    return points[0] if single else points


def sample_interior_pixels(conic: Conic, stride: int | None = None) -> np.ndarray:
    """Integer pixel grid inside a silhouette ellipse, away from the rim.

    A uniform grid with the given stride covers the ellipse bounding box;
    pixels are kept when they are inside the conic and their distance to the
    silhouette exceeds ``max(RIM_MARGIN_PX, RIM_MARGIN_FRAC * semi_minor)``. The
    2 px floor rejects rim pixels whose phase decodes unreliably at grazing
    angles; the fractional part keeps the lifted geometry well conditioned
    when candidate intrinsics deform the back-projected cone.

    stride=None picks a stride giving roughly a 24x24 grid over the box.
    """
    center, a, b, _ = ellipse_parameters(conic)
    margin = max(RIM_MARGIN_PX, RIM_MARGIN_FRAC * b)
    if stride is None:
        stride = max(1, int(round(2.0 * a / 24.0)))
    if stride < 1:
        raise ValueError("stride must be a positive integer")

    boundary = sample_conic_points(conic, 256)
    x_lo, y_lo = np.floor(boundary.min(axis=0)).astype(int)
    x_hi, y_hi = np.ceil(boundary.max(axis=0)).astype(int)
    xs = np.arange(x_lo, x_hi + 1, stride)
    ys = np.arange(y_lo, y_hi + 1, stride)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2).astype(float)

    inside = conic.normalized().evaluate(grid) < 0
    grid = grid[inside]
    if len(grid) == 0:
        return grid.reshape(0, 2)
    # distance to the silhouette via a dense boundary polyline
    d2 = np.min(
        np.sum((grid[:, None, :] - boundary[None, :, :]) ** 2, axis=-1), axis=1
    )
    return grid[np.sqrt(d2) > margin]
