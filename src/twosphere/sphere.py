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
from .geometry import Conic, Intrinsics, ellipse_parameters, sample_conic_points

__all__ = [
    "SpherePose",
    "sphere_center_from_conic",
    "sphere_centers",
    "lift_pixel_to_sphere",
    "lift_pixels",
    "sample_interior_pixels",
]

RIM_MARGIN_PX = 2.0  # least distance of an interior sample from the silhouette
RIM_MARGIN_FRAC = 0.05  # or this fraction of the semi-minor axis, if larger
RIM_BLOCK = 2048  # grid points per block of the rim distance: (RIM_BLOCK, 256) floats at a time

# fault codes of sphere_centers (0: a valid pose)
CONE_DEGENERATE, CONE_SIGNS, CONE_SPLIT, CENTER_BEHIND = 1, 2, 3, 4
CONE_FAULTS = {
    CONE_DEGENERATE: "back-projected cone is degenerate",
    CONE_SIGNS: "cone eigenvalues all share one sign",
    CONE_SPLIT: "double eigenvalue splits beyond pair_gap_tol",
}


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
        check entirely (the calibration's residual kernel calls
        ``sphere_centers`` without it, since candidate intrinsics far from
        the truth legitimately bend the cone elliptic).

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
    centers, fault = sphere_centers(conic, K.as_matrix()[None], radius, pair_gap_tol)
    if fault[0] in CONE_FAULTS:
        raise NotASphereImage(CONE_FAULTS[fault[0]])
    return SpherePose(center=centers[0], radius=radius)


def sphere_centers(
    conic: Conic, K: np.ndarray, radius: float, pair_gap_tol: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``sphere_center_from_conic`` for a stack of (B, 3, 3) intrinsics matrices.

    Returns the (B, 3) centers and a (B,) fault code per member: 0 for a
    valid pose, a key of ``CONE_FAULTS``, or ``CENTER_BEHIND`` when the depth
    does not exceed the radius. A faulty member's center is meaningless.
    """
    q = K.transpose(0, 2, 1) @ conic.matrix @ K
    q = q / np.linalg.norm(q, axis=(1, 2), keepdims=True)
    evals, evecs = np.linalg.eigh(q)
    # eigh sorts ascending: the lone opposite-signed eigenvalue is the first
    # of (-, +, +) and the last of (-, -, +); negating and reversing the
    # latter puts it first
    flip = (evals[:, 1] < 0)[:, None]
    evals = np.where(flip, -evals[:, ::-1], evals)
    evecs = np.where(flip[:, None], evecs[:, :, ::-1], evecs)
    lam_lone, lam_a, lam_b = -evals[:, 0], evals[:, 1], evals[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # tan^2(alpha) = lam_lone / lam_pair, distance = r / sin(alpha)
        distance = radius * np.sqrt((0.5 * (lam_a + lam_b) + lam_lone) / lam_lone)
        split = np.abs(lam_a - lam_b) / np.maximum(lam_a, lam_b)
    axis = np.where(evecs[:, 2:, 0] < 0, -evecs[:, :, 0], evecs[:, :, 0])
    centers = axis * distance[:, None]
    # later assignments take precedence: a degenerate cone over a sign
    # pattern over a split pair over the depth
    fault = np.where(centers[:, 2] > radius, 0, CENTER_BEHIND)
    if pair_gap_tol is not None:
        fault[split > pair_gap_tol] = CONE_SPLIT
    fault[~((evals[:, 0] < 0) & (0 < evals[:, 1]))] = CONE_SIGNS
    fault[np.min(np.abs(evals), axis=1) < 1e-12] = CONE_DEGENERATE
    return centers, fault


def lift_pixel_to_sphere(pixel: np.ndarray, K: Intrinsics, pose: SpherePose) -> np.ndarray:
    """Near intersection of the back-projected pixel ray with the sphere.

    Accepts a single (2,) pixel or an (n, 2) batch; returns (3,) or (n, 3).
    Discriminants use unit-norm ray directions so the tolerance band scales
    with the scene: values in (-1e-12 |X_S|^2, 0] clamp to the tangent
    point; anything below is a hard miss.

    Raises RayMissesSphere if any ray misses.
    """
    single = np.asarray(pixel).ndim == 1
    px = np.ascontiguousarray(np.atleast_2d(pixel).T, dtype=float)
    points, misses = lift_pixels(px, K.inverse()[None], pose.center[None], pose.radius)
    if misses[0]:
        raise RayMissesSphere(f"{misses[0]} of {px.shape[1]} rays miss the sphere")
    return points[0, :, 0] if single else points[0].T


def lift_pixels(
    px: np.ndarray, K_inv: np.ndarray, centers: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """``lift_pixel_to_sphere`` of the same coordinate-major (2, n) pixels for
    a stack of (B, 3, 3) inverse intrinsics and (B, 3) sphere centers.

    The points come coordinate-major, (B, 3, n), so that every per-point
    sum runs along contiguous rows; with them comes the (B,) count of rays
    that miss. A member with misses has meaningless points.

    Every product is an einsum, not BLAS: the render lifts whole discs
    through this core, and on some hosts a frame-sized BLAS product,
    stacked or 2-D, starts a second OpenBLAS thread that keeps spinning
    after it returns.
    """
    B, n = len(K_inv), px.shape[1]
    dirs = np.einsum("kj,jn->kn", K_inv[:, :, :2].reshape(3 * B, 2), px).reshape(B, 3, n)
    dirs += K_inv[:, :, 2:]
    dirs /= np.sqrt(np.einsum("bin,bin->bn", dirs, dirs))[:, None]
    b = np.einsum("bi,bin->bn", centers, dirs)
    cc = np.einsum("bi,bi->b", centers, centers)[:, None]
    disc = b * b - (cc - radius**2)
    misses = np.count_nonzero(disc < -1e-12 * cc, axis=1)
    dirs *= (b - np.sqrt(np.maximum(disc, 0.0)))[:, None]
    return dirs, misses


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
    # distance to the silhouette via a dense boundary polyline, per axis so
    # no (grid, boundary, 2) tensor is built, and per block of grid points so
    # no (grid, boundary) matrix is either
    d2 = np.concatenate([
        np.min((block[:, :1] - boundary[:, 0]) ** 2 + (block[:, 1:] - boundary[:, 1]) ** 2, axis=1)
        for block in np.split(grid, range(RIM_BLOCK, len(grid), RIM_BLOCK))
    ])
    return grid[np.sqrt(d2) > margin]
