"""Triangulation of camera-projector correspondences into a point cloud."""

from __future__ import annotations

import numpy as np

from .errors import NearParallelRays
from .geometry import Intrinsics
from .projector import ProjMatrix
from .simulate import BLOCK_ROWS, SceneBundle

__all__ = ["triangulate", "reconstruct_cloud", "write_ply"]

PARALLEL_ANGLE_RAD = 1e-6


# Rays and points are held coordinate-major, as three 1-D arrays, in
# elementwise arithmetic. No BLAS product: at a camera frame's worth of rays a
# BLAS call starts a second thread, which keeps spinning after it returns.
# Every 3-term sum is taken as (x0*y0 + x2*y2) + x1*y1, the order in which
# numpy's einsum (2.4, x86-64) sums a row of three for "ni,ni->n", "ni,i->n"
# and "ij,nj->ni", so the points keep the bytes of the row-major einsum
# triangulation that tests/test_reconstruct.py keeps as a reference.

def _dot3(u, v):
    """(u[0] v[0] + u[2] v[2]) + u[1] v[1], summed in place. Each coordinate
    is a 1-D array or a scalar; u[0] or v[0] is an array."""
    out = u[0] * v[0]
    out += u[2] * v[2]
    out += u[1] * v[1]
    return out


def _ray_geometry(cam_px, proj_px, K_C: Intrinsics, M_P: ProjMatrix):
    """Camera and projector ray directions of each pixel pair, each as its
    three coordinates, and the projector centre."""

    def directions(px, inverse):
        px = np.atleast_2d(np.asarray(px, dtype=float))
        homogeneous = (px[:, 0], px[:, 1], 1.0)
        return [_dot3(row, homogeneous) for row in inverse]

    d_cam = directions(cam_px, K_C.inverse())
    d_prj = directions(proj_px, np.linalg.inv(M_P.left))
    return d_cam, d_prj, M_P.center()


def _midpoints(d_cam, d_prj, origin):
    """Midpoint of the common perpendicular, as its three coordinates; the
    camera ray starts at the origin."""
    a = _dot3(d_cam, d_cam)
    b = _dot3(d_cam, d_prj)
    c = _dot3(d_prj, d_prj)
    d = _dot3(d_cam, -origin)
    e = _dot3(d_prj, -origin)
    denom = a * c - b * b  # = a c sin^2 of the ray angle
    ok = denom > PARALLEL_ANGLE_RAD**2 * a * c
    denom[~ok] = 1.0
    s = (b * e - c * d) / denom
    t = (a * e - b * d) / denom
    points = [0.5 * (s * u + o + t * v) for u, o, v in zip(d_cam, origin, d_prj)]
    return points, ok


def triangulate(cam_px, proj_px, K_C: Intrinsics, M_P: ProjMatrix) -> np.ndarray:
    """Midpoint triangulation of one pixel pair or an (n, 2) batch.

    The midpoint of the common perpendicular treats camera and projector
    rays symmetrically. Raises NearParallelRays below a 1e-6 rad ray angle.
    """
    single = np.asarray(cam_px).ndim == 1
    d_cam, d_prj, origin = _ray_geometry(cam_px, proj_px, K_C, M_P)
    points, ok = _midpoints(d_cam, d_prj, origin)
    if not np.all(ok):
        raise NearParallelRays(f"{int(np.count_nonzero(~ok))} ray pairs are near parallel")
    points = np.stack(points, axis=1)
    return points[0] if single else points


def reconstruct_cloud(
    bundle: SceneBundle,
    K_C: Intrinsics,
    M_P: ProjMatrix,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """Triangulate every valid decoded pixel of a bundle.

    Returns (points, per-point surface errors or None, stats). Surface error
    is the distance to the nearest true sphere surface, available because the
    bundle carries its ground truth; near-parallel pixels are skipped and
    counted in the stats. The surface statistics are None when no point is
    left.

    The stride grid is decoded and triangulated ``BLOCK_ROWS`` rows of
    ``bundle.pixels`` at a time. Every step is per pixel or per ray, so the
    result does not depend on the block size, and the working memory is
    bounded by one block and the output, not by the frame.
    """
    from .pipeline import decode_bundle

    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    xs, ys = bundle.pixels.T
    grid = None if stride == 1 else np.flatnonzero((xs % stride == 0) & (ys % stride == 0))
    n_rows = len(bundle.pixels) if grid is None else len(grid)
    valid_pixels = skipped = 0
    point_blocks, error_blocks = [], []
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        # a slice decodes the stride-1 grid without gathering a copy of the stacks
        at = slice(start, stop) if grid is None else grid[start:stop]
        proj_px, valid = decode_bundle(bundle, at)
        # np.compress gathers rows several times faster than a boolean index
        cam_px = np.compress(valid, bundle.pixels[at], axis=0).astype(float)
        valid_pixels += len(cam_px)
        if len(cam_px) == 0:
            continue
        proj_px = np.compress(valid, proj_px, axis=0)
        d_cam, d_prj, origin = _ray_geometry(cam_px, proj_px, K_C, M_P)
        points, ok = _midpoints(d_cam, d_prj, origin)
        del d_cam, d_prj
        if not np.all(ok):
            points = [coord[ok] for coord in points]
            skipped += int(np.count_nonzero(~ok))
        error_blocks.append(_surface_error(points, bundle.truth.spheres))
        point_blocks.append(np.stack(points, axis=1))

    points = np.concatenate(point_blocks) if point_blocks else np.zeros((0, 3))
    stats: dict = {
        "valid_pixels": valid_pixels,
        "points": len(points),
        "skipped_parallel": skipped,
        "surface_rmse": None,
        "surface_mean": None,
        "surface_max": None,
    }
    if len(points) == 0:
        return points, None, stats
    errors = np.concatenate(error_blocks)
    stats["surface_rmse"] = float(np.sqrt(np.mean(errors**2)))
    stats["surface_mean"] = float(np.mean(errors))
    stats["surface_max"] = float(np.max(errors))
    return points, errors, stats


def _surface_error(points, spheres):
    """Distance of each point (three coordinates) to the nearest sphere
    surface, summed in the order of ``np.linalg.norm(axis=1)``."""
    nearest = None
    for sphere in spheres:
        q = [coord - c for coord, c in zip(points, sphere.center)]
        error = np.abs(np.sqrt((q[0] * q[0] + q[1] * q[1]) + q[2] * q[2]) - sphere.radius)
        nearest = error if nearest is None else np.minimum(nearest, error, out=nearest)
    return nearest


def write_ply(path, points: np.ndarray, errors: np.ndarray | None = None) -> None:
    """Binary little-endian PLY of float32 x y z and an optional per-point error property."""
    pts = np.asarray(points).reshape(-1, 3)
    rows = np.empty((len(pts), 3 if errors is None else 4), dtype="<f4")
    rows[:, :3] = pts
    names = ["x", "y", "z"]
    if errors is not None:
        rows[:, 3] = errors
        names.append("error")
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(pts)}"]
    header += [f"property float {name}" for name in names] + ["end_header\n"]
    with open(path, "wb") as f:
        f.write("\n".join(header).encode("ascii"))
        rows.tofile(f)
