"""Triangulation of camera-projector correspondences into a point cloud."""

from __future__ import annotations

import numpy as np

from .errors import NearParallelRays
from .geometry import Intrinsics, homogenize
from .projector import ProjMatrix
from .simulate import SceneBundle

__all__ = ["triangulate", "reconstruct_cloud", "write_ply"]

PARALLEL_ANGLE_RAD = 1e-6
PLY_CHUNK_ROWS = 4096  # rows converted to Python floats at a time; bounds write_ply's memory


def _ray_geometry(cam_px, proj_px, K_C: Intrinsics, M_P: ProjMatrix):
    cam = np.atleast_2d(np.asarray(cam_px, dtype=float))
    proj = np.atleast_2d(np.asarray(proj_px, dtype=float))
    d_cam = (K_C.inverse() @ homogenize(cam).T).T
    d_prj = np.linalg.solve(M_P.left, homogenize(proj).T).T
    origin = M_P.center()
    return d_cam, d_prj, origin


def _midpoints(d_cam, d_prj, origin):
    """Midpoint of the common perpendicular; camera ray starts at the origin."""
    a = np.einsum("ni,ni->n", d_cam, d_cam)
    b = np.einsum("ni,ni->n", d_cam, d_prj)
    c = np.einsum("ni,ni->n", d_prj, d_prj)
    d = d_cam @ -origin
    e = d_prj @ -origin
    denom = a * c - b * b
    sin_angle = np.linalg.norm(
        np.cross(d_cam / np.linalg.norm(d_cam, axis=1, keepdims=True),
                 d_prj / np.linalg.norm(d_prj, axis=1, keepdims=True)),
        axis=1,
    )
    ok = sin_angle > PARALLEL_ANGLE_RAD
    denom = np.where(ok, denom, 1.0)
    s = (b * e - c * d) / denom
    t = (a * e - b * d) / denom
    points = 0.5 * (s[:, None] * d_cam + origin[None, :] + t[:, None] * d_prj)
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
    counted in the stats.
    """
    from .pipeline import decode_bundle

    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    xs, ys = bundle.pixels.T
    # a slice decodes the stride-1 grid without gathering a copy of the stacks
    at = slice(None) if stride == 1 else np.flatnonzero((xs % stride == 0) & (ys % stride == 0))
    proj_px, valid = decode_bundle(bundle, at)
    cam_px = bundle.pixels[at][valid].astype(float)
    stats: dict = {"valid_pixels": int(len(cam_px))}
    if len(cam_px) == 0:
        stats.update({"points": 0, "skipped_parallel": 0, "surface_rmse": None})
        return np.zeros((0, 3)), None, stats

    d_cam, d_prj, origin = _ray_geometry(cam_px, proj_px[valid], K_C, M_P)
    points, ok = _midpoints(d_cam, d_prj, origin)
    points = points[ok]
    stats["points"] = int(len(points))
    stats["skipped_parallel"] = int(np.count_nonzero(~ok))

    errors = None
    if len(points):
        per_sphere = [
            np.abs(np.linalg.norm(points - s.center[None, :], axis=1) - s.radius)
            for s in bundle.truth.spheres
        ]
        errors = np.min(np.column_stack(per_sphere), axis=1)
        stats["surface_rmse"] = float(np.sqrt(np.mean(errors**2)))
        stats["surface_mean"] = float(np.mean(errors))
        stats["surface_max"] = float(np.max(errors))
    else:
        stats["surface_rmse"] = None
    return points, errors, stats


def write_ply(path, points: np.ndarray, errors: np.ndarray | None = None) -> None:
    """ASCII PLY with x y z and an optional per-point scalar error property."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    rows = pts if errors is None else np.column_stack([pts, np.asarray(errors, dtype=float)])
    fmt = " ".join(["%.8g"] * rows.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        if errors is not None:
            f.write("property float error\n")
        f.write("end_header\n")
        for start in range(0, len(rows), PLY_CHUNK_ROWS):
            chunk = rows[start : start + PLY_CHUNK_ROWS]
            f.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))
