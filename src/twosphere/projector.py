"""Projector matrix estimation by DLT and its decomposition into K, R, T.

The projector is modeled as a reverse camera: ``w [x_p, y_p, 1]^T = M X_hom``
with ``M = K_P [R | T]`` a 3x4 matrix defined up to scale. The stored gauge
fixes the scale so the first three entries of the third row are a unit vector
and the left 3x3 block has positive determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateConfiguration,
    PointAtInfinity,
    SingularBlock,
    TooFewPoints,
)
from .geometry import Intrinsics

__all__ = [
    "ProjMatrix",
    "Correspondences",
    "dlt_estimate",
    "dlt_stack",
    "normalize_points",
    "gauge",
    "reprojection_residuals",
    "decompose",
    "compose",
    "project_points",
    "project_stack",
]


@dataclass(frozen=True)
class ProjMatrix:
    """3x4 projection matrix in the fixed gauge (unit third-row rotation part,
    positive left-block determinant)."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 4):
            raise ValueError("projection matrix must be 3x4")
        gauged, ok = gauge(m[None])
        if not ok[0]:
            raise SingularBlock("left 3x3 block is singular or its third row is numerically zero")
        object.__setattr__(self, "m", gauged[0])

    @property
    def left(self) -> np.ndarray:
        return self.m[:, :3]

    def center(self) -> np.ndarray:
        """Optical center in the world (camera) frame: M [C, 1]^T = 0."""
        return -np.linalg.solve(self.left, self.m[:, 3])

    def to_json(self) -> list:
        return [float(v) for v in self.m.ravel()]

    @classmethod
    def from_json(cls, flat) -> "ProjMatrix":
        return cls(np.asarray(flat, dtype=float).reshape(3, 4))

    def allclose(self, other: "ProjMatrix", tol: float = 1e-9) -> bool:
        return bool(np.max(np.abs(self.m - other.m)) < tol)


@dataclass(frozen=True)
class Correspondences:
    """Camera pixel / projector pixel / 3D point triples, as parallel arrays."""

    cam_px: np.ndarray
    proj_px: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        cam = np.asarray(self.cam_px, dtype=float).reshape(-1, 2)
        proj = np.asarray(self.proj_px, dtype=float).reshape(-1, 2)
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not (len(cam) == len(proj) == len(pts)):
            raise ValueError("correspondence arrays differ in length")
        for name, arr in (("cam_px", cam), ("proj_px", proj), ("points", pts)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if np.any(pts[:, 2] <= 0):
            raise ValueError("3D points must have positive depth")
        object.__setattr__(self, "cam_px", cam)
        object.__setattr__(self, "proj_px", proj)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def gauge(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``ProjMatrix`` gauge of a stack of (B, 3, 4) matrices: scaled so the
    rotation part of the third row is a unit vector, negated where the left
    block's determinant is negative. Returns the gauged stack and a (B,)
    mask, false where that row is numerically zero or the block singular."""
    row_scale = np.linalg.norm(m[:, 2, :3], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = m / row_scale[:, None, None]
        det = np.linalg.det(m[:, :, :3])
    ok = (row_scale >= 1e-14) & (np.abs(det) >= 1e-14)
    return np.where(det[:, None, None] < 0, -m, m), ok


def project_points(M: ProjMatrix, points: np.ndarray) -> np.ndarray:
    """Dehomogenized projections of (n, 3) points through M.

    Raises PointAtInfinity when a projective depth vanishes relative to the
    projected vector's magnitude.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    projected, ok = project_stack(M.m[None], pts.T[None])
    if not ok[0]:
        raise PointAtInfinity("a point projects to infinity under this matrix")
    return projected[0].T


def project_stack(M: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``project_points`` for (B, 3, 4) matrices and coordinate-major (B, 3, n)
    points: the (B, 2, n) projections and a (B,) mask, false where a point
    projects to infinity (that member's projections are meaningless)."""
    hom = M @ np.concatenate([points, np.ones_like(points[:, :1])], axis=1)
    scale = np.linalg.norm(hom, axis=1)
    ok = ~np.any(np.abs(hom[:, 2]) <= 1e-12 * scale, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return hom[:, :2] / hom[:, 2:], ok


def normalize_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity normalization of coordinate-major (..., d, n) points:
    centroid to the origin, mean distance from it sqrt(d). Returns the
    normalized homogeneous points (..., d + 1, n) and the (..., d + 1, d + 1)
    transforms applied."""
    d = points.shape[-2]
    centroid = points.mean(axis=-1, keepdims=True)
    shifted = points - centroid
    spread = np.linalg.norm(shifted, axis=-2).mean(axis=-1)
    scale = np.sqrt(d) / np.maximum(spread, 1e-300)
    T = np.zeros(points.shape[:-2] + (d + 1, d + 1))
    T[..., :d, :d] = scale[..., None, None] * np.eye(d)
    T[..., :d, d] = -scale[..., None] * centroid[..., 0]
    T[..., d, d] = 1.0
    shifted *= scale[..., None, None]
    return np.concatenate([shifted, np.ones_like(shifted[..., :1, :])], axis=-2), T


def dlt_estimate(proj_px: np.ndarray, points: np.ndarray) -> ProjMatrix:
    """Direct linear transform from n >= 6 pixel / 3D-point pairs.

    Both sides are similarity-normalized (centroids to the origin, mean
    distance sqrt(2) in 2D and sqrt(3) in 3D) before assembling the 2n x 12
    design matrix; the null singular vector gives M.

    Raises
    ------
    TooFewPoints
        n < 6.
    DegenerateConfiguration
        The two smallest singular values are indistinguishable (ratio above
        0.99) or the second-smallest vanishes: the null space is ambiguous,
        as for coplanar points.
    """
    xp = np.asarray(proj_px, dtype=float).reshape(-1, 2)
    X = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(xp) != len(X):
        raise ValueError("pixel and point counts differ")
    if len(X) < 6:
        raise TooFewPoints(f"DLT needs at least 6 correspondences, got {len(X)}")
    xpn, T2 = normalize_points(xp.T)
    M, ok = dlt_stack(xpn, np.linalg.inv(T2), X.T[None])
    if not ok[0]:
        raise DegenerateConfiguration("DLT null space is ambiguous (degenerate points)")
    return ProjMatrix(M[0])


def dlt_stack(
    proj_norm: np.ndarray, T2_inv: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``dlt_estimate`` of coordinate-major (B, 3, n) point sets against one
    set of projector pixels, given normalized (``normalize_points``) as the
    (3, n) ``proj_norm`` with the inverse ``T2_inv`` of their transform.

    Each 2n x 12 design matrix is QR-reduced to its 12 x 12 R factor, whose
    singular values and right singular vectors are the design matrix's.
    Returns the (B, 3, 4) matrices, not yet in the ``ProjMatrix`` gauge, and
    a (B,) mask, false where the null space is ambiguous.
    """
    Xn, T3 = normalize_points(points)
    n = Xn.shape[-1]
    # the design matrix, built transposed: the n equations of y_p, then the
    # n of x_p (a row order changes no singular value or vector)
    A_t = np.zeros((len(Xn), 12, 2 * n))
    A_t[:, 4:8, :n] = -Xn
    A_t[:, 8:12, :n] = proj_norm[1] * Xn
    A_t[:, 0:4, n:] = Xn
    A_t[:, 8:12, n:] = -proj_norm[0] * Xn
    _, sv, vt = np.linalg.svd(np.linalg.qr(A_t.transpose(0, 2, 1), mode="r"), full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (sv[:, -2] > 1e-10 * sv[:, 0]) & (sv[:, -1] / sv[:, -2] <= 0.99)
    return T2_inv @ vt[:, -1].reshape(-1, 3, 4) @ T3, ok


def reprojection_residuals(M: ProjMatrix, proj_px: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per-point Euclidean pixel distance ``|x_p - dehom(M X)|``, input order kept."""
    xp = np.asarray(proj_px, dtype=float).reshape(-1, 2)
    projected = project_points(M, points)
    return np.linalg.norm(xp - projected, axis=1)


def decompose(M: ProjMatrix) -> tuple[Intrinsics, np.ndarray, np.ndarray]:
    """Split M into intrinsics, rotation (det +1) and translation.

    RQ-decomposes the left block; reflections are folded into R so the
    intrinsics diagonal is positive (skew may take either sign), and the
    gauge of ProjMatrix guarantees det(R) = +1. ``K [R | T]`` reproduces M
    up to scale.
    """
    K, R = scipy.linalg.rq(M.left)
    flips = np.diag(np.sign(np.diag(K)))
    K = K @ flips
    R = flips @ R
    k33 = K[2, 2]
    K = K / k33
    T = np.linalg.solve(K, M.m[:, 3] / k33)
    intr = Intrinsics(fx=K[0, 0], fy=K[1, 1], skew=K[0, 1], u0=K[0, 2], v0=K[1, 2])
    return intr, R, T


def compose(K: Intrinsics, R: np.ndarray, T: np.ndarray) -> ProjMatrix:
    """Build ``K [R | T]`` in the standard gauge."""
    R = np.asarray(R, dtype=float).reshape(3, 3)
    T = np.asarray(T, dtype=float).reshape(3)
    return ProjMatrix(K.as_matrix() @ np.column_stack([R, T]))
