"""Projective-geometry primitives: intrinsics, conics, and their eigen-structure.

Conventions
-----------
Homogeneous 2D points/lines are length-3 numpy vectors defined up to scale,
3D points are length-4. A point ``x`` lies on a conic ``C`` iff ``x^T C x = 0``
and on a line ``l`` iff ``l . x = 0``. Pixel coordinates are ``(x, y)`` with
``x`` along image columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentConics,
    DegenerateConic,
    TooFewPoints,
)

__all__ = [
    "Intrinsics",
    "Conic",
    "homogenize",
    "unit_vector",
    "hom_allclose",
    "fit_conic",
    "adjugate",
    "constraint_pair",
    "pole_polar_cross",
    "pole_polar_crosses",
    "intrinsics_matrices",
    "iac_matrices",
    "pole_polar_residual",
    "ellipse_parameters",
    "sample_conic_points",
]


# ---------------------------------------------------------------------------
# intrinsics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics (fx, fy, skew, u0, v0), all in pixels.

    The calibration matrix is upper triangular with unit lower-right entry::

        K = [[fx, skew, u0],
             [ 0,   fy, v0],
             [ 0,    0,  1]]
    """

    fx: float
    fy: float
    skew: float
    u0: float
    v0: float

    def __post_init__(self) -> None:
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        for name in ("fx", "fy", "skew", "u0", "v0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")

    def as_matrix(self) -> np.ndarray:
        return intrinsics_matrices(self._row())[0][0]

    def inverse(self) -> np.ndarray:
        """Closed-form K^-1 (exact for the upper-triangular structure)."""
        return intrinsics_matrices(self._row())[1][0]

    def iac(self) -> np.ndarray:
        """Image of the absolute conic, K^-T K^-1 (symmetric positive-definite)."""
        return iac_matrices(self.inverse()[None])[0]

    def _row(self) -> np.ndarray:
        return np.array([[self.fx, self.fy, self.skew, self.u0, self.v0]])

    @classmethod
    def from_matrix(cls, K: np.ndarray) -> "Intrinsics":
        K = np.asarray(K, dtype=float)
        if K.shape != (3, 3):
            raise ValueError("intrinsics matrix must be 3x3")
        K = K / K[2, 2]
        if abs(K[1, 0]) > 1e-9 or abs(K[2, 0]) > 1e-9 or abs(K[2, 1]) > 1e-9:
            raise ValueError("intrinsics matrix must be upper triangular")
        return cls(fx=K[0, 0], fy=K[1, 1], skew=K[0, 1], u0=K[0, 2], v0=K[1, 2])

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "skew": self.skew, "u0": self.u0, "v0": self.v0}

    @classmethod
    def from_dict(cls, d: dict) -> "Intrinsics":
        return cls(fx=d["fx"], fy=d["fy"], skew=d["skew"], u0=d["u0"], v0=d["v0"])


def intrinsics_matrices(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Calibration matrices K and their closed-form inverses, each (B, 3, 3),
    for (B, 5) rows of (fx, fy, skew, u0, v0)."""
    fx, fy, s, u0, v0 = np.asarray(params, dtype=float).T
    K, K_inv = np.zeros((2, len(fx), 3, 3))
    K[:, 0, 0], K[:, 0, 1], K[:, 0, 2], K[:, 1, 1], K[:, 1, 2], K[:, 2, 2] = fx, s, u0, fy, v0, 1.0
    K_inv[:, 0, 0], K_inv[:, 0, 1] = 1.0 / fx, -s / (fx * fy)
    K_inv[:, 0, 2] = (s * v0 - fy * u0) / (fx * fy)
    K_inv[:, 1, 1], K_inv[:, 1, 2], K_inv[:, 2, 2] = 1.0 / fy, -v0 / fy, 1.0
    return K, K_inv


def iac_matrices(K_inv: np.ndarray) -> np.ndarray:
    """Images of the absolute conic ``K^-T K^-1``, symmetrized, from (B, 3, 3) inverses."""
    w = K_inv.transpose(0, 2, 1) @ K_inv
    return 0.5 * (w + w.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# homogeneous helpers
# ---------------------------------------------------------------------------

def homogenize(points: np.ndarray) -> np.ndarray:
    """Append a unit coordinate: (n, d) -> (n, d+1), or (d,) -> (d+1,)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        return np.append(points, 1.0)
    return np.column_stack([points, np.ones(len(points))])


def unit_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    return v / n


def hom_allclose(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Equality of homogeneous quantities: up to scale and sign."""
    ua, ub = unit_vector(np.ravel(a)), unit_vector(np.ravel(b))
    return bool(min(np.linalg.norm(ua - ub), np.linalg.norm(ua + ub)) < tol)


# ---------------------------------------------------------------------------
# conics
# ---------------------------------------------------------------------------

_UPPER_IDX = ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])


class Conic:
    """A 3x3 symmetric matrix defined up to scale, stored as its 6 unique entries.

    Entry order follows the serialization contract:
    ``[c11, c12, c13, c22, c23, c33]``.
    """

    __slots__ = ("_u",)

    def __init__(self, entries: np.ndarray):
        u = np.asarray(entries, dtype=float).ravel()
        if u.shape != (6,):
            raise ValueError("Conic takes 6 unique entries [c11,c12,c13,c22,c23,c33]")
        if not np.all(np.isfinite(u)) or not np.any(u):
            raise ValueError("conic entries must be finite and not all zero")
        self._u = u.copy()

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Conic":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("conic matrix must be 3x3")
        sym = 0.5 * (m + m.T)
        return cls(sym[_UPPER_IDX])

    @property
    def matrix(self) -> np.ndarray:
        c11, c12, c13, c22, c23, c33 = self._u
        return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]])

    @property
    def entries(self) -> np.ndarray:
        """The 6 unique entries, [c11, c12, c13, c22, c23, c33]."""
        return self._u.copy()

    def normalized(self) -> "Conic":
        """Unit Frobenius norm with the sign fixed so c11 >= 0."""
        m = self.matrix
        m = m / np.linalg.norm(m)
        if m[0, 0] < 0 or (m[0, 0] == 0 and m[1, 1] < 0):
            m = -m
        return Conic.from_matrix(m)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """x^T C x for pixel points of shape (2,), (3,), (n, 2) or (n, 3)."""
        p = np.asarray(points, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        if p.shape[1] == 2:
            p = homogenize(p)
        vals = np.einsum("ni,ij,nj->n", p, self.matrix, p)
        return vals[0] if single else vals

    @property
    def is_real_ellipse(self) -> bool:
        """True when the zero set is a real (non-empty, bounded) ellipse."""
        m = self.normalized().matrix
        det2 = m[0, 0] * m[1, 1] - m[0, 1] ** 2
        return bool(det2 > 0 and np.linalg.det(m) < 0)

    def allclose(self, other: "Conic", tol: float = 1e-9) -> bool:
        """Equality up to scale and sign (unit-Frobenius comparison)."""
        return hom_allclose(self.normalized()._u, other.normalized()._u, tol)

    def __repr__(self) -> str:
        return f"Conic({np.array2string(self._u, precision=6)})"


def adjugate(conic: Conic) -> Conic:
    """Adjugate (transpose of the cofactor matrix); the dual conic.

    Satisfies ``adj(C) C = det(C) I`` for every C, including singular ones.
    """
    return Conic.from_matrix(_adjugate3(conic.matrix))


def _adjugate3(m: np.ndarray) -> np.ndarray:
    # cofactor expansion; avoids det*inv which fails for singular input
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )


# ---------------------------------------------------------------------------
# conic fitting
# ---------------------------------------------------------------------------

def fit_conic(points: np.ndarray) -> Conic:
    """Least-squares algebraic conic fit with unit-norm coefficient constraint.

    Points are Hartley-normalized (centroid to origin, RMS radius sqrt(2))
    before building the design matrix, which keeps the fit well conditioned
    for pixel coordinates in the thousands.

    Parameters
    ----------
    points : (n, 2) array, n >= 6

    Raises
    ------
    TooFewPoints
        Fewer than 6 points.
    DegenerateConic
        Design matrix has an ambiguous null space (smallest two singular
        values indistinguishable at 1e-12 relative).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    n = len(pts)
    if n < 6:
        raise TooFewPoints(f"conic fit needs at least 6 points, got {n}")

    centroid = pts.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((pts - centroid) ** 2, axis=1)))
    scale = np.sqrt(2.0) / rms if rms > 0 else 1.0
    q = (pts - centroid) * scale

    x, y = q[:, 0], q[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones(n)])
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    if sv[-2] - sv[-1] < 1e-12 * sv[0]:
        raise DegenerateConic("conic coefficients are not uniquely determined")

    a, b, c, d, e, f = vt[-1]
    c_norm = np.array(
        [[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, f]]
    )
    # undo normalization: q = T p with T the similarity below
    T = np.array(
        [[scale, 0.0, -scale * centroid[0]], [0.0, scale, -scale * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return Conic.from_matrix(T.T @ c_norm @ T).normalized()


# ---------------------------------------------------------------------------
# ellipse geometry
# ---------------------------------------------------------------------------

def ellipse_parameters(conic: Conic) -> tuple[np.ndarray, float, float, float]:
    """Center, semi-axes (major, minor) and major-axis angle of a real ellipse.

    Raises ValueError if the conic is not a real ellipse.
    """
    m = conic.normalized().matrix
    block = m[:2, :2]
    det2 = np.linalg.det(block)
    if det2 <= 0:
        raise ValueError("conic is not an ellipse")
    center = -np.linalg.solve(block, m[:2, 2])
    # value of the quadratic at the center; negative for a real ellipse
    k = float(center @ block @ center + 2.0 * m[:2, 2] @ center + m[2, 2])
    if k >= 0:
        raise ValueError("conic is an imaginary ellipse")
    w, v = np.linalg.eigh(block / (-k))
    if np.any(w <= 0):
        raise ValueError("conic is not a real ellipse")
    semi = 1.0 / np.sqrt(w)  # descending: w ascending -> semi descending
    angle = float(np.arctan2(v[1, 0], v[0, 0]))
    return center, float(semi[0]), float(semi[1]), angle


def sample_conic_points(conic: Conic, n: int) -> np.ndarray:
    """n points exactly on a real ellipse, uniformly spaced in the angle parameter."""
    center, a, b, angle = ellipse_parameters(conic)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ca, sa = np.cos(angle), np.sin(angle)
    u = a * np.cos(t)
    w = b * np.sin(t)
    return np.column_stack([center[0] + ca * u - sa * w, center[1] + sa * u + ca * w])


# ---------------------------------------------------------------------------
# eigen-structure of a conic pair
# ---------------------------------------------------------------------------

def constraint_pair(c1: Conic, c2: Conic, bootstrap: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Vanishing line / vanishing point pair from two sphere silhouettes.

    The real eigenvectors of ``C2 adj(C1)``, read as lines, and their common
    poles form the self-polar triangle of the pair: each line ``l`` has the
    same pole ``v ~ adj(C1) l`` under both conics, so ``C1 v ~ l ~ C2 v``.
    A real 3x3 matrix has at least one real eigenvalue, so there is always a
    candidate. Among them the pair minimizing the scale-free pole-polar
    residual under ``bootstrap`` intrinsics is returned (the first on a tie);
    the correct pair is near-invariant to that guess.

    Parameters
    ----------
    c1, c2 : distinct real-ellipse conics; c1 must be invertible.
    bootstrap : rough intrinsics guess used only to rank candidates, e.g.
        an image-center guess for pixel-scale data.

    Returns
    -------
    (l, v) : unit-normalized line and point, satisfying ``l ~ omega v`` for
        the true image of the absolute conic omega.
    """
    m1 = c1.normalized().matrix
    m2 = c2.normalized().matrix
    if abs(np.linalg.det(m1)) < 1e-15:
        raise DegenerateConic("first conic is singular; adjugate direction undefined")

    adj1 = _adjugate3(m1)
    m = m2 @ adj1
    m_unit = m / np.linalg.norm(m)
    scalar = np.trace(m_unit) / 3.0
    if np.linalg.norm(m_unit - scalar * np.eye(3)) < 1e-10:
        raise CoincidentConics("conic pair is a scalar multiple pair; eigenvectors undefined")

    evals, evecs = np.linalg.eig(m)
    real = np.abs(evals.imag) <= 1e-9 * np.max(np.abs(evals))
    pairs = [(unit_vector(e), unit_vector(adj1 @ e)) for e in evecs.T[real].real]
    resid = [np.linalg.norm(pole_polar_cross(line, point, bootstrap)) for line, point in pairs]
    return pairs[int(np.argmin(resid))]


def pole_polar_cross(line: np.ndarray, point: np.ndarray, K: Intrinsics) -> np.ndarray:
    """Cross product ``l x (omega v)_hat`` of the pole-polar relation.

    ``line`` and ``point`` are taken as given, unit-normalized by the caller
    (``constraint_pair`` returns them so); only ``omega v`` is normalized
    here, with ``omega = K^-T K^-1``. Zero when ``l ~ omega v``.
    """
    return pole_polar_crosses(line, point, K.inverse()[None])[0]


def pole_polar_crosses(line: np.ndarray, point: np.ndarray, K_inv: np.ndarray) -> np.ndarray:
    """``pole_polar_cross`` for a stack of (B, 3, 3) inverse intrinsics: (B, 3)."""
    wv = iac_matrices(K_inv) @ point
    return np.cross(line, wv / np.linalg.norm(wv, axis=1, keepdims=True))


def pole_polar_residual(line: np.ndarray, point: np.ndarray, K: Intrinsics) -> float:
    """Scale-free residual ||l_hat x (omega v)_hat|| of the pole-polar relation.

    Zero when ``l ~ K^-T K^-1 v``; invariant to rescaling or flipping either
    input.
    """
    l_u = unit_vector(np.ravel(line))
    return float(np.linalg.norm(pole_polar_cross(l_u, unit_vector(np.ravel(point)), K)))
