"""Camera-projector calibration from two sphere observations.

Given the silhouette conics of two spheres of known radius plus dense
camera-pixel to projector-pixel correspondences on each, a candidate camera
intrinsics K determines both spheres' centers, lifts every camera pixel to a
3D surface point, and a single shared projector matrix fitted over the union
of both spheres must reproject every projector pixel: the two spheres'
estimates have to agree. The search over the five intrinsics parameters
minimizes those reprojection residuals plus a penalty tying the vanishing
line / vanishing point pair of the conic pair to the image of the absolute
conic (``l ~ K^-T K^-1 v``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InfeasibleCandidate, NoFeasibleStart
from .geometry import (
    Conic,
    Intrinsics,
    constraint_pair,
    homogenize,
    intrinsics_matrices,
    pole_polar_cross,
    pole_polar_crosses,
)
from .projector import (
    ProjMatrix,
    decompose,
    dlt_stack,
    gauge,
    normalize_points,
    project_stack,
)
from .sphere import lift_pixels, sphere_centers

# The single-candidate forms of the kernel's stages stay importable here:
# perfbench's tracer binds them under this module's names.
from .projector import dlt_estimate, project_points  # noqa: F401
from .sphere import lift_pixel_to_sphere, sphere_center_from_conic  # noqa: F401

__all__ = [
    "SphereObservation",
    "IscProblem",
    "CalibResult",
    "isc_objective",
    "calibrate",
    "evaluate_against_truth",
    "format_error_report",
]

F_SCAN_LO = 0.3  # focal scan range as multiples of the image width
F_SCAN_HI = 5.0
F_SCAN_SAMPLES = 40
REL_OBJ_TOL = 1e-10
REL_STEP_TOL = 1e-8
FD_REL_STEP = 1e-5  # central-difference step relative to max(|p_j|, 1)
KERNEL_BATCH = 10  # candidates per residual-kernel call: one Jacobian's probes


@dataclass(frozen=True)
class SphereObservation:
    """One sphere's fitted silhouette conic and its pixel correspondences."""

    conic: Conic
    cam_px: np.ndarray
    proj_px: np.ndarray

    def __post_init__(self) -> None:
        cam = np.asarray(self.cam_px, dtype=float).reshape(-1, 2)
        proj = np.asarray(self.proj_px, dtype=float).reshape(-1, 2)
        if len(cam) != len(proj):
            raise ValueError("camera and projector pixel counts differ")
        if not (np.all(np.isfinite(cam)) and np.all(np.isfinite(proj))):
            raise ValueError("correspondences contain non-finite values")
        object.__setattr__(self, "cam_px", cam)
        object.__setattr__(self, "proj_px", proj)

    def __len__(self) -> int:
        return len(self.cam_px)


@dataclass(frozen=True)
class IscProblem:
    """Inputs of one calibration run.

    ``constraint`` is the unit-normalized (vanishing line, vanishing point)
    pair extracted from the two conics; ``mu`` weights the pole-polar penalty
    (0 disables it, the CLI's ``--mu 0`` path).
    """

    obs1: SphereObservation
    obs2: SphereObservation
    radii: tuple[float, float]
    cam_w: int
    cam_h: int
    constraint: tuple[np.ndarray, np.ndarray]
    mu: float

    def __post_init__(self) -> None:
        if len(self.obs1) < 10 or len(self.obs2) < 10:
            raise ValueError("each sphere needs at least 10 valid correspondences")
        if self.obs1.conic.allclose(self.obs2.conic, tol=1e-12):
            raise ValueError("the two sphere observations share one conic")
        if not (self.radii[0] > 0 and self.radii[1] > 0):
            raise ValueError("sphere radii must be positive")
        if self.mu < 0:
            raise ValueError("constraint weight must be non-negative")

    @classmethod
    def build(
        cls,
        obs1: SphereObservation,
        obs2: SphereObservation,
        radii,
        cam_w: int,
        cam_h: int,
        mu: float | None = None,
    ) -> "IscProblem":
        """Assemble a problem, extracting the constraint pair from the conics.

        ``radii`` may be a single shared radius or a per-sphere pair. The
        eigenvector selection is bootstrapped with a focal guess of the
        image width and the principal point at the image center. A
        coincident conic pair raises CoincidentConics here, before any
        optimization starts.
        """
        r = (float(radii), float(radii)) if np.isscalar(radii) else (float(radii[0]), float(radii[1]))
        bootstrap = Intrinsics(fx=cam_w, fy=cam_w, skew=0.0, u0=cam_w / 2.0, v0=cam_h / 2.0)
        line, point = constraint_pair(obs1.conic, obs2.conic, bootstrap)
        if mu is None:
            mu = 1e4 * (len(obs1) + len(obs2))
        return cls(
            obs1=obs1,
            obs2=obs2,
            radii=r,
            cam_w=int(cam_w),
            cam_h=int(cam_h),
            constraint=(line, point),
            mu=float(mu),
        )

    @cached_property
    def _kernel_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The residual kernel's inputs that do not depend on K: both spheres'
        homogeneous camera pixels and the DLT-normalized projector pixels,
        coordinate-major, the inverse of that normalization, and the stacked
        projector pixels."""
        proj_px = np.vstack([self.obs1.proj_px, self.obs2.proj_px])
        proj_norm, T2 = normalize_points(proj_px.T)
        return (homogenize(self.obs1.cam_px).T, homogenize(self.obs2.cam_px).T, proj_norm,
                np.linalg.inv(T2), proj_px)


@dataclass
class CalibResult:
    """Calibration output: camera intrinsics, projector matrix and its parts,
    plus diagnostics of the search."""

    camera: Intrinsics
    proj_matrix: ProjMatrix
    proj_intrinsics: Intrinsics
    rotation: np.ndarray
    translation: np.ndarray
    objective: float  # sum of unsquared residual norms + mu * constraint
    constraint_residual: float  # ||l_hat x (omega v)_hat|| at the solution
    per_sphere_rms: tuple[float, float]  # residual-norm sums / N1, N2
    iterations: int
    converged: bool
    history: list = field(default_factory=list)  # accepted least-squares values

    def to_json_dict(self) -> dict:
        return {
            "camera": self.camera.to_dict(),
            "proj_matrix": self.proj_matrix.to_json(),
            "projector": self.proj_intrinsics.to_dict(),
            "rotation": [[float(v) for v in row] for row in self.rotation],
            "translation": [float(v) for v in self.translation],
            "objective": float(self.objective),
            "constraint_residual": float(self.constraint_residual),
            "per_sphere_rms": [float(v) for v in self.per_sphere_rms],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CalibResult":
        return cls(
            camera=Intrinsics.from_dict(d["camera"]),
            proj_matrix=ProjMatrix.from_json(d["proj_matrix"]),
            proj_intrinsics=Intrinsics.from_dict(d["projector"]),
            rotation=np.asarray(d["rotation"], dtype=float),
            translation=np.asarray(d["translation"], dtype=float),
            objective=float(d["objective"]),
            constraint_residual=float(d["constraint_residual"]),
            per_sphere_rms=(float(d["per_sphere_rms"][0]), float(d["per_sphere_rms"][1])),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
        )


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _residuals(P: np.ndarray, problem: IscProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked least-squares residuals of up to ``KERNEL_BATCH`` candidates.

    ``P`` holds one (fx, fy, skew, u0, v0) row per candidate. Returns the
    residuals (B, m), a feasibility mask (B,) and the fitted projector
    matrices (B, 3, 4) in the ``ProjMatrix`` gauge. A residual row holds 2
    components per correspondence (both spheres, obs1 first), then sqrt(mu)
    times the 3-component pole-polar cross product.

    A candidate is infeasible when its focal lengths are not positive and
    finite, a back-projected cone lacks a sphere's eigenvalue signature, a
    sphere lands behind the camera, a ray misses its sphere, the DLT null
    space is ambiguous, the projector's left block is singular, or a point
    projects to infinity. Its rows are NaN. Each candidate is computed on its
    own, so its row does not depend on the others in the call.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 5)
    if len(P) > KERNEL_BATCH:
        raise ValueError(f"{len(P)} candidates exceed the kernel batch of {KERNEL_BATCH}")
    hom1, hom2, proj_norm, T2_inv, proj_px = problem._kernel_inputs
    r1, r2 = problem.radii
    vec = np.full((len(P), 2 * len(proj_px) + 3), np.nan)
    matrices = np.full((len(P), 3, 4), np.nan)

    live = np.flatnonzero(np.all(np.isfinite(P), axis=1) & (P[:, 0] > 0) & (P[:, 1] > 0))
    K, K_inv = intrinsics_matrices(P[live])
    c1, fault1 = sphere_centers(problem.obs1.conic, K, r1)
    c2, fault2 = sphere_centers(problem.obs2.conic, K, r2)
    keep = (fault1 == 0) & (fault2 == 0)
    live, K_inv = live[keep], K_inv[keep]
    x1, misses1 = lift_pixels(hom1, K_inv, c1[keep], r1)
    x2, misses2 = lift_pixels(hom2, K_inv, c2[keep], r2)
    keep = (misses1 == 0) & (misses2 == 0)
    live, K_inv = live[keep], K_inv[keep]
    points = np.concatenate([x1[keep], x2[keep]], axis=2)
    M, fitted = dlt_stack(proj_norm, T2_inv, points)
    M, gauged = gauge(M)
    keep = fitted & gauged
    live, K_inv, M, points = live[keep], K_inv[keep], M[keep], points[keep]
    projected, keep = project_stack(M, points)
    live, K_inv, M = live[keep], K_inv[keep], M[keep]

    planar = (proj_px - projected[keep].transpose(0, 2, 1)).reshape(len(live), 2 * len(proj_px))
    cross = pole_polar_crosses(*problem.constraint, K_inv)
    vec[live] = np.concatenate([planar, np.sqrt(problem.mu) * cross], axis=1)
    matrices[live] = M
    ok = np.zeros(len(P), dtype=bool)
    ok[live] = True
    return vec, ok, matrices


def _residual_vector(params: np.ndarray, problem: IscProblem) -> tuple[np.ndarray, ProjMatrix]:
    """The kernel at one candidate: its residual row and projector matrix.

    Raises InfeasibleCandidate where the kernel masks the candidate.
    """
    vec, ok, M = _residuals(params, problem)
    if not ok[0]:
        raise InfeasibleCandidate(
            "candidate intrinsics make the sphere or projector geometry impossible"
        )
    return vec[0], ProjMatrix(M[0])


def isc_objective(K: Intrinsics, problem: IscProblem) -> tuple[float, ProjMatrix]:
    """Objective value at candidate intrinsics, with the fitted projector matrix.

    The value is the sum of unsquared reprojection norms over both spheres
    plus ``mu`` times the squared scale-free pole-polar residual. Geometric
    impossibilities raise InfeasibleCandidate; the search treats those
    candidates as rejected steps rather than a crash.
    """
    params = np.array([K.fx, K.fy, K.skew, K.u0, K.v0])
    vec, M = _residual_vector(params, problem)
    return _objective_parts(vec, problem)[1], M


def _objective_parts(vec: np.ndarray, problem: IscProblem) -> tuple[np.ndarray, float]:
    """Per-correspondence residual norms and the objective value, from a
    ``_residual_vector`` output (whose tail is the sqrt(mu)-scaled cross)."""
    n = len(problem.obs1) + len(problem.obs2)
    norms = np.linalg.norm(vec[: 2 * n].reshape(-1, 2), axis=1)
    cross = vec[2 * n :]
    return norms, float(norms.sum() + cross @ cross)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt with numeric derivatives
# ---------------------------------------------------------------------------

def _jacobian(params, r0, problem):
    """Central-difference Jacobian from one kernel call over the 2 x 5 probes;
    one-sided where a probe is infeasible, zero where both are."""
    n = len(params)
    h = FD_REL_STEP * np.maximum(np.abs(params), 1.0)
    vec, ok, _ = _residuals(np.vstack([params + np.diag(h), params - np.diag(h)]), problem)
    rp, rm, h = vec[:n], vec[n:], h[:, None]
    cols = np.where(
        (ok[:n] & ok[n:])[:, None],
        (rp - rm) / (2.0 * h),
        np.where(ok[:n, None], (rp - r0) / h, np.where(ok[n:, None], (r0 - rm) / h, 0.0)),
    )
    return cols.T


def _levenberg_marquardt(p0, problem, max_iters):
    """Damped least squares from the feasible point p0.

    Returns (p, history, iterations, converged).
    """
    p = np.asarray(p0, dtype=float).copy()
    r = _residual_vector(p, problem)[0]
    F = float(r @ r)
    history = [F]
    lam = 1e-3
    converged = False
    iterations = 0
    for _ in range(max_iters):
        J = _jacobian(p, r, problem)
        jtj = J.T @ J
        grad = J.T @ r
        accepted = False
        step = None
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            vec, ok, _ = _residuals(trial, problem)
            if ok[0]:
                r_trial = vec[0]
                F_trial = float(r_trial @ r_trial)
                if F_trial < F:
                    rel_dec = (F - F_trial) / max(F, 1e-300)
                    p, r, F = trial, r_trial, F_trial
                    history.append(F)
                    lam = max(lam / 3.0, 1e-14)
                    accepted = True
                    iterations += 1
                    break
            lam *= 10.0
        if not accepted:
            # no descent within a vanishing trust region: stationary
            small = step is not None and np.linalg.norm(step) < REL_STEP_TOL * max(
                np.linalg.norm(p), 1.0
            )
            converged = bool(small)
            break
        if rel_dec < REL_OBJ_TOL and np.linalg.norm(step) < REL_STEP_TOL * max(
            np.linalg.norm(p), 1.0
        ):
            converged = True
            break
    return p, history, iterations, converged


def _scan_start(problem: IscProblem) -> np.ndarray:
    """Lowest feasible sample of the focal scan, the start of the descent.

    The focal length runs logarithmically over ``[F_SCAN_LO, F_SCAN_HI] *
    cam_w`` with the principal point at the image center and zero skew; the
    kernel takes the samples ``KERNEL_BATCH`` at a time. Raises
    NoFeasibleStart when every sample is infeasible.
    """
    f = np.geomspace(F_SCAN_LO * problem.cam_w, F_SCAN_HI * problem.cam_w, F_SCAN_SAMPLES)
    samples = np.column_stack(
        [f, f, np.zeros_like(f), np.full_like(f, problem.cam_w / 2.0),
         np.full_like(f, problem.cam_h / 2.0)]
    )
    F = np.full(len(samples), np.inf)
    for i in range(0, len(samples), KERNEL_BATCH):
        vec, ok, _ = _residuals(samples[i : i + KERNEL_BATCH], problem)
        F[i : i + KERNEL_BATCH][ok] = np.einsum("ij,ij->i", vec[ok], vec[ok])
    if not np.any(np.isfinite(F)):
        raise NoFeasibleStart("no feasible focal length in the scan range")
    return samples[np.argmin(F)]


def calibrate(problem: IscProblem, max_iters: int = 200) -> CalibResult:
    """Search the five intrinsics parameters for the consistency optimum.

    One focal scan of the penalty-free problem picks the start (see
    ``_scan_start``), and one damped descent from it localizes the
    intrinsics. When the constraint penalty is active, the vanishing pair is
    then re-selected under that much sharper estimate (the image-width
    bootstrap can rank the eigenvector candidates wrongly), and one more
    descent solves the penalized problem from the warm start. Each descent
    stops after at most ``max_iters`` accepted steps; ``iterations`` and
    ``history`` describe the final descent only. Fully deterministic for
    identical inputs.

    Raises NoFeasibleStart when every scan sample is infeasible, and
    ValueError when ``max_iters`` is below 1.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    free = replace(problem, mu=0.0)
    params, history, iterations, converged = _levenberg_marquardt(
        _scan_start(free), free, max_iters
    )
    if problem.mu > 0:
        line, point = constraint_pair(problem.obs1.conic, problem.obs2.conic, Intrinsics(*params))
        problem = replace(problem, constraint=(line, point))
        params, history, iterations, converged = _levenberg_marquardt(params, problem, max_iters)

    K = Intrinsics(*params)
    vec, M = _residual_vector(params, problem)
    norms, objective = _objective_parts(vec, problem)
    n1 = len(problem.obs1)
    proj_K, rotation, translation = decompose(M)
    return CalibResult(
        camera=K,
        proj_matrix=M,
        proj_intrinsics=proj_K,
        rotation=rotation,
        translation=translation,
        objective=objective,
        constraint_residual=float(np.linalg.norm(pole_polar_cross(*problem.constraint, K))),
        per_sphere_rms=(float(norms[:n1].sum() / n1), float(norms[n1:].sum() / (len(norms) - n1))),
        iterations=iterations,
        converged=converged,
        history=history,
    )


# ---------------------------------------------------------------------------
# evaluation against simulator ground truth
# ---------------------------------------------------------------------------

def _relative_errors_pct(est: Intrinsics, true: Intrinsics) -> dict:
    out = {}
    for name in ("fx", "fy", "skew", "u0", "v0"):
        e, t = getattr(est, name), getattr(true, name)
        out[name] = 100.0 * (e - t) / t if t != 0 else float("inf") if e != t else 0.0
    return out


def evaluate_against_truth(result: CalibResult, truth) -> dict:
    """Relative errors in percent against simulator ground truth.

    ``truth`` needs attributes ``camera``, ``proj_intrinsics``, ``rotation``
    and ``translation`` (a SceneTruth works). The report carries one entry
    per intrinsic parameter of both devices, the rotation angle error in
    degrees and the relative translation error.
    """
    r_err = result.rotation @ np.asarray(truth.rotation, dtype=float).T
    angle = float(np.degrees(np.arccos(np.clip((np.trace(r_err) - 1.0) / 2.0, -1.0, 1.0))))
    t_true = np.asarray(truth.translation, dtype=float)
    t_norm = np.linalg.norm(t_true)
    t_rel = float(np.linalg.norm(result.translation - t_true) / max(t_norm, 1e-300))
    return {
        "camera": _relative_errors_pct(result.camera, truth.camera),
        "projector": _relative_errors_pct(result.proj_intrinsics, truth.proj_intrinsics),
        "rotation_deg": angle,
        "translation_rel": t_rel,
    }


def format_error_report(report: dict) -> str:
    """Render the 12-row error table (10 intrinsics + rotation + translation)."""
    rows = []
    for device in ("camera", "projector"):
        for name in ("fx", "fy", "skew", "u0", "v0"):
            rows.append((f"{device}.{name}", f"{report[device][name]:+.3f} %"))
    rows.append(("rotation", f"{report['rotation_deg']:.6f} deg"))
    rows.append(("translation", f"{100.0 * report['translation_rel']:.4f} %"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value:>14}" for name, value in rows)
