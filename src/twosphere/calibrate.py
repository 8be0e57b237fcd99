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

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    InfeasibleCandidate,
    NoFeasibleStart,
    NotASphereImage,
    PointAtInfinity,
    RayMissesSphere,
)
from .geometry import Conic, Intrinsics, constraint_pair, pole_polar_cross
from .projector import ProjMatrix, decompose, dlt_estimate, project_points
from .sphere import lift_pixel_to_sphere, sphere_center_from_conic

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

def _residual_vector(params: np.ndarray, problem: IscProblem) -> tuple[np.ndarray, ProjMatrix]:
    """Stacked least-squares residuals for candidate intrinsics parameters.

    Layout: 2 components per correspondence (both spheres, obs1 first), then
    sqrt(mu) times the 3-component pole-polar cross product.

    Raises InfeasibleCandidate whenever the candidate makes the geometry
    impossible (sphere behind camera, rays missing, degenerate projector fit).
    """
    fx, fy, skew, u0, v0 = (float(v) for v in params)
    if not (fx > 0 and fy > 0) or not np.all(np.isfinite(params)):
        raise InfeasibleCandidate("non-positive or non-finite focal candidate")
    K = Intrinsics(fx=fx, fy=fy, skew=skew, u0=u0, v0=v0)
    try:
        pose1 = sphere_center_from_conic(problem.obs1.conic, K, problem.radii[0], pair_gap_tol=None)
        pose2 = sphere_center_from_conic(problem.obs2.conic, K, problem.radii[1], pair_gap_tol=None)
        x1 = lift_pixel_to_sphere(problem.obs1.cam_px, K, pose1)
        x2 = lift_pixel_to_sphere(problem.obs2.cam_px, K, pose2)
        points = np.vstack([x1, x2])
        proj_px = np.vstack([problem.obs1.proj_px, problem.obs2.proj_px])
        M = dlt_estimate(proj_px, points)
        planar = proj_px - project_points(M, points)
    except (NotASphereImage, BehindCamera, RayMissesSphere, DegenerateConfiguration,
            PointAtInfinity) as exc:
        raise InfeasibleCandidate(str(exc)) from exc
    cross = pole_polar_cross(*problem.constraint, K)
    return np.concatenate([planar.ravel(), np.sqrt(problem.mu) * cross]), M


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

def _try_residuals(params, problem):
    try:
        return _residual_vector(params, problem)[0]
    except InfeasibleCandidate:
        return None


def _jacobian(params, r0, problem):
    """Central-difference Jacobian; falls back to one-sided at feasibility edges."""
    cols = []
    for j in range(len(params)):
        h = FD_REL_STEP * max(abs(params[j]), 1.0)
        plus = params.copy()
        plus[j] += h
        minus = params.copy()
        minus[j] -= h
        rp = _try_residuals(plus, problem)
        rm = _try_residuals(minus, problem)
        if rp is not None and rm is not None:
            cols.append((rp - rm) / (2.0 * h))
        elif rp is not None:
            cols.append((rp - r0) / h)
        elif rm is not None:
            cols.append((r0 - rm) / h)
        else:
            cols.append(np.zeros_like(r0))
    return np.column_stack(cols)


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
            r_trial = _try_residuals(trial, problem)
            if r_trial is not None:
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
    cam_w`` with the principal point at the image center and zero skew.
    Raises NoFeasibleStart when every sample is infeasible.
    """
    width = float(problem.cam_w)
    center = (problem.cam_w / 2.0, problem.cam_h / 2.0)
    best_F, start = np.inf, None
    for f in np.geomspace(F_SCAN_LO * width, F_SCAN_HI * width, F_SCAN_SAMPLES):
        params = np.array([f, f, 0.0, center[0], center[1]])
        r = _try_residuals(params, problem)
        F = np.inf if r is None else float(r @ r)
        if F < best_F:
            best_F, start = F, params
    if start is None:
        raise NoFeasibleStart("no feasible focal length in the scan range")
    return start


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
