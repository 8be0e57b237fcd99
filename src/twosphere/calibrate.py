"""Camera-projector calibration from two sphere observations.

Given the silhouette conics of two spheres of known radius plus dense
camera-pixel to projector-pixel correspondences on each, a candidate camera
intrinsics K determines both spheres' centers, lifts every camera pixel to a
3D surface point, and one projector matrix fitted over both spheres must
reproject every projector pixel: the two spheres' estimates have to agree.
That reprojection term is the objective, and ``_residuals`` is its one
kernel, one loop over the spheres. ``calibrate`` minimizes it over the five
intrinsics, then, unless ``mu`` is 0, descends once more with a pole-polar
penalty appended: the conic pair's vanishing line and point must satisfy
``l ~ K^-T K^-1 v``. The focal scan, the Jacobian and the descent take any
residual function ``fn(P) -> (vec, ok, ...)`` of candidate rows, and no
candidate is evaluated twice in one ``calibrate``.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import (CoincidentConics, InfeasibleCandidate, NoFeasibleStart, TooFewPoints,
                     TwosphereError)
from .geometry import (
    Conic,
    Intrinsics,
    constraint_pair,
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
from .simulate import INTEGER, MATRIX33, NUMBER, VECTOR3, _Fields, _is_vector, _read_intrinsics
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
MAX_ITERS = 200  # accepted steps per descent, a cap: no measured descent took over 46
REL_STEP_TOL = 1e-8
FD_REL_STEP = 1e-5  # central-difference step relative to max(|p_j|, 1)
# Candidate rows per residual-kernel call: a descent trial and its 10
# central-difference probes. The 40-sample focal scan in one call instead of
# four made a noisy cppB calibrate ~4 ms slower and raised its traced peak
# from 3.3 to 11.6 MB.
KERNEL_BATCH = 11


@dataclass(frozen=True)
class SphereObservation:
    """One sphere's fitted silhouette conic and its pixel correspondences."""

    conic: Conic
    cam_px: np.ndarray
    proj_px: np.ndarray

    def __post_init__(self) -> None:
        cam = np.asarray(self.cam_px, dtype=float)
        proj = np.asarray(self.proj_px, dtype=float)
        if cam.ndim != 2 or cam.shape[1] != 2 or cam.shape != proj.shape:
            raise ValueError(f"pixels must be two (n, 2) arrays, got {cam.shape} and {proj.shape}")
        if not (np.all(np.isfinite(cam)) and np.all(np.isfinite(proj))):
            raise ValueError("correspondences contain non-finite values")
        object.__setattr__(self, "cam_px", cam)
        object.__setattr__(self, "proj_px", proj)

    def __len__(self) -> int:
        return len(self.cam_px)


@dataclass(frozen=True)
class IscProblem:
    """Inputs of one calibration run: the spheres' observations, their radii
    in the same order, and the camera image size."""

    observations: tuple[SphereObservation, ...]
    radii: tuple[float, ...]
    cam_w: int
    cam_h: int

    def __post_init__(self) -> None:
        obs = tuple(self.observations)
        if len(obs) != 2:
            raise TwosphereError(f"two sphere observations required, got {len(obs)}")
        for i, o in enumerate(obs):
            if len(o) < 10:
                raise TooFewPoints(
                    f"sphere {i} has {len(o)} valid correspondences, at least 10 are needed"
                )
        if obs[0].conic.allclose(obs[1].conic, tol=1e-10):
            raise CoincidentConics("the two sphere observations share one conic")
        r = np.asarray(self.radii, dtype=float)
        if r.shape != (len(obs),) or not np.all(np.isfinite(r) & (r > 0)):
            raise ValueError(f"sphere radii must be two finite positive numbers, got {self.radii}")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "radii", tuple(r.tolist()))

    @property
    def obs1(self) -> SphereObservation:  # perfbench's tracer reads it; the package does not
        return self.observations[0]

    @cached_property
    def _kernel_inputs(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
        """The residual kernel's inputs that do not depend on K: each sphere's
        camera pixels, coordinate-major, and the stacked projector pixels,
        DLT-normalized, the inverse of that normalization, and as given."""
        proj_px = np.vstack([obs.proj_px for obs in self.observations])
        proj_norm, T2 = normalize_points(proj_px.T)
        cam_px = tuple(np.ascontiguousarray(obs.cam_px.T) for obs in self.observations)
        return cam_px, proj_norm, np.linalg.inv(T2), proj_px


@dataclass
class CalibResult:
    """Calibration output: camera intrinsics, projector matrix and its parts,
    plus diagnostics of the search."""

    camera: Intrinsics
    proj_matrix: ProjMatrix
    proj_intrinsics: Intrinsics
    rotation: np.ndarray
    translation: np.ndarray
    objective: float  # sum of unsquared reprojection norms (isc_objective)
    constraint_residual: float  # ||l_hat x (omega v)_hat|| at the solution
    per_sphere_rms: tuple[float, ...]  # each sphere's residual-norm sum / its count
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
        """Inverse of ``to_json_dict``. Every number must be a finite int or
        float, not a bool, and the focal lengths positive; a ValueError names
        the first field that is not, that is missing or whose parent is not
        an object."""
        read = _Fields(d, "calibration")
        camera, projector = (_read_intrinsics(read, section) for section in ("camera", "projector"))
        M = read("proj_matrix", (lambda v: _is_vector(v, 12), "must be 12 finite numbers"))
        R, T = read("rotation", MATRIX33), read("translation", VECTOR3)
        objective, residual = (read(name, NUMBER) for name in ("objective", "constraint_residual"))
        rms = read("per_sphere_rms", (lambda v: _is_vector(v, 2), "must be 2 finite numbers"))
        iterations = read("iterations", INTEGER)
        converged = read("converged", (lambda v: isinstance(v, bool), "must be true or false"))
        if read.problems:
            raise ValueError(read.problems[0])
        return cls(camera, ProjMatrix.from_json(M), projector, np.asarray(R, float),
                   np.asarray(T, float), objective, residual, tuple(rms), iterations, converged)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _residuals(P: np.ndarray, problem: IscProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked least-squares residuals of up to ``KERNEL_BATCH`` candidates.

    ``P`` holds one (fx, fy, skew, u0, v0) row per candidate. Returns the
    residuals (B, m), a feasibility mask (B,) and the fitted projector
    matrices (B, 3, 4) in the ``ProjMatrix`` gauge. A residual row holds 2
    components per correspondence, sphere by sphere in the problem's order.

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
    cam_px, proj_norm, T2_inv, proj_px = problem._kernel_inputs
    vec = np.full((len(P), 2 * len(proj_px)), np.nan)
    matrices = np.full((len(P), 3, 4), np.nan)

    live = np.flatnonzero(np.all(np.isfinite(P), axis=1) & (P[:, 0] > 0) & (P[:, 1] > 0))
    K, K_inv = intrinsics_matrices(P[live])
    centers, faults = zip(*(sphere_centers(obs.conic, K, r)
                            for obs, r in zip(problem.observations, problem.radii)))
    keep = ~np.any(faults, axis=0)
    live, K_inv = live[keep], K_inv[keep]
    points, misses = zip(*(lift_pixels(px, K_inv, c[keep], r)
                           for px, c, r in zip(cam_px, centers, problem.radii)))
    keep = ~np.any(misses, axis=0)
    live = live[keep]
    points = np.concatenate([x[keep] for x in points], axis=2)
    M, fitted = dlt_stack(proj_norm, T2_inv, points)
    M, gauged = gauge(M)
    keep = fitted & gauged
    live, M, points = live[keep], M[keep], points[keep]
    projected, keep = project_stack(M, points)
    live = live[keep]

    vec[live] = (proj_px - projected[keep].transpose(0, 2, 1)).reshape(len(live), vec.shape[1])
    matrices[live] = M[keep]
    ok = np.zeros(len(P), dtype=bool)
    ok[live] = True
    return vec, ok, matrices


def isc_objective(K: Intrinsics, problem: IscProblem) -> tuple[float, ProjMatrix]:
    """Objective value at candidate intrinsics, with the fitted projector matrix.

    The value is the sum of unsquared reprojection norms over both spheres.
    Geometric impossibilities raise InfeasibleCandidate; the search treats
    those candidates as rejected steps rather than a crash.
    """
    vec, ok, M = _residuals(np.array(astuple(K)), problem)
    if not ok[0]:
        raise InfeasibleCandidate("candidate K makes the sphere or projector geometry impossible")
    return _reprojection_norms(vec[0])[1], ProjMatrix(M[0])


def _reprojection_norms(row: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-correspondence reprojection norms of one ``_residuals`` row, and
    their sum: the objective value."""
    norms = np.linalg.norm(row.reshape(-1, 2), axis=1)
    return norms, float(norms.sum())


# ---------------------------------------------------------------------------
# Levenberg-Marquardt with numeric derivatives over any residual function
# ---------------------------------------------------------------------------

def _batched(fn, P):
    """``fn`` over any number of candidate rows P (B, n), ``KERNEL_BATCH`` per
    call. The solver's ``fn(P)`` returns residual rows (B, m) and a
    feasibility mask (B,) for at most that many rows, then any further
    per-row outputs, which the solver carries along unread."""
    parts = [fn(P[i : i + KERNEL_BATCH]) for i in range(0, len(P), KERNEL_BATCH)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _fd_steps(p):
    return FD_REL_STEP * np.maximum(np.abs(p), 1.0)


def _probes(p):
    """The 2n central-difference probes around p: p + h_j e_j, then p - h_j e_j."""
    h = _fd_steps(p)
    return np.vstack([p + np.diag(h), p - np.diag(h)])


def _jacobian(p, r0, vec, ok):
    """Central-difference Jacobian at p (residual row r0) from the residual
    rows and mask of its ``_probes``; one-sided where a probe is infeasible,
    zero where both are."""
    n = len(p)
    rp, rm, h = vec[:n], vec[n:], _fd_steps(p)[:, None]
    cols = np.where(
        (ok[:n] & ok[n:])[:, None],
        (rp - rm) / (2.0 * h),
        np.where(ok[:n, None], (rp - r0) / h, np.where(ok[n:, None], (r0 - rm) / h, 0.0)),
    )
    return cols.T


def _levenberg_marquardt(fn, p0, max_iters, at=None):
    """Damped least squares of ``fn``'s residuals from the start p0.

    ``at`` is ``fn``'s output at the rows [p0] or [p0, *_probes(p0)], when
    the caller has evaluated them already; otherwise p0 is evaluated here,
    and InfeasibleCandidate raised when ``fn`` masks it. A step's first
    trial is evaluated in one call with the probes around it, which give the
    next Jacobian if the trial is accepted; a retry after a rejection goes
    alone, and its probes follow in one call if it is accepted. The probes
    are left out when the trial's step meets the stop test or no further step
    is allowed, and a trial equal to p is rejected unevaluated, so no
    candidate is evaluated twice.
    Converged means a step, accepted or not, shorter than ``REL_STEP_TOL *
    max(|p|, 1)``: the descent ends there. Returns (p, ``fn``'s output at
    [p] or [p, *_probes(p)], history, iterations, converged).
    """
    p = np.asarray(p0, dtype=float).copy()
    if at is None:
        at = fn(p[None])
        if not at[1][0]:
            raise InfeasibleCandidate("the descent's start is infeasible")
    vec, ok = at[:2]
    r = vec[0]
    F = float(r @ r)
    history = [F]
    lam = 1e-3
    converged = False
    iterations = 0
    probes = (vec[1:], ok[1:]) if len(vec) > 1 else _batched(fn, _probes(p))[:2]
    J = _jacobian(p, r, *probes)
    for _ in range(max_iters):
        jtj = J.T @ J
        grad = J.T @ r
        accepted = retry = False
        step = None
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            if trial.tobytes() != p.tobytes():  # p itself cannot lower F
                stops = np.linalg.norm(step) < REL_STEP_TOL * max(np.linalg.norm(trial), 1.0)
                probed = not stops and iterations + 1 < max_iters
                with_probes = probed and not retry
                rows = np.vstack([trial, _probes(trial)]) if with_probes else trial[None]
                out = _batched(fn, rows)
                vec, ok = out[:2]
                if ok[0] and (F_trial := float(vec[0] @ vec[0])) < F:
                    if probed and not with_probes:  # an accepted retry's probes follow it
                        out = tuple(map(np.concatenate, zip(out, _batched(fn, _probes(trial)))))
                        vec, ok = out[:2]
                    p, at, r, F = trial, out, vec[0], F_trial
                    if probed:
                        J = _jacobian(p, r, vec[1:], ok[1:])
                    history.append(F)
                    lam = max(lam / 3.0, 1e-14)
                    accepted = True
                    iterations += 1
                    break
            lam *= 10.0
            retry = True
        small = step is not None and np.linalg.norm(step) < REL_STEP_TOL * max(
            np.linalg.norm(p), 1.0
        )
        if not accepted or small:
            # no descent within a vanishing trust region, or a step that no
            # longer moves p (what it gains in F is round-off): stationary
            converged = bool(small)
            break
    return p, at, history, iterations, converged


def _scan_start(fn, cam_w, cam_h):
    """Lowest feasible sample of the focal scan, the start of the descent,
    and ``fn``'s output at that one row.

    The focal length runs logarithmically over ``[F_SCAN_LO, F_SCAN_HI] *
    cam_w`` with the principal point at the image center and zero skew.
    Raises NoFeasibleStart when every sample is infeasible.
    """
    f = np.geomspace(F_SCAN_LO * cam_w, F_SCAN_HI * cam_w, F_SCAN_SAMPLES)
    samples = np.column_stack(
        [f, f, np.zeros_like(f), np.full_like(f, cam_w / 2.0), np.full_like(f, cam_h / 2.0)]
    )
    out = _batched(fn, samples)
    vec, ok = out[:2]
    F = np.where(ok, np.einsum("ij,ij->i", vec, vec), np.inf)
    if not np.any(np.isfinite(F)):
        raise NoFeasibleStart("no feasible focal length in the scan range")
    best = np.argmin(F)
    return samples[best], tuple(a[best : best + 1] for a in out)


def calibrate(problem: IscProblem, *, mu: float | None = None) -> CalibResult:
    """Search the five intrinsics parameters for the consistency optimum.

    One focal scan picks the start (see ``_scan_start``), and one damped
    descent of the reprojection residuals localizes the intrinsics. The
    vanishing pair of the two conics is selected under that estimate. When
    ``mu`` is positive (default ``1e4`` times the correspondence count), one
    more descent from the warm start appends ``sqrt(mu)`` times the pair's
    pole-polar cross product to the residuals. Each descent stops after at
    most ``MAX_ITERS`` accepted steps; ``iterations`` and ``history``
    describe the final descent only. The reported ``objective`` is
    ``isc_objective`` at the result, at every ``mu``; the penalty's size is
    ``constraint_residual``. Fully deterministic for identical inputs.

    Raises NoFeasibleStart when every scan sample is infeasible, and
    ValueError when ``mu`` is negative or not finite.
    """
    mu = 1e4 * sum(map(len, problem.observations)) if mu is None else float(mu)
    if not (np.isfinite(mu) and mu >= 0):
        raise ValueError(f"constraint weight must be finite and non-negative, got {mu}")
    fn = lambda P: _residuals(P, problem)  # noqa: E731
    p0, at = _scan_start(fn, problem.cam_w, problem.cam_h)
    params, at, history, iterations, converged = _levenberg_marquardt(fn, p0, MAX_ITERS, at)
    # a rough guess, such as a focal of the image width, can misrank the pairs
    line, point = constraint_pair(*(o.conic for o in problem.observations), Intrinsics(*params))
    if mu > 0:

        def penalized(P, out=None):
            """``fn``'s output at P (``out`` when evaluated already), each
            feasible row with sqrt(mu) times the pair's pole-polar cross
            product appended."""
            vec, ok, M = fn(P) if out is None else out
            cross = np.full((len(P), 3), np.nan)
            cross[ok] = pole_polar_crosses(line, point, intrinsics_matrices(P[ok])[1])
            return np.concatenate([vec, np.sqrt(mu) * cross], axis=1), ok, M

        # the penalized descent starts where the first ended, on its evaluated rows
        rows = params[None] if len(at[0]) == 1 else np.vstack([params, _probes(params)])
        params, at, history, iterations, converged = _levenberg_marquardt(
            penalized, params, MAX_ITERS, penalized(rows, at)
        )

    K = Intrinsics(*params)
    vec, _, M = (a[0] for a in at)
    M = ProjMatrix(M)
    norms, objective = _reprojection_norms(vec[: 2 * sum(map(len, problem.observations))])
    splits = np.cumsum([len(obs) for obs in problem.observations])[:-1]
    proj_K, rotation, translation = decompose(M)
    return CalibResult(
        camera=K,
        proj_matrix=M,
        proj_intrinsics=proj_K,
        rotation=rotation,
        translation=translation,
        objective=objective,
        constraint_residual=float(np.linalg.norm(pole_polar_cross(line, point, K))),
        per_sphere_rms=tuple(float(part.sum() / len(part)) for part in np.split(norms, splits)),
        iterations=iterations,
        converged=converged,
        history=history,
    )


# ---------------------------------------------------------------------------
# evaluation against simulator ground truth
# ---------------------------------------------------------------------------

def _relative_errors_pct(est: Intrinsics, true: Intrinsics) -> dict:
    out = {}
    for name, e in asdict(est).items():
        t = getattr(true, name)
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
        for f in fields(Intrinsics):
            rows.append((f"{device}.{f.name}", f"{report[device][f.name]:+.3f} %"))
    rows.append(("rotation", f"{report['rotation_deg']:.6f} deg"))
    rows.append(("translation", f"{100.0 * report['translation_rel']:.4f} %"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value:>14}" for name, value in rows)
