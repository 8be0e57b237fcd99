"""Synthetic camera-projector scenes with exact ground truth.

The simulator renders everything the physical rig would produce (contour
points, phase-shifted fringe stacks seen by the camera) together with the
hidden exact correspondences, so every estimation stage of the toolkit can
be checked against an independent analytic oracle.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import imageio
from .errors import (BehindCamera, DimensionMismatch, InvalidBundle, InvalidNoise,
                     SphereOutOfView, SpheresOverlapInImage)
from .geometry import Conic, Intrinsics, sample_conic_points
from .phase import FringeConfig, pattern_value
from .projector import Correspondences, ProjMatrix, compose, project_points
from .sphere import SpherePose, lift_pixel_to_sphere, sample_interior_pixels

__all__ = [
    "NoiseSpec",
    "SceneTruth",
    "SceneBundle",
    "preset",
    "PRESET_NAMES",
    "project_sphere_to_conic",
    "render_scene",
    "rotation_about_y",
    "signal_pixels",
    "validate_config",
]

CONTOUR_SAMPLES = 256
BOX_PAD_PX = 8  # margin around each contour's bounding box in the signal pixel list
MANIFEST_NAME = "manifest.json"
IMAGE_FORMAT = "f32"  # the one fringe format: raw float32 frames (``imageio``)
FRINGE_STEPS = 4  # default phase steps per pattern set
FRINGE_FREQS = (1, 8, 64)  # default fringe counts per frame, coarse to fine


@dataclass(frozen=True)
class NoiseSpec:
    contour_sigma: float = 0.0  # px, along the local contour normal
    intensity_sigma: float = 0.0  # on [0, 1] intensities
    seed: int = 0

    def __post_init__(self) -> None:
        sigmas = (self.contour_sigma, self.intensity_sigma)
        if not all(isinstance(s, numbers.Real) and 0 <= s < np.inf for s in sigmas):
            raise InvalidNoise(f"noise sigmas must be finite and >= 0, got {sigmas}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise InvalidNoise(f"seed must be an integer >= 0, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {
            "contour_sigma_px": self.contour_sigma,
            "intensity_sigma": self.intensity_sigma,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        return cls(
            contour_sigma=float(d.get("contour_sigma_px", 0.0)),
            intensity_sigma=float(d.get("intensity_sigma", 0.0)),
            seed=d.get("seed", 0),  # not int(): a non-integer seed is rejected, not truncated
        )


def rotation_about_y(angle_deg: float) -> np.ndarray:
    a = np.deg2rad(angle_deg)
    return np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )


@dataclass(frozen=True)
class SceneTruth:
    """Ground truth of one synthetic scene (camera frame is the world frame)."""

    camera: Intrinsics
    cam_w: int
    cam_h: int
    proj_intrinsics: Intrinsics
    proj_w: int
    proj_h: int
    rotation: np.ndarray  # projector orientation relative to the camera
    translation: np.ndarray
    spheres: tuple[SpherePose, ...]
    n_steps: int = FRINGE_STEPS
    freqs: tuple[int, ...] = FRINGE_FREQS
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))
        object.__setattr__(self, "spheres", tuple(self.spheres))

    @property
    def proj_matrix(self) -> ProjMatrix:
        return compose(self.proj_intrinsics, self.rotation, self.translation)

    @property
    def fringe_vertical(self) -> FringeConfig:
        return FringeConfig(self.n_steps, self.freqs, self.proj_w, self.proj_h, "vertical")

    @property
    def fringe_horizontal(self) -> FringeConfig:
        return FringeConfig(self.n_steps, self.freqs, self.proj_w, self.proj_h, "horizontal")

    def with_noise(self, noise: NoiseSpec) -> "SceneTruth":
        return replace(self, noise=noise)

    def to_config(self) -> dict:
        cam = self.camera
        prj = self.proj_intrinsics
        return {
            "camera": {
                "width_px": self.cam_w,
                "height_px": self.cam_h,
                "fx_px": cam.fx,
                "fy_px": cam.fy,
                "skew_px": cam.skew,
                "u0_px": cam.u0,
                "v0_px": cam.v0,
            },
            "projector": {
                "width_px": self.proj_w,
                "height_px": self.proj_h,
                "fx_px": prj.fx,
                "fy_px": prj.fy,
                "skew_px": prj.skew,
                "u0_px": prj.u0,
                "v0_px": prj.v0,
            },
            "projector_pose": {
                "rotation": [[float(v) for v in row] for row in self.rotation],
                "translation_lu": [float(v) for v in self.translation],
            },
            "spheres": [
                {"center_lu": [float(v) for v in s.center], "radius_lu": float(s.radius)}
                for s in self.spheres
            ],
            "fringe": {"n_steps": self.n_steps, "frequencies_cpf": list(self.freqs)},
            "noise": self.noise.to_dict(),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "SceneTruth":
        """Build from a validated config dict (see ``validate_config``)."""
        cam = cfg["camera"]
        prj = cfg["projector"]
        pose = cfg["projector_pose"]
        if "rotation" in pose:
            rotation = np.asarray(pose["rotation"], dtype=float)
            translation = np.asarray(pose["translation_lu"], dtype=float)
        else:
            rotation = rotation_about_y(float(pose["yaw_deg"]))
            center = np.array([float(pose["baseline_lu"]), 0.0, 0.0])
            translation = -rotation @ center
        fringe = cfg.get("fringe", {})
        return cls(
            camera=Intrinsics(
                fx=cam["fx_px"], fy=cam["fy_px"], skew=cam["skew_px"],
                u0=cam["u0_px"], v0=cam["v0_px"],
            ),
            cam_w=int(cam["width_px"]),
            cam_h=int(cam["height_px"]),
            proj_intrinsics=Intrinsics(
                fx=prj["fx_px"], fy=prj["fy_px"], skew=prj["skew_px"],
                u0=prj["u0_px"], v0=prj["v0_px"],
            ),
            proj_w=int(prj["width_px"]),
            proj_h=int(prj["height_px"]),
            rotation=rotation,
            translation=translation,
            spheres=tuple(
                SpherePose(center=np.asarray(s["center_lu"], dtype=float), radius=float(s["radius_lu"]))
                for s in cfg["spheres"]
            ),
            n_steps=int(fringe.get("n_steps", FRINGE_STEPS)),
            freqs=tuple(int(f) for f in fringe.get("frequencies_cpf", FRINGE_FREQS)),
            noise=NoiseSpec.from_dict(cfg.get("noise", {})),
        )


def _is_number(x) -> bool:
    """A finite JSON number: int or float, not bool, NaN, infinite or too large for a float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vector(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(_is_number(v) for v in x)


def validate_config(cfg: dict) -> list[str]:
    """Field-level diagnostics for a scene config; empty list when valid.

    Every number must be a finite int or float (a bool is not a number), and
    frame sizes, fringe counts and the seed must be integers.
    """
    problems: list[str] = []
    if not isinstance(cfg, dict):
        return ["config: top level must be a JSON object"]

    for section in ("camera", "projector"):
        dev = cfg.get(section)
        if not isinstance(dev, dict):
            problems.append(f"{section}: missing section")
            continue
        for fld in ("width_px", "height_px"):
            if not _is_integer(dev.get(fld)) or dev[fld] <= 0:
                problems.append(f"{section}.{fld}: missing or not a positive integer")
        for fld in ("fx_px", "fy_px", "skew_px", "u0_px", "v0_px"):
            if not _is_number(dev.get(fld)):
                problems.append(f"{section}.{fld}: missing or not a finite number")
            elif fld in ("fx_px", "fy_px") and dev[fld] <= 0:
                problems.append(f"{section}.{fld}: must be positive")

    pose = cfg.get("projector_pose")
    if not isinstance(pose, dict):
        problems.append("projector_pose: missing section")
    elif "rotation" in pose:
        rot = pose["rotation"]
        if not (isinstance(rot, list) and len(rot) == 3
                and all(_is_vector(row, 3) for row in rot)):
            problems.append("projector_pose.rotation: must be a 3x3 matrix of finite numbers")
        if not _is_vector(pose.get("translation_lu"), 3):
            problems.append("projector_pose.translation_lu: must be a 3-vector of finite numbers")
    elif "yaw_deg" in pose:
        if not _is_number(pose["yaw_deg"]):
            problems.append("projector_pose.yaw_deg: must be a finite number")
        if not _is_number(pose.get("baseline_lu")) or pose["baseline_lu"] <= 0:
            problems.append("projector_pose.baseline_lu: must be positive")
    else:
        problems.append("projector_pose: needs rotation/translation_lu or yaw_deg/baseline_lu")

    spheres = cfg.get("spheres")
    if not isinstance(spheres, list) or len(spheres) != 2:
        problems.append("spheres: exactly two spheres required")
    else:
        for i, s in enumerate(spheres):
            if not isinstance(s, dict):
                problems.append(f"spheres[{i}]: must be an object")
                continue
            if not _is_vector(s.get("center_lu"), 3):
                problems.append(f"spheres[{i}].center_lu: must be a 3-vector of finite numbers")
            if not _is_number(s.get("radius_lu")) or s["radius_lu"] <= 0:
                problems.append(f"spheres[{i}].radius_lu: must be positive")

    fringe = cfg.get("fringe", {})
    if not isinstance(fringe, dict):
        problems.append("fringe: must be an object")
    elif fringe:
        n_steps = fringe.get("n_steps", FRINGE_STEPS)
        if not _is_integer(n_steps) or n_steps < 3:
            problems.append("fringe.n_steps: integer >= 3 required")
        freqs = fringe.get("frequencies_cpf", list(FRINGE_FREQS))
        if not isinstance(freqs, list) or any(not _is_integer(f) or f <= 0 for f in freqs):
            problems.append("fringe.frequencies_cpf: positive integers required")
        elif any(b <= a or b / a > 8 for a, b in zip(freqs, freqs[1:])):
            problems.append("fringe.frequencies_cpf: strictly increasing, ratio <= 8")

    noise = cfg.get("noise", {})
    if not isinstance(noise, dict):
        problems.append("noise: must be an object")
    else:
        for fld in ("contour_sigma_px", "intensity_sigma"):
            sigma = noise.get(fld, 0.0)
            if not _is_number(sigma) or sigma < 0:
                problems.append(f"noise.{fld}: finite non-negative number required")
        seed = noise.get("seed", 0)
        if not _is_integer(seed) or seed < 0:
            problems.append("noise.seed: non-negative integer required")
    return problems


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

def signal_pixels(contours, w: int, h: int) -> np.ndarray:
    """(n, 2) integer (x, y) of the union of the contours' bounding boxes, each
    padded by ``BOX_PAD_PX`` and clipped to the w x h frame; row-major, unique."""
    flat = [np.zeros(0, dtype=np.int64)]
    for pts in contours:
        x0 = max(0, int(np.floor(pts[:, 0].min())) - BOX_PAD_PX)
        x1 = min(w, int(np.ceil(pts[:, 0].max())) + BOX_PAD_PX + 1)
        y0 = max(0, int(np.floor(pts[:, 1].min())) - BOX_PAD_PX)
        y1 = min(h, int(np.ceil(pts[:, 1].max())) + BOX_PAD_PX + 1)
        flat.append((np.arange(y0, y1)[:, None] * w + np.arange(x0, x1)).ravel())
    # a stable sort merges the boxes' sorted runs: ~1 ms on cppB on a 2-core VM,
    # where np.unique (numpy 2.4) took ~100 ms
    flat = np.sort(np.concatenate(flat), kind="stable")
    flat = flat[np.diff(flat, prepend=-1) > 0]
    return np.column_stack([flat % w, flat // w])


@dataclass
class SceneBundle:
    """Everything one simulated capture produces.

    ``pixels`` is the signal pixel list (see ``signal_pixels``).
    ``stacks[(orientation, freq)]`` holds the n_steps camera images for that
    pattern set, each the 1-D float32 array of the image's values at
    ``pixels``. ``oracle`` carries the hidden exact correspondences; consumer
    code must treat it as ground truth for verification only.
    """

    truth: SceneTruth
    contours: list  # per sphere: (m, 2) contour points, noisy if configured
    analytic_conics: list  # per sphere: exact silhouette Conic
    pixels: np.ndarray  # (n, 2) integer (x, y), row-major
    stacks: dict
    oracle: list | None  # per sphere: Correspondences, or None when stripped

    @property
    def flat_index(self) -> np.ndarray:
        """Row-major frame index ``y * w + x`` of each pixel, ascending."""
        return self.pixels[:, 1] * self.truth.cam_w + self.pixels[:, 0]

    def stack_list(self, cfg: FringeConfig) -> list:
        """Per-frequency stacks for one orientation, aligned with cfg.freqs."""
        return [self.stacks[(cfg.orientation, f)] for f in cfg.freqs]

    # -- persistence ---------------------------------------------------

    def save(self, out_dir) -> None:
        """Write the bundle directory (manifest, contours, fringes, oracle).
        Fringe files are full float32 frames, 0 outside ``pixels``."""
        out = Path(out_dir)
        (out / "contours").mkdir(parents=True, exist_ok=True)
        (out / "fringes").mkdir(exist_ok=True)
        manifest = {
            "format_version": 1,
            "image_format": IMAGE_FORMAT,
            "truth": self.truth.to_config(),
        }
        with open(out / MANIFEST_NAME, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        for i, pts in enumerate(self.contours):
            np.savetxt(out / "contours" / f"sphere{i}.csv", pts, fmt="%.17g", delimiter=",")
        flat = self.flat_index
        image = np.zeros((self.truth.cam_h, self.truth.cam_w), dtype=np.float32)
        frame = image.reshape(-1)  # one buffer; only ``flat`` is rewritten
        for (orientation, freq), stack in sorted(self.stacks.items()):
            for k, values in enumerate(stack):
                frame[flat] = values
                imageio.write_float32(_fringe_path(out, orientation, freq, k), image)
        if self.oracle is not None:
            (out / "oracle").mkdir(exist_ok=True)
            for i, corr in enumerate(self.oracle):
                table = np.column_stack([corr.cam_px, corr.proj_px, corr.points])
                np.savetxt(
                    out / "oracle" / f"sphere{i}.csv",
                    table,
                    fmt="%.17g",
                    delimiter=",",
                    header="x_c,y_c,x_p,y_p,X,Y,Z",
                )

    @classmethod
    def load(cls, bundle_dir) -> "SceneBundle":
        root = Path(bundle_dir)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {root}")
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict):
            raise InvalidBundle(f"{MANIFEST_NAME} is not a JSON object")
        image_format = manifest.get("image_format", IMAGE_FORMAT)
        if image_format != IMAGE_FORMAT:
            raise InvalidBundle(f"image_format {image_format!r}: only {IMAGE_FORMAT!r} is read")
        problems = validate_config(manifest.get("truth"))
        if problems:
            raise InvalidBundle("manifest truth " + "; ".join(problems))
        truth = SceneTruth.from_config(manifest["truth"])

        contours = []
        for path in sorted((root / "contours").glob("sphere*.csv")):
            contours.append(_read_rows(path, 2))
        pixels = signal_pixels(contours, truth.cam_w, truth.cam_h)
        flat = pixels[:, 1] * truth.cam_w + pixels[:, 0]

        stacks = {}
        for orientation in ("vertical", "horizontal"):
            for freq in truth.freqs:
                stack = []
                for k in range(truth.n_steps):
                    path = _fringe_path(root, orientation, freq, k)
                    try:
                        img = imageio.read_float32(path)
                    except (KeyError, TypeError, ValueError) as exc:
                        raise InvalidBundle(
                            f"{path.name}.json: no integer width and height ({exc!r})"
                        ) from exc
                    if img.shape != (truth.cam_h, truth.cam_w):
                        raise DimensionMismatch(f"{path.name}: wrong frame size {img.shape}")
                    stack.append(img.ravel()[flat])
                stacks[(orientation, freq)] = stack

        oracle = None
        oracle_dir = root / "oracle"
        if oracle_dir.is_dir():
            oracle = []
            for path in sorted(oracle_dir.glob("sphere*.csv")):
                table = _read_rows(path, 7)
                oracle.append(
                    Correspondences(cam_px=table[:, :2], proj_px=table[:, 2:4], points=table[:, 4:7])
                )

        analytic = [project_sphere_to_conic(s, truth.camera) for s in truth.spheres]
        return cls(truth=truth, contours=contours, analytic_conics=analytic,
                   pixels=pixels, stacks=stacks, oracle=oracle)


def _read_rows(path: Path, columns: int) -> np.ndarray:
    """A bundle CSV as rows of ``columns`` numbers; InvalidBundle if it holds anything else."""
    try:
        return np.loadtxt(path, delimiter=",").reshape(-1, columns)
    except ValueError as exc:
        raise InvalidBundle(f"{path.parent.name}/{path.name}: not rows of {columns} numbers "
                            f"({exc})") from exc


def _fringe_path(root: Path, orientation: str, freq: int, step: int) -> Path:
    """A bundle's fringe file for one pattern image, e.g. ``fringes/v_f064_s2.f32``."""
    return root / "fringes" / f"{orientation[0]}_f{freq:03d}_s{step}.f32"


def _check_in_frame(points: np.ndarray, w: int, h: int, what: str) -> None:
    if (
        points[:, 0].min() < 0.5
        or points[:, 1].min() < 0.5
        or points[:, 0].max() > w - 1.5
        or points[:, 1].max() > h - 1.5
    ):
        raise SphereOutOfView(f"{what} silhouette leaves the frame")


def _faces_projector(points: np.ndarray, pose: SpherePose, proj_center: np.ndarray) -> np.ndarray:
    """True where the sphere's surface at ``points`` faces the projector centre."""
    normals = (points - pose.center) / pose.radius
    return np.einsum("ni,ni->n", normals, proj_center[None, :] - points) > 0


def render_scene(truth: SceneTruth) -> SceneBundle:
    """Render fringe stacks, contour point sets and hidden correspondences.

    Deterministic for a fixed seed: every noise stream derives from
    ``SeedSequence([seed, purpose, index])`` so render order cannot matter.

    Raises SphereOutOfView / SpheresOverlapInImage on infeasible geometry.
    """
    if len(truth.spheres) != 2:
        raise ValueError("a scene holds exactly two spheres")
    cam = truth.camera
    proj_m = truth.proj_matrix
    proj_center = proj_m.center()
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

    pixels = signal_pixels(contours, truth.cam_w, truth.cam_h)
    oracle = []
    lit_pixels = []  # per sphere: (index into pixels, coded projector (x, y))
    for pose, conic in zip(truth.spheres, conics):
        # hidden exact correspondences on interior pixels facing the projector
        pix = sample_interior_pixels(conic)
        points = lift_pixel_to_sphere(pix, cam, pose)
        lit = _faces_projector(points, pose, proj_center)
        pix, points = pix[lit], points[lit]
        proj_px = project_points(proj_m, points)
        oracle.append(Correspondences(cam_px=pix, proj_px=proj_px, points=points))

        # every lit signal pixel of the disc, with the exact projector
        # coordinate of the surface point it sees
        at = np.flatnonzero(conic.normalized().evaluate(pixels) < 0)
        points = lift_pixel_to_sphere(pixels[at], cam, pose)
        lit = _faces_projector(points, pose, proj_center)
        lit_pixels.append((at[lit], project_points(proj_m, points[lit])))

    # fringe stacks at the signal pixels: the pattern at each lit pixel's
    # coded coordinate, 0 at every other pixel, plus per-pixel noise
    stacks = {}
    image_index = 0
    for cfg in (truth.fringe_vertical, truth.fringe_horizontal):
        axis = 0 if cfg.orientation == "vertical" else 1
        for freq in cfg.freqs:
            stack = []
            for k in range(cfg.n_steps):
                img = np.zeros(len(pixels), dtype=np.float32)
                for at, coded in lit_pixels:
                    img[at] = pattern_value(freq, k, cfg.n_steps, coded[:, axis], cfg.coded_span)
                if truth.noise.intensity_sigma > 0:
                    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, image_index]))
                    noise = rng.standard_normal(len(pixels), dtype=np.float32)
                    noise *= truth.noise.intensity_sigma
                    img += noise
                stack.append(img)
                image_index += 1
            stacks[(cfg.orientation, freq)] = stack

    return SceneBundle(
        truth=truth,
        contours=contours,
        analytic_conics=conics,
        pixels=pixels,
        stacks=stacks,
        oracle=oracle,
    )
