"""The capture data model: the scene truth and the JSON field rules that read it
and calib.json, the signal pixel list, and the bundle directory format. Reading
a bundle or a calibration needs nothing of the renderer (``simulate``)."""

from __future__ import annotations

import json
import numbers
import sys
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import imageio
from .errors import DimensionMismatch, InvalidBundle, InvalidConfig, InvalidNoise
from .geometry import Intrinsics
from .phase import MAX_UNWRAP_RATIO, FringeConfig, is_ladder
from .projector import ProjMatrix, compose
from .sphere import SpherePose

__all__ = ["NoiseSpec", "SceneTruth", "SceneBundle", "rotation_about_y", "signal_pixels"]

BOX_PAD_PX = 8  # margin of the signal pixel list around each contour's points, in x and y
BLOCK_ROWS = 1 << 15  # signal pixel rows the disc lift and reconstruct_cloud take at once
MANIFEST_NAME = "manifest.json"
PIXELS_NAME = "pixels.i32"  # the signal pixel list, raw int32 (x, y) pairs
FRINGES_NAME = "fringes.f32"  # the fringe images, one row per image (``imageio``)
FORMAT_VERSION = 2  # the one bundle layout read: manifest, contours, pixels, fringes
IMAGE_FORMAT = "f32"  # the one fringe format: raw float32 (``imageio``)
FRINGE_STEPS = 4  # default phase steps per pattern set
FRINGE_FREQS = (1, 8, 64)  # default fringe counts per frame, coarse to fine
ROTATION_TOL = 1e-9  # largest |R^T R - I| entry and |det R - 1| of a projector rotation


# ---------------------------------------------------------------------------
# JSON field rules and the one field reader (scene configs, calib.json)
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    """A finite real number, not a bool: not NaN, infinite or too large for a float."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_vector(x, n: int) -> bool:
    return isinstance(x, list) and len(x) == n and all(_is_number(v) for v in x)


def _is_rotation(R) -> bool:
    R = np.asarray(R, dtype=float)  # a rotation's entries lie in [-1, 1]: no product overflows
    return np.abs(R).max() <= 1.0 + ROTATION_TOL and max(
        np.abs(R.T @ R - np.eye(3)).max(), abs(np.linalg.det(R) - 1.0)) <= ROTATION_TOL


# checks for ``_Fields``: (predicate, what the field must be when it fails)
NUMBER = (_is_number, "must be a finite number")
INTEGER = (_is_integer, "must be an integer")
POSITIVE = (lambda x: x > 0, "must be positive")
NON_NEGATIVE = (lambda x: x >= 0, "must be non-negative")
FOCAL = (lambda x: x > 0, "must be positive (focal lengths must be positive)")
VECTOR3 = (lambda x: _is_vector(x, 3), "must be a 3-vector of finite numbers")
MATRIX33 = (lambda x: isinstance(x, list) and len(x) == 3 and all(_is_vector(r, 3) for r in x),
            "must be a 3x3 matrix of finite numbers")
ROTATION = (_is_rotation, f"must be a rotation: R^T R = I and det R = 1 within {ROTATION_TOL:g}")
TWO_SPHERES = (lambda s: isinstance(s, (list, tuple)) and len(s) == 2,
               "must hold exactly two spheres")
# a scene's ladder starts at 1 cycle per frame, the absolute rung ``unwrap_ladder`` needs
LADDER = (lambda f: is_ladder(f) and f[0] == 1,
          f"must start at 1 and increase strictly, each at most {MAX_UNWRAP_RATIO:g}x the last")
_REQUIRED = object()


class _Fields:
    """A JSON document read one field at a time: ``read(path, *checks)`` walks
    the dotted path (``spheres.0.radius_lu``, named ``spheres[0].radius_lu``)
    and returns the value, or records ``<name>: <what is wrong>`` once in
    ``problems`` and returns None. A field with a ``default`` may be missing."""

    def __init__(self, doc, name: str):
        self.doc, self.name, self.problems = doc, name, []

    def __call__(self, path: str, *checks, default=_REQUIRED):
        keys = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = self.doc
        for depth, key in enumerate(keys):
            if isinstance(key, str) and not isinstance(node, dict):
                return self._fail(keys[:depth], "must be an object")
            if isinstance(key, str) and key not in node:
                return self._fail(keys[:depth + 1], "missing") if default is _REQUIRED else default
            node = node[key]
        for valid, phrase in checks:
            if not valid(node):
                return self._fail(keys, phrase)
        return node

    def _fail(self, keys, phrase: str) -> None:
        name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
        problem = f"{name or self.name}: {phrase}"
        if problem not in self.problems:
            self.problems.append(problem)


def _read_intrinsics(read: _Fields, section: str, suffix="", wrong="must be a finite number"):
    """Intrinsics from the fields ``<section>.<name><suffix>``, or None when one is
    not a finite number (``wrong`` says so) or a focal length is not positive."""
    values = [read(f"{section}.{f.name}{suffix}", (_is_number, wrong),
                   *([FOCAL] if f.name in ("fx", "fy") else [])) for f in fields(Intrinsics)]
    return None if None in values else Intrinsics(*values)


@dataclass(frozen=True)
class NoiseSpec:
    contour_sigma: float = 0.0  # px, along the local contour normal
    intensity_sigma: float = 0.0  # on [0, 1] intensities
    seed: int = 0

    def __post_init__(self) -> None:
        sigmas = (self.contour_sigma, self.intensity_sigma)
        if not all(_is_number(s) and s >= 0 for s in sigmas):
            raise InvalidNoise(f"noise sigmas must be finite and >= 0, got {sigmas}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise InvalidNoise(f"seed must be an integer >= 0, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {
            "contour_sigma_px": self.contour_sigma,
            "intensity_sigma": self.intensity_sigma,
            "seed": self.seed,
        }


def _read_noise(read: _Fields) -> NoiseSpec | None:
    """A config's noise section, each field optional."""
    sigmas = [read(f"noise.{key}", NUMBER, NON_NEGATIVE, default=0.0)
              for key in ("contour_sigma_px", "intensity_sigma")]
    seed = read("noise.seed", INTEGER, NON_NEGATIVE, default=0)  # an integer, not truncated
    return None if None in (*sigmas, seed) else NoiseSpec(*map(float, sigmas), seed)


def rotation_about_y(angle_deg: float) -> np.ndarray:
    a = np.deg2rad(angle_deg)
    return np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )


@dataclass(frozen=True)
class SceneTruth:
    """Ground truth of one synthetic scene (camera frame is the world frame).
    ValueError unless it holds two spheres, a rotation and a fringe ladder
    from 1 cycle per frame up."""

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
        for name, (valid, phrase) in (("spheres", TWO_SPHERES), ("rotation", ROTATION),
                                      ("freqs", LADDER)):
            if not valid(getattr(self, name)):
                raise ValueError(f"{name} {phrase}, got {getattr(self, name)}")

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
        return {
            "camera": _device_section(self.camera, self.cam_w, self.cam_h),
            "projector": _device_section(self.proj_intrinsics, self.proj_w, self.proj_h),
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
    def from_config(cls, cfg) -> "SceneTruth":
        """Read a scene config in one pass that checks each field as it reads
        it. InvalidConfig lists every problem under its dotted path (an
        InvalidNoise when all are in the noise section); a sphere that does not
        clear the camera raises BehindCamera."""
        read = _Fields(cfg, "config")
        devices = [(_read_intrinsics(read, s, "_px", "missing or not a finite number"),
                    *(read(f"{s}.{key}", INTEGER, POSITIVE) for key in _FRAME_KEYS))
                   for s in ("camera", "projector")]  # (intrinsics, width, height) each
        pose = read("projector_pose", (
            lambda p: isinstance(p, dict) and ("rotation" in p or "yaw_deg" in p),
            "needs rotation/translation_lu or yaw_deg/baseline_lu")) or {}
        if "rotation" in pose:
            rotation = read("projector_pose.rotation", MATRIX33, ROTATION)
            translation = read("projector_pose.translation_lu", VECTOR3)
        elif pose:
            yaw = read("projector_pose.yaw_deg", NUMBER)
            baseline = read("projector_pose.baseline_lu", NUMBER, POSITIVE)
        spheres = [(read(f"spheres.{i}.center_lu", VECTOR3),
                    read(f"spheres.{i}.radius_lu", NUMBER, POSITIVE))
                   for i in range(len(read("spheres", TWO_SPHERES) or ()))]
        n_steps = read("fringe.n_steps", INTEGER, (lambda n: n >= 3, "must be at least 3"),
                       default=FRINGE_STEPS)
        integers = (lambda f: isinstance(f, list) and all(map(_is_integer, f)),
                    "must be a list of integers")
        freqs = read("fringe.frequencies_cpf", integers, LADDER, default=list(FRINGE_FREQS))
        noise = _read_noise(read)
        if read.problems:
            noise_only = all(p.startswith("noise") for p in read.problems)
            raise (InvalidNoise if noise_only else InvalidConfig)(*read.problems)
        if "rotation" not in pose:
            rotation = rotation_about_y(float(yaw))
            translation = -rotation @ np.array([float(baseline), 0.0, 0.0])
        spheres = tuple(SpherePose(center=c, radius=float(r)) for c, r in spheres)
        return cls(*devices[0], *devices[1], rotation, translation, spheres, n_steps,
                   tuple(freqs), noise)


# a config's camera or projector section: the frame size, then the intrinsics, in pixels
_FRAME_KEYS = ("width_px", "height_px")


def _device_section(K: Intrinsics, w: int, h: int) -> dict:
    keys = _FRAME_KEYS + tuple(f"{f.name}_px" for f in fields(Intrinsics))
    return dict(zip(keys, (w, h, *astuple(K))))


def _padded_boxes(contours, w: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending, unique row-major frame indices (int64) of the union of
    the contours' bounding boxes, each padded by ``BOX_PAD_PX`` and clipped
    to the w x h frame, and a mask of those in a contour's padded row hull.

    A row of a contour's box is in its hull from floor(min x) - ``BOX_PAD_PX``
    to ceil(max x) + ``BOX_PAD_PX`` of the contour points whose y lies within
    ``BOX_PAD_PX`` of the row; a row without such points is not.
    """
    keys = [np.zeros(0, dtype=np.int64)]
    for pts in contours:
        x, y = pts[:, 0], pts[:, 1]
        cols = np.arange(max(0, int(np.floor(x.min())) - BOX_PAD_PX),
                         min(w, int(np.ceil(x.max())) + BOX_PAD_PX + 1))
        rows = np.arange(max(0, int(np.floor(y.min())) - BOX_PAD_PX),
                         min(h, int(np.ceil(y.max())) + BOX_PAD_PX + 1))[:, None]
        near = np.abs(rows - y) <= BOX_PAD_PX
        lo = np.where(near, np.floor(x), np.inf).min(axis=1, keepdims=True) - BOX_PAD_PX
        hi = np.where(near, np.ceil(x), -np.inf).max(axis=1, keepdims=True) + BOX_PAD_PX
        # the key 2 * index + (outside the hull) sorts a pixel inside first
        keys.append(((rows * w + cols) * 2 + ((cols < lo) | (cols > hi))).ravel())
    # a stable sort merges the boxes' sorted runs: ~1 ms on cppB on a 2-core VM,
    # where np.unique (numpy 2.4) took ~100 ms
    keys = np.sort(np.concatenate(keys), kind="stable")
    keys = keys[np.diff(keys >> 1, prepend=-1) > 0]  # in a hull if any contour's is
    return keys >> 1, (keys & 1) == 0


def _pixel_pairs(flat: np.ndarray, w: int) -> np.ndarray:
    """(n, 2) int32 (x, y) of row-major frame indices."""
    pixels = np.empty((len(flat), 2), dtype=np.int32)
    np.divmod(flat, w, out=(pixels[:, 1], pixels[:, 0]))  # written as int32, no int64 pairs
    return pixels


def signal_pixels(contours, w: int, h: int) -> np.ndarray:
    """(n, 2) int32 (x, y) of the union of the contours' padded row hulls
    (see ``_padded_boxes``): each disc and a ring of about ``BOX_PAD_PX``
    around it, in the w x h frame; row-major, unique."""
    boxes, in_hull = _padded_boxes(contours, w, h)
    return _pixel_pairs(boxes[in_hull], w)


@dataclass
class SceneBundle:
    """Everything one simulated capture produces.

    ``pixels`` is the signal pixel list (see ``signal_pixels``), int32:
    each disc and a ring of about ``BOX_PAD_PX`` around it, row by row.
    ``stacks[(orientation, freq)]`` holds the n_steps camera images for that
    pattern set, each the 1-D float32 array of the image's values at
    ``pixels``. ``truth`` is the scene that was rendered; calibration reads
    only its frame sizes, fringe configs and sphere radii, and the rest
    serves to check a result.
    """

    truth: SceneTruth
    contours: list  # per sphere: (m, 2) contour points, noisy if configured
    pixels: np.ndarray  # (n, 2) int32 (x, y), row-major
    stacks: dict

    @property
    def flat_index(self) -> np.ndarray:
        """Row-major frame index ``y * w + x`` of each pixel, ascending, in
        int64: it passes 2**31 on a frame of that many pixels."""
        return self.pixels[:, 1].astype(np.int64) * self.truth.cam_w + self.pixels[:, 0]

    def stack_list(self, cfg: FringeConfig) -> list:
        """Per-frequency stacks for one orientation, aligned with cfg.freqs."""
        return [self.stacks[(cfg.orientation, f)] for f in cfg.freqs]

    # -- persistence ---------------------------------------------------

    def save(self, out_dir) -> None:
        """Write the bundle directory: the manifest, the contours, the pixel
        list and the fringe images, exactly what the bundle holds.

        ``pixels.i32`` is ``pixels`` as raw little-endian int32 (x, y) pairs.
        ``fringes.f32`` (``imageio``) holds one row per image, vertical then
        horizontal, frequency-major, step-minor, each row the image's values
        at ``pixels``; the rows are written one after another, not stacked.
        """
        out = Path(out_dir)
        (out / "contours").mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": FORMAT_VERSION,
            "image_format": IMAGE_FORMAT,
            "truth": self.truth.to_config(),
        }
        with open(out / MANIFEST_NAME, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        for i, pts in enumerate(self.contours):
            np.savetxt(out / "contours" / f"sphere{i}.csv", pts, fmt="%.17g", delimiter=",")
        self.pixels.astype("<i4", copy=False).tofile(out / PIXELS_NAME)
        imageio.write_float32(out / FRINGES_NAME, [
            img for cfg in (self.truth.fringe_vertical, self.truth.fringe_horizontal)
            for stack in self.stack_list(cfg) for img in stack])

    @staticmethod
    def checked_manifest(manifest) -> dict:
        """``manifest``; InvalidBundle unless it is a JSON object of format
        version ``FORMAT_VERSION``."""
        if not isinstance(manifest, dict):
            raise InvalidBundle(f"{MANIFEST_NAME} is not a JSON object")
        version = manifest.get("format_version")
        if not (_is_integer(version) and version == FORMAT_VERSION):
            raise InvalidBundle(f"format_version {version!r}: only {FORMAT_VERSION} is read")
        return manifest

    @classmethod
    def load(cls, bundle_dir) -> "SceneBundle":
        """Read a bundle directory that ``save`` wrote.

        The fringe images are read in one piece, and each image in ``stacks``
        is a row of that one array. The pixel list must hold whole (x, y)
        pairs inside the frame, strictly in row-major order, and the fringe
        array one row per image and one column per pixel, every value finite
        (see ``decode_wrapped``). Any other entry of the directory is ignored.
        """
        root = Path(bundle_dir)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no {MANIFEST_NAME} in {root}")
        manifest = cls.checked_manifest(json.loads(manifest_path.read_text()))
        image_format = manifest.get("image_format", IMAGE_FORMAT)
        if image_format != IMAGE_FORMAT:
            raise InvalidBundle(f"image_format {image_format!r}: only {IMAGE_FORMAT!r} is read")
        try:
            truth = SceneTruth.from_config(manifest.get("truth"))
        except InvalidConfig as exc:
            raise InvalidBundle(f"manifest truth {exc}") from exc

        contours = [_read_contour(path) for path in sorted((root / "contours").glob("sphere*.csv"))]
        pixels = _read_pixels(root / PIXELS_NAME, truth)
        try:
            fringes = imageio.read_float32(root / FRINGES_NAME)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidBundle(
                f"{FRINGES_NAME}.json: no integer width and height ({exc!r})") from exc
        shape = (2 * len(truth.freqs) * truth.n_steps, len(pixels))
        if fringes.shape != shape:
            raise DimensionMismatch(f"{FRINGES_NAME}: {fringes.shape[0]} images of "
                                    f"{fringes.shape[1]} pixels, not {shape[0]} of {shape[1]}")
        if not all(np.isfinite(row).all() for row in fringes):  # one row's mask at a time
            raise InvalidBundle(f"{FRINGES_NAME}: a value that is not finite")
        rows = iter(fringes)  # in the order save wrote them
        stacks = {(cfg.orientation, freq): [next(rows) for _ in range(cfg.n_steps)]
                  for cfg in (truth.fringe_vertical, truth.fringe_horizontal)
                  for freq in cfg.freqs}
        return cls(truth=truth, contours=contours, pixels=pixels, stacks=stacks)


def _read_pixels(path: Path, truth: SceneTruth) -> np.ndarray:
    """The (n, 2) int32 pixel list that ``save`` wrote to ``path``;
    InvalidBundle unless it holds whole (x, y) pairs inside the truth's frame,
    strictly in row-major order."""
    size = path.stat().st_size
    if size % 8:
        raise InvalidBundle(f"{path.name}: {size} bytes, not whole (x, y) pairs")
    pixels = np.fromfile(path, dtype="<i4").reshape(-1, 2)
    # min and max of the int32 columns; comparing with [w, h] would cast every value to int64
    if len(pixels) and (pixels.min() < 0 or pixels[:, 0].max() >= truth.cam_w
                        or pixels[:, 1].max() >= truth.cam_h):
        raise InvalidBundle(f"{path.name}: a pixel outside the {truth.cam_w}x{truth.cam_h} frame")
    # each pair lies on a later row, or on the same row further right: the int32
    # columns' differences, which the bounds above keep from overflowing
    dx, dy = np.diff(pixels[:, 0]), np.diff(pixels[:, 1])
    if not np.all((dy > 0) | ((dy == 0) & (dx > 0))):
        raise InvalidBundle(f"{path.name}: pixels not strictly in row-major order")
    return pixels


def _read_contour(path: Path) -> np.ndarray:
    """A contour CSV as (m, 2) rows of exactly 2 finite numbers, (x, y), at
    least one row; InvalidBundle if it holds anything else."""
    name = f"contours/{path.name}"
    try:
        with warnings.catch_warnings():  # numpy warns on a file without rows
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidBundle(f"{name}: not rows of 2 numbers ({exc})") from exc
    if rows.size and rows.shape[1] != 2:
        raise InvalidBundle(f"{name}: not rows of 2 numbers ({rows.shape[1]} per row)")
    rows = rows.reshape(-1, 2)
    if not np.all(np.isfinite(rows)):
        raise InvalidBundle(f"{name}: not rows of 2 finite numbers")
    if not len(rows):
        raise InvalidBundle(f"{name}: no points")
    return rows
