"""Exception types raised across the toolkit.

Every error is a subclass of :class:`TwosphereError` so callers can catch
the whole family with one clause. The CLI maps these onto stable exit
codes (see ``cli.py``).
"""


class TwosphereError(Exception):
    """Base class for all toolkit errors."""


# --- conic fitting / eigen-structure ---

class TooFewPoints(TwosphereError):
    """Not enough points for the requested estimation."""


class DegenerateConic(TwosphereError):
    """Conic fit is rank-deficient (collinear or otherwise degenerate points)."""


class CoincidentConics(TwosphereError):
    """The two conics coincide up to scale; their eigen-structure is undefined."""


# --- sphere pose ---

class NotASphereImage(TwosphereError):
    """Back-projected cone lacks the eigenvalue signature of a sphere silhouette."""


class BehindCamera(TwosphereError):
    """Recovered or specified sphere is not entirely in front of the camera."""


class RayMissesSphere(TwosphereError):
    """A back-projected pixel ray does not intersect the sphere."""


# --- phase codec ---

class DimensionMismatch(TwosphereError):
    """Images in a stack do not share one shape, or not the camera frame's; a
    raster file holds a different number of values than its sidecar states;
    or a bundle's fringes are not one row per image and one column per pixel."""


class OutOfRange(TwosphereError):
    """Phase value outside the representable unwrapped range."""


# --- projector matrix estimation ---

class DegenerateConfiguration(TwosphereError):
    """DLT design matrix has an ambiguous null space (e.g. coplanar points)."""


class PointAtInfinity(TwosphereError):
    """Projection produced a vanishing homogeneous scale."""


class SingularBlock(TwosphereError):
    """Left 3x3 block of a projection matrix is singular."""


# --- calibration ---

class InfeasibleCandidate(TwosphereError):
    """Candidate intrinsics make the observation geometry impossible."""


class NoFeasibleStart(TwosphereError):
    """Initialization scan found no feasible intrinsics candidate."""


# --- reconstruction ---

class NearParallelRays(TwosphereError):
    """Camera and projector rays are too close to parallel to triangulate."""


# --- simulator ---

class SphereOutOfView(TwosphereError):
    """Sphere silhouette is not fully inside the camera or projector frame."""


class SpheresOverlapInImage(TwosphereError):
    """The two sphere silhouettes overlap in the camera image."""


class InvalidBundle(TwosphereError):
    """A bundle file is malformed: the manifest is not a JSON object of
    ``format_version`` 2, names a fringe format other than float32 or holds a
    scene truth that fails its config checks; the pixel list is not whole
    (x, y) pairs inside the frame in strictly row-major order; the fringe
    sidecar lacks its width and height; a fringe value is not finite; or a
    contour CSV is not rows of exactly 2 finite numbers."""


class InvalidConfig(TwosphereError):
    """A scene config fails its field checks; ``problems`` names each failing
    field by its dotted path, e.g. ``camera.fx_px: missing``."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = problems


class InvalidNoise(InvalidConfig):
    """A noise sigma is negative or not finite, or the seed is not a non-negative integer."""
