"""Camera-projector pair calibration from images of two spheres.

Recovers camera intrinsics and the projector matrix (hence projector
intrinsics, rotation and translation) from the silhouette conics and
structured-light correspondences of exactly two spheres, by enforcing that
one shared projector matrix explains both spheres. ``calibrate`` then
refines that estimate with a penalty, weighted by its ``mu``, on the
pole-polar constraint linking the conic pair to the image of the absolute
conic.
A built-in synthetic simulator supplies exact ground truth for verification.
"""

from .calibrate import (
    CalibResult,
    IscProblem,
    SphereObservation,
    calibrate,
    evaluate_against_truth,
    format_error_report,
    isc_objective,
)
from .geometry import (
    Conic,
    Intrinsics,
    constraint_pair,
    fit_conic,
    pole_polar_residual,
)
from .phase import (
    FringeConfig,
    decode_wrapped,
    phase_to_proj_coord,
    unwrap_ladder,
)
from .pipeline import assemble_observations, build_problem, run_calibration
from .projector import (
    ProjMatrix,
    decompose,
    dlt_estimate,
    project_points,
)
from .reconstruct import reconstruct_cloud, triangulate, write_ply
from .simulate import (
    NoiseSpec,
    SceneBundle,
    SceneTruth,
    preset,
    project_sphere_to_conic,
    render_scene,
)
from .sphere import (
    SpherePose,
    lift_pixel_to_sphere,
    sample_interior_pixels,
    sphere_center_from_conic,
)

__version__ = "0.1.0"

__all__ = [
    "CalibResult",
    "Conic",
    "FringeConfig",
    "Intrinsics",
    "IscProblem",
    "NoiseSpec",
    "ProjMatrix",
    "SceneBundle",
    "SceneTruth",
    "SphereObservation",
    "SpherePose",
    "assemble_observations",
    "build_problem",
    "calibrate",
    "constraint_pair",
    "decode_wrapped",
    "decompose",
    "dlt_estimate",
    "evaluate_against_truth",
    "fit_conic",
    "format_error_report",
    "isc_objective",
    "lift_pixel_to_sphere",
    "phase_to_proj_coord",
    "pole_polar_residual",
    "preset",
    "project_points",
    "project_sphere_to_conic",
    "reconstruct_cloud",
    "render_scene",
    "run_calibration",
    "sample_interior_pixels",
    "sphere_center_from_conic",
    "triangulate",
    "unwrap_ladder",
    "write_ply",
]
