"""Glue from a captured (or simulated) bundle to a calibration problem.

Stages: fit each sphere's contour conic, decode both fringe orientations to
absolute phase, sample interior pixels away from the silhouettes, keep those
with valid phase in both orientations, and map their phases to projector
pixel coordinates.
"""

from __future__ import annotations

import logging

import numpy as np

from .calibrate import CalibResult, IscProblem, SphereObservation, calibrate
from .errors import TwosphereError
from .geometry import fit_conic
from .phase import PhaseMap, phase_to_proj_coord
from .simulate import SceneBundle
from .sphere import sample_interior_pixels

__all__ = ["decode_bundle", "assemble_observations", "build_problem", "run_calibration"]

log = logging.getLogger(__name__)


def decode_bundle(bundle: SceneBundle) -> tuple[PhaseMap, PhaseMap]:
    """Absolute phase maps for the vertical (codes x) and horizontal (codes y)
    pattern sets, 1-D and aligned with ``bundle.pixels``."""
    return tuple(
        PhaseMap.from_stacks(bundle.stack_list(cfg), cfg)
        for cfg in (bundle.truth.fringe_vertical, bundle.truth.fringe_horizontal)
    )


def assemble_observations(
    bundle: SceneBundle, stride: int | None = None
) -> list[SphereObservation]:
    """Fitted conic plus pixel correspondences for every sphere in the bundle.

    ``stride`` is the sampling grid step in pixels; None gives ~24 samples
    across each silhouette.
    """
    if len(bundle.contours) != 2:
        raise TwosphereError(
            f"two sphere observations required, bundle has {len(bundle.contours)}"
        )
    map_v, map_h = decode_bundle(bundle)
    valid = map_v.mask & map_h.mask
    flat = bundle.flat_index
    w, h = bundle.truth.cam_w, bundle.truth.cam_h
    observations = []
    for i, contour in enumerate(bundle.contours):
        conic = fit_conic(contour)
        pix = sample_interior_pixels(conic, stride=stride)
        # off-frame pixels would alias to other rows of the flat index
        pix = pix[
            (pix[:, 0] >= 0) & (pix[:, 0] < w) & (pix[:, 1] >= 0) & (pix[:, 1] < h)
        ]
        want = pix[:, 1].astype(int) * w + pix[:, 0].astype(int)
        at = np.minimum(np.searchsorted(flat, want), len(flat) - 1)
        ok = (flat[at] == want) & valid[at]
        pix, at = pix[ok], at[ok]
        proj_px = np.column_stack(
            [
                phase_to_proj_coord(map_v.phase[at], map_v.top_freq, map_v.span),
                phase_to_proj_coord(map_h.phase[at], map_h.top_freq, map_h.span),
            ]
        )
        log.info("sphere %d: %d valid correspondence pixels", i, len(pix))
        observations.append(SphereObservation(conic=conic, cam_px=pix, proj_px=proj_px))
    return observations


def build_problem(
    bundle: SceneBundle, stride: int | None = None, mu: float | None = None
) -> IscProblem:
    obs = assemble_observations(bundle, stride)
    radii = tuple(s.radius for s in bundle.truth.spheres)
    return IscProblem.build(
        obs[0], obs[1], radii, bundle.truth.cam_w, bundle.truth.cam_h, mu=mu
    )


def run_calibration(
    bundle: SceneBundle,
    stride: int | None = None,
    mu: float | None = None,
    max_iters: int = 200,
) -> tuple[CalibResult, IscProblem]:
    """Full pipeline: decode, assemble, extract the constraint, optimize."""
    problem = build_problem(bundle, stride, mu)
    result = calibrate(problem, max_iters)
    log.info(
        "calibration %s after %d iterations, objective %.6g",
        "converged" if result.converged else "stopped",
        result.iterations,
        result.objective,
    )
    return result, problem
