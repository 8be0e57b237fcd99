"""Glue from a captured (or simulated) bundle to a calibration problem.

Stages: decode both fringe orientations to projector pixel coordinates, fit
each sphere's contour conic, sample interior pixels away from the
silhouettes, and keep those with valid phase in both orientations.
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


def decode_bundle(bundle: SceneBundle) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) decoded projector (x, y) of each row of ``bundle.pixels``, and
    the (n,) mask of pixels whose phase is valid in both the vertical (codes x)
    and the horizontal (codes y) pattern set."""
    maps = [
        PhaseMap.from_stacks(bundle.stack_list(cfg), cfg)
        for cfg in (bundle.truth.fringe_vertical, bundle.truth.fringe_horizontal)
    ]
    proj_px = np.column_stack([phase_to_proj_coord(m.phase, m.top_freq, m.span) for m in maps])
    return proj_px, maps[0].mask & maps[1].mask


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
    proj_px, valid = decode_bundle(bundle)
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
        log.info("sphere %d: %d valid correspondence pixels", i, len(pix))
        observations.append(SphereObservation(conic=conic, cam_px=pix, proj_px=proj_px[at]))
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
