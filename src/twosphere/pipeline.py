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


def _contour_rois(bundle: SceneBundle, pad: int = 8) -> list[tuple[int, int, int, int]]:
    """Per-sphere (y0, y1, x0, x1) crops around the contour bounding boxes."""
    sample = next(iter(bundle.stacks.values()))[0]
    h, w = sample.shape
    rois = []
    for pts in bundle.contours:
        x0 = max(0, int(np.floor(pts[:, 0].min())) - pad)
        x1 = min(w, int(np.ceil(pts[:, 0].max())) + pad + 1)
        y0 = max(0, int(np.floor(pts[:, 1].min())) - pad)
        y1 = min(h, int(np.ceil(pts[:, 1].max())) + pad + 1)
        rois.append((y0, y1, x0, x1))
    return rois


def decode_bundle(bundle: SceneBundle) -> tuple[PhaseMap, PhaseMap]:
    """Absolute phase maps for the vertical (codes x) and horizontal (codes y)
    pattern sets.

    Decoding runs inside regions of interest around the sphere contours;
    pixels elsewhere carry no fringe signal and are reported invalid.
    """
    sample = next(iter(bundle.stacks.values()))[0]
    h, w = sample.shape
    rois = _contour_rois(bundle)

    maps = []
    for cfg in (bundle.truth.fringe_vertical, bundle.truth.fringe_horizontal):
        stacks = bundle.stack_list(cfg)
        phase = np.zeros((h, w))
        modulation = np.zeros((h, w))
        mask = np.zeros((h, w), dtype=bool)
        for y0, y1, x0, x1 in rois:
            crops = [[img[y0:y1, x0:x1] for img in stack] for stack in stacks]
            pm = PhaseMap.from_stacks(crops, cfg)
            phase[y0:y1, x0:x1] = pm.phase
            modulation[y0:y1, x0:x1] = pm.modulation
            mask[y0:y1, x0:x1] = pm.mask
        maps.append(PhaseMap(phase=phase, mask=mask, modulation=modulation,
                             top_freq=cfg.top_freq, span=cfg.coded_span))
    return maps[0], maps[1]


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

    h, w = valid.shape
    observations = []
    for i, contour in enumerate(bundle.contours):
        conic = fit_conic(contour)
        pix = sample_interior_pixels(conic, stride=stride)
        pix = pix[
            (pix[:, 0] >= 0) & (pix[:, 0] < w) & (pix[:, 1] >= 0) & (pix[:, 1] < h)
        ]
        ix = pix[:, 0].astype(int)
        iy = pix[:, 1].astype(int)
        ok = valid[iy, ix]
        pix, ix, iy = pix[ok], ix[ok], iy[ok]
        proj_px = np.column_stack(
            [
                phase_to_proj_coord(map_v.phase[iy, ix], map_v.top_freq, map_v.span),
                phase_to_proj_coord(map_h.phase[iy, ix], map_h.top_freq, map_h.span),
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
