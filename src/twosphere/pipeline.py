"""Glue from a captured (or simulated) bundle to a calibration problem.

Stages: fit each sphere's contour conic, sample interior pixels away from
the silhouettes, decode both fringe orientations to projector pixel
coordinates at those pixels only, and keep those with valid phase in both
orientations.
"""

from __future__ import annotations

import logging

import numpy as np

from .calibrate import CalibResult, IscProblem, SphereObservation, calibrate
from .errors import DegenerateConic, TooFewPoints
from .geometry import fit_conic
from .phase import decode_phase, phase_to_proj_coord
from .scene import SceneBundle
from .sphere import sample_interior_pixels

__all__ = ["decode_bundle", "assemble_observations", "build_problem", "run_calibration"]

log = logging.getLogger(__name__)


def decode_bundle(
    bundle: SceneBundle, at: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2) decoded projector (x, y) of the rows ``at`` of
    ``bundle.pixels`` (all rows by default), and the (n,) mask of those whose
    phase is valid in both the vertical (codes x) and the horizontal (codes y)
    pattern set. Only those rows are decoded; the decode is per pixel, so the
    result equals the full decode indexed at ``at``."""
    proj_px, valid = [], True
    for cfg in (bundle.truth.fringe_vertical, bundle.truth.fringe_horizontal):
        stacks = [[img[at] for img in stack] for stack in bundle.stack_list(cfg)]
        phase, mask = decode_phase(stacks, cfg)
        proj_px.append(phase_to_proj_coord(phase, cfg.top_freq, cfg.coded_span))
        valid = valid & mask
    return np.column_stack(proj_px), valid


def assemble_observations(
    bundle: SceneBundle, stride: int | None = None
) -> list[SphereObservation]:
    """Fitted conic plus pixel correspondences for every sphere in the bundle.

    ``stride`` is the sampling grid step in pixels; None gives ~24 samples
    across each silhouette. A sample is kept when its (x, y) is in
    ``bundle.pixels``. All spheres' samples are decoded in one call.
    """
    flat = bundle.flat_index
    w = bundle.truth.cam_w
    conics = []
    for i, contour in enumerate(bundle.contours):
        try:
            conics.append(fit_conic(contour))
        except (TooFewPoints, DegenerateConic) as exc:
            raise DegenerateConic(f"sphere {i}'s contour cannot be fitted: {exc}") from exc
    samples, rows = [], []
    for i, conic in enumerate(conics):
        if not conic.is_real_ellipse:
            raise DegenerateConic(f"sphere {i}'s contour does not fit a real ellipse")
        pix = sample_interior_pixels(conic, stride=stride)
        # an off-frame sample can alias another pixel's flat index: match (x, y)
        x, y = pix.T.astype(np.int64)
        at = np.searchsorted(flat, y * w + x)
        ok = at < len(flat)
        ok[ok] = (bundle.pixels[at[ok]] == pix[ok]).all(axis=1)
        samples.append(pix[ok])
        rows.append(at[ok])
    # the empty start lets a bundle without contours reach IscProblem, which names the count
    proj_px, valid = decode_bundle(bundle, np.concatenate([np.zeros(0, int), *rows]))
    split = np.cumsum([len(at) for at in rows])[:-1]
    observations = []
    for i, (conic, pix, px, ok) in enumerate(
        zip(conics, samples, np.split(proj_px, split), np.split(valid, split))
    ):
        log.info("sphere %d: %d valid correspondence pixels", i, np.count_nonzero(ok))
        observations.append(SphereObservation(conic=conic, cam_px=pix[ok], proj_px=px[ok]))
    return observations


def build_problem(bundle: SceneBundle, stride: int | None = None) -> IscProblem:
    obs = assemble_observations(bundle, stride)
    radii = [s.radius for s in bundle.truth.spheres]
    return IscProblem(obs, radii, bundle.truth.cam_w, bundle.truth.cam_h)


def run_calibration(
    bundle: SceneBundle, stride: int | None = None, mu: float | None = None
) -> tuple[CalibResult, IscProblem]:
    """Full pipeline: decode, assemble, optimize (``calibrate`` at ``mu``)."""
    problem = build_problem(bundle, stride)
    result = calibrate(problem, mu=mu)
    log.info(
        "calibration %s after %d iterations, objective %.6g",
        "converged" if result.converged else "stopped",
        result.iterations,
        result.objective,
    )
    return result, problem
