"""Robustness campaign over random layouts: 24 noisy two-sphere scenes on
the cppB rig (``conftest.random_layouts``, 0.5 px contour and 0.01
intensity noise), each calibrated at the default mu and at mu = 0.

The camera error is the largest relative error over fx, fy, u0 and v0. The
bounds were fixed before any change to the solver, above the errors it gave
when the campaign was added (median / p90 / max in %): 0.424 / 1.369 /
2.442 at the default mu and 0.457 / 1.188 / 1.861 at mu = 0.
"""

import numpy as np
import pytest

from conftest import random_layouts

from twosphere.calibrate import calibrate, evaluate_against_truth
from twosphere.pipeline import build_problem

LAYOUTS = 24
MUS = {"default_mu": None, "mu_0": 0.0}
# (largest camera error of any layout, largest median) in %, per mu
BOUNDS = {"default_mu": (3.0, 0.6), "mu_0": (2.5, 0.6)}


@pytest.fixture(scope="module")
def camera_errors() -> dict:
    """Per mu: each layout's camera error in %, in layout order."""
    errors = {name: [] for name in MUS}
    for bundle in random_layouts(LAYOUTS):
        problem = build_problem(bundle)
        for name, mu in MUS.items():
            report = evaluate_against_truth(calibrate(problem, mu=mu), bundle.truth)
            errors[name].append(max(abs(report["camera"][k]) for k in ("fx", "fy", "u0", "v0")))
    return errors


@pytest.mark.parametrize("mu", list(MUS))
def test_every_layout_within_bound(camera_errors, mu):
    errors, bound = np.array(camera_errors[mu]), BOUNDS[mu][0]
    assert len(errors) == LAYOUTS
    over = {i: round(e, 3) for i, e in enumerate(errors) if not e <= bound}
    assert not over, f"layouts over {bound} % camera error: {over}"


@pytest.mark.parametrize("mu", list(MUS))
def test_median_within_bound(camera_errors, mu):
    median, bound = float(np.median(camera_errors[mu])), BOUNDS[mu][1]
    assert median <= bound, f"median camera error {median:.3f} % > {bound} %"
