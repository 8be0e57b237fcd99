from dataclasses import replace

import numpy as np
import pytest

from conftest import exact_observations, exact_problem

from twosphere import (
    Intrinsics,
    IscProblem,
    SceneTruth,
    SpherePose,
    SphereObservation,
    build_problem,
    calibrate,
    constraint_pair,
    evaluate_against_truth,
    format_error_report,
    isc_objective,
    pole_polar_residual,
    run_calibration,
)
from twosphere.calibrate import (
    F_SCAN_HI,
    F_SCAN_LO,
    F_SCAN_SAMPLES,
    _levenberg_marquardt,
    _residual_vector,
)
from twosphere.errors import CoincidentConics, InfeasibleCandidate, NoFeasibleStart
from twosphere.simulate import rotation_about_y


def params_of(K: Intrinsics) -> np.ndarray:
    return np.array([K.fx, K.fy, K.skew, K.u0, K.v0])


def random_scene(rng) -> SceneTruth:
    """Randomized two-sphere rig, retried until geometrically valid."""
    for _ in range(50):
        cam_w, cam_h = 1600, 1200
        K = Intrinsics(
            fx=rng.uniform(900, 2200),
            fy=rng.uniform(900, 2200),
            skew=rng.uniform(-15, 15),
            u0=cam_w / 2 + rng.uniform(-60, 60),
            v0=cam_h / 2 + rng.uniform(-60, 60),
        )
        truth = SceneTruth(
            camera=K,
            cam_w=cam_w,
            cam_h=cam_h,
            proj_intrinsics=Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8),
            proj_w=854,
            proj_h=480,
            rotation=rotation_about_y(rng.uniform(10, 20)),
            translation=-rotation_about_y(15.0) @ np.array([1.0, 0.0, 0.0]),
            spheres=(
                SpherePose(
                    center=[rng.uniform(-0.7, -0.4), rng.uniform(-0.35, -0.15), rng.uniform(3.6, 4.4)],
                    radius=rng.uniform(0.3, 0.5),
                ),
                SpherePose(
                    center=[rng.uniform(0.6, 1.0), rng.uniform(0.2, 0.5), rng.uniform(5.5, 6.5)],
                    radius=rng.uniform(0.45, 0.65),
                ),
            ),
        )
        try:
            exact_problem(truth)
        except Exception:
            continue
        return truth
    raise RuntimeError("no valid random scene found")


class TestIscObjective:
    def test_zero_at_truth(self, truth_small):
        problem = exact_problem(truth_small)
        value, M = isc_objective(truth_small.camera, problem)
        assert value < 1e-6
        line, point = problem.constraint
        assert pole_polar_residual(line, point, truth_small.camera) ** 2 < 1e-12

    def test_gradient_vanishes_at_truth(self, truth_small):
        # central differences at a 1e-4 relative step: the gradient must be
        # small against the curvature scale at the minimum
        problem = exact_problem(truth_small)
        p0 = params_of(truth_small.camera)

        def f(p):
            try:
                return isc_objective(Intrinsics(*p), problem)[0]
            except InfeasibleCandidate:
                return 1e12

        for j in range(5):
            h = 1e-4 * max(abs(p0[j]), 1.0)
            plus, minus = p0.copy(), p0.copy()
            plus[j] += h
            minus[j] -= h
            f_p, f_m, f_0 = f(plus), f(minus), f(p0)
            grad = (f_p - f_m) / (2 * h)
            curvature_scale = (f_p + f_m - 2 * f_0) / h  # curvature * h
            assert abs(grad) < 1e-3 * max(curvature_scale, 1e-12)

    def test_objective_rises_with_inflated_fx(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            truth = random_scene(rng)
            problem = exact_problem(truth)
            at_truth, _ = isc_objective(truth.camera, problem)
            K_bad = Intrinsics(
                fx=truth.camera.fx * 1.1,
                fy=truth.camera.fy,
                skew=truth.camera.skew,
                u0=truth.camera.u0,
                v0=truth.camera.v0,
            )
            try:
                inflated, _ = isc_objective(K_bad, problem)
            except InfeasibleCandidate:
                continue  # barrier counts as worse
            assert inflated > at_truth

    def test_infeasible_candidate_raises(self, truth_small):
        problem = exact_problem(truth_small)
        tiny = Intrinsics(fx=2.0, fy=2.0, skew=0.0, u0=405.0, v0=295.0)
        with pytest.raises(InfeasibleCandidate):
            isc_objective(tiny, problem)


class TestProblemBuild:
    def test_coincident_conics_rejected_before_optimization(self, truth_small):
        obs = exact_observations(truth_small)
        clone = SphereObservation(
            conic=obs[0].conic, cam_px=obs[1].cam_px, proj_px=obs[1].proj_px
        )
        with pytest.raises(CoincidentConics):
            IscProblem.build(obs[0], clone, (0.4, 0.55), truth_small.cam_w, truth_small.cam_h)

    def test_requires_ten_correspondences(self, truth_small):
        obs = exact_observations(truth_small)
        short = SphereObservation(
            conic=obs[0].conic, cam_px=obs[0].cam_px[:9], proj_px=obs[0].proj_px[:9]
        )
        with pytest.raises(ValueError):
            IscProblem.build(short, obs[1], (0.4, 0.55), truth_small.cam_w, truth_small.cam_h)

    def test_default_mu_scales_with_count(self, truth_small):
        problem = exact_problem(truth_small)
        assert problem.mu == pytest.approx(1e4 * (len(problem.obs1) + len(problem.obs2)))

    def test_mu_zero_permitted(self, truth_small):
        problem = exact_problem(truth_small, mu=0.0)
        assert problem.mu == 0.0
        value, _ = isc_objective(truth_small.camera, problem)
        assert value < 1e-6


class TestCalibrate:
    def test_noiseless_recovery_exact_inputs(self, truth_small):
        problem = exact_problem(truth_small)
        result = calibrate(problem)
        true = params_of(truth_small.camera)
        got = params_of(result.camera)
        rel = np.abs(got - true) / np.abs(true)
        assert np.all(rel[[0, 1, 3, 4]] < 1e-6)
        assert abs(got[2] - true[2]) < 1e-3
        assert result.converged
        assert result.constraint_residual < 1e-6

    def test_noiseless_recovery_through_codec(self, bundle_small):
        result, _ = run_calibration(bundle_small)
        true = params_of(bundle_small.truth.camera)
        got = params_of(result.camera)
        rel = np.abs(got - true) / np.abs(true)
        assert np.all(rel[[0, 1, 3, 4]] < 1e-3)
        assert abs(got[2] - true[2]) < 2.0
        # projector side through the decomposition
        proj_true = params_of(bundle_small.truth.proj_intrinsics)
        proj_got = params_of(result.proj_intrinsics)
        assert np.all(np.abs(proj_got - proj_true) / np.abs(proj_true) < 5e-3)

    def test_noisy_recovery_through_codec(self, bundle_small_noisy):
        # paper-regime noise at the small scale: errors stay well under 10%
        result, _ = run_calibration(bundle_small_noisy)
        truth = bundle_small_noisy.truth
        true = params_of(truth.camera)
        got = params_of(result.camera)
        rel = 100 * np.abs(got - true) / np.abs(true)
        assert np.all(rel[[0, 1, 3, 4]] < 10.0)

    def test_reported_objective_is_the_objective(self, bundle_small_noisy):
        # one objective definition: the reported value is isc_objective at
        # the reported camera, and the constraint residual is the shared
        # pole-polar function's
        problem = build_problem(bundle_small_noisy, mu=0.0)
        result = calibrate(problem)
        assert result.objective == isc_objective(result.camera, problem)[0]
        expected = pole_polar_residual(*problem.constraint, result.camera)
        assert expected > 0
        assert abs(result.constraint_residual - expected) <= 1e-12 * expected

    def test_stride_and_max_iters_reach_the_search(self, bundle_small):
        def n_corr(problem):
            return len(problem.obs1) + len(problem.obs2)

        result, coarse = run_calibration(bundle_small, stride=8, max_iters=1)
        assert n_corr(coarse) < n_corr(build_problem(bundle_small, stride=4))
        assert result.iterations <= 1

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_rejected(self, truth_small, max_iters):
        with pytest.raises(ValueError):
            calibrate(exact_problem(truth_small), max_iters)

    def test_deterministic_repeat(self, truth_small):
        problem = exact_problem(truth_small)
        r1 = calibrate(problem)
        r2 = calibrate(problem)
        assert params_of(r1.camera).tolist() == params_of(r2.camera).tolist()
        assert r1.history == r2.history
        assert r1.iterations == r2.iterations

    def test_monotone_accepted_objective(self, truth_small):
        problem = exact_problem(truth_small)
        result = calibrate(problem)
        hist = np.array(result.history)
        assert np.all(np.diff(hist) <= 0)

    def test_swap_symmetry(self, truth_small):
        problem = exact_problem(truth_small)
        swapped = IscProblem.build(
            problem.obs2,
            problem.obs1,
            (problem.radii[1], problem.radii[0]),
            problem.cam_w,
            problem.cam_h,
        )
        r1 = calibrate(problem)
        r2 = calibrate(swapped)
        np.testing.assert_allclose(
            params_of(r1.camera), params_of(r2.camera), rtol=1e-10, atol=1e-7
        )

    def test_no_feasible_start(self, truth_small):
        # correspondences placed outside the silhouettes cannot be lifted
        # for any candidate intrinsics
        obs = exact_observations(truth_small)
        bad = []
        for o in obs:
            outside = o.cam_px + 400.0
            bad.append(SphereObservation(conic=o.conic, cam_px=outside, proj_px=o.proj_px))
        problem = IscProblem.build(
            bad[0], bad[1], (0.4, 0.55), truth_small.cam_w, truth_small.cam_h
        )
        with pytest.raises(NoFeasibleStart):
            calibrate(problem)

    def test_result_serialization_round_trip(self, truth_small):
        from twosphere.calibrate import CalibResult

        result = calibrate(exact_problem(truth_small))
        again = CalibResult.from_json_dict(result.to_json_dict())
        assert again.camera == result.camera
        np.testing.assert_allclose(again.proj_matrix.m, result.proj_matrix.m)
        assert again.converged == result.converged


class TestSingleStart:
    """Each pass of calibrate descends once, from one start. The former search
    also descended from the next well-separated scan minima and kept the
    lowest end point; on the small noisy scene every one of those starts
    reaches calibrate's camera."""

    @staticmethod
    def former_starts(problem):
        """The former rule: the three lowest feasible focal-scan samples
        whose focals lie pairwise more than 0.25 apart in log."""
        cx, cy = problem.cam_w / 2.0, problem.cam_h / 2.0
        scan = []
        for f in np.geomspace(F_SCAN_LO * problem.cam_w, F_SCAN_HI * problem.cam_w, F_SCAN_SAMPLES):
            try:
                r = _residual_vector(np.array([f, f, 0.0, cx, cy]), problem)[0]
            except InfeasibleCandidate:
                continue
            scan.append((float(r @ r), f))
        focals = []
        for _, f in sorted(scan):
            if all(abs(np.log(f / s)) > 0.25 for s in focals):
                focals.append(f)
            if len(focals) == 3:
                break
        return [np.array([f, f, 0.0, cx, cy]) for f in focals]

    @pytest.mark.parametrize("mu", [0.0, None], ids=["mu0", "default_mu"])
    def test_former_starts_reach_the_same_camera(self, bundle_small_noisy, mu):
        problem = build_problem(bundle_small_noisy, mu=mu)
        expected = params_of(calibrate(problem).camera)
        if problem.mu > 0:
            # the penalized pass: its pair is re-selected at the penalty-free optimum
            free_camera = calibrate(replace(problem, mu=0.0)).camera
            pair = constraint_pair(problem.obs1.conic, problem.obs2.conic, free_camera)
            problem = replace(problem, constraint=pair)
        starts = self.former_starts(problem)
        assert len(starts) >= 2
        for p0 in starts:
            got = _levenberg_marquardt(p0, problem, 200)[0]
            np.testing.assert_allclose(got, expected, rtol=1e-5)


class TestEvaluate:
    def test_zero_errors_at_truth(self, truth_small):
        result = calibrate(exact_problem(truth_small))
        report = evaluate_against_truth(result, truth_small)
        for device in ("camera", "projector"):
            for value in report[device].values():
                assert abs(value) < 1e-3
        assert report["rotation_deg"] < 1e-4
        assert report["translation_rel"] < 1e-4

    def test_relative_error_definition(self, truth_small):
        import dataclasses

        result = calibrate(exact_problem(truth_small))
        inflated = dataclasses.replace(
            result,
            camera=Intrinsics(
                fx=truth_small.camera.fx * 1.075,
                fy=truth_small.camera.fy,
                skew=truth_small.camera.skew,
                u0=truth_small.camera.u0,
                v0=truth_small.camera.v0,
            ),
        )
        report = evaluate_against_truth(inflated, truth_small)
        assert report["camera"]["fx"] == pytest.approx(7.5, abs=1e-6)

    def test_report_has_twelve_rows(self, truth_small):
        result = calibrate(exact_problem(truth_small))
        text = format_error_report(evaluate_against_truth(result, truth_small))
        assert len(text.splitlines()) == 12
