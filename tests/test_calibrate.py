from dataclasses import replace

import numpy as np
import pytest

import importlib

from conftest import SPHERES, exact_observations, exact_problem, make_small_truth

from twosphere import (
    Conic,
    Intrinsics,
    IscProblem,
    NoiseSpec,
    SceneTruth,
    SpherePose,
    SphereObservation,
    build_problem,
    calibrate,
    constraint_pair,
    evaluate_against_truth,
    format_error_report,
    isc_objective,
    lift_pixel_to_sphere,
    pole_polar_residual,
    preset,
    render_scene,
    run_calibration,
)
from twosphere.calibrate import (
    F_SCAN_HI,
    F_SCAN_LO,
    F_SCAN_SAMPLES,
    FD_REL_STEP,
    KERNEL_BATCH,
    _batched,
    _jacobian,
    _levenberg_marquardt,
    _probes,
    _residuals,
    _scan_start,
)
from twosphere.errors import (
    BehindCamera,
    CoincidentConics,
    DegenerateConfiguration,
    InfeasibleCandidate,
    NoFeasibleStart,
    NotASphereImage,
    PointAtInfinity,
    RayMissesSphere,
    SingularBlock,
    TooFewPoints,
    TwosphereError,
)
from twosphere.geometry import homogenize, pole_polar_cross
from twosphere.scene import rotation_about_y

calibrate_module = importlib.import_module("twosphere.calibrate")


def params_of(K: Intrinsics) -> np.ndarray:
    return np.array([K.fx, K.fy, K.skew, K.u0, K.v0])


def conics_of(problem):
    return [obs.conic for obs in problem.observations]


def n_correspondences(problem):
    return sum(len(obs) for obs in problem.observations)


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
        line, point = constraint_pair(*conics_of(problem), truth_small.camera)
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


def reference_residuals(params, problem):
    """One candidate's residual row and projector matrix, computed step by
    step: a cone eigendecomposition per sphere, ray lifting, a DLT by full
    SVD of the 2n x 12 design matrix, and the gauge. Raises the error of the
    first step that fails."""
    fx, fy, skew, u0, v0 = params
    if not (fx > 0 and fy > 0 and np.all(np.isfinite(params))):
        raise InfeasibleCandidate("focal")
    K = np.array([[fx, skew, u0], [0.0, fy, v0], [0.0, 0.0, 1.0]])
    K_inv = np.linalg.inv(K)
    points = []
    for obs, radius in zip(problem.observations, problem.radii):
        q = K.T @ obs.conic.matrix @ K
        evals, evecs = np.linalg.eigh(q / np.linalg.norm(q))
        if np.min(np.abs(evals)) < 1e-12:
            raise NotASphereImage("degenerate")
        lone = [i for i in range(3) if np.sum(np.sign(evals) == np.sign(evals[i])) == 1]
        if len(lone) != 1:
            raise NotASphereImage("signs")
        lam_lone = abs(evals[lone[0]])
        lam_pair = np.mean(np.abs(np.delete(evals, lone[0])))
        axis = evecs[:, lone[0]] if evecs[2, lone[0]] >= 0 else -evecs[:, lone[0]]
        center = axis * radius * np.sqrt((lam_pair + lam_lone) / lam_lone)
        if not center[2] > radius:
            raise BehindCamera("behind")
        dirs = homogenize(obs.cam_px) @ K_inv.T
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        b = dirs @ center
        disc = b * b - (center @ center - radius**2)
        if np.any(disc < -1e-12 * (center @ center)):
            raise RayMissesSphere("miss")
        points.append((b - np.sqrt(np.maximum(disc, 0.0)))[:, None] * dirs)
    X = np.vstack(points)
    xp = np.vstack([obs.proj_px for obs in problem.observations])

    def normalization(pts):
        c = pts.mean(axis=0)
        s = np.sqrt(pts.shape[1]) / max(np.mean(np.linalg.norm(pts - c, axis=1)), 1e-300)
        T = np.diag([s] * pts.shape[1] + [1.0])
        T[:-1, -1] = -s * c
        return T

    T2, T3 = normalization(xp), normalization(X)
    xn = homogenize(xp) @ T2.T
    Xn = homogenize(X) @ T3.T
    A = np.zeros((2 * len(X), 12))
    A[0::2, 4:8] = -xn[:, 2:3] * Xn
    A[0::2, 8:12] = xn[:, 1:2] * Xn
    A[1::2, 0:4] = xn[:, 2:3] * Xn
    A[1::2, 8:12] = -xn[:, 0:1] * Xn
    _, sv, vt = np.linalg.svd(A, full_matrices=False)
    if sv[-2] <= 1e-10 * sv[0] or sv[-1] / sv[-2] > 0.99:
        raise DegenerateConfiguration("ambiguous")
    M = np.linalg.inv(T2) @ vt[-1].reshape(3, 4) @ T3
    if np.linalg.norm(M[2, :3]) < 1e-14:
        raise SingularBlock("third row")
    M = M / np.linalg.norm(M[2, :3])
    if abs(np.linalg.det(M[:, :3])) < 1e-14:
        raise SingularBlock("left block")
    M = M if np.linalg.det(M[:, :3]) > 0 else -M
    hom = homogenize(X) @ M.T
    if np.any(np.abs(hom[:, 2]) <= 1e-12 * np.linalg.norm(hom, axis=1)):
        raise PointAtInfinity("infinity")
    planar = xp - hom[:, :2] / hom[:, 2:3]
    return planar.ravel(), M


def residual_fn(problem):
    """The solver's ``fn(P) -> (vec, ok)`` over ``problem``: what ``calibrate``
    passes it, less the fitted projector matrices."""
    return lambda P: _residuals(P, problem)[:2]


def penalized_fn(problem, pair, mu):
    """``residual_fn`` with ``sqrt(mu)`` times the pair's pole-polar cross
    product appended to each feasible row, as ``calibrate``'s penalized pass
    descends on it."""
    def fn(P):
        vec, ok = residual_fn(problem)(P)
        cross = np.full((len(P), 3), np.nan)
        cross[ok] = [pole_polar_cross(*pair, Intrinsics(*p)) for p in P[ok]]
        return np.hstack([vec, np.sqrt(mu) * cross]), ok
    return fn


def scan_start(problem):
    return _scan_start(residual_fn(problem), problem.cam_w, problem.cam_h)[0]


def scan_samples(problem):
    f = np.geomspace(F_SCAN_LO * problem.cam_w, F_SCAN_HI * problem.cam_w, F_SCAN_SAMPLES)
    return np.array([[v, v, 0.0, problem.cam_w / 2.0, problem.cam_h / 2.0] for v in f])


def jacobian_probes(params):
    """The 2 x 5 central-difference probes ``_jacobian`` evaluates."""
    h = FD_REL_STEP * np.maximum(np.abs(params), 1.0)
    return np.vstack([params + np.diag(h), params - np.diag(h)])


def kernel_in_chunks(P, problem):
    parts = [_residuals(P[i : i + KERNEL_BATCH], problem) for i in range(0, len(P), KERNEL_BATCH)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


@pytest.fixture(scope="module")
def cppB_noisy_problem():
    truth = preset("cppB").with_noise(NoiseSpec(contour_sigma=0.5, intensity_sigma=0.01, seed=3))
    return build_problem(render_scene(truth))


@pytest.fixture(scope="module")
def cppB_outlier_problem():
    """cppB at intensity sigma 0.1: fringe-order outliers, many rejected trials."""
    truth = preset("cppB").with_noise(NoiseSpec(intensity_sigma=0.1, seed=2))
    return build_problem(render_scene(truth))


class TestResidualKernel:
    """The batched kernel against a step-by-step single-candidate reference."""

    @pytest.mark.parametrize("scene", ["small_exact", "small_noisy", "cppB_noisy"])
    def test_members_match_reference(self, scene, request, truth_small):
        if scene == "small_exact":
            problem = exact_problem(truth_small)
        elif scene == "small_noisy":
            problem = build_problem(request.getfixturevalue("bundle_small_noisy"))
        else:
            problem = request.getfixturevalue("cppB_noisy_problem")
        # the scan samples, one Jacobian's probes, and two candidates whose
        # rays miss (a short focal, a far principal point)
        cx, cy = problem.cam_w / 2.0, problem.cam_h / 2.0
        misses = [[0.1 * cx, 0.1 * cx, 0.0, cx, cy], [2.0 * cx, 2.0 * cx, 0.0, -8.0 * cx, cy]]
        P = np.vstack([scan_samples(problem), jacobian_probes(scan_start(problem)), misses])
        vec, ok, M = kernel_in_chunks(P, problem)
        assert vec.shape == (len(P), 2 * n_correspondences(problem))
        feasible = 0
        for i, params in enumerate(P):
            try:
                ref_vec, ref_M = reference_residuals(params, problem)
            except (InfeasibleCandidate, NotASphereImage, BehindCamera, RayMissesSphere,
                    DegenerateConfiguration, SingularBlock, PointAtInfinity):
                assert not ok[i], f"member {i} is infeasible in the reference"
                assert np.all(np.isnan(vec[i])) and np.all(np.isnan(M[i]))
                continue
            feasible += 1
            assert ok[i], f"member {i} is feasible in the reference"
            assert np.max(np.abs(vec[i] - ref_vec)) <= 1e-9 * np.max(np.abs(ref_vec))
            assert np.max(np.abs(M[i] - ref_M)) <= 1e-9 * np.max(np.abs(ref_M))
        assert feasible >= 10 and not ok[-2:].any()

    def test_member_independent_of_batch(self, bundle_small_noisy):
        problem = build_problem(bundle_small_noisy)
        good = jacobian_probes(scan_start(problem))[:4]
        bad = [[-700.0, 700.0, 0.0, 400.0, 300.0], [np.nan, 700.0, 0.0, 400.0, 300.0],
               [100.0, 100.0, 0.0, 400.0, 300.0]]
        batch = np.vstack([bad[0], good[0], bad[1], good[1], good[2], bad[2], good[3]])
        vec, ok, M = _residuals(batch, problem)
        assert ok.tolist() == [False, True, False, True, True, False, True]
        for i in np.flatnonzero(ok):
            alone_vec, alone_ok, alone_M = _residuals(batch[i], problem)
            assert alone_ok[0]
            assert alone_vec[0].tobytes() == vec[i].tobytes()
            assert alone_M[0].tobytes() == M[i].tobytes()

    def test_no_call_exceeds_the_batch(self, bundle_small_noisy, monkeypatch):
        sizes = []
        kernel = calibrate_module._residuals

        def counting(P, problem):
            sizes.append(len(np.asarray(P).reshape(-1, 5)))
            return kernel(P, problem)

        monkeypatch.setattr(calibrate_module, "_residuals", counting)
        calibrate(build_problem(bundle_small_noisy))
        assert KERNEL_BATCH == 11
        assert max(sizes) <= KERNEL_BATCH
        assert sizes[:4] == [11, 11, 11, 7]  # the 40-sample focal scan
        assert sizes[4] == 10  # the start's probes
        assert 11 in sizes[5:]  # a trial with its probes
        problem = build_problem(bundle_small_noisy)
        with pytest.raises(ValueError):
            kernel(np.tile(scan_start(problem), (KERNEL_BATCH + 1, 1)), problem)

    @pytest.mark.parametrize("mu", [0.0, None], ids=["mu0", "default_mu"])
    @pytest.mark.parametrize("scene", ["small_noisy", "cppB_intensity_0_1"])
    def test_no_candidate_reaches_the_kernel_twice(self, scene, mu, request, monkeypatch):
        # the scan's best row starts descent 1, descent 1's end (and its probes,
        # when it ends on rejected trials) starts the penalized descent, and the
        # result is read from the last evaluation; cppB at intensity sigma 0.1
        # ends descent 1 on trials equal to p
        if scene == "small_noisy":
            problem = build_problem(request.getfixturevalue("bundle_small_noisy"))
        else:
            problem = request.getfixturevalue("cppB_outlier_problem")
        seen = []
        kernel = calibrate_module._residuals

        def recording(P, problem):
            seen.extend(row.tobytes() for row in np.asarray(P, dtype=float).reshape(-1, 5))
            return kernel(P, problem)

        monkeypatch.setattr(calibrate_module, "_residuals", recording)
        calibrate(problem, mu=mu)
        assert len(seen) > F_SCAN_SAMPLES
        assert len(set(seen)) == len(seen)

    # rows sent when every trial carried its probes: 851 at mu = 0, 1,380 at the default
    @pytest.mark.parametrize("mu, rows_with_probes", [(0.0, 851), (None, 1380)],
                             ids=["mu0", "default_mu"])
    def test_a_retry_goes_alone(self, cppB_outlier_problem, mu, rows_with_probes, monkeypatch):
        calls = []
        kernel = calibrate_module._residuals

        def recording(P, problem):
            calls.append(np.asarray(P, dtype=float).reshape(-1, 5))
            return kernel(P, problem)

        monkeypatch.setattr(calibrate_module, "_residuals", recording)
        calibrate(cppB_outlier_problem, mu=mu)
        assert sum(map(len, calls)) < rows_with_probes
        followed = 0
        for before, call in zip(calls[4:], calls[5:]):  # after the scan
            if len(call) == 2 * 5:  # probes alone: those of the lone trial just accepted
                assert len(before) == 1 and call.tobytes() == _probes(before[0]).tobytes()
                followed += 1
            elif len(call) == KERNEL_BATCH:  # a first trial with its probes
                assert call[1:].tobytes() == _probes(call[0]).tobytes()
        assert followed > 0


def _with_proj_px(problem, proj_of_points):
    """The exact problem with projector pixels replaced by a function of the
    truth's lifted points; the conics and camera pixels stay."""
    obs = []
    for o, pose in zip(problem.observations, SPHERES):
        points = lift_pixel_to_sphere(o.cam_px, make_small_truth().camera, pose)
        obs.append(
            SphereObservation(conic=o.conic, cam_px=o.cam_px, proj_px=proj_of_points(points))
        )
    return replace(problem, observations=obs)


def _behind_camera_problem(problem):
    # sphere 0's conic becomes the tangent cone of a sphere whose center lies
    # within one radius of the image plane under K = I
    s = np.array([10.0, 0.0, 0.5])
    cone = Conic.from_matrix(np.outer(s, s) - (s @ s - 1.0) * np.eye(3))
    first, second = problem.observations
    first = SphereObservation(conic=cone, cam_px=first.cam_px, proj_px=first.proj_px)
    return replace(problem, observations=(first, second), radii=(1.0, problem.radii[1]))


TRUTH_PARAMS = params_of(make_small_truth().camera).tolist()

# (name, problem from the exact small problem, candidate, the reference's error)
INFEASIBLE = [
    ("focal_negative", lambda p: p, [-700.0, 702.0, -2.0, 405.0, 295.0], InfeasibleCandidate),
    ("focal_zero", lambda p: p, [700.0, 0.0, -2.0, 405.0, 295.0], InfeasibleCandidate),
    ("focal_nan", lambda p: p, [np.nan, 702.0, -2.0, 405.0, 295.0], InfeasibleCandidate),
    ("behind_camera", _behind_camera_problem, [1.0, 1.0, 0.0, 0.0, 0.0], BehindCamera),
    ("ray_miss", lambda p: p, [100.0, 100.0, 0.0, 405.0, 295.0], RayMissesSphere),
    # one projector pixel for every point: a 4-dimensional DLT null space
    ("dlt_ambiguous", lambda p: _with_proj_px(p, lambda X: np.tile([400.0, 200.0], (len(X), 1))),
     TRUTH_PARAMS, DegenerateConfiguration),
    # an orthographic projector: the fitted third row has no rotation part
    ("block_third_row_zero", lambda p: _with_proj_px(p, lambda X: X[:, :2]),
     TRUTH_PARAMS, SingularBlock),
    # x_p = X/Z, y_p = (X + 1)/Z: the left block has two parallel rows
    ("block_rank_deficient",
     lambda p: _with_proj_px(p, lambda X: np.column_stack([X[:, 0], X[:, 0] + 1.0]) / X[:, 2:3]),
     TRUTH_PARAMS, SingularBlock),
]


class TestInfeasibleCandidates:
    @pytest.mark.parametrize("make, candidate, reason", [c[1:] for c in INFEASIBLE],
                             ids=[c[0] for c in INFEASIBLE])
    def test_masked_in_batch_raised_alone(self, truth_small, make, candidate, reason):
        base = exact_problem(truth_small)
        problem = make(base)
        with pytest.raises(reason):
            reference_residuals(np.array(candidate), problem)
        feasible = TRUTH_PARAMS if problem is base else None
        batch = np.array([candidate] + ([feasible] if feasible else []))
        vec, ok, M = _residuals(batch, problem)
        assert not ok[0]
        assert np.all(np.isnan(vec[0])) and np.all(np.isnan(M[0]))
        if feasible:
            assert ok[1]
        with pytest.raises(InfeasibleCandidate):
            _levenberg_marquardt(residual_fn(problem), np.array(candidate), 1)
        if np.all(np.isfinite(candidate)) and candidate[0] > 0 and candidate[1] > 0:
            with pytest.raises(InfeasibleCandidate):
                isc_objective(Intrinsics(*candidate), problem)


class TestProblemBuild:
    def test_coincident_conics_rejected_before_optimization(self, truth_small):
        obs = exact_observations(truth_small)
        clone = SphereObservation(
            conic=obs[0].conic, cam_px=obs[1].cam_px, proj_px=obs[1].proj_px
        )
        with pytest.raises(CoincidentConics):
            IscProblem([obs[0], clone], (0.4, 0.55), truth_small.cam_w, truth_small.cam_h)

    def test_requires_ten_correspondences(self, truth_small):
        obs = exact_observations(truth_small)
        short = SphereObservation(
            conic=obs[0].conic, cam_px=obs[0].cam_px[:9], proj_px=obs[0].proj_px[:9]
        )
        with pytest.raises(TooFewPoints, match="sphere 0 has 9 valid correspondences"):
            IscProblem([short, obs[1]], (0.4, 0.55), truth_small.cam_w, truth_small.cam_h)

    def test_default_mu_scales_with_count(self, truth_small):
        problem = exact_problem(truth_small)
        default = calibrate(problem)
        scaled = calibrate(problem, mu=1e4 * n_correspondences(problem))
        assert default.to_json_dict() == scaled.to_json_dict()

    def test_mu_zero_permitted(self, truth_small):
        problem = exact_problem(truth_small)
        assert calibrate(problem, mu=0.0).converged
        value, _ = isc_objective(truth_small.camera, problem)
        assert value < 1e-6

    @pytest.mark.parametrize("radii, mu", [
        ((0.4, 0.55), np.nan), ((0.4, 0.55), np.inf), ((0.4, 0.55), -1.0),
        ((np.inf, 0.55), None), ((0.4, np.nan), None), ((0.4, 0.0), None), ((-0.4, 0.55), None),
        (0.4, None), ([0.4], None), ([0.4, 0.55, 9.0], None), ([[0.4, 0.55]], None),
    ], ids=["mu_nan", "mu_inf", "mu_negative", "radius_inf", "radius_nan", "radius_zero",
            "radius_negative", "one_radius", "one_listed_radius", "three_radii",
            "nested_radii"])
    def test_malformed_mu_or_radii_rejected(self, truth_small, radii, mu):
        obs = exact_observations(truth_small)
        with pytest.raises(ValueError):
            problem = IscProblem(obs, radii, truth_small.cam_w, truth_small.cam_h)
            calibrate(problem, mu=mu)

    def test_observations_and_radii_held_as_tuples(self, truth_small):
        obs = exact_observations(truth_small)
        problem = IscProblem(obs, np.array([0.4, 0.55]), truth_small.cam_w, truth_small.cam_h)
        assert problem.observations == tuple(obs) and problem.radii == (0.4, 0.55)
        assert all(type(r) is float for r in problem.radii)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_other_sphere_counts_rejected(self, truth_small, count):
        obs = exact_observations(truth_small)
        picked = [obs[i % 2] for i in range(count)]
        with pytest.raises(TwosphereError, match=f"two sphere observations required, got {count}"):
            IscProblem(picked, [0.4] * count, truth_small.cam_w, truth_small.cam_h)

    def test_observation_rejects_pixels_not_n_by_2(self, truth_small):
        # a (40, 3) homogeneous array holds as many numbers as 60 pixels
        obs = exact_observations(truth_small)[0]
        cam, proj = obs.cam_px[:40], obs.proj_px[:60]
        for bad_cam, bad_proj in [(homogenize(cam), proj), (cam.ravel(), proj[:40].ravel()),
                                  (cam, proj[:39]), (cam[None], proj[:40][None])]:
            with pytest.raises(ValueError):
                SphereObservation(conic=obs.conic, cam_px=bad_cam, proj_px=bad_proj)
        assert len(SphereObservation(conic=obs.conic, cam_px=cam, proj_px=proj[:40])) == 40


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
        problem = build_problem(bundle_small_noisy)
        result = calibrate(problem, mu=0.0)
        assert result.objective == isc_objective(result.camera, problem)[0]
        pair = constraint_pair(*conics_of(problem), result.camera)
        expected = pole_polar_residual(*pair, result.camera)
        assert expected > 0
        assert abs(result.constraint_residual - expected) <= 1e-12 * expected

    def test_reported_objective_at_default_mu(self, bundle_small_noisy):
        # the penalty does not enter the reported objective: it is the sum of
        # the reprojection norms whose per-sphere means are also reported
        problem = build_problem(bundle_small_noisy)
        result = calibrate(problem)
        assert result.objective == isc_objective(result.camera, problem)[0]
        n1, n2 = (len(obs) for obs in problem.observations)
        norm_sum = n1 * result.per_sphere_rms[0] + n2 * result.per_sphere_rms[1]
        assert result.objective == pytest.approx(norm_sum, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.0, None], ids=["mu0", "default_mu"])
    def test_per_sphere_rms_is_each_spheres_mean_norm(self, bundle_small_noisy, mu):
        # the per-sphere means of the norms isc_objective sums, exactly
        problem = build_problem(bundle_small_noisy)
        result = calibrate(problem, mu=mu)
        vec, ok, _ = _residuals(params_of(result.camera), problem)
        norms = np.linalg.norm(vec[0].reshape(-1, 2), axis=1)
        assert ok[0] and result.objective == float(norms.sum())
        n1 = len(problem.observations[0])
        assert result.per_sphere_rms == (float(norms[:n1].mean()), float(norms[n1:].mean()))

    def test_mu_zero_reports_the_pair_selected_under_the_estimate(self):
        # an image-width focal guess ranks noiseless cppB's eigenvector pairs
        # wrongly; the pair selected under the estimate holds at the optimum
        result = calibrate(exact_problem(preset("cppB")), mu=0.0)
        assert result.constraint_residual < 1e-6

    def test_stride_reaches_the_search(self, bundle_small):
        _, coarse = run_calibration(bundle_small, stride=8)
        assert n_correspondences(coarse) < n_correspondences(build_problem(bundle_small, stride=4))

    def test_deterministic_repeat(self, truth_small):
        problem = exact_problem(truth_small)
        r1 = calibrate(problem)
        r2 = calibrate(problem)
        assert params_of(r1.camera).tolist() == params_of(r2.camera).tolist()
        assert r1.history == r2.history
        assert r1.iterations == r2.iterations

    def test_noiseless_optimum_stops_at_round_off(self, bundle_small):
        # at a noiseless optimum the first step below REL_STEP_TOL ends the
        # descent; further round-off decreases of F do not buy more steps
        result, _ = run_calibration(bundle_small)
        assert result.converged
        assert result.iterations <= 2

    @pytest.mark.parametrize("scale", [1.5, 0.6], ids=["focal_high", "focal_low"])
    def test_far_start_reaches_criterion_one(self, truth_small, scale):
        # the step stop does not end a descent that is still far away: from
        # focal lengths 50 % high or 40 % low and an offset principal point,
        # the descent reaches criterion-1 accuracy (0.1 %)
        problem = exact_problem(truth_small)
        true = params_of(truth_small.camera)
        p0 = true * np.array([scale, scale * 0.97, 0.0, 1.1, 0.9])
        p, _, _, iterations, converged = _levenberg_marquardt(residual_fn(problem), p0, 200)
        assert converged and iterations > 2
        rel = np.abs(p - true) / np.abs(true)
        assert np.all(rel[[0, 1, 3, 4]] < 1e-3)

    def test_monotone_accepted_objective(self, truth_small):
        problem = exact_problem(truth_small)
        result = calibrate(problem)
        hist = np.array(result.history)
        assert np.all(np.diff(hist) <= 0)

    def test_swap_symmetry(self, truth_small):
        problem = exact_problem(truth_small)
        swapped = replace(problem, observations=problem.observations[::-1],
                          radii=problem.radii[::-1])
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
        problem = IscProblem(bad, (0.4, 0.55), truth_small.cam_w, truth_small.cam_h)
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
    def former_starts(problem, fn):
        """The former rule: the three lowest feasible focal-scan samples of
        ``fn`` whose focals lie pairwise more than 0.25 apart in log."""
        cx, cy = problem.cam_w / 2.0, problem.cam_h / 2.0
        scan = []
        for f in np.geomspace(F_SCAN_LO * problem.cam_w, F_SCAN_HI * problem.cam_w, F_SCAN_SAMPLES):
            vec, ok = fn(np.array([[f, f, 0.0, cx, cy]]))
            if ok[0]:
                scan.append((float(vec[0] @ vec[0]), f))
        focals = []
        for _, f in sorted(scan):
            if all(abs(np.log(f / s)) > 0.25 for s in focals):
                focals.append(f)
            if len(focals) == 3:
                break
        return [np.array([f, f, 0.0, cx, cy]) for f in focals]

    @pytest.mark.parametrize("mu", [0.0, None], ids=["mu0", "default_mu"])
    def test_former_starts_reach_the_same_camera(self, bundle_small_noisy, mu):
        problem = build_problem(bundle_small_noisy)
        expected = params_of(calibrate(problem, mu=mu).camera)
        fn = residual_fn(problem)
        if mu is None:
            # the penalized pass: its pair is selected at the penalty-free optimum
            free_camera = calibrate(problem, mu=0.0).camera
            pair = constraint_pair(*conics_of(problem), free_camera)
            fn = penalized_fn(problem, pair, 1e4 * n_correspondences(problem))
        starts = self.former_starts(problem, fn)
        assert len(starts) >= 2
        for p0 in starts:
            got = _levenberg_marquardt(fn, p0, 200)[0]
            np.testing.assert_allclose(got, expected, rtol=1e-5)


class TestSolverCore:
    """The scan, the Jacobian and the descent take any residual function: a
    toy of six parameters, linear residuals ``A p - b`` masked outside a box."""

    rng = np.random.default_rng(5)
    A = rng.normal(size=(14, 6))
    b = rng.normal(size=14)
    minimum = np.linalg.lstsq(A, b, rcond=None)[0]

    def toy(self, sizes):
        def fn(P):
            assert P.ndim == 2 and len(P) <= KERNEL_BATCH
            sizes.append(len(P))
            ok = np.all(np.abs(P) < 10.0, axis=1)
            return np.where(ok[:, None], P @ self.A.T - self.b, np.nan), ok
        return fn

    def test_jacobian_splits_twelve_probes(self):
        sizes = []
        fn = self.toy(sizes)
        p = np.full(6, 0.5)
        J = _jacobian(p, fn(p[None])[0][0], *_batched(fn, _probes(p)))
        assert sizes == [1, 11, 1]
        np.testing.assert_allclose(J, self.A, rtol=1e-6, atol=1e-8)
        # a descent's trial goes with its twelve probes: 13 rows in two calls
        sizes.clear()
        _levenberg_marquardt(fn, p, 1)
        assert sizes == [1, 11, 1, 1]  # the start, its probes, one trial alone (no next step)
        sizes.clear()
        _levenberg_marquardt(fn, p, 2)
        assert sizes[:5] == [1, 11, 1, 11, 2]

    def test_descent_reaches_the_minimum(self):
        assert np.all(np.abs(self.minimum) < 10.0)
        p, _, history, iterations, converged = _levenberg_marquardt(self.toy([]), np.zeros(6), 200)
        assert converged and iterations >= 1
        np.testing.assert_allclose(p, self.minimum, rtol=1e-7, atol=1e-9)
        r = self.A @ self.minimum - self.b
        assert history[-1] == pytest.approx(r @ r, rel=1e-12)

    def test_infeasible_start_raises(self):
        with pytest.raises(InfeasibleCandidate):
            _levenberg_marquardt(self.toy([]), np.full(6, 20.0), 200)


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
