import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosphere import (
    Conic,
    Intrinsics,
    NoiseSpec,
    SpherePose,
    constraint_pair,
    fit_conic,
    pole_polar_residual,
    preset,
    project_sphere_to_conic,
    render_scene,
)
from twosphere.errors import CoincidentConics, DegenerateConic, TooFewPoints
from twosphere.geometry import (
    adjugate,
    ellipse_parameters,
    hom_allclose,
    homogenize,
    sample_conic_points,
    unit_vector,
)


def circle_points(n, cx=0.0, cy=0.0, r=1.0):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)])


class TestIntrinsics:
    def test_matrix_structure(self):
        K = Intrinsics(fx=1000.0, fy=1010.0, skew=-5.0, u0=640.0, v0=360.0)
        m = K.as_matrix()
        assert m[1, 0] == m[2, 0] == m[2, 1] == 0.0
        assert m[2, 2] == 1.0
        assert m[0, 0] > 0 and m[1, 1] > 0
        np.testing.assert_allclose(K.inverse() @ m, np.eye(3), atol=1e-12)

    def test_iac_positive_definite(self):
        K = Intrinsics(fx=3277.5, fy=3277.8, skew=-18.6, u0=1699.4, v0=1330.1)
        w = K.iac()
        np.testing.assert_allclose(w, w.T)
        assert np.all(np.linalg.eigvalsh(w) > 0)

    def test_rejects_negative_focal(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1.0, fy=1.0, skew=0.0, u0=0.0, v0=0.0)

    def test_matrix_round_trip(self):
        K = Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8)
        K2 = Intrinsics.from_matrix(K.as_matrix())
        assert K == K2


class TestHomogeneous:
    def test_round_trip(self):
        pts = np.array([[1.0, 2.0], [3.0, -4.0]])
        np.testing.assert_array_equal(homogenize(pts), [[1.0, 2.0, 1.0], [3.0, -4.0, 1.0]])
        np.testing.assert_array_equal(homogenize(pts[0]), [1.0, 2.0, 1.0])

    def test_allclose_up_to_scale_and_sign(self):
        v = np.array([1.0, 2.0, 3.0])
        assert hom_allclose(v, -7.5 * v)
        assert not hom_allclose(v, v + np.array([0.1, 0.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            unit_vector(np.zeros(3))


class TestConicType:
    def test_entry_order_and_symmetry(self):
        c = Conic(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        m = c.matrix
        np.testing.assert_allclose(m, m.T)
        assert m[0, 1] == 2.0 and m[0, 2] == 3.0 and m[1, 2] == 5.0

    def test_point_on_conic_scale_free(self):
        c = Conic.from_matrix(np.diag([1.0, 1.0, -1.0]))  # unit circle
        assert abs(c.evaluate(np.array([1.0, 0.0]))) < 1e-15
        assert abs(c.evaluate(np.array([3.0, 0.0, 3.0]))) < 1e-12  # homogeneous rep

    def test_real_ellipse_flag(self):
        assert Conic.from_matrix(np.diag([1.0, 1.0, -1.0])).is_real_ellipse
        assert Conic.from_matrix(np.diag([-2.0, -2.0, 2.0])).is_real_ellipse  # sign-flipped
        assert not Conic.from_matrix(np.diag([1.0, 1.0, 1.0])).is_real_ellipse  # imaginary
        assert not Conic.from_matrix(np.diag([1.0, -1.0, -1.0])).is_real_ellipse  # hyperbola

    def test_normalized_sign_and_unit_norm(self):
        c = Conic.from_matrix(-3.0 * np.diag([1.0, 2.0, -1.0]))
        n = c.normalized()
        assert n.entries[0] >= 0
        assert abs(np.linalg.norm(n.matrix) - 1.0) < 1e-12
        assert n.allclose(c)


class TestFitConic:
    def test_unit_circle(self):
        c = fit_conic(circle_points(64))
        expected = Conic.from_matrix(np.diag([1.0, 1.0, -1.0]))
        assert c.allclose(expected, tol=1e-10)

    def test_axis_aligned_ellipse(self):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.column_stack([2.0 * np.cos(t), np.sin(t)])  # x^2/4 + y^2 = 1
        c = fit_conic(pts)
        expected = Conic.from_matrix(np.diag([0.25, 1.0, -1.0]))
        assert c.allclose(expected, tol=1e-10)

    def test_exact_points_have_tiny_residuals(self, truth_small):
        conic = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        pts = sample_conic_points(conic, 64)
        fitted = fit_conic(pts).normalized()
        # scale-free residual: algebraic value over squared point magnitude
        vals = np.abs(fitted.evaluate(pts)) / np.sum(homogenize(pts) ** 2, axis=1)
        assert np.max(vals) < 1e-9

    def test_noisy_simulator_contour_rms(self, truth_small):
        # oracle: the analytic sphere-to-conic projection supplies exact
        # contour samples; sigma=0.3 px radial noise must fit back to a conic
        # whose point-to-curve RMS stays below 0.35 px
        conic = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        pts = sample_conic_points(conic, 200)
        rng = np.random.default_rng(3)
        grad = 2.0 * (homogenize(pts) @ conic.normalized().matrix)[:, :2]
        normals = grad / np.linalg.norm(grad, axis=1, keepdims=True)
        noisy = pts + normals * rng.normal(0.0, 0.3, (len(pts), 1))
        fitted = fit_conic(noisy).normalized()
        # Sampson (first-order geometric) distance
        vals = fitted.evaluate(noisy)
        grads = 2.0 * (homogenize(noisy) @ fitted.matrix)[:, :2]
        dist = np.abs(vals) / np.linalg.norm(grads, axis=1)
        assert np.sqrt(np.mean(dist**2)) < 0.35

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_conic(circle_points(5))

    def test_degenerate_collinear(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 2, 10)])
        with pytest.raises(DegenerateConic):
            fit_conic(pts)

    def test_scale_invariance(self):
        pts = circle_points(64, cx=1500.0, cy=900.0, r=250.0)
        scale = 3.7
        c1 = fit_conic(pts).normalized().matrix
        c2 = fit_conic(pts * scale).normalized().matrix
        # conic of scaled points is S^-T C S^-1 up to scale
        s_inv = np.diag([1.0 / scale, 1.0 / scale, 1.0])
        mapped = s_inv.T @ c1 @ s_inv
        assert hom_allclose(mapped.ravel(), c2.ravel(), tol=1e-9)


class TestAdjugate:
    def test_identity(self):
        c = Conic.from_matrix(np.eye(3))
        assert adjugate(c).allclose(c)

    def test_diagonal(self):
        c = Conic.from_matrix(np.diag([2.0, 3.0, 4.0]))
        np.testing.assert_allclose(adjugate(c).matrix, np.diag([12.0, 8.0, 6.0]))

    def test_product_is_det_times_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            m = m + m.T
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            adj = adjugate(Conic.from_matrix(m)).matrix
            np.testing.assert_allclose(
                adj @ m, np.linalg.det(m) * np.eye(3),
                rtol=1e-12, atol=1e-12 * abs(np.linalg.det(m)),
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3))
        m = m + m.T
        det = np.linalg.det(m)
        if abs(det) < 1e-2:
            return
        twice = adjugate(adjugate(Conic.from_matrix(m))).matrix
        np.testing.assert_allclose(twice, det * m, rtol=1e-10, atol=1e-10 * abs(det))


class TestEllipseParameters:
    def test_circle(self):
        c = Conic.from_matrix(np.diag([1.0, 1.0, -4.0]))
        center, a, b, _ = ellipse_parameters(c)
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-12)
        assert a == pytest.approx(2.0) and b == pytest.approx(2.0)

    def test_sampled_points_lie_on_conic(self, truth_small):
        conic = project_sphere_to_conic(truth_small.spheres[1], truth_small.camera)
        pts = sample_conic_points(conic, 100)
        vals = np.abs(conic.normalized().evaluate(pts)) / np.sum(homogenize(pts) ** 2, axis=1)
        assert np.max(vals) < 1e-12

    def test_rejects_hyperbola(self):
        with pytest.raises(ValueError):
            ellipse_parameters(Conic.from_matrix(np.diag([1.0, -1.0, -1.0])))


class TestConstraintPair:
    def bootstrap(self, truth):
        return Intrinsics(
            fx=truth.cam_w, fy=truth.cam_w, skew=0.0,
            u0=truth.cam_w / 2.0, v0=truth.cam_h / 2.0,
        )

    def test_pole_polar_holds_at_truth(self, truth_small):
        c1 = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        c2 = project_sphere_to_conic(truth_small.spheres[1], truth_small.camera)
        line, point = constraint_pair(c1, c2, self.bootstrap(truth_small))
        assert pole_polar_residual(line, point, truth_small.camera) < 1e-9

    def test_coincident_conics(self, truth_small):
        c1 = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        with pytest.raises(CoincidentConics):
            constraint_pair(c1, Conic(c1.entries * 2.0), self.bootstrap(truth_small))

    def test_symmetric_spheres_collapse_pair_onto_axis(self):
        # equal radii mirrored across the optical axis; by symmetry the
        # selected pair collapses onto the axis: the line is the centers'
        # image line (the x-axis) and the point is its pole, the vanishing
        # point straight up the image (first/last coordinates vanish)
        K = Intrinsics(fx=500.0, fy=500.0, skew=0.0, u0=0.0, v0=0.0)
        c1 = project_sphere_to_conic(SpherePose(center=[-1.0, 0.0, 6.0], radius=0.5), K)
        c2 = project_sphere_to_conic(SpherePose(center=[1.0, 0.0, 6.0], radius=0.5), K)
        line, point = constraint_pair(c1, c2, K)
        assert hom_allclose(line, np.array([0.0, 1.0, 0.0]), tol=1e-9)
        v = unit_vector(point)
        assert abs(v[0]) < 1e-9 and abs(v[2]) < 1e-9
        assert pole_polar_residual(line, point, K) < 1e-12

    @pytest.mark.parametrize("fx,fy,u0,v0", [
        (800.0, 800.0, 400.0, 300.0),  # the pipeline default: f = width, centered
        (730.0, 750.0, 390.0, 310.0),
        (640.0, 640.0, 410.0, 290.0),
    ])
    def test_selection_survives_rough_bootstrap(self, truth_small, fx, fy, u0, v0):
        # ranking under a skewless, shifted, wrong-focal guess must still
        # pick the pair satisfying pole-polar under the true intrinsics
        c1 = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        c2 = project_sphere_to_conic(truth_small.spheres[1], truth_small.camera)
        rough = Intrinsics(fx=fx, fy=fy, skew=0.0, u0=u0, v0=v0)
        line, point = constraint_pair(c1, c2, rough)
        assert pole_polar_residual(line, point, truth_small.camera) < 1e-9

    def test_residual_sign_and_scale_invariance(self, truth_small):
        c1 = project_sphere_to_conic(truth_small.spheres[0], truth_small.camera)
        c2 = project_sphere_to_conic(truth_small.spheres[1], truth_small.camera)
        line, point = constraint_pair(c1, c2, self.bootstrap(truth_small))
        K = truth_small.camera
        base = pole_polar_residual(line, point, K)
        assert pole_polar_residual(-line, point, K) == pytest.approx(base, abs=1e-15)
        assert pole_polar_residual(line, -point, K) == pytest.approx(base, abs=1e-15)
        assert pole_polar_residual(5.0 * line, 0.25 * point, K) == pytest.approx(base, abs=1e-15)

    def test_scale_invariance_of_pair(self, truth_small):
        # scaling all pixel coordinates with the matching conic transform
        # leaves the pole-polar relation intact under the scaled intrinsics
        K = truth_small.camera
        s = 0.5
        s_inv = np.diag([1.0 / s, 1.0 / s, 1.0])
        conics = [
            project_sphere_to_conic(sp, K) for sp in truth_small.spheres
        ]
        scaled = [Conic.from_matrix(s_inv.T @ c.matrix @ s_inv) for c in conics]
        K_scaled = Intrinsics(fx=s * K.fx, fy=s * K.fy, skew=s * K.skew,
                              u0=s * K.u0, v0=s * K.v0)
        rough = Intrinsics(fx=s * truth_small.cam_w, fy=s * truth_small.cam_w, skew=0.0,
                           u0=s * truth_small.cam_w / 2, v0=s * truth_small.cam_h / 2)
        line, point = constraint_pair(scaled[0], scaled[1], rough)
        assert pole_polar_residual(line, point, K_scaled) < 1e-9

    def test_complex_eigenpair_pencil(self):
        # x^2/4 + y^2 = 1 and its 90-degree-rotated copy shifted to x = 1.5:
        # C2 adj(C1) has one real eigenvalue and a complex-conjugate pair
        c1 = Conic.from_matrix(np.diag([0.25, 1.0, -1.0]))
        c2 = Conic.from_matrix(np.array([[1.0, 0.0, -1.5], [0.0, 0.25, 0.0], [-1.5, 0.0, 1.25]]))
        evals = np.linalg.eigvals(c2.matrix @ adjugate(c1).matrix)
        assert np.count_nonzero(np.abs(evals.imag) > 1e-6 * np.max(np.abs(evals))) == 2
        line, point = constraint_pair(c1, c2, Intrinsics(fx=1.0, fy=1.0, skew=0.0, u0=0.0, v0=0.0))
        assert hom_allclose(c1.matrix @ point, line, tol=1e-12)
        assert hom_allclose(c2.matrix @ point, line, tol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_point_is_meet_of_other_eigenlines(self, seed):
        # the eigen-lines of C2 adj(C1) and their poles form a self-polar
        # triangle, so the pole of the selected line is the meet of the
        # other two eigen-lines
        truth = preset("cppB").with_noise(NoiseSpec(contour_sigma=0.5, seed=seed))
        c1, c2 = (fit_conic(c) for c in render_scene(truth).contours)
        line, point = constraint_pair(c1, c2, self.bootstrap(truth))
        evals, evecs = np.linalg.eig(c2.matrix @ adjugate(c1).matrix)
        assert np.all(evals.imag == 0)
        lines = evecs.T.real
        i = int(np.argmax(np.abs(lines @ line)))
        assert hom_allclose(lines[i], line, tol=1e-12)
        meet = np.cross(*np.delete(lines, i, axis=0))
        assert hom_allclose(meet, point, tol=1e-12)
