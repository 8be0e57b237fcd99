import numpy as np
import pytest

from conftest import reprojection_residuals

from twosphere import (
    Intrinsics,
    ProjMatrix,
    decompose,
    dlt_estimate,
    lift_pixel_to_sphere,
    project_points,
)
from twosphere.errors import (
    DegenerateConfiguration,
    PointAtInfinity,
    SingularBlock,
    TooFewPoints,
)
from twosphere.projector import (
    _dlt_reduce,
    compose,
    dlt_stack,
    normalize_points,
    project_stack,
)
from twosphere.scene import rotation_about_y

K_PROJ = Intrinsics(fx=1202.7, fy=1199.0, skew=-8.2, u0=390.7, v0=222.8)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def assert_intrinsics_close(a: Intrinsics, b: Intrinsics, tol: float = 1e-10):
    for name in ("fx", "fy", "skew", "u0", "v0"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=tol, abs=tol)


def frustum_points(rng, n, depth=(2.0, 8.0), lateral=0.8):
    pts = np.column_stack(
        [
            rng.uniform(-lateral, lateral, n),
            rng.uniform(-lateral, lateral, n),
            rng.uniform(*depth, n),
        ]
    )
    return pts


class TestDlt:
    def test_recovers_canonical_projector_matrix(self):
        rng = np.random.default_rng(0)
        M_true = compose(K_PROJ, np.eye(3), np.zeros(3))
        X = frustum_points(rng, 20)
        xp = project_points(M_true, X)
        M = dlt_estimate(xp, X)
        assert np.max(np.abs(M.m - M_true.m)) < 1e-9

    def test_minimal_six_points_interpolate(self):
        rng = np.random.default_rng(3)
        M_true = compose(K_PROJ, rotation_about_y(10.0), np.array([0.2, -0.1, 0.3]))
        X = frustum_points(rng, 6)
        xp = project_points(M_true, X)
        M = dlt_estimate(xp, X)
        assert np.max(reprojection_residuals(M, xp, X)) < 1e-10

    def test_five_points_rejected(self):
        rng = np.random.default_rng(4)
        X = frustum_points(rng, 5)
        with pytest.raises(TooFewPoints):
            dlt_estimate(np.zeros((5, 2)), X)

    def test_coplanar_points_degenerate(self):
        rng = np.random.default_rng(5)
        M_true = compose(K_PROJ, np.eye(3), np.zeros(3))
        X = frustum_points(rng, 20)
        X[:, 2] = 4.0  # all on one plane
        xp = project_points(M_true, X)
        with pytest.raises(DegenerateConfiguration):
            dlt_estimate(xp, X)

    def test_adding_exact_point_is_stable(self):
        rng = np.random.default_rng(6)
        M_true = compose(K_PROJ, rotation_about_y(-8.0), np.array([0.1, 0.05, -0.2]))
        X = frustum_points(rng, 30)
        xp = project_points(M_true, X)
        M_a = dlt_estimate(xp, X)
        extra = frustum_points(rng, 1)
        X2 = np.vstack([X, extra])
        xp2 = project_points(M_true, X2)
        M_b = dlt_estimate(xp2, X2)
        assert np.max(np.abs(M_a.m - M_b.m)) < 1e-10


def design_matrix(proj_norm, points_hom):
    """The explicit 2n x 12 DLT design matrix: the x_p equations, then the y_p."""
    X = points_hom.T
    n = len(X)
    A = np.zeros((2 * n, 12))
    A[:n, 0:4] = X
    A[:n, 8:12] = -proj_norm[0][:, None] * X
    A[n:, 4:8] = -X
    A[n:, 8:12] = proj_norm[1][:, None] * X
    return A


def dlt_point_sets():
    """Projector pixels and 3D points: random, minimal, one above minimal,
    and coplanar (degenerate)."""
    rng = np.random.default_rng(11)
    M_true = compose(K_PROJ, rotation_about_y(12.0), np.array([0.3, -0.1, 0.2]))
    sets = {}
    for name, n in (("random", 40), ("six", 6), ("seven", 7)):
        X = frustum_points(rng, n)
        sets[name] = (project_points(M_true, X) + rng.normal(scale=0.5, size=(n, 2)), X)
    X = frustum_points(rng, 30)
    X[:, 2] = 5.0
    sets["coplanar"] = (project_points(M_true, X), X)
    return sets


class TestBlockDlt:
    """The two n x 8 blocks, QR-reduced apart, stand for the 2n x 12 design
    matrix: same singular values, null vector and degeneracy gate."""

    @pytest.mark.parametrize("name", ["random", "six", "seven", "coplanar"])
    def test_matches_explicit_design_matrix(self, name):
        xp, X = dlt_point_sets()[name]
        proj_norm, T2 = normalize_points(xp.T)
        points_hom, T3 = normalize_points(X.T[None])
        _, sv_ref, vt_ref = np.linalg.svd(design_matrix(proj_norm, points_hom[0]))
        _, sv, vt = np.linalg.svd(_dlt_reduce(proj_norm, points_hom)[0])
        assert np.max(np.abs(sv - sv_ref)) <= 1e-12 * sv_ref[0]
        ok_ref = (sv_ref[10] > 1e-10 * sv_ref[0]) & (sv_ref[11] / sv_ref[10] <= 0.99)
        M, ok = dlt_stack(proj_norm, np.linalg.inv(T2), X.T[None])
        assert ok[0] == ok_ref
        assert ok_ref == (name != "coplanar")
        if ok_ref:  # a unique null vector: equal up to sign
            v, v_ref = vt[-1], vt_ref[-1]
            sign = np.sign(v @ v_ref)
            assert np.max(np.abs(sign * v - v_ref)) < 1e-9
            M_ref = np.linalg.inv(T2) @ v_ref.reshape(3, 4) @ T3[0]
            assert np.max(np.abs(sign * M[0] - M_ref)) <= 1e-9 * np.max(np.abs(M_ref))


class TestResiduals:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.M = compose(K_PROJ, rotation_about_y(12.0), np.array([0.3, 0.0, 0.1]))
        self.X = frustum_points(rng, 25)
        self.xp = project_points(self.M, self.X)

    def test_exact_consistency(self):
        assert np.max(reprojection_residuals(self.M, self.xp, self.X)) < 1e-9

    def test_pythagorean_offset(self):
        xp = self.xp.copy()
        xp[3] += np.array([3.0, 4.0])
        res = reprojection_residuals(self.M, xp, self.X)
        assert res[3] == pytest.approx(5.0, abs=1e-9)
        assert np.max(np.delete(res, 3)) < 1e-9

    def test_noisy_rms_matches_sigma(self):
        # sigma=0.5 px per projector-pixel component: the per-component RMS
        # (norm RMS over sqrt(2)) tracks the injected noise level
        rms = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            xp = self.xp + rng.normal(0, 0.5, self.xp.shape)
            res = reprojection_residuals(self.M, xp, self.X)
            rms.append(np.sqrt(np.mean(res**2) / 2.0))
        assert 0.4 < np.median(rms) < 0.6

    def test_point_at_infinity(self):
        X = np.array([[0.0, 0.0, 0.0]])  # at the camera=projector center plane
        M = compose(K_PROJ, np.eye(3), np.zeros(3))
        with pytest.raises(PointAtInfinity):
            project_points(M, X)


class TestProjectParity:
    """``project_points`` is ``project_stack`` at B = 1, called with a whole
    cppB disc's surface points."""

    def test_point_on_the_principal_plane(self, cppb_disc):
        truth, pose, pix = cppb_disc
        M = truth.proj_matrix
        # the foot of the camera centre on the plane M[2] . [X, 1] = 0 (|M[2, :3]| = 1)
        on_plane = -M.m[2, 3] * M.m[2, :3]
        points = np.vstack([lift_pixel_to_sphere(pix, truth.camera, pose), on_plane])
        assert not project_stack(M.m[None], points.T[None])[1][0]
        with pytest.raises(PointAtInfinity):
            project_points(M, points)


class TestDecompose:
    def test_canonical_pose(self):
        M = compose(K_PROJ, np.eye(3), np.zeros(3))
        K, R, T = decompose(M)
        assert_intrinsics_close(K, K_PROJ)
        np.testing.assert_allclose(R, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(T, np.zeros(3), atol=1e-12)

    def test_random_compose_decompose(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            K_true = Intrinsics(
                fx=rng.uniform(300, 4000),
                fy=rng.uniform(300, 4000),
                skew=rng.uniform(-30, 30),
                u0=rng.uniform(100, 2000),
                v0=rng.uniform(100, 1500),
            )
            R_true = random_rotation(rng)
            T_true = np.array([0.1, -0.2, 1.5])
            M = compose(K_true, R_true, T_true)
            K, R, T = decompose(M)
            for name in ("fx", "fy", "skew", "u0", "v0"):
                assert getattr(K, name) == pytest.approx(getattr(K_true, name), rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(R, R_true, atol=1e-10)
            np.testing.assert_allclose(T, T_true, atol=1e-10)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_sign_gauge_absorbed(self):
        M = compose(K_PROJ, rotation_about_y(15.0), np.array([0.0, 0.1, 0.2]))
        flipped = ProjMatrix(-M.m)
        K1, R1, T1 = decompose(M)
        K2, R2, T2 = decompose(flipped)
        assert_intrinsics_close(K1, K2, tol=1e-12)
        np.testing.assert_allclose(R1, R2, atol=1e-12)
        np.testing.assert_allclose(T1, T2, atol=1e-12)

    def test_compose_reproduces_up_to_scale(self):
        rng = np.random.default_rng(9)
        M = ProjMatrix(rng.normal(size=(3, 4)))
        K, R, T = decompose(M)
        M2 = compose(K, R, T)
        assert np.max(np.abs(M.m - M2.m)) < 1e-12 * max(1.0, np.max(np.abs(M.m)))

    def test_singular_left_block_rejected(self):
        m = np.zeros((3, 4))
        m[0, 0] = m[1, 1] = 1.0
        m[2, 3] = 1.0
        with pytest.raises(SingularBlock):
            ProjMatrix(m)


class TestGaugeInvariance:
    def test_similarity_of_world_frame(self):
        # rotating/translating the 3D frame transforms R,T covariantly and
        # leaves the intrinsics fixed
        rng = np.random.default_rng(10)
        K_true = K_PROJ
        R_true = rotation_about_y(9.0)
        T_true = np.array([0.2, -0.1, 0.4])
        M = compose(K_true, R_true, T_true)
        X = frustum_points(rng, 24)
        xp = project_points(M, X)

        R_s = random_rotation(rng)
        t_s = rng.normal(scale=0.5, size=3)
        X_new = (R_s @ X.T).T + t_s  # same points expressed in a moved frame
        M_new = dlt_estimate(xp, X_new)
        K, R, T = decompose(M_new)
        for name in ("fx", "fy", "skew", "u0", "v0"):
            assert getattr(K, name) == pytest.approx(getattr(K_true, name), rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(R, R_true @ R_s.T, atol=1e-9)
        np.testing.assert_allclose(T, T_true - R_true @ R_s.T @ t_s, atol=1e-9)

    def test_json_round_trip(self):
        M = compose(K_PROJ, rotation_about_y(5.0), np.array([0.3, 0.1, -0.2]))
        again = ProjMatrix.from_json(M.to_json())
        assert again.allclose(M, tol=1e-15)
