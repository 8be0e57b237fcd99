import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from conftest import (lit_correspondences, make_micro_truth, make_small_truth,
                      reprojection_residuals)

from twosphere import (
    Intrinsics,
    NoiseSpec,
    SceneBundle,
    SceneTruth,
    SpherePose,
    fit_conic,
    lift_pixel_to_sphere,
    preset,
    project_sphere_to_conic,
    render_scene,
    sphere_center_from_conic,
)
from twosphere.errors import (BehindCamera, InvalidNoise, RayMissesSphere, SphereOutOfView,
                              SpheresOverlapInImage)
from twosphere.geometry import ellipse_parameters, sample_conic_points
from twosphere import simulate
from twosphere.phase import pattern_value
from twosphere.projector import project_stack
from twosphere.sphere import lift_pixels


class TestProjectSphereToConic:
    def test_axial_unit_sphere_circle(self):
        K = Intrinsics(fx=1.0, fy=1.0, skew=0.0, u0=0.0, v0=0.0)
        conic = project_sphere_to_conic(SpherePose(center=[0, 0, 5], radius=1.0), K)
        center, a, b, _ = ellipse_parameters(conic)
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-12)
        assert a == pytest.approx(1.0 / np.sqrt(24.0), rel=1e-12)
        assert b == pytest.approx(1.0 / np.sqrt(24.0), rel=1e-12)

    def test_axial_sphere_centers_at_principal_point(self):
        K = Intrinsics(fx=1400.0, fy=1380.0, skew=0.0, u0=777.0, v0=333.0)
        conic = project_sphere_to_conic(SpherePose(center=[0, 0, 7], radius=0.5), K)
        center, _, _, _ = ellipse_parameters(conic)
        np.testing.assert_allclose(center, [777.0, 333.0], atol=1e-9)

    def test_round_trip_with_center_recovery(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            pose = SpherePose(
                center=[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(3, 10)],
                radius=rng.uniform(0.2, 0.8),
            )
            K = Intrinsics(
                fx=rng.uniform(500, 3000), fy=rng.uniform(500, 3000),
                skew=rng.uniform(-15, 15), u0=rng.uniform(300, 1700),
                v0=rng.uniform(200, 1300),
            )
            conic = project_sphere_to_conic(pose, K)
            rec = sphere_center_from_conic(conic, K, pose.radius)
            assert np.linalg.norm(rec.center - pose.center) < 1e-9 * np.linalg.norm(pose.center)

    def test_behind_camera_pose_rejected(self):
        # the pose type itself guards the depth > radius invariant
        with pytest.raises(BehindCamera):
            SpherePose(center=[0, 0, 0.5], radius=1.0)


class TestPresets:
    def test_reference_values(self):
        a = preset("cppA")
        assert (a.cam_w, a.cam_h) == (3384, 2704)
        assert (a.camera.fx, a.camera.fy) == (3277.5, 3277.8)
        assert (a.camera.skew, a.camera.u0, a.camera.v0) == (-18.6, 1699.4, 1330.1)
        b = preset("cppB")
        assert (b.cam_w, b.cam_h) == (1920, 1200)
        assert (b.camera.fx, b.camera.fy) == (1791.1, 1789.2)
        assert (b.camera.skew, b.camera.u0, b.camera.v0) == (-1.4, 944.9, 561.4)
        for t in (a, b):
            assert (t.proj_w, t.proj_h) == (854, 480)
            assert (t.proj_intrinsics.fx, t.proj_intrinsics.fy) == (1202.7, 1199.0)
            assert (t.proj_intrinsics.skew, t.proj_intrinsics.u0, t.proj_intrinsics.v0) == (
                -8.2, 390.7, 222.8,
            )
            assert len(t.spheres) == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("cppC")

    def test_config_round_trip(self):
        t = preset("cppB")
        from twosphere.simulate import SceneTruth

        again = SceneTruth.from_config(t.to_config())
        assert again.camera == t.camera
        np.testing.assert_allclose(again.rotation, t.rotation)
        np.testing.assert_allclose(again.translation, t.translation)


class TestSceneRules:
    """A scene holds two spheres, a rotation and a fringe ladder from 1 cycle
    per frame up; the config reader and the constructor share these rules."""

    R = make_micro_truth().rotation

    @pytest.mark.parametrize("changes", [
        pytest.param({"freqs": ()}, id="empty_ladder"),
        pytest.param({"freqs": (2, 16)}, id="ladder_from_2"),
        pytest.param({"rotation": 1.5 * R}, id="rotation_scaled"),
        pytest.param({"rotation": np.diag([1.0, 1.0, -1.0]) @ R}, id="rotation_reflected"),
        pytest.param({"spheres": make_micro_truth().spheres[:1]}, id="one_sphere"),
    ])
    def test_rejected_at_construction(self, changes):
        with pytest.raises(ValueError):
            replace(make_micro_truth(), **changes)


class TestNoiseSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"contour_sigma": -1.0},
            {"contour_sigma": float("nan")},
            {"contour_sigma": float("inf")},
            {"intensity_sigma": -0.5},
            {"intensity_sigma": float("nan")},
            {"intensity_sigma": float("-inf")},
            {"intensity_sigma": "0.1"},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": 2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidNoise):
            NoiseSpec(**kwargs)

    def test_negative_noise_never_reaches_the_renderer(self):
        # these once rendered a noiseless bundle that recorded the negative values
        with pytest.raises(InvalidNoise):
            render_scene(preset("cppB").with_noise(NoiseSpec(-1.0, -0.5, seed=-1)))

    def test_config_seed_is_not_truncated(self):
        cfg = make_micro_truth().to_config()
        cfg["noise"]["seed"] = 1.5
        with pytest.raises(InvalidNoise):
            SceneTruth.from_config(cfg)

    def test_accepts_zero_and_numpy_scalars(self):
        spec = NoiseSpec(np.float64(0.5), 0, seed=np.int64(3))
        assert SceneTruth.from_config(make_micro_truth(spec).to_config()).noise == spec


class TestRenderScene:
    def test_oracle_closure(self, bundle_small):
        # every correspondence rebuilt from the truth satisfies the projector model exactly
        M = bundle_small.truth.proj_matrix
        for corr in lit_correspondences(bundle_small.truth):
            res = reprojection_residuals(M, corr.proj_px, corr.points)
            assert np.max(res) < 1e-10

    def test_contours_match_analytic_conics(self, bundle_small):
        truth = bundle_small.truth
        conics = [project_sphere_to_conic(s, truth.camera) for s in truth.spheres]
        for pts, conic in zip(bundle_small.contours, conics):
            assert len(pts) >= 200
            fitted = fit_conic(pts)
            assert fitted.allclose(conic, tol=1e-8)

    def test_codec_reproduces_hidden_projector_pixels(self, bundle_small):
        from twosphere.pipeline import decode_bundle

        proj_px, valid = decode_bundle(bundle_small)
        flat = bundle_small.flat_index
        w = bundle_small.truth.cam_w
        for corr in lit_correspondences(bundle_small.truth):
            want = corr.cam_px[:, 1].astype(int) * w + corr.cam_px[:, 0].astype(int)
            at = np.searchsorted(flat, want)
            assert np.all(at < len(flat)) and np.array_equal(flat[at], want)
            assert valid[at].all()
            assert np.max(np.abs(proj_px[at] - corr.proj_px)) < 1e-6

    def test_stacks_hold_the_pattern_at_the_lit_pixels(self, bundle_small):
        # noiseless: a lit interior pixel holds the float32 pattern value at
        # its exact projector coordinate; a pixel inside neither disc holds 0
        truth = bundle_small.truth
        lit = lit_correspondences(truth)
        flat, w = bundle_small.flat_index, truth.cam_w
        outside = np.ones(len(flat), dtype=bool)
        for pose in truth.spheres:
            conic = project_sphere_to_conic(pose, truth.camera)
            outside &= conic.normalized().evaluate(bundle_small.pixels.astype(float)) >= 0
        assert outside.any()
        ats = [
            np.searchsorted(flat, c.cam_px[:, 1].astype(int) * w + c.cam_px[:, 0].astype(int))
            for c in lit
        ]
        for cfg in (truth.fringe_vertical, truth.fringe_horizontal):
            axis = 0 if cfg.orientation == "vertical" else 1
            for freq, stack in zip(cfg.freqs, bundle_small.stack_list(cfg)):
                for k, values in enumerate(stack):
                    assert not values[outside].any()
                    for at, corr in zip(ats, lit):
                        coord = corr.proj_px[:, axis]
                        want = pattern_value(freq, k, cfg.n_steps, coord, cfg.coded_span)
                        np.testing.assert_array_equal(values[at], want.astype(np.float32))

    def test_determinism_same_seed(self):
        t = make_micro_truth(NoiseSpec(contour_sigma=0.3, intensity_sigma=0.01, seed=42))
        b1 = render_scene(t)
        b2 = render_scene(t)
        for c1, c2 in zip(b1.contours, b2.contours):
            np.testing.assert_array_equal(c1, c2)
        for key in b1.stacks:
            for i1, i2 in zip(b1.stacks[key], b2.stacks[key]):
                np.testing.assert_array_equal(i1, i2)

    def test_different_seed_differs(self):
        t1 = make_micro_truth(NoiseSpec(contour_sigma=0.3, intensity_sigma=0.01, seed=1))
        t2 = make_micro_truth(NoiseSpec(contour_sigma=0.3, intensity_sigma=0.01, seed=2))
        b1, b2 = render_scene(t1), render_scene(t2)
        assert not np.array_equal(b1.contours[0], b2.contours[0])

    def test_contour_noise_rms(self):
        # pooled over seeds: >= 1e4 perturbation samples, RMS within 5%
        sigma = 0.5
        clean = render_scene(make_micro_truth()).contours
        displacements = []
        for seed in range(20):
            noisy = render_scene(
                make_micro_truth(NoiseSpec(contour_sigma=sigma, seed=seed))
            ).contours
            for c, n in zip(clean, noisy):
                displacements.append(np.linalg.norm(n - c, axis=1))
        d = np.concatenate(displacements)
        assert len(d) >= 10_000
        assert abs(np.sqrt(np.mean(d**2)) - sigma) < 0.05 * sigma

    def test_intensity_noise_rms(self):
        # contour sigma 0 keeps the signal pixels fixed; pooled over seeds,
        # noisy minus noiseless stacks have RMS sigma and mean 0
        sigma = 0.01
        clean = render_scene(make_micro_truth()).stacks
        diffs = []
        for seed in range(4):
            truth = make_micro_truth(NoiseSpec(intensity_sigma=sigma, seed=seed))
            noisy = render_scene(truth).stacks
            for key, stack in clean.items():
                diffs += [n.astype(float) - c for c, n in zip(stack, noisy[key])]
        d = np.concatenate(diffs)
        assert len(d) >= 100_000
        assert abs(np.sqrt(np.mean(d**2)) - sigma) < 0.05 * sigma
        assert abs(np.mean(d)) < 5 * sigma / np.sqrt(len(d))

    def test_out_of_view_rejected(self):
        import dataclasses

        t = make_small_truth()
        bad = dataclasses.replace(
            t, spheres=(SpherePose(center=[-2.4, -0.25, 4.0], radius=0.4), t.spheres[1])
        )
        with pytest.raises(SphereOutOfView):
            render_scene(bad)

    def test_overlap_rejected(self):
        import dataclasses

        bad = dataclasses.replace(
            make_small_truth(),
            spheres=(
                SpherePose(center=[0.0, 0.0, 4.0], radius=0.4),
                SpherePose(center=[0.1, 0.05, 6.0], radius=0.55),
            ),
        )
        with pytest.raises(SpheresOverlapInImage):
            render_scene(bad)

    def test_lit_filter_faces_projector(self, bundle_small):
        # noiseless: a disc pixel carries a pattern exactly when the surface
        # point it sees faces the projector (the n_steps values of a lit
        # pixel sum to n_steps / 2, so one of them is not 0)
        truth = bundle_small.truth
        proj_center = truth.proj_matrix.center()
        signal = np.any([values != 0 for stack in bundle_small.stacks.values()
                         for values in stack], axis=0)
        for pose in truth.spheres:
            conic = project_sphere_to_conic(pose, truth.camera)
            disc = conic.normalized().evaluate(bundle_small.pixels) < 0
            points = lift_pixel_to_sphere(bundle_small.pixels[disc], truth.camera, pose)
            normals = (points - pose.center) / pose.radius
            facing = np.einsum("ni,ni->n", normals, proj_center - points) > 0
            assert facing.any() and not facing.all()
            np.testing.assert_array_equal(signal[disc], facing)


def cppb_truth(noise: NoiseSpec | None = None):
    return preset("cppB").with_noise(noise or NoiseSpec())


def padded_boxes(contours, w, h):
    """Reference: the ascending row-major frame indices of the union of the
    contours' bounding boxes, each padded by ``BOX_PAD_PX`` and clipped to
    the frame. The signal list was this union; the noise streams still run
    over it."""
    pad = simulate.BOX_PAD_PX
    flat = set()
    for pts in contours:
        (x0, y0) = np.maximum(np.floor(pts.min(axis=0)).astype(int) - pad, 0)
        (x1, y1) = np.minimum(np.ceil(pts.max(axis=0)).astype(int) + pad + 1, (w, h))
        flat.update((np.arange(y0, y1)[:, None] * w + np.arange(x0, x1)).ravel().tolist())
    return np.array(sorted(flat), dtype=np.int64)


class TestIntensityNoise:
    """One worker thread draws each frame's noise while the render synthesises
    the fringes; the bytes are those of ``pattern + noise`` in float32. Image
    i's stream ``SeedSequence([seed, 1, i])`` runs over the padded boxes, and
    each signal pixel takes the value at its place among them."""

    @pytest.mark.parametrize("make_truth", [make_small_truth, cppb_truth], ids=["small", "cppB"])
    def test_frame_is_noiseless_frame_plus_its_own_stream(self, make_truth):
        sigma, seed = 0.01, 5
        clean = render_scene(make_truth())
        noisy = render_scene(make_truth(NoiseSpec(0.0, sigma, seed)))
        truth = clean.truth
        boxes = padded_boxes(noisy.contours, truth.cam_w, truth.cam_h)
        at = np.searchsorted(boxes, noisy.flat_index)
        assert np.array_equal(boxes[at], noisy.flat_index)  # the signal list lies in the boxes
        assert len(boxes) > len(at)
        index = 0
        for cfg in (truth.fringe_vertical, truth.fringe_horizontal):
            for frames, noisy_frames in zip(clean.stack_list(cfg), noisy.stack_list(cfg)):
                for frame, noisy_frame in zip(frames, noisy_frames):
                    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, index]))
                    noise = rng.standard_normal(len(boxes), dtype=np.float32)[at]
                    noise *= sigma
                    want = frame.copy()
                    want += noise
                    assert noisy_frame.tobytes() == want.tobytes(), f"frame {index}"
                    index += 1
        assert index == 2 * len(truth.freqs) * truth.n_steps

    def test_shared_phase_argument_gives_pattern_value_bitwise(self, bundle_small):
        # coded coordinates as the render passes them: a column of (n, 2)
        coded = np.concatenate([c.proj_px for c in lit_correspondences(bundle_small.truth)])
        for axis, span in ((0, 854), (1, 480)):
            coord = coded[:, axis]
            for freq in (1, 8, 64, 7):
                for n_steps in (3, 4, 5):
                    steps = list(simulate._pattern_steps(freq, n_steps, coord, span))
                    assert len(steps) == n_steps
                    for k, values in enumerate(steps):
                        want = pattern_value(freq, k, n_steps, coord, span)
                        assert values.tobytes() == want.tobytes(), (freq, n_steps, k)

    def test_noisy_render_leaves_no_thread(self):
        before = threading.active_count()
        render_scene(make_micro_truth(NoiseSpec(0.5, 0.01, seed=3)))
        assert threading.active_count() == before

    def test_render_that_raises_after_the_worker_starts_leaves_no_thread(self, monkeypatch):
        before = threading.active_count()
        during = []

        def failing_lift(*args):
            during.append(threading.active_count())
            raise RuntimeError("lift failed")

        monkeypatch.setattr(simulate, "lift_pixels", failing_lift)
        with pytest.raises(RuntimeError, match="lift failed"):
            render_scene(make_small_truth(NoiseSpec(0.5, 0.01, seed=3)))
        assert during == [before + 1]  # the worker was drawing when the lift raised
        assert threading.active_count() == before


def lit_one_pass(truth, pose, conic, pixels):
    """Reference for ``simulate._lit_pixels``: the conic test, lift, facing
    filter and projection of every signal pixel in one pass."""
    at = np.flatnonzero(conic.normalized().evaluate(pixels) < 0)
    points, misses = lift_pixels(np.ascontiguousarray(pixels[at].T, dtype=float),
                                 truth.camera.inverse()[None], pose.center[None], pose.radius)
    assert not misses[0]
    lit = simulate._faces_projector(points[0], pose, truth.proj_matrix.center())
    points = np.compress(lit, points, axis=2)
    coded, _ = project_stack(truth.proj_matrix.m[None], points)
    return at[lit], coded[0].T


def render_inputs(truth):
    """The exact conics and the signal pixels that a noiseless render lifts."""
    conics = [project_sphere_to_conic(pose, truth.camera) for pose in truth.spheres]
    boundaries = [sample_conic_points(c, simulate.CONTOUR_SAMPLES) for c in conics]
    return conics, simulate.signal_pixels(boundaries, truth.cam_w, truth.cam_h)


class TestLitPixels:
    """The render lifts the discs ``BLOCK_ROWS`` signal pixels at a time."""

    @pytest.mark.parametrize("make_truth, block_rows",
                             [(cppb_truth, None), (make_small_truth, 1000)],
                             ids=["cppB_default_block", "small_block_1000"])
    def test_blocks_equal_the_one_pass_lift_bitwise(self, make_truth, block_rows, monkeypatch):
        if block_rows:
            monkeypatch.setattr(simulate, "BLOCK_ROWS", block_rows)
        truth = make_truth()
        conics, pixels = render_inputs(truth)
        assert len(pixels) > 2 * simulate.BLOCK_ROWS  # the discs span several blocks
        for pose, conic in zip(truth.spheres, conics):
            at, coded = simulate._lit_pixels(truth, pose, conic, pixels)
            want_at, want_coded = lit_one_pass(truth, pose, conic, pixels)
            assert at.dtype == np.int32
            np.testing.assert_array_equal(at, want_at)
            assert coded.shape == want_coded.shape
            assert coded.tobytes() == want_coded.tobytes()  # (n, 2) copies in C order

    def test_a_miss_in_any_block_raises_with_the_disc_count(self, monkeypatch):
        # a sphere smaller than its disc: the rays near the rim miss it
        monkeypatch.setattr(simulate, "BLOCK_ROWS", 1000)
        truth = make_small_truth()
        conics, pixels = render_inputs(truth)
        pose = truth.spheres[0]
        shrunk = SpherePose(center=pose.center, radius=0.99 * pose.radius)
        n_disc = np.count_nonzero(conics[0].normalized().evaluate(pixels) < 0)
        with pytest.raises(RayMissesSphere, match=rf"^\d+ of {n_disc} rays miss the sphere$"):
            simulate._lit_pixels(truth, shrunk, conics[0], pixels)

    def test_noisy_cppb_render_peaks_under_9_2_mb_above_its_bundle(self):
        # int64 pixel pairs and the one-pass lift of a whole disc peaked 10.1 MB
        # above; an int64 index of the signal pixels among the boxes, held with
        # the noise stream through the fringe stage, peaked 11.1 MB above
        truth = cppb_truth(NoiseSpec(0.5, 0.01, seed=3))
        tracemalloc.start()
        try:
            bundle = render_scene(truth)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= sum(img.nbytes for stack in bundle.stacks.values() for img in stack)
        assert peak - kept < 9.2e6


def index_fill(truth, n, lit_pixels, noise):
    """Reference for ``simulate._fringe_stacks``: each disc's float64 pattern
    values scattered into the float32 frames through its int32 index."""
    stacks = {}
    image = 0
    for cfg in (truth.fringe_vertical, truth.fringe_horizontal):
        axis = 0 if cfg.orientation == "vertical" else 1
        for freq in cfg.freqs:
            stack = []
            for at, coded in lit_pixels:
                steps = simulate._pattern_steps(freq, cfg.n_steps, coded[:, axis], cfg.coded_span)
                for k, value in enumerate(steps):
                    if k == len(stack):
                        stack.append(noise[image + k].result() if noise
                                     else np.zeros(n, dtype=np.float32))
                    if noise:
                        stack[k][at] += value.astype(np.float32)
                    else:
                        stack[k][at] = value
            image += cfg.n_steps
            stacks[(cfg.orientation, freq)] = stack
    return stacks


def resolved(frames):
    """Done futures of copies of ``frames``, as ``_fringe_stacks`` takes noise."""
    futures = [Future() for _ in frames]
    for future, frame in zip(futures, frames):
        future.set_result(frame.copy())
    return futures


def assert_same_stacks(got, want):
    assert list(got) == list(want)
    for key in want:
        assert len(got[key]) == len(want[key])
        for frame, want_frame in zip(got[key], want[key]):
            assert frame.dtype == want_frame.dtype == np.float32
            assert frame.tobytes() == want_frame.tobytes(), key


class TestFringeStacks:
    """Each disc's lit pixels fill the frames through one boolean mask."""

    @pytest.mark.parametrize("noise", [None, NoiseSpec(0.5, 0.01, seed=3)],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("make_truth", [make_small_truth, cppb_truth], ids=["small", "cppB"])
    def test_mask_fill_equals_the_index_fill_bitwise(self, make_truth, noise, monkeypatch):
        fill, filled = simulate._fringe_stacks, []

        def both(truth, n, lit_pixels, noise):
            frames = [future.result().copy() for future in noise]  # before the fill adds
            stacks = fill(truth, n, lit_pixels, noise)
            assert_same_stacks(stacks, index_fill(truth, n, lit_pixels, resolved(frames)))
            filled.append(len(frames))
            return stacks

        monkeypatch.setattr(simulate, "_fringe_stacks", both)
        render_scene(make_truth(noise))
        assert filled == [24 if noise else 0]

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("empty", [0, 1], ids=["first_disc", "second_disc"])
    def test_a_disc_without_lit_pixels(self, empty, noisy):
        truth = make_small_truth()
        conics, pixels = render_inputs(truth)
        lit = [simulate._lit_pixels(truth, pose, conic, pixels)
               for pose, conic in zip(truth.spheres, conics)]
        lit[empty] = (lit[empty][0][:0], lit[empty][1][:0])
        rng = np.random.default_rng(7)
        frames = [rng.standard_normal(len(pixels), dtype=np.float32) for _ in range(24 * noisy)]
        stacks = simulate._fringe_stacks(truth, len(pixels), lit, resolved(frames))
        assert_same_stacks(stacks, index_fill(truth, len(pixels), lit, resolved(frames)))
        if not noisy:  # the empty disc's pixels stay 0
            disc = conics[empty].normalized().evaluate(pixels) < 0
            assert all(not frame[disc].any() for stack in stacks.values() for frame in stack)


class TestSignalPixels:
    def test_overlapping_boxes_hold_each_pixel_once(self, monkeypatch):
        import dataclasses

        from twosphere import reconstruct
        from twosphere.simulate import BOX_PAD_PX

        # diagonal neighbours: the bounding boxes overlap, the silhouettes do not
        truth = dataclasses.replace(
            make_small_truth(),
            spheres=(
                SpherePose(center=[-0.35, -0.30, 5.0], radius=0.4),
                SpherePose(center=[0.33, 0.38, 5.0], radius=0.4),
            ),
        )
        bundle = render_scene(truth)
        (lo0, hi0), (lo1, hi1) = [(c.min(axis=0), c.max(axis=0)) for c in bundle.contours]
        assert np.all(np.minimum(hi0, hi1) > np.maximum(lo0, lo1))

        w, h = truth.cam_w, truth.cam_h
        flat = bundle.flat_index
        assert np.all(np.diff(flat) > 0)  # row-major, no duplicates
        areas = sum(
            np.prod(np.ceil(c.max(axis=0)) - np.floor(c.min(axis=0)) + 2 * BOX_PAD_PX + 1)
            for c in bundle.contours
        )
        assert len(flat) < areas

        stack_bytes = sum(v.nbytes for stack in bundle.stacks.values() for v in stack)
        frame_bytes = sum(len(stack) for stack in bundle.stacks.values()) * w * h * 4
        assert stack_bytes < 0.25 * frame_bytes

        seen = []
        ray_geometry = reconstruct._ray_geometry

        def record(cam_px, *args):
            seen.append(np.asarray(cam_px))
            return ray_geometry(cam_px, *args)

        monkeypatch.setattr(reconstruct, "_ray_geometry", record)
        _, _, stats = reconstruct.reconstruct_cloud(bundle, truth.camera, truth.proj_matrix)
        (cam_px,) = seen
        assert len(cam_px) == stats["points"] > 1000
        assert len(np.unique(cam_px, axis=0)) == len(cam_px)
        assert stats["surface_rmse"] < 1e-6

    def test_exact_cppb_holds_its_discs_and_a_ring(self):
        # 266,166 pixels in the padded boxes; 189,168 inside the two discs
        _, pixels = render_inputs(cppb_truth())
        assert len(pixels) == 211_809

    @pytest.mark.parametrize("contour_sigma", [0.5, 2.0])
    @pytest.mark.parametrize("make_truth", [make_small_truth, cppb_truth], ids=["small", "cppB"])
    def test_holds_every_silhouette_pixel_within_the_boxes(self, make_truth, contour_sigma):
        for seed in (0, 1):
            bundle = render_scene(make_truth(NoiseSpec(contour_sigma, 0.0, seed)))
            truth, flat = bundle.truth, bundle.flat_index
            w, h = truth.cam_w, truth.cam_h
            boxes = padded_boxes(bundle.contours, w, h)
            assert np.all(np.isin(flat, boxes)) and len(flat) < len(boxes)
            for pose in truth.spheres:
                conic = project_sphere_to_conic(pose, truth.camera)
                # the exact silhouette's box, with a margin, holds every disc pixel
                near = padded_boxes([sample_conic_points(conic, 1024)], w, h)
                xy = np.column_stack([near % w, near // w]).astype(float)
                disc = near[conic.normalized().evaluate(xy) < 0]
                missing = disc[~np.isin(disc, flat)]
                assert len(disc) > 1000 and not len(missing), (seed, pose, missing[:5])

    def test_flat_index_is_int64_and_exact_past_2_31(self):
        truth = replace(preset("cppB"), cam_w=70_000)
        pixels = np.array([[69_999, 40_000]], dtype=np.int32)
        bundle = SceneBundle(truth=truth, contours=[], pixels=pixels, stacks={})
        assert bundle.flat_index.dtype == np.int64
        assert bundle.flat_index.tolist() == [2_800_069_999]


SCENES = {"cppA": lambda noise: preset("cppA").with_noise(noise),
          "cppB": lambda noise: preset("cppB").with_noise(noise),
          "small": make_small_truth, "micro": make_micro_truth}


def image_rows(bundle):
    """The bundle's images in the order ``fringes.f32`` stores them: vertical
    then horizontal, frequency-major, step-minor."""
    t = bundle.truth
    return [img for orientation in ("vertical", "horizontal") for freq in t.freqs
            for img in bundle.stacks[(orientation, freq)]]


class TestBundleIO:
    def test_save_load_round_trip(self, tmp_path):
        t = make_micro_truth(NoiseSpec(contour_sigma=0.2, intensity_sigma=0.005, seed=5))
        bundle = render_scene(t)
        out = tmp_path / "bundle"
        bundle.save(out)
        again = SceneBundle.load(out)
        assert again.truth.camera == bundle.truth.camera
        assert again.truth.noise == bundle.truth.noise
        for c1, c2 in zip(bundle.contours, again.contours):
            np.testing.assert_allclose(c1, c2, atol=1e-12)
        np.testing.assert_array_equal(again.pixels, bundle.pixels)
        assert bundle.pixels.dtype == again.pixels.dtype == np.int32
        assert sorted(p.name for p in out.iterdir()) == [
            "contours", "fringes.f32", "fringes.f32.json", "manifest.json", "pixels.i32"]
        assert again.stacks.keys() == bundle.stacks.keys()
        for key, stack in bundle.stacks.items():
            assert len(again.stacks[key]) == len(stack) == t.n_steps
            for i1, i2 in zip(stack, again.stacks[key]):
                assert i2.dtype == np.float32
                np.testing.assert_array_equal(i1, i2)
        # each loaded image is a row of one buffer
        assert len({id(img.base) for img in image_rows(again)}) == 1

    def test_noisy_bundle_saved_loaded_and_saved_again_is_byte_identical(self, tmp_path):
        bundle = render_scene(make_small_truth(NoiseSpec(0.5, 0.01, seed=7)))
        bundle.save(tmp_path / "first")
        SceneBundle.load(tmp_path / "first").save(tmp_path / "second")
        files = sorted(p.relative_to(tmp_path / "first") for p in (tmp_path / "first").rglob("*")
                       if p.is_file())
        assert len(files) == 2 + 1 + 2 + 1  # contours, pixels, fringes with sidecar, manifest
        for rel in files:
            first, second = (tmp_path / side / rel for side in ("first", "second"))
            assert first.read_bytes() == second.read_bytes(), rel

    def test_saved_fringes_hold_the_stacks_in_image_order(self, tmp_path):
        from twosphere.imageio import read_float32

        t = make_micro_truth(NoiseSpec(contour_sigma=0.2, intensity_sigma=0.01, seed=5))
        bundle = render_scene(t)
        bundle.save(tmp_path / "bundle")
        assert (tmp_path / "bundle" / "pixels.i32").read_bytes() == bundle.pixels.tobytes()
        fringes = read_float32(tmp_path / "bundle" / "fringes.f32")
        assert fringes.shape == (2 * 3 * 4, len(bundle.pixels))
        for row, values in zip(fringes, image_rows(bundle), strict=True):
            assert row.tobytes() == values.tobytes()

    @pytest.mark.parametrize("scene", SCENES)
    def test_saved_bundle_is_signal_sized(self, tmp_path, scene):
        for noise in [NoiseSpec()] + [NoiseSpec(0.5, 0.01, seed) for seed in range(3)]:
            bundle = render_scene(SCENES[scene](noise))
            out = tmp_path / f"seed{noise.seed}"
            bundle.save(out)
            t, n = bundle.truth, len(bundle.pixels)
            images = 2 * len(t.freqs) * t.n_steps
            sizes = {p.relative_to(out).as_posix(): p.stat().st_size
                     for p in out.rglob("*") if p.is_file()}
            assert sizes["fringes.f32"] == 4 * images * n
            assert sizes["pixels.i32"] == 8 * n
            # contours, manifest and sidecar: ~20 kB; no file is a float32 frame
            assert sum(sizes.values()) < 4 * images * n + 8 * n + 64_000, sizes
            assert 4 * t.cam_w * t.cam_h not in sizes.values()
            again = SceneBundle.load(out)
            assert again.pixels.tobytes() == bundle.pixels.tobytes()
            assert ([img.tobytes() for img in image_rows(again)]
                    == [img.tobytes() for img in image_rows(bundle)])

    def test_save_without_signal_pixels(self, tmp_path):
        bundle = render_scene(make_micro_truth())
        bundle.pixels = bundle.pixels[:0]
        bundle.stacks = {key: [v[:0] for v in stack] for key, stack in bundle.stacks.items()}
        bundle.save(tmp_path / "bundle")
        for name in ("pixels.i32", "fringes.f32"):
            assert (tmp_path / "bundle" / name).read_bytes() == b""
        again = SceneBundle.load(tmp_path / "bundle")
        assert again.pixels.shape == (0, 2)
        assert [img.shape for img in image_rows(again)] == [(0,)] * 24

    def test_loaded_stacks_outlive_the_bundle_files(self, tmp_path):
        import shutil

        from twosphere.pipeline import decode_bundle

        bundle = render_scene(make_micro_truth(NoiseSpec(intensity_sigma=0.01, seed=2)))
        bundle.save(tmp_path / "bundle")
        again = SceneBundle.load(tmp_path / "bundle")
        shutil.rmtree(tmp_path / "bundle")
        for stack in again.stacks.values():
            assert all(type(img) is np.ndarray for img in stack)
        proj_px, valid = decode_bundle(again)
        expected_px, expected_valid = decode_bundle(bundle)
        np.testing.assert_array_equal(valid, expected_valid)
        np.testing.assert_array_equal(proj_px, expected_px)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SceneBundle.load(tmp_path)
