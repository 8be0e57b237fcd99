from dataclasses import replace

import numpy as np
import pytest

from conftest import make_micro_truth, make_small_truth, random_layouts

from twosphere import (NoiseSpec, fit_conic, phase, pipeline, preset, render_scene,
                       run_calibration, sample_interior_pixels)
from twosphere.errors import TwosphereError
from twosphere.pipeline import assemble_observations, decode_bundle


def full_decode_at(bundle, at):
    proj_px, valid = decode_bundle(bundle)
    return proj_px[at], valid[at]


class TestDecodeBundle:
    @pytest.mark.parametrize("kind", ["random", "unsorted_repeats", "empty", "full"])
    def test_subset_equals_full_decode_indexed(self, bundle_small_noisy, kind):
        n = len(bundle_small_noisy.pixels)
        rng = np.random.default_rng(5)
        at = {
            "random": np.sort(rng.choice(n, 3000, replace=False)),
            "unsorted_repeats": rng.choice(n, 500),
            "empty": np.zeros(0, dtype=np.int64),
            "full": np.arange(n),
        }[kind]
        proj_px, valid = decode_bundle(bundle_small_noisy, at)
        ref_px, ref_valid = full_decode_at(bundle_small_noisy, at)
        assert proj_px.shape == (len(at), 2) and valid.shape == (len(at),)
        assert proj_px.tobytes() == ref_px.tobytes()
        assert np.array_equal(valid, ref_valid)


class TestCalibrationDecode:
    def test_decodes_only_the_sampled_rows_in_one_call(self, bundle_small_noisy, monkeypatch):
        decoded = []
        bundle_calls = []
        decode_wrapped = phase.decode_wrapped
        decode = pipeline.decode_bundle

        def counting_decode_wrapped(stack):
            result = decode_wrapped(stack)
            decoded.append(result[0].size)
            return result

        def counting_decode_bundle(*args, **kwargs):
            bundle_calls.append(1)
            return decode(*args, **kwargs)

        monkeypatch.setattr(phase, "decode_wrapped", counting_decode_wrapped)
        monkeypatch.setattr(pipeline, "decode_bundle", counting_decode_bundle)
        run_calibration(bundle_small_noisy)

        sampled = sum(len(sample_interior_pixels(fit_conic(c))) for c in bundle_small_noisy.contours)
        # 3 frequencies x 2 orientations, each decoded at the sampled rows only
        assert len(decoded) == 6 and len(bundle_calls) == 1
        assert sum(decoded) <= 6 * sampled
        assert sum(decoded) < 0.05 * 6 * len(bundle_small_noisy.pixels)


class TestSphereCount:
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_other_contour_counts_raise(self, bundle_small, count):
        # a third contour is a copy of the first: decoded and assembled, then refused
        contours = [bundle_small.contours[i % 2] for i in range(count)]
        with pytest.raises(TwosphereError, match=f"two sphere observations required, got {count}"):
            run_calibration(replace(bundle_small, contours=contours))

    def test_each_sphere_keeps_its_own_rows(self, bundle_small_noisy):
        # the one decode splits back at the cumulative sample counts: sphere
        # 1's correspondences are the ones it has alone
        both = assemble_observations(bundle_small_noisy)
        alone = assemble_observations(replace(bundle_small_noisy,
                                              contours=bundle_small_noisy.contours[1:]))
        assert both[1].cam_px.tobytes() == alone[0].cam_px.tobytes()
        assert both[1].proj_px.tobytes() == alone[0].proj_px.tobytes()


class TestSamplesAreSignalPixels:
    """``assemble_observations`` drops a sample it does not find in
    ``bundle.pixels``; the row hulls hold every sample it draws."""

    @staticmethod
    def drawn_and_decoded(bundle, monkeypatch):
        drawn, decoded = [], []
        sample, decode = pipeline.sample_interior_pixels, pipeline.decode_bundle

        def recording_sample(*args, **kwargs):
            pixels = sample(*args, **kwargs)
            drawn.append(len(pixels))
            return pixels

        def recording_decode(bundle, at):
            decoded.append(len(at))
            return decode(bundle, at)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "sample_interior_pixels", recording_sample)
            patch.setattr(pipeline, "decode_bundle", recording_decode)
            assemble_observations(bundle)
        return sum(drawn), decoded

    def test_random_layouts_drop_no_sample(self, monkeypatch):
        for i, bundle in enumerate(random_layouts(24)):
            drawn, decoded = self.drawn_and_decoded(bundle, monkeypatch)
            assert decoded == [drawn], f"layout {i}"

    @pytest.mark.parametrize("make_truth", [
        lambda noise: preset("cppA").with_noise(noise),
        lambda noise: preset("cppB").with_noise(noise),
        make_small_truth,
        make_micro_truth,
    ], ids=["cppA", "cppB", "small", "micro"])
    def test_noisy_presets_drop_no_sample(self, make_truth, monkeypatch):
        # the contours alone fix the list and the samples: no intensity noise needed
        for seed in (0, 1, 2):
            bundle = render_scene(make_truth(NoiseSpec(0.5, 0.0, seed)))
            drawn, decoded = self.drawn_and_decoded(bundle, monkeypatch)
            assert decoded == [drawn], f"seed {seed}"

    def test_an_off_frame_sample_that_aliases_a_pixel_is_dropped(self, bundle_small_noisy,
                                                                  monkeypatch):
        # (x0 + w, y0 - 1) has the row-major index of the signal pixel (x0, y0)
        w = bundle_small_noisy.truth.cam_w
        sample = pipeline.sample_interior_pixels

        def aliasing_sample(*args, **kwargs):
            pixels = sample(*args, **kwargs)
            x0, y0 = pixels[pixels[:, 1] >= 1][0]
            return np.vstack([pixels, [x0 + w, y0 - 1]])

        expected = assemble_observations(bundle_small_noisy)
        monkeypatch.setattr(pipeline, "sample_interior_pixels", aliasing_sample)
        observed = assemble_observations(bundle_small_noisy)
        for got, want in zip(observed, expected, strict=True):
            assert got.cam_px.tobytes() == want.cam_px.tobytes()
            assert got.proj_px.tobytes() == want.proj_px.tobytes()
