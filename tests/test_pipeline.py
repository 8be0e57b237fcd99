import numpy as np
import pytest

from twosphere import fit_conic, phase, pipeline, run_calibration, sample_interior_pixels
from twosphere.pipeline import decode_bundle


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
