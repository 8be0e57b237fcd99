import numpy as np
import pytest

from twosphere import imageio
from twosphere.errors import DimensionMismatch


class TestFloat32:
    def test_round_trip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(7, 3)).astype(np.float32)
        imageio.write_float32(tmp_path / "f.f32", img)
        assert (tmp_path / "f.f32.json").exists()
        np.testing.assert_array_equal(imageio.read_float32(tmp_path / "f.f32"), img)

    # the sidecar says 7 x 3 values, 84 bytes: shorter files, then longer ones
    @pytest.mark.parametrize("size", [0, 80, 88, 1000])
    def test_size_differing_from_sidecar_raises(self, tmp_path, size):
        path = tmp_path / "h.f32"
        imageio.write_float32(path, np.ones((7, 3), dtype=np.float32))
        path.write_bytes(bytes(size))
        with pytest.raises(DimensionMismatch):
            imageio.read_float32(path)

    @pytest.mark.parametrize("top, rows", [(0, 3), (4, 3), (7, 3), (5, 0)],
                             ids=["top", "middle", "bottom", "empty"])
    def test_band_write_equals_full_frame_write(self, tmp_path, top, rows):
        band = np.random.default_rng(3).normal(size=(rows, 5)).astype(np.float32)
        frame = np.zeros((10, 5), dtype=np.float32)
        frame[top:top + rows] = band
        imageio.write_float32(tmp_path / "full.f32", frame)
        imageio.write_float32(tmp_path / "band.f32", band, top, 10)
        for suffix in ("", ".json"):
            assert ((tmp_path / f"band.f32{suffix}").read_bytes()
                    == (tmp_path / f"full.f32{suffix}").read_bytes())
        np.testing.assert_array_equal(imageio.read_float32(tmp_path / "band.f32"), frame)

    @pytest.mark.parametrize("top, rows", [(8, 3), (0, 11), (-1, 2)])
    def test_band_outside_frame_raises(self, tmp_path, top, rows):
        with pytest.raises(ValueError):
            imageio.write_float32(tmp_path / "b.f32", np.ones((rows, 5), np.float32), top, 10)

    def test_read_returns_read_only_map(self, tmp_path):
        imageio.write_float32(tmp_path / "m.f32", np.ones((4, 2), dtype=np.float32))
        img = imageio.read_float32(tmp_path / "m.f32")
        assert isinstance(img, np.memmap) and not img.flags.writeable
