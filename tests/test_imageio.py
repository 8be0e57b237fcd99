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
