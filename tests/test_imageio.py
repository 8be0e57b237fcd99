import json

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

    @pytest.mark.parametrize("height, width", [(3, 5), (1, 5), (4, 0), (0, 0)],
                             ids=["rows", "one_row", "empty_rows", "no_rows"])
    def test_rows_written_in_turn_equal_one_write(self, tmp_path, height, width):
        array = np.random.default_rng(3).normal(size=(height, width))
        imageio.write_float32(tmp_path / "rows.f32", [row.copy() for row in array])
        (tmp_path / "array.f32").write_bytes(array.astype("<f4").tobytes())
        assert (tmp_path / "rows.f32").read_bytes() == (tmp_path / "array.f32").read_bytes()
        meta = json.loads((tmp_path / "rows.f32.json").read_text())
        assert meta == {"width": width, "height": height, "dtype": "float32"}
        np.testing.assert_array_equal(imageio.read_float32(tmp_path / "rows.f32"),
                                      array.astype(np.float32))

    @pytest.mark.parametrize("rows", [[np.ones(3), np.ones(4)], [np.ones((2, 2))],
                                      [np.ones(2), np.float32(1.0)]],
                             ids=["unequal_rows", "2d_row", "scalar_row"])
    def test_rows_of_other_shapes_raise(self, tmp_path, rows):
        with pytest.raises(ValueError):
            imageio.write_float32(tmp_path / "b.f32", rows)

    def test_read_returns_one_in_memory_array(self, tmp_path):
        imageio.write_float32(tmp_path / "m.f32", np.ones((4, 2), dtype=np.float32))
        img = imageio.read_float32(tmp_path / "m.f32")
        (tmp_path / "m.f32").unlink()
        assert type(img) is np.ndarray and img.flags.c_contiguous and img.flags.writeable
        assert img.shape == (4, 2) and img.dtype == np.float32
        assert all(row.base is img.base for row in img)  # each row a view of one buffer

    @pytest.mark.parametrize("meta", [{"height": 7}, {"width": 3.0, "height": 7},
                                      {"width": "3", "height": 7}, {"width": 3, "height": True},
                                      {"width": -3, "height": -7}],
                             ids=["no_width", "fractional", "text", "true", "negative"])
    def test_sidecar_without_integer_shape_raises(self, tmp_path, meta):
        path = tmp_path / "s.f32"
        imageio.write_float32(path, np.ones((7, 3), dtype=np.float32))
        (tmp_path / "s.f32.json").write_text(json.dumps({**meta, "dtype": "float32"}))
        with pytest.raises((KeyError, ValueError)):
            imageio.read_float32(path)
