"""Raw little-endian float32 rasters with a JSON sidecar holding the shape."""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatch


def write_float32(path, image: np.ndarray) -> None:
    """Raw little-endian float32 dump plus a ``{path}.json`` sidecar with the shape."""
    img = np.asarray(image, dtype="<f4")
    if img.ndim != 2:
        raise ValueError("float32 raster must be a 2D array")
    h, w = img.shape
    img.tofile(path)
    with open(f"{path}.json", "w") as f:
        json.dump({"width": w, "height": h, "dtype": "float32"}, f, sort_keys=True)
        f.write("\n")


def read_float32(path) -> np.ndarray:
    """The (height, width) float32 raster that ``write_float32`` wrote to ``path``.

    Raises DimensionMismatch unless the file holds exactly width x height values.
    """
    with open(f"{path}.json") as f:
        meta = json.load(f)
    w, h = int(meta["width"]), int(meta["height"])
    img = np.fromfile(path, dtype="<f4")
    if img.size != w * h:
        raise DimensionMismatch(f"{path}: {img.size} float32 values, sidecar says {w} x {h}")
    return img.reshape(h, w)
