"""Raw little-endian float32 rasters with a JSON sidecar holding the shape.

A raster is a height x width array written row after row, with no header;
``{path}.json`` records its width and height. A bundle stores its fringe
images as one raster, one image of the signal pixels per row.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionMismatch


def write_float32(path, rows) -> None:
    """Write the equal-length 1-D ``rows`` one after another to ``path`` as a
    len(rows) x width raster, plus a ``{path}.json`` sidecar with its shape.

    Each row is converted and written on its own, so the rows are never
    stacked into one array. Raises ValueError unless every row is 1-D and as
    long as the first.
    """
    width = len(rows[0]) if len(rows) else 0
    with open(path, "wb") as f:
        for row in rows:
            row = np.asarray(row, dtype="<f4")
            if row.shape != (width,):
                raise ValueError(f"a raster row of shape {row.shape} among rows of {width}")
            row.tofile(f)
    with open(f"{path}.json", "w") as f:
        json.dump({"width": width, "height": len(rows), "dtype": "float32"}, f, sort_keys=True)
        f.write("\n")


def read_float32(path) -> np.ndarray:
    """The (height, width) float32 raster that ``write_float32`` wrote to
    ``path``, read into one in-memory array.

    Raises ValueError unless the sidecar's width and height are non-negative
    integers, not bools, and DimensionMismatch unless the file holds exactly
    that many values.
    """
    with open(f"{path}.json") as f:
        meta = json.load(f)
    w, h = meta["width"], meta["height"]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (w, h)):
        raise ValueError(f"width {w!r} and height {h!r} must be non-negative integers")
    size = os.path.getsize(path)
    if size != 4 * w * h:
        raise DimensionMismatch(f"{path}: {size} bytes, sidecar says {w} x {h} float32 values")
    return np.fromfile(path, dtype="<f4").reshape(h, w)
