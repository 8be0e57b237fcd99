"""Raw little-endian float32 rasters with a JSON sidecar holding the shape.

A raster file is always the full height x width frame. ``write_float32``
writes only a band of rows and leaves the rows around it as file holes,
which read as 0; ``read_float32`` maps the file instead of reading it, so a
caller that gathers a few pixels touches only the pages that hold them.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionMismatch


def write_float32(path, band: np.ndarray, top: int = 0, height: int | None = None) -> None:
    """Write a ``height`` x width frame that is 0 except for ``band`` at rows
    ``top`` onward, plus a ``{path}.json`` sidecar with the frame's shape.

    The file holds the same bytes as the zero-padded frame written in full;
    only the band's rows are written, the rest are holes. ``height`` defaults
    to the band's own height, which writes ``band`` as the whole frame.
    """
    img = np.asarray(band, dtype="<f4")
    if img.ndim != 2:
        raise ValueError("float32 raster must be a 2D array")
    rows, w = img.shape
    h = rows if height is None else height
    if top < 0 or top + rows > h:
        raise ValueError(f"a band of {rows} rows at row {top} does not fit in {h} rows")
    with open(path, "wb") as f:
        f.seek(top * w * img.itemsize)
        img.tofile(f)
        f.truncate(h * w * img.itemsize)
    with open(f"{path}.json", "w") as f:
        json.dump({"width": w, "height": h, "dtype": "float32"}, f, sort_keys=True)
        f.write("\n")


def read_float32(path) -> np.ndarray:
    """The (height, width) float32 raster that ``write_float32`` wrote to ``path``,
    as a read-only ``np.memmap`` of the file.

    Raises ValueError unless the sidecar's width and height are integers, not
    bools, and DimensionMismatch unless the file holds exactly that many values.
    """
    with open(f"{path}.json") as f:
        meta = json.load(f)
    w, h = meta["width"], meta["height"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (w, h)):
        raise ValueError(f"width {w!r} and height {h!r} must be integers")
    size = os.path.getsize(path)
    if size != 4 * w * h:
        raise DimensionMismatch(f"{path}: {size} bytes, sidecar says {w} x {h} float32 values")
    return np.memmap(path, dtype="<f4", mode="r", shape=(h, w))
