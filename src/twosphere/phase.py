"""N-step phase-shifting codec: pattern synthesis, wrapped-phase decoding,
two-frequency temporal unwrapping, and the phase -> projector-pixel map.

Patterns code one projector axis at a time. For fringe count f over a span of
W pixels, step k of N is::

    I_k(u) = 0.5 + 0.5 cos(2 pi f u / W - 2 pi k / N)

so the absolute phase at coordinate u is ``2 pi f u / W`` and the projector
coordinate is recovered as ``u = W phi / (2 pi f)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange

__all__ = [
    "FringeConfig",
    "render_patterns",
    "pattern_value",
    "decode_wrapped",
    "unwrap_temporal",
    "unwrap_ladder",
    "decode_phase",
    "phase_to_proj_coord",
]

DEFAULT_MIN_MODULATION = 0.05
MAX_UNWRAP_RATIO = 8.0


@dataclass(frozen=True)
class FringeConfig:
    """Phase-shifting pattern set for one coded axis.

    freqs are fringe counts across the coded span (cycles per frame),
    strictly increasing; consecutive ratios may not exceed 8, the safe bound
    for round-to-nearest temporal unwrapping (``is_ladder``).
    """

    n_steps: int
    freqs: tuple[int, ...]
    proj_w: int
    proj_h: int
    orientation: str  # "vertical" fringes code x, "horizontal" code y

    def __post_init__(self) -> None:
        if self.n_steps < 3:
            raise ValueError("phase shifting needs at least 3 steps")
        if self.orientation not in ("vertical", "horizontal"):
            raise ValueError("orientation must be 'vertical' or 'horizontal'")
        if not is_ladder(self.freqs):
            raise ValueError(f"freqs must be positive and strictly increasing, each at most "
                             f"{MAX_UNWRAP_RATIO:g}x the last, got {self.freqs}")
        if self.proj_w < 1 or self.proj_h < 1:
            raise ValueError("projector resolution must be positive")

    @property
    def coded_span(self) -> int:
        """Resolution in pixels along the coded axis."""
        return self.proj_w if self.orientation == "vertical" else self.proj_h

    @property
    def top_freq(self) -> int:
        return self.freqs[-1]


def is_ladder(freqs) -> bool:
    """Positive fringe counts, each above the last and at most MAX_UNWRAP_RATIO times it."""
    return len(freqs) > 0 and freqs[0] > 0 and all(
        a < b <= MAX_UNWRAP_RATIO * a for a, b in zip(freqs, freqs[1:]))


def pattern_value(freq: int, step: int, n_steps: int, coord, span: int):
    """Pattern intensity at a continuous coordinate along the coded axis."""
    coord = np.asarray(coord, dtype=float)
    return 0.5 + 0.5 * np.cos(2.0 * np.pi * freq * coord / span - 2.0 * np.pi * step / n_steps)


def render_patterns(cfg: FringeConfig) -> list[np.ndarray]:
    """All pattern images, frequency-major then step order.

    Returns ``len(cfg.freqs) * cfg.n_steps`` float arrays of shape
    (proj_h, proj_w) with values in [0, 1].
    """
    span = cfg.coded_span
    coords = np.arange(span, dtype=float)
    images = []
    for f in cfg.freqs:
        for k in range(cfg.n_steps):
            line = pattern_value(f, k, cfg.n_steps, coords, span)
            if cfg.orientation == "vertical":
                img = np.broadcast_to(line[None, :], (cfg.proj_h, cfg.proj_w)).copy()
            else:
                img = np.broadcast_to(line[:, None], (cfg.proj_h, cfg.proj_w)).copy()
            images.append(img)
    return images


def decode_wrapped(stack) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped phase in [0, 2 pi) and modulation amplitude from an N-step stack.

    phi = atan2(sum_k I_k sin(2 pi k / N), sum_k I_k cos(2 pi k / N)),
    B   = (2 / N) sqrt(sin_sum^2 + cos_sum^2).

    Exact for noiseless cosine stacks; invariant to gain and offset. B is the
    square root taken in place, within 2 ulp of ``hypot`` at a third of its
    cost. A non-finite image value gives sums and B of inf or NaN, and an inf
    B passes the modulation test (``SceneBundle.load`` rejects such a bundle).
    """
    images = [np.asarray(img) for img in stack]
    if len(images) < 3:
        raise DimensionMismatch(f"need at least 3 phase-shifted images, got {len(images)}")
    shape = images[0].shape
    if any(img.shape != shape for img in images):
        raise DimensionMismatch("stack images differ in shape")
    n = len(images)
    deltas = 2.0 * np.pi * np.arange(n) / n
    # the sums start at +0.0 and grow in place; each product is taken in
    # float64 into one reused buffer, so no float64 copy of an image is made
    sin_sum, cos_sum, term = (np.zeros(shape) for _ in range(3))
    for img, d in zip(images, deltas):
        sin_sum += np.multiply(img, np.sin(d), out=term)
        cos_sum += np.multiply(img, np.cos(d), out=term)
    phase = _wrap_in_place(np.arctan2(sin_sum, cos_sum))
    modulation = np.multiply(sin_sum, sin_sum, out=term)
    modulation += np.multiply(cos_sum, cos_sum, out=cos_sum)
    np.sqrt(modulation, out=modulation)
    modulation *= 2.0 / n
    return phase, modulation


def _wrap_in_place(phase: np.ndarray) -> np.ndarray:
    """``np.mod(phase, 2 pi)`` bit for bit for phases in [-pi, pi], at half
    its cost: 2 pi is added where negative, and ``+ 0.0`` turns -0.0 into
    +0.0 as ``np.mod`` does."""
    np.add(phase, 2.0 * np.pi, out=phase, where=phase < 0)
    phase += 0.0
    return phase


def unwrap_temporal(low: np.ndarray, high: np.ndarray, f_lo: int, f_hi: int) -> np.ndarray:
    """Unwrap the f_hi map against an already-absolute f_lo map.

    Fringe order k = round((f_hi/f_lo * phi_lo - phi_hi) / 2 pi); the
    unwrapped phase is ``phi_hi + 2 pi k``, clipped to [0, 2 pi f_hi].
    """
    if f_hi <= f_lo:
        raise ValueError("f_hi must exceed f_lo")
    if f_hi / f_lo > MAX_UNWRAP_RATIO:
        raise ValueError(f"frequency ratio {f_hi / f_lo} exceeds {MAX_UNWRAP_RATIO}")
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    if low.shape != high.shape:
        raise DimensionMismatch("phase maps differ in shape")
    order = np.round(((f_hi / f_lo) * low - high) / (2.0 * np.pi))
    return np.clip(high + 2.0 * np.pi * order, 0.0, 2.0 * np.pi * f_hi)


def unwrap_ladder(wrapped_maps, freqs) -> np.ndarray:
    """Chain unwrap_temporal up a strictly increasing frequency ladder.

    The first map must be absolute already, which holds for f = 1 where one
    fringe spans the frame.
    """
    freqs = list(freqs)
    if len(wrapped_maps) != len(freqs):
        raise DimensionMismatch("one wrapped map per frequency required")
    absolute = np.asarray(wrapped_maps[0], dtype=float)
    for prev_f, f, wrapped in zip(freqs, freqs[1:], wrapped_maps[1:]):
        absolute = unwrap_temporal(absolute, wrapped, prev_f, f)
        # absolute is now at frequency f for the next rung
    return absolute


def decode_phase(stacks_by_freq, cfg: FringeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Absolute phase in [0, 2 pi f_top] and validity mask from per-frequency
    stacks aligned with cfg.freqs, each a stack of cfg.n_steps images.

    Valid pixels have modulation at or above ``DEFAULT_MIN_MODULATION`` at
    every frequency.
    """
    if len(stacks_by_freq) != len(cfg.freqs):
        raise DimensionMismatch("one stack per configured frequency required")
    wrapped, modulation = zip(*(decode_wrapped(stack) for stack in stacks_by_freq))
    mask = np.minimum.reduce(modulation) >= DEFAULT_MIN_MODULATION
    return unwrap_ladder(wrapped, cfg.freqs), mask


def phase_to_proj_coord(phase, top_freq: int, span: int):
    """Map absolute phase to a projector coordinate in pixels: W phi / (2 pi f).

    Accepts scalars or arrays; raises OutOfRange when any value leaves
    [0, 2 pi f] beyond rounding slack.
    """
    phase = np.asarray(phase, dtype=float)
    limit = 2.0 * np.pi * top_freq
    slack = 1e-9 * limit
    if np.any(phase < -slack) or np.any(phase > limit + slack):
        raise OutOfRange(f"phase outside [0, {limit:.6g}]")
    coord = span * np.clip(phase, 0.0, limit) / limit
    return float(coord) if coord.ndim == 0 else coord
