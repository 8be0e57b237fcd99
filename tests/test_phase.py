import numpy as np
import pytest

from twosphere import (
    FringeConfig,
    decode_wrapped,
    phase_to_proj_coord,
    unwrap_ladder,
)
from twosphere.errors import DimensionMismatch, OutOfRange
from twosphere.phase import (
    _wrap_in_place,
    decode_phase,
    pattern_value,
    render_patterns,
    unwrap_temporal,
)


def cfg_vertical(n_steps=4, freqs=(1, 8, 64), w=854, h=480):
    return FringeConfig(n_steps=n_steps, freqs=freqs, proj_w=w, proj_h=h,
                        orientation="vertical")


def render_stack(coords, freq, n_steps, span):
    """Intensity stack at arbitrary continuous coordinates (1D arrays)."""
    return [pattern_value(freq, k, n_steps, coords, span) for k in range(n_steps)]


class TestFringeConfig:
    def test_rejects_small_step_count(self):
        with pytest.raises(ValueError):
            cfg_vertical(n_steps=2)

    def test_rejects_large_ratio(self):
        with pytest.raises(ValueError):
            cfg_vertical(freqs=(1, 9))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            cfg_vertical(freqs=(8, 8))


class TestRenderPatterns:
    def test_four_step_values_at_origin(self):
        cfg = cfg_vertical(n_steps=4, freqs=(1,), w=4, h=2)
        imgs = render_patterns(cfg)
        np.testing.assert_allclose([img[0, 0] for img in imgs], [1.0, 0.5, 0.0, 0.5],
                                   atol=1e-12)

    def test_four_step_values_quarter_period(self):
        cfg = cfg_vertical(n_steps=4, freqs=(1,), w=4, h=2)
        imgs = render_patterns(cfg)
        np.testing.assert_allclose([img[0, 1] for img in imgs], [0.5, 1.0, 0.5, 0.0],
                                   atol=1e-12)

    def test_horizontal_codes_rows(self):
        cfg = FringeConfig(n_steps=4, freqs=(1,), proj_w=8, proj_h=4,
                           orientation="horizontal")
        imgs = render_patterns(cfg)
        assert np.all(imgs[0][0, :] == imgs[0][0, 0])  # constant along a row
        assert imgs[0][0, 0] != imgs[0][1, 0]

    def test_values_in_unit_range(self):
        for img in render_patterns(cfg_vertical(w=64, h=4)):
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_three_step_render_decode_round_trip(self):
        # all projector columns at N=3, f=8, the projector's real width
        cfg = cfg_vertical(n_steps=3, freqs=(8,), w=854, h=1)
        imgs = render_patterns(cfg)
        phase, _ = decode_wrapped(imgs)
        u = np.arange(854)
        expected = np.mod(2 * np.pi * 8 * u / 854, 2 * np.pi)
        np.testing.assert_allclose(phase[0], expected, atol=1e-10)


class TestDecodeWrapped:
    def test_trivial_four_step(self):
        phase, mod = decode_wrapped([np.array([[1.0]]), np.array([[0.5]]),
                                     np.array([[0.0]]), np.array([[0.5]])])
        assert phase[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert mod[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_quarter_shift_four_step(self):
        phase, mod = decode_wrapped([np.array([[0.5]]), np.array([[1.0]]),
                                     np.array([[0.5]]), np.array([[0.0]])])
        assert phase[0, 0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert mod[0, 0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n_steps", [3, 4, 8])
    def test_random_phases_exact(self, n_steps):
        rng = np.random.default_rng(n_steps)
        phi = rng.uniform(0, 2 * np.pi, 1000)
        offset = rng.uniform(0.05, 1.0)
        amplitude = rng.uniform(0.05, 1.0)
        deltas = 2 * np.pi * np.arange(n_steps) / n_steps
        stack = [offset + amplitude * np.cos(phi - d) for d in deltas]
        decoded, mod = decode_wrapped(stack)
        err = np.abs(np.mod(decoded - phi + np.pi, 2 * np.pi) - np.pi)
        assert np.max(err) < 1e-12
        np.testing.assert_allclose(mod, amplitude, atol=1e-12)

    def test_gain_offset_invariance(self):
        rng = np.random.default_rng(1)
        phi = rng.uniform(0, 2 * np.pi, 256)
        stack = render_stack(phi * 854 / (2 * np.pi), 1, 4, 854)
        base, _ = decode_wrapped(stack)
        scaled, _ = decode_wrapped([0.2 + 1.7 * img for img in stack])
        err = np.abs(np.mod(scaled - base + np.pi, 2 * np.pi) - np.pi)
        assert np.max(err) < 1e-12

    def test_wrap_matches_np_mod_bytes(self):
        # every arctan2 output range edge, signed zeros and subnormals included
        rng = np.random.default_rng(4)
        edges = [-0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324, -1e-17, -4e-16,
                 np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)]
        phases = np.concatenate([edges, rng.uniform(-np.pi, np.pi, 4096)])
        expected = np.mod(phases, 2 * np.pi)
        assert _wrap_in_place(phases.copy()).tobytes() == expected.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            decode_wrapped([np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2))])

    def test_needs_three_images(self):
        with pytest.raises(DimensionMismatch):
            decode_wrapped([np.zeros((2, 2)), np.zeros((2, 2))])


class TestUnwrap:
    def test_exact_arithmetic_example(self):
        # true coordinate at 30% of the span; f_lo=1 anchor is absolute
        u_frac = 0.3
        low = np.array([2 * np.pi * u_frac])
        high = np.array([np.mod(2 * np.pi * 8 * u_frac, 2 * np.pi)])
        unwrapped = unwrap_temporal(low, high, 1, 8)
        np.testing.assert_allclose(unwrapped, [4.8 * np.pi], atol=1e-10)

    @pytest.mark.parametrize("ratio", [4, 8])
    def test_noiseless_sweep_zero_order_errors(self, ratio):
        u = np.linspace(0, 1, 20000, endpoint=False)
        low = 2 * np.pi * u
        high_true = 2 * np.pi * ratio * u
        high = np.mod(high_true, 2 * np.pi)
        unwrapped = unwrap_temporal(low, high, 1, ratio)
        assert np.max(np.abs(unwrapped - high_true)) < 1e-9

    def test_rejects_excessive_ratio(self):
        with pytest.raises(ValueError):
            unwrap_temporal(np.zeros(4), np.zeros(4), 1, 9)

    def test_ladder_chains_frequencies(self):
        span = 854.0
        u = np.linspace(0, span, 5000, endpoint=False)
        freqs = (1, 8, 64)
        wrapped = [np.mod(2 * np.pi * f * u / span, 2 * np.pi) for f in freqs]
        absolute = unwrap_ladder(wrapped, freqs)
        np.testing.assert_allclose(absolute, 2 * np.pi * 64 * u / span, atol=1e-8)

    def test_monte_carlo_order_error_rate(self):
        # gaussian intensity noise sigma=0.01 at ratio 8, N=4: fringe-order
        # error rate must stay under 0.1%. The outermost ~2 px of the span
        # are excluded: there the absolute anchor phase is cyclically
        # bi-stable (0 vs 2 pi) under any noise, which is a property of the
        # code, not of the decoder; scene pixels never map there.
        rng = np.random.default_rng(2024)
        n = 200_000
        span = 854.0
        u = rng.uniform(0.005 * span, 0.995 * span, n)
        noisy = {}
        for f in (1, 8):
            stack = [img + rng.normal(0, 0.01, n) for img in render_stack(u, f, 4, span)]
            noisy[f], _ = decode_wrapped(stack)
        unwrapped = unwrap_temporal(noisy[1], noisy[8], 1, 8)
        true_phase = 2 * np.pi * 8 * u / span
        orders_off = np.abs(np.round((unwrapped - true_phase) / (2 * np.pi)))
        rate = np.mean(orders_off >= 1)
        assert rate < 1e-3


class TestPhaseToProjCoord:
    def test_zero_and_full_span(self):
        assert phase_to_proj_coord(0.0, 8, 854) == 0.0
        assert phase_to_proj_coord(2 * np.pi * 8, 8, 854) == pytest.approx(854.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            phase_to_proj_coord(-0.5, 8, 854)
        with pytest.raises(OutOfRange):
            phase_to_proj_coord(2 * np.pi * 8 + 0.1, 8, 854)

    def test_full_chain_recovers_known_pixel(self):
        # ground-truth projector coordinate 427.0 of an 854-wide frame at a
        # top frequency of 8, recovered through the complete chain
        span = 854.0
        freqs = (1, 8)
        u = np.array([427.0])
        wrapped = [decode_wrapped(render_stack(u, f, 4, span))[0] for f in freqs]
        coord = phase_to_proj_coord(unwrap_ladder(wrapped, freqs), 8, span)
        assert abs(coord[0] - 427.0) < 1e-6

    def test_codec_identity_sweep(self):
        # full render -> decode -> unwrap -> map chain is the identity to
        # 1e-6 px for every N in {3,4,8} on a dense coordinate sweep
        span = 854.0
        freqs = (1, 8, 64)
        u = np.linspace(0, span, 10_000, endpoint=False)
        for n_steps in (3, 4, 8):
            wrapped = [
                decode_wrapped(render_stack(u, f, n_steps, span))[0] for f in freqs
            ]
            absolute = unwrap_ladder(wrapped, freqs)
            coords = phase_to_proj_coord(absolute, freqs[-1], span)
            assert np.max(np.abs(coords - u)) < 1e-6

    def test_monotone_along_coded_axis(self):
        cfg = cfg_vertical(w=854, h=1)
        stacks = []
        for f in cfg.freqs:
            imgs = render_patterns(FringeConfig(4, (f,), 854, 1, "vertical"))
            stacks.append(imgs)
        phase, _ = decode_phase(stacks, cfg)
        row = phase[0]
        assert np.all(np.diff(row) > 0)


class TestDecodePhase:
    def test_masks_flat_pixels(self):
        cfg = cfg_vertical(n_steps=4, freqs=(1, 8), w=64, h=4)
        stacks = [
            [img.copy() for img in render_patterns(FringeConfig(4, (f,), 64, 4, "vertical"))]
            for f in (1, 8)
        ]
        for stack in stacks:
            for img in stack:
                img[:, :8] = 0.3  # textureless region decodes to noise
        phase, mask = decode_phase(stacks, cfg)
        assert not mask[:, :8].any()
        assert mask[:, 12:].all()
        assert np.all(phase[mask] <= 2 * np.pi * 8 + 1e-9)
