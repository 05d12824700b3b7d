"""Data-frame encoder and complementary multiplexer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentScale
from repro.core.config import InFrameConfig
from repro.core.encoder import DataFrameEncoder
from repro.core.framing import PseudoRandomSchedule, ZeroSchedule
from repro.core.geometry import FrameGeometry
from repro.core.multiplexer import MultiplexedStream
from repro.core.pipeline import run_link
from repro.video.source import ArrayVideoSource
from repro.video.synthetic import gradient_video, pure_color_video, sunrise_video


@pytest.fixture
def encoder(small_config, small_geometry) -> DataFrameEncoder:
    return DataFrameEncoder(small_config, small_geometry)


def _bits(config, seed=0, p=0.5):
    rng = np.random.default_rng(seed)
    return rng.random((config.block_rows, config.block_cols)) < p


class TestDataFrame:
    def test_zero_bits_give_zero_frame(self, encoder, small_config):
        frame = encoder.data_frame(np.zeros((small_config.block_rows, small_config.block_cols), bool))
        assert frame.sum() == 0.0

    def test_one_bits_give_chessboard_at_delta(self, encoder, small_config):
        bits = np.ones((small_config.block_rows, small_config.block_cols), bool)
        frame = encoder.data_frame(bits)
        values = set(np.unique(frame))
        assert values == {0.0, np.float32(small_config.amplitude)}
        rows, cols = encoder.geometry.data_area_slices()
        area = frame[rows, cols]
        # Half the super Pixels are modulated.
        assert area.mean() == pytest.approx(small_config.amplitude / 2, rel=0.01)


class TestModulationField:
    def test_headroom_clipping_bright_content(self, encoder, small_config):
        bits = np.ones((small_config.block_rows, small_config.block_cols), bool)
        video = np.full((80, 112), 250.0, dtype=np.float32)
        field = encoder.modulation_field(video, bits)
        assert field.max() <= 5.0 + 1e-5  # headroom = 255 - 250

    def test_headroom_clipping_dark_content(self, encoder, small_config):
        bits = np.ones((small_config.block_rows, small_config.block_cols), bool)
        video = np.full((80, 112), 3.0, dtype=np.float32)
        field = encoder.modulation_field(video, bits)
        assert field.max() <= 3.0 + 1e-5

    def test_midtone_uses_full_amplitude(self, encoder, small_config):
        bits = np.ones((small_config.block_rows, small_config.block_cols), bool)
        video = np.full((80, 112), 127.0, dtype=np.float32)
        field = encoder.modulation_field(video, bits)
        assert field.max() == pytest.approx(small_config.amplitude)

    def test_shape_mismatch_rejected(self, encoder, small_config):
        bits = _bits(small_config)
        with pytest.raises(ValueError):
            encoder.modulation_field(np.zeros((10, 10), np.float32), bits)

    @given(value=st.floats(min_value=0.0, max_value=255.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_pair_always_in_range_and_complementary(self, value, seed):
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=2, block_rows=4, block_cols=6,
            amplitude=30.0, tau=12,
        )
        geometry = FrameGeometry(config, 20, 28)
        encoder = DataFrameEncoder(config, geometry)
        video = np.full((20, 28), np.float32(value))
        bits = np.random.default_rng(seed).random((4, 6)) < 0.5
        plus, minus = encoder.multiplexed_pair(video, bits)
        assert plus.min() >= 0.0 and plus.max() <= 255.0
        assert minus.min() >= 0.0 and minus.max() <= 255.0
        # Exact pixel-value complementarity: (plus + minus) / 2 == video.
        assert np.allclose((plus + minus) / 2.0, video, atol=1e-4)

    def test_block_clip_mode_uniform_within_block(self, small_config):
        config = small_config.with_updates(clip_mode="block")
        geometry = FrameGeometry(config, 80, 112)
        encoder = DataFrameEncoder(config, geometry)
        video = gradient_video(80, 112, low=0.0, high=255.0).frame(0)
        bits = np.ones((config.block_rows, config.block_cols), bool)
        field = encoder.modulation_field(video, bits)
        for row in range(config.block_rows):
            for col in range(0, config.block_cols, 3):
                rslice, cslice = geometry.block_slices(row, col)
                block = field[rslice, cslice]
                modulated = block[block > 0]
                if modulated.size:
                    assert np.allclose(modulated, modulated.flat[0], atol=1e-5)

    def test_adaptive_delta_follows_each_frame_of_a_view_source(self, monkeypatch):
        # ArrayVideoSource serves a fresh view per call.  A cache keyed on
        # id() let a later frame whose view recycled that id inherit the
        # previous frame's per-Block delta.
        calls = []
        modulation_field = DataFrameEncoder.modulation_field

        def recording_modulation_field(self, video_frame, *args):
            field = modulation_field(self, video_frame, *args)
            calls.append((np.array(video_frame), args, field))
            return field

        monkeypatch.setattr(DataFrameEncoder, "modulation_field", recording_modulation_field)
        scale = ExperimentScale.quick()
        config = scale.config(amplitude=20.0, tau=12, adaptive_amplitude=True)
        clip = scale.video("video")
        source = ArrayVideoSource(np.stack(clip.frames()), fps=clip.fps)
        run_link(config, source, camera=scale.camera(), seed=1)
        monkeypatch.undo()
        geometry = FrameGeometry(config, source.height, source.width)
        assert len({video.tobytes() for video, _, _ in calls}) > 1
        for video, args, field in calls:
            fresh = DataFrameEncoder(config, geometry)
            assert np.array_equal(field, fresh.modulation_field(video, *args))

    def test_envelope_steady_bits_constant_through_transition(self, encoder, small_config):
        bits = _bits(small_config, seed=1)
        env_early = encoder.envelope_grid(bits, bits, step=0)
        env_late = encoder.envelope_grid(bits, bits, step=small_config.tau - 1)
        assert np.array_equal(env_early, env_late)

    def test_envelope_switching_bits_ramp(self, encoder, small_config):
        now = np.zeros((small_config.block_rows, small_config.block_cols), bool)
        nxt = np.ones_like(now)
        mid = encoder.envelope_grid(now, nxt, step=small_config.tau - 4)
        end = encoder.envelope_grid(now, nxt, step=small_config.tau - 1)
        assert 0.0 < mid.mean() < end.mean() <= 1.0


class TestMultiplexedStream:
    def test_length(self, small_config, small_video):
        stream = MultiplexedStream(small_config, small_video, ZeroSchedule(small_config))
        assert stream.n_frames == small_video.n_frames * small_config.frame_duplication

    def test_zero_schedule_reproduces_video(self, small_config, small_video):
        stream = MultiplexedStream(small_config, small_video, ZeroSchedule(small_config))
        assert np.allclose(stream.frame(5), small_video.frame(5 // 4))

    def test_pair_average_is_video(self, small_config, small_video):
        stream = MultiplexedStream(
            small_config, small_video, PseudoRandomSchedule(small_config)
        )
        for start in (0, 2, 12, 30):
            pair_mean = (stream.frame(start) + stream.frame(start + 1)) / 2.0
            assert np.allclose(pair_mean, small_video.frame(start // 4), atol=1e-4)

    def test_signs_alternate(self, small_config, small_video):
        stream = MultiplexedStream(
            small_config, small_video, PseudoRandomSchedule(small_config)
        )
        video = small_video.frame(0)
        delta0 = stream.frame(0) - video
        delta1 = stream.frame(1) - video
        assert np.allclose(delta0, -delta1, atol=1e-4)
        assert np.abs(delta0).max() > 0

    def test_ground_truth_matches_schedule(self, small_config, small_video):
        schedule = PseudoRandomSchedule(small_config, seed=42)
        stream = MultiplexedStream(small_config, small_video, schedule)
        assert np.array_equal(stream.ground_truth(2), schedule.bits(2))

    def test_fps_mismatch_rejected(self, small_config):
        video = pure_color_video(80, 112, 127.0, fps=25.0, n_frames=5)
        with pytest.raises(ValueError):
            MultiplexedStream(small_config, video, ZeroSchedule(small_config))

    def test_index_bounds(self, small_config, small_video):
        stream = MultiplexedStream(small_config, small_video, ZeroSchedule(small_config))
        with pytest.raises(IndexError):
            stream.frame(stream.n_frames)

    def test_n_display_frames_override(self, small_config, small_video):
        stream = MultiplexedStream(
            small_config, small_video, ZeroSchedule(small_config), n_display_frames=10
        )
        assert stream.n_frames == 10
        with pytest.raises(ValueError):
            MultiplexedStream(
                small_config, small_video, ZeroSchedule(small_config), n_display_frames=10**6
            )

    def test_bad_schedule_shape_rejected(self, small_config, small_video):
        class BadSchedule:
            def bits(self, index):
                return np.zeros((2, 2), dtype=bool)

        stream = MultiplexedStream(small_config, small_video, BadSchedule())
        with pytest.raises(ValueError):
            stream.frame(0)

    def test_one_modulation_field_per_pair_in_a_serial_link(self, monkeypatch):
        encodes = []
        requested = set()
        modulation_field = DataFrameEncoder.modulation_field
        frame = MultiplexedStream.frame

        def counting_modulation_field(self, *args, **kwargs):
            encodes.append(1)
            return modulation_field(self, *args, **kwargs)

        def recording_frame(self, index):
            requested.add(index)
            return frame(self, index)

        monkeypatch.setattr(DataFrameEncoder, "modulation_field", counting_modulation_field)
        monkeypatch.setattr(MultiplexedStream, "frame", recording_frame)
        scale = ExperimentScale.quick()
        config = scale.config(amplitude=20.0, tau=12)
        run_link(config, scale.video("gray"), camera=scale.camera(), seed=1)
        duplication = config.frame_duplication
        pairs = {(index // duplication, index // 2) for index in requested}
        assert len(requested) == 2 * len(pairs)
        assert len(encodes) == len(pairs)

    @pytest.mark.parametrize("refresh_hz", [120.0, 90.0])
    def test_out_of_order_frames_match_in_order(self, small_config, refresh_hz):
        # 90 Hz over 30 FPS duplicates each content frame three times, so
        # every other pair straddles two content frames.
        config = small_config.with_updates(refresh_hz=refresh_hz)
        video = sunrise_video(80, 112, n_frames=6)

        def stream():
            return MultiplexedStream(config, video, PseudoRandomSchedule(config))

        in_order = stream()
        expected = [in_order.frame(i).copy() for i in range(in_order.n_frames)]
        pairs = np.random.default_rng(3).permutation(in_order.n_frames // 2)
        shuffled = stream()
        for pair in pairs:
            for index in (2 * pair + 1, 2 * pair):  # the minus half first
                assert np.array_equal(shuffled.frame(index), expected[index]), index

    def test_n_data_frames(self, small_config, small_video):
        stream = MultiplexedStream(small_config, small_video, ZeroSchedule(small_config))
        expected = (stream.n_frames + small_config.tau - 1) // small_config.tau
        assert stream.n_data_frames == expected
