"""Frame multiplexing (paper Section 3.2 and Figure 2).

Given a 30 FPS video and a data-frame schedule, produce the 120 Hz display
stream: each video frame ``V_i`` is duplicated ``refresh / fps`` times and
each duplicate carries ``+M`` or ``-M`` alternately, where ``M`` is the
smoothed, clip-aware chessboard modulation.  Even displayed frames carry
``+``, odd carry ``-``, so every consecutive (even, odd) pair is exactly
complementary and fuses to ``V_i`` for the viewer.

The pair is the unit of encoding: display frames ``2k`` and ``2k + 1``
come from one :meth:`~repro.core.encoder.DataFrameEncoder.multiplexed_pair`
call, so ``M`` is built once per pair.  With an odd duplication factor
(e.g. 90 Hz over 30 FPS) a pair can straddle two content frames; each
half is then encoded over its own ``V`` and the two never share ``M``.

:class:`MultiplexedStream` implements the display scheduler's
:class:`~repro.display.scheduler.FrameSource` protocol lazily -- frames
are rendered on demand, so multi-second streams cost no memory.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.config import InFrameConfig
from repro.core.encoder import DataFrameEncoder
from repro.display.gamma import GammaCurve
from repro.core.geometry import FrameGeometry
from repro.video.source import VideoSource


class DataFrameSchedule(Protocol):
    """Supplies the Block bit grid for each data frame index."""

    def bits(self, index: int) -> np.ndarray:
        """Full Block grid (parity included) for data frame *index*."""
        ...


class MultiplexedStream:
    """The multiplexed display stream: video plus complementary data frames.

    Parameters
    ----------
    config:
        InFrame parameters (tau, delta, waveform, clock rates...).
    video:
        The primary content.  Its fps must match ``config.video_fps``.
    schedule:
        Data-frame bit supplier (see :mod:`repro.core.framing`).
    n_display_frames:
        Optional stream length; defaults to the full video
        (``video.n_frames * config.frame_duplication`` frames).
    gamma_curve:
        The target panel's transfer curve, needed when
        ``config.gamma_compensation`` is on.
    """

    def __init__(
        self,
        config: InFrameConfig,
        video: VideoSource,
        schedule: DataFrameSchedule,
        n_display_frames: int | None = None,
        gamma_curve: GammaCurve | None = None,
    ) -> None:
        if abs(video.fps - config.video_fps) > 1e-9:
            raise ValueError(
                f"video fps {video.fps} does not match config.video_fps {config.video_fps}"
            )
        self.config = config
        self.video = video
        self.schedule = schedule
        self.geometry = FrameGeometry(config, video.height, video.width)
        self.encoder = DataFrameEncoder(config, self.geometry, gamma_curve=gamma_curve)
        max_frames = video.n_frames * config.frame_duplication
        if n_display_frames is None:
            n_display_frames = max_frames
        if not (1 <= n_display_frames <= max_frames):
            raise ValueError(
                f"n_display_frames must be in [1, {max_frames}], got {n_display_frames}"
            )
        self._n_frames = int(n_display_frames)
        self._bits_cache: dict[int, np.ndarray] = {}
        # The last content frame fetched (the encoder caches its invariants
        # by reference) and the last pair rendered, keyed by
        # (content frame index, pair index).
        self._content: tuple[int, np.ndarray] | None = None
        self._pair: tuple[tuple[int, int], tuple[np.ndarray, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # FrameSource protocol
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Display frames in the stream."""
        return self._n_frames

    def frame(self, index: int) -> np.ndarray:
        """Render displayed frame *index* (pixel values, float32).

        Even frames are the ``V + M`` half of their pair, odd frames the
        ``V - M`` half.  The returned array is shared with the pair cache;
        treat it as read-only.
        """
        if not (0 <= index < self._n_frames):
            raise IndexError(f"frame index {index} outside [0, {self._n_frames})")
        content_index = index // self.config.frame_duplication
        key = (content_index, index // 2)
        if self._pair is None or self._pair[0] != key:
            # tau is even and the envelope advances per pair, so both halves
            # share the data frame and the envelope of the pair's + frame.
            data_index, step = divmod(index - index % 2, self.config.tau)
            pair = self.encoder.multiplexed_pair(
                self._video_frame(content_index),
                self._bits(data_index),
                self._bits(data_index + 1),
                step,
            )
            self._pair = (key, pair)
        return self._pair[1][index % 2]

    # ------------------------------------------------------------------
    # Introspection used by experiments and tests
    # ------------------------------------------------------------------
    @property
    def n_data_frames(self) -> int:
        """Data frames whose cycle starts inside the stream."""
        return (self._n_frames + self.config.tau - 1) // self.config.tau

    def ground_truth(self, data_index: int) -> np.ndarray:
        """The Block grid actually transmitted for data frame *data_index*."""
        return self._bits(data_index).copy()

    def _video_frame(self, content_index: int) -> np.ndarray:
        if self._content is None or self._content[0] != content_index:
            self._content = (content_index, self.video.frame(content_index))
        return self._content[1]

    def _bits(self, data_index: int) -> np.ndarray:
        cached = self._bits_cache.get(data_index)
        if cached is not None:
            return cached
        grid = np.asarray(self.schedule.bits(data_index), dtype=bool)
        expected = (self.config.block_rows, self.config.block_cols)
        if grid.shape != expected:
            raise ValueError(f"schedule returned grid {grid.shape}, expected {expected}")
        self._bits_cache[data_index] = grid
        if len(self._bits_cache) > 64:
            self._bits_cache.pop(next(iter(self._bits_cache)))
        return grid
