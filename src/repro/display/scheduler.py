"""Display timeline: frames -> emitted light field over continuous time.

:class:`DisplayTimeline` is the boundary between the discrete world of the
encoder (a sequence of pixel-value frames) and the continuous world of the
receivers (a camera integrating light over exposure windows; an eye
low-pass filtering luminance over time).  It models:

* frame latching on the panel's refresh clock;
* the first-order liquid-crystal response of the panel;
* exact integration of luminance over arbitrary time windows.

Frames are produced lazily from a :class:`FrameSource`, so a multi-second
120 Hz stream never has to exist in memory at once.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

import numpy as np

from repro.display.panel import DisplayPanel


class FrameSource(Protocol):
    """Anything that can serve pixel-value frames by index."""

    @property
    def n_frames(self) -> int:
        """Total number of frames available."""
        ...

    def frame(self, index: int) -> np.ndarray:
        """Return frame *index* as a float32 array of pixel values."""
        ...


class DisplayTimeline:
    """The light field a panel emits while playing a frame source.

    Parameters
    ----------
    panel:
        The :class:`DisplayPanel` doing the playback.
    source:
        The frame source being played, one frame per refresh.
    cache_frames:
        Bound on the per-frame caches (emitted-luminance fields and
        per-refresh averages), each holding at most this many frames in
        FIFO order -- so peak cache memory is ``2 * cache_frames`` full
        luminance fields regardless of stream length.  The default of 24
        covers two data-frame cycles at the paper's ``tau = 12``; ``0``
        disables caching (every access recomputes, for memory-starved
        sweeps over large panels).

    Notes
    -----
    With a liquid-crystal time constant ``tau``, the luminance during frame
    ``i`` (latched at ``t_i``) is ``L_i + (s_{i-1} - L_i) * exp(-(t - t_i)/tau)``
    where ``s_{i-1}`` is the pixel state at the end of the previous frame.
    States are advanced lazily and monotonically; jumping far backwards
    re-warms the recursion from a few frames earlier, which is exact to
    within ``exp(-k * T / tau)`` (~1e-15 for the defaults).
    """

    _WARMUP_FRAMES = 8
    _DEFAULT_CACHE_FRAMES = 24

    def __init__(
        self,
        panel: DisplayPanel,
        source: FrameSource,
        cache_frames: int = _DEFAULT_CACHE_FRAMES,
    ) -> None:
        if source.n_frames < 1:
            raise ValueError("frame source must contain at least one frame")
        if cache_frames < 0:
            raise ValueError(f"cache_frames must be >= 0, got {cache_frames}")
        self.panel = panel
        self.source = source
        self.cache_frames = int(cache_frames)
        self._lum_cache: dict[int, np.ndarray] = {}
        self._lum_cache_order: list[int] = []
        self._avg_cache: dict[int, np.ndarray] = {}
        self._avg_cache_order: list[int] = []
        self._state_index = -1
        self._state: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Number of frames in the underlying source."""
        return self.source.n_frames

    @property
    def duration_s(self) -> float:
        """Total playback duration in seconds."""
        return self.n_frames * self.panel.frame_interval_s

    def frame_index_at(self, t: float) -> int:
        """Index of the frame latched at time *t* (clamped to the stream)."""
        index = int(np.floor(t * self.panel.refresh_hz))
        return min(max(index, 0), self.n_frames - 1)

    def latch_time(self, index: int) -> float:
        """Time at which frame *index* is latched."""
        return index * self.panel.frame_interval_s

    # ------------------------------------------------------------------
    # Light field evaluation
    # ------------------------------------------------------------------
    def luminance_at(self, t: float, rect: tuple[int, int, int, int] | None = None) -> np.ndarray:
        """Instantaneous luminance field at time *t* (cd/m^2).

        Parameters
        ----------
        t:
            Time in seconds from playback start; clamped into the stream.
        rect:
            Optional ``(row0, row1, col0, col1)`` crop evaluated instead of
            the full field (the full-field state is still tracked so the
            liquid-crystal recursion stays exact).
        """
        index = self.frame_index_at(t)
        if self.panel.response_time_s <= 0.0:
            return self._crop(self._frame_luminance(index), rect)
        previous_state = self._state_before(index)  # pulls frames in order
        target = self._frame_luminance(index)
        elapsed = max(t - self.latch_time(index), 0.0)
        decay = np.float32(np.exp(-elapsed / self.panel.response_time_s))
        field = target + (previous_state - target) * decay
        return self._crop(field, rect)

    def integrate(
        self,
        t0: float,
        t1: float,
        rect: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """Mean luminance over the window [t0, t1] (cd/m^2).

        The window is split at frame boundaries and each piece is integrated
        analytically (exponential relaxation toward the latched frame).
        """
        if not (t1 > t0):
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
        interval = self.panel.frame_interval_s
        tau = self.panel.response_time_s
        total: np.ndarray | None = None
        first_index = self.frame_index_at(t0)
        last_index = self.frame_index_at(t1 - 1e-12)
        for index in range(first_index, last_index + 1):
            seg_start = max(t0, self.latch_time(index)) if index > first_index else t0
            seg_end = min(t1, self.latch_time(index + 1))
            if index == self.n_frames - 1:
                seg_end = t1  # stream holds its last frame
            seg_len = seg_end - seg_start
            if seg_len <= 0:
                continue
            # Advance the LC state before fetching this frame's target, so
            # the source is pulled in display order (the multiplexer renders
            # whole complementary pairs and keeps only the latest).
            previous_state = (
                self._crop(self._state_before(index), rect) if tau > 0.0 else None
            )
            target = self._crop(self._frame_luminance(index), rect)
            piece = target * np.float32(seg_len)
            if previous_state is not None:
                a = max(seg_start - self.latch_time(index), 0.0)
                b = max(seg_end - self.latch_time(index), 0.0)
                weight = np.float32(tau * (np.exp(-a / tau) - np.exp(-b / tau)))
                piece = piece + (previous_state - target) * weight
            total = piece if total is None else total + piece
        assert total is not None  # guaranteed: t1 > t0 yields >= 1 segment
        return (total / np.float32(t1 - t0)).astype(np.float32, copy=False)

    def frame_average_luminance(self, index: int) -> np.ndarray:
        """Mean luminance field over the full refresh interval of frame *index*.

        This folds the liquid-crystal response into a single per-frame
        field; the camera pipeline blends these with rolling-shutter row
        weights instead of re-integrating per row.
        """
        if not (0 <= index < self.n_frames):
            raise IndexError(f"frame index {index} outside [0, {self.n_frames})")
        cached = self._avg_cache.get(index)
        if cached is not None:
            return cached
        start = self.latch_time(index)
        avg = self.integrate(start, start + self.panel.frame_interval_s)
        self._cache_put(self._avg_cache, self._avg_cache_order, index, avg)
        return avg

    def region_waveform(
        self,
        times: np.ndarray,
        rect: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """Mean luminance of a rectangle sampled at each time in *times*."""
        samples = np.empty(len(times), dtype=np.float32)
        for i, t in enumerate(np.asarray(times, dtype=np.float64)):
            samples[i] = float(np.mean(self.luminance_at(float(t), rect)))
        return samples

    def pixel_waveform(self, times: np.ndarray, row: int, col: int) -> np.ndarray:
        """Luminance waveform of a single pixel sampled at *times*."""
        rect = (row, row + 1, col, col + 1)
        return self.region_waveform(times, rect)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_put(
        self,
        cache: dict[int, np.ndarray],
        order: list[int],
        index: int,
        value: np.ndarray,
    ) -> None:
        """FIFO-insert into a per-frame cache bounded by ``cache_frames``."""
        if self.cache_frames < 1:
            return
        cache[index] = value
        order.append(index)
        if len(order) > self.cache_frames:
            cache.pop(order.pop(0), None)

    @staticmethod
    def _crop(
        field: np.ndarray, rect: tuple[int, int, int, int] | None
    ) -> np.ndarray:
        if rect is None:
            return field
        row0, row1, col0, col1 = rect
        return field[row0:row1, col0:col1]

    def _frame_luminance(self, index: int) -> np.ndarray:
        cached = self._lum_cache.get(index)
        if cached is not None:
            return cached
        lum = self.panel.emitted_luminance(self.source.frame(index))
        self._cache_put(self._lum_cache, self._lum_cache_order, index, lum)
        return lum

    def _state_before(self, index: int) -> np.ndarray:
        """Pixel luminance state at the instant frame *index* is latched."""
        if index == 0:
            return self._frame_luminance(0)
        if self._state is not None and self._state_index == index:
            return self._state
        if self._state is None or self._state_index > index or self._state_index < index - 64:
            # (Re)warm the recursion from a settled approximation.
            start = max(index - self._WARMUP_FRAMES, 0)
            state = self._frame_luminance(start).copy()
            self._state_index = start + 1
        else:
            state = self._state
        decay = np.float32(
            np.exp(-self.panel.frame_interval_s / self.panel.response_time_s)
        )
        for i in range(self._state_index, index):
            # State at the latch of frame i+1: relaxed toward frame i's target.
            target = self._frame_luminance(i)
            state = target + (state - target) * decay
        self._state = state
        self._state_index = index
        return state


class AverageFrameStore(Protocol):
    """Keyed storage for memoized per-frame average-luminance fields.

    The default is a plain dict (:class:`DictFrameStore`); a broadcast
    session substitutes a shared-memory backed store so forked receiver
    workers read the very same bytes (``repro.serve.session``).
    """

    def get(self, key: int) -> np.ndarray | None:
        """The field stored under *key*, or None when absent."""
        ...

    def put(self, key: int, field: np.ndarray) -> None:
        """Store *field* under *key* (keys are written at most once)."""
        ...


class DictFrameStore:
    """The trivial in-process :class:`AverageFrameStore`."""

    def __init__(self) -> None:
        self._fields: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._fields)

    def get(self, key: int) -> np.ndarray | None:
        return self._fields.get(key)

    def put(self, key: int, field: np.ndarray) -> None:
        self._fields[key] = field


class MemoizedTimeline:
    """A timeline whose per-frame average fields are rendered once per key.

    The camera pipeline only ever asks a timeline for
    :meth:`DisplayTimeline.frame_average_luminance` (plus the panel and
    the clocking properties), so a broadcast session can stand this
    wrapper between one shared timeline and hundreds of receivers: the
    caller supplies ``key_fn`` mapping a display-frame index to its
    equivalence class -- for a carousel that is ``index % period``,
    because the stream re-airs bit-identical (video frame, data frame,
    pair phase) triples every cycle -- and each class is rendered once,
    no matter how many receivers integrate it.

    The wrapper does **not** memoize :meth:`DisplayTimeline.integrate` or
    :meth:`DisplayTimeline.luminance_at`; those remain per-instance on
    the inner timeline.  ``hits`` / ``misses`` count served reads and
    renders for the ``serve.render_cache.*`` exec-scoped metrics.

    Keys must be *periodic in the liquid-crystal state*, not merely in
    frame content: ``frame_average_luminance`` folds the panel's LC
    relaxation in, so two indices may share a key only when their
    predecessor frames match too.  ``index % period`` over a periodic
    stream satisfies this exactly (see ``docs/broadcast.md``).
    """

    def __init__(
        self,
        inner: DisplayTimeline,
        key_fn: Callable[[int], int],
        store: AverageFrameStore | None = None,
    ) -> None:
        self.inner = inner
        self.key_fn = key_fn
        self.store: AverageFrameStore = DictFrameStore() if store is None else store
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # The timeline surface the camera pipeline consumes
    # ------------------------------------------------------------------
    @property
    def panel(self) -> DisplayPanel:
        """The panel doing the playback."""
        return self.inner.panel

    @property
    def n_frames(self) -> int:
        """Display frames in the underlying stream."""
        return self.inner.n_frames

    @property
    def duration_s(self) -> float:
        """Total playback duration in seconds."""
        return self.inner.duration_s

    def frame_average_luminance(self, index: int) -> np.ndarray:
        """The memoized mean-luminance field of frame *index*'s class."""
        if not (0 <= index < self.n_frames):
            raise IndexError(f"frame index {index} outside [0, {self.n_frames})")
        key = self.key_fn(index)
        field = self.store.get(key)
        if field is not None:
            self.hits += 1
            return field
        self.misses += 1
        field = self.inner.frame_average_luminance(index)
        self.store.put(key, field)
        return field

    def warm(self, indices: "range | list[int]") -> int:
        """Render every class reachable from *indices*; returns new renders.

        Sessions warm sequentially (the LC recursion advances frame by
        frame, so in-order warming renders each class exactly once at
        full accuracy) before any receiver runs; steady state afterwards
        is hit-only.
        """
        before = self.misses
        for index in indices:
            self.frame_average_luminance(index)
        return self.misses - before
