"""The broadcast session: one carousel, rendered once, served to many.

InFrame's deployment is digital signage: a display loops its content all
day with a data carousel multiplexed on top, and any number of cameras
watch.  :class:`BroadcastSession` is that display.  It fixes a cyclic
batch of fountain symbols (the carousel), multiplexes them onto a
looping video, and exposes the emitted light field through a
:class:`~repro.display.scheduler.MemoizedTimeline` whose render cache is
keyed on ``index mod period`` -- so the steady-state render work is one
carousel cycle, no matter how many receivers integrate it.

Cycle alignment
---------------
The emitted stream repeats exactly when both of its inputs do: the video
loop (``video frames x frame_duplication`` display frames) and the
packet carousel (``cycle_packets x tau`` display frames).  The session
rounds the fountain batch up until one carousel cycle is a whole number
of video loops, which makes the joint period *equal* to the carousel
cycle -- the smallest render cache that can serve the whole session.
Extra symbols are free value, not padding: the code is rateless, so a
longer cycle simply airs more distinct symbols per pass.

Render-once semantics
---------------------
``frame_average_luminance`` folds the panel's liquid-crystal state in,
and that state depends on the *previous* frames' content -- so cache
keys must be periodic in the LC state, not merely in frame content.
Over a periodic stream, ``index mod period`` is: every index of a class
sees bit-identical predecessor frames.  The session pre-renders the
*second* cycle (indices ``[period, 2*period)``), i.e. the steady-state
fields; receivers that join during the very first frames are served
those steady-state fields too, which discards the display's power-on
transient (a deliberate modelling choice, documented in
``docs/broadcast.md``).

When shared memory is available and the cycle fits the budget, the
fields live in a :class:`~repro.runtime.shm.SharedFramePool` -- forked
receiver workers then read the parent's bytes in place instead of
copying a cache per process.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_positive_int
from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry
from repro.core.multiplexer import MultiplexedStream
from repro.display.panel import DisplayPanel
from repro.display.scheduler import (
    AverageFrameStore,
    DictFrameStore,
    DisplayTimeline,
    MemoizedTimeline,
)
from repro.runtime.shm import SharedFramePool, SlotRef, shared_memory_available
from repro.transport.carousel import BroadcastCarousel
from repro.transport.packet import FramePacketCodec, PacketSchedule
from repro.video.source import LoopingVideoSource, VideoSource

#: Default bound on shared-memory spent for the render cache.
_DEFAULT_SHM_BUDGET_BYTES = 512 * 1024 * 1024


class PooledFrameStore:
    """An :class:`~repro.display.AverageFrameStore` over shared memory.

    The parent fills one slot per render-cache key; forked workers read
    the slots zero-copy (``read(copy=False)`` returns a view into the
    inherited segment).  Fill references are the store's own; fleet runs
    :meth:`retain_all` / :meth:`release_all` around their lifetime, so a
    slot is recycled only when the session closes *and* the last
    concurrent reader has let go -- the multi-reader refcount contract
    of :class:`~repro.runtime.shm.SharedFramePool`.
    """

    def __init__(self, pool: SharedFramePool) -> None:
        self.pool = pool
        self._refs: dict[int, SlotRef] = {}

    def __len__(self) -> int:
        return len(self._refs)

    def get(self, key: int) -> np.ndarray | None:
        ref = self._refs.get(key)
        if ref is None:
            return None
        return self.pool.read(ref, copy=False)

    def put(self, key: int, field: np.ndarray) -> None:
        if key in self._refs:
            raise ValueError(f"render-cache key {key} written twice")
        ref = self.pool.acquire()
        self.pool.write(ref, np.ascontiguousarray(field, dtype=self.pool.dtype))
        self._refs[key] = ref

    def retain_all(self) -> None:
        """Register one more concurrent reader of every cached field."""
        for ref in self._refs.values():
            self.pool.retain(ref)

    def release_all(self) -> None:
        """Drop one reader reference from every cached field."""
        for ref in self._refs.values():
            self.pool.release(ref)

    def close(self) -> None:
        """Release the fill references and destroy the segment."""
        for ref in self._refs.values():
            self.pool.release(ref)
        self._refs.clear()
        self.pool.close()


class BroadcastSession:
    """One display broadcasting one payload to whoever watches.

    Parameters
    ----------
    config, video:
        The InFrame parameters and the looping content clip (the video's
        fps must match ``config.video_fps``; the session loops it as
        long as the fleet needs).
    payload:
        The bytes on the carousel.
    panel:
        The display; defaults to a panel matching the video at
        ``config.refresh_hz``.
    session_id:
        Stamped on every packet; doubles as the fountain seed.
    rs_n, rs_k:
        The per-frame inner Reed-Solomon code (see
        :func:`repro.core.pipeline.run_transport_link`).
    cycle_margin:
        Extra fraction of fountain symbols in the carousel cycle beyond
        ``k`` (before cycle alignment rounds further up).
    shm_budget_bytes:
        Ceiling on shared memory for the render cache; above it (or
        when shared memory is unavailable) the cache falls back to a
        plain in-process dict, which forked workers still share through
        copy-on-write fork inheritance.
    """

    def __init__(
        self,
        config: InFrameConfig,
        video: VideoSource,
        payload: bytes,
        *,
        panel: DisplayPanel | None = None,
        session_id: int = 1,
        rs_n: int = 60,
        rs_k: int = 24,
        cycle_margin: float = 0.35,
        c: float = 0.1,
        delta: float = 0.5,
        shm_budget_bytes: int = _DEFAULT_SHM_BUDGET_BYTES,
    ) -> None:
        if not payload:
            raise ValueError("payload must be non-empty")
        if cycle_margin < 0.0:
            raise ValueError(f"cycle_margin must be >= 0, got {cycle_margin}")
        if panel is None:
            panel = DisplayPanel(
                width=video.width, height=video.height, refresh_hz=config.refresh_hz
            )
        if (panel.height, panel.width) != (video.height, video.width):
            raise ValueError(
                f"panel {panel.height}x{panel.width} does not match video "
                f"{video.height}x{video.width}"
            )
        self.config = config
        self.video = video
        self.payload = bytes(payload)
        self.panel = panel
        self.session_id = int(session_id)
        self.shm_budget_bytes = int(shm_budget_bytes)

        self.codec = FramePacketCodec(config, rs_n=rs_n, rs_k=rs_k)
        self.carousel = BroadcastCarousel(
            self.payload,
            self.codec.max_payload_bytes,
            session_id=self.session_id,
            c=c,
            delta=delta,
        )
        # Cycle alignment: round the batch up so one carousel cycle spans
        # a whole number of video loops -- then the joint period of the
        # emitted stream IS the cycle (see the module docstring).
        batch = max(2, math.ceil(self.carousel.k * (1.0 + cycle_margin)))
        loop_frames = video.n_frames * config.frame_duplication
        align = loop_frames // math.gcd(loop_frames, config.tau)
        self.cycle_packets = math.ceil(batch / align) * align
        self.period_frames = self.cycle_packets * config.tau
        self.loop_frames = loop_frames
        self.schedule = PacketSchedule(
            config,
            self.codec,
            self.carousel.packets(0, self.cycle_packets),
            repeat=True,
        )
        self.geometry = FrameGeometry(config, video.height, video.width)
        self._memo: MemoizedTimeline | None = None
        self._pooled: PooledFrameStore | None = None
        self._store: AverageFrameStore | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Carousel facts
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Source blocks in the payload."""
        return self.carousel.k

    @property
    def cycle_s(self) -> float:
        """Wall-clock length of one carousel cycle."""
        return self.period_frames / self.config.refresh_hz

    @property
    def render_cache_misses(self) -> int:
        """Fields actually rendered (the warm pass renders one cycle)."""
        return 0 if self._memo is None else self._memo.misses

    # ------------------------------------------------------------------
    # The emitted stream
    # ------------------------------------------------------------------
    def prepare(self, horizon_s: float) -> MemoizedTimeline:
        """The memoized emitted-light timeline covering *horizon_s* seconds.

        Builds (or extends) the looping stream, then warms the render
        cache over one steady-state cycle so the fan-out workers run
        hit-only.  Reuses the existing cache when called again -- the
        stream is periodic, so a longer horizon never invalidates a
        field already rendered.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if horizon_s <= 0.0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        needed = math.ceil(horizon_s * self.config.refresh_hz)
        needed = max(needed, 2 * self.period_frames)
        n_loops = math.ceil(needed / self.loop_frames)
        n_frames = n_loops * self.loop_frames
        if self._memo is not None and self._memo.n_frames >= n_frames:
            return self._memo
        looped = (
            self.video
            if n_loops == 1
            else LoopingVideoSource(self.video, n_loops)
        )
        stream = MultiplexedStream(
            self.config,
            looped,
            self.schedule,
            n_display_frames=n_frames,
            gamma_curve=self.panel.gamma_curve,
        )
        timeline = DisplayTimeline(self.panel, stream)
        if self._store is None:
            self._store = self._build_store()
        memo = MemoizedTimeline(
            timeline, key_fn=self._key_fn, store=self._store
        )
        if self._memo is not None:
            # Carry the session's counters across a horizon extension.
            memo.hits, memo.misses = self._memo.hits, self._memo.misses
        self._memo = memo
        # Warm over the SECOND cycle: every index there is >= one full
        # LC warm-up deep, so the cached fields are the steady-state
        # ones every later cycle reproduces bit for bit.
        memo.warm(range(self.period_frames, 2 * self.period_frames))
        return memo

    def _key_fn(self, index: int) -> int:
        return index % self.period_frames

    def _build_store(self) -> AverageFrameStore:
        field_bytes = self.panel.height * self.panel.width * 4
        budget_ok = self.period_frames * field_bytes <= self.shm_budget_bytes
        if budget_ok and shared_memory_available():
            pool = SharedFramePool(
                (self.panel.height, self.panel.width),
                np.float32,
                n_slots=self.period_frames,
            )
            self._pooled = PooledFrameStore(pool)
            return self._pooled
        return DictFrameStore()

    @property
    def shared(self) -> bool:
        """Whether the render cache sits in shared memory."""
        return self._pooled is not None

    # ------------------------------------------------------------------
    # Reader lifetime (fleet runs pin the cache while they fan out)
    # ------------------------------------------------------------------
    def retain_readers(self) -> None:
        """Pin every cached field for one more concurrent fleet run."""
        if self._pooled is not None:
            self._pooled.retain_all()

    def release_readers(self) -> None:
        """Unpin the cached fields after a fleet run drains."""
        if self._pooled is not None:
            self._pooled.release_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the render cache (idempotent; parent side only)."""
        if self._closed:
            return
        self._closed = True
        if self._pooled is not None:
            self._pooled.close()
            self._pooled = None
        self._store = None
        self._memo = None

    def __enter__(self) -> "BroadcastSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def deterministic_payload(n_bytes: int, seed: int = 0) -> bytes:
    """A seed-stamped payload for demos and smoke tests."""
    check_positive_int(n_bytes, "n_bytes")
    from repro.runtime.scheduler import spawn_rng

    rng = spawn_rng(seed, 0x9A710AD)
    return rng.integers(0, 256, size=n_bytes, dtype=np.uint8).tobytes()
