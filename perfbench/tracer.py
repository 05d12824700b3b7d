"""Per-layer spans recorded from outside the program.

The benchmark wraps each layer's public functions (``LAYERS``) on their
classes for the length of a traced operation, so every call opens a span
in an in-memory list: layer, function, parent span, start, end.  A
layer's self time is its spans' durations minus the part their child
spans cover; the operation's root span keeps what no layer claimed
(``trace.unattributed_s``), so layer self times plus that remainder sum to
the operation's wall time exactly.

Spans opened in forked pool workers stay in those processes: a traced
``workers=2`` operation shows only the parent side (the
``ExecutionEngine.map`` span waiting on the pool).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Root span layer of one traced operation.
OP = "op"


def _pool_engine(engine: Any) -> bool:
    return bool(engine.parallel)


#: layer -> the public functions whose calls it is charged for, as
#: (module, class, method, predicate on the instance or None).  The
#: engine is a layer only when it runs a pool; a serial ``map`` is a loop
#: inside its caller.
LAYERS: dict[str, tuple[tuple[str, str, str, Callable[[Any], bool] | None], ...]] = {
    "core.multiplexer": (("repro.core.multiplexer", "MultiplexedStream", "frame", None),),
    "display.panel": (("repro.display.panel", "DisplayPanel", "emitted_luminance", None),),
    "display.scheduler": (
        ("repro.display.scheduler", "DisplayTimeline", "integrate", None),
        ("repro.display.scheduler", "DisplayTimeline", "frame_average_luminance", None),
        ("repro.display.scheduler", "MemoizedTimeline", "frame_average_luminance", None),
    ),
    "camera.rolling_shutter": (
        ("repro.camera.rolling_shutter", "RollingShutter", "display_frame_weights", None),
    ),
    "camera.optics": (("repro.camera.optics", "OpticsModel", "apply", None),),
    "camera.capture": (("repro.camera.capture", "CameraModel", "capture_frame", None),),
    "camera.sensor": (("repro.camera.sensor", "SensorModel", "expose", None),),
    "core.decoder.observe": (("repro.core.decoder", "InFrameDecoder", "observe", None),),
    "core.decoder.decide": (
        ("repro.core.decoder", "InFrameDecoder", "decide_observations", None),
        ("repro.core.decoder", "InFrameDecoder", "decide_observations_healed", None),
    ),
    "transport.packet": (
        ("repro.transport.packet", "PacketSlotAccumulator", "decode_packets", None),
        ("repro.transport.packet", "PacketSlotAccumulator", "decode_slot", None),
    ),
    "ecc.reed_solomon": (("repro.ecc.reed_solomon", "ReedSolomonCodec", "decode", None),),
    "transport.receiver": (
        ("repro.transport.arq", "ArqReceiver", "receive", None),
        ("repro.transport.carousel", "CarouselReceiver", "receive", None),
    ),
    "runtime.engine": (("repro.runtime.engine", "ExecutionEngine", "map", _pool_engine),),
    "serve.session": (("repro.serve.session", "BroadcastSession", "prepare", None),),
}

#: Functions whose outermost calls count as average-field reads.
AVERAGE_READS = ("DisplayTimeline.frame_average_luminance",
                 "MemoizedTimeline.frame_average_luminance")
INTEGRATE = "DisplayTimeline.integrate"
ENCODE = "MultiplexedStream.frame"


@dataclass
class Span:
    layer: str
    target: str
    parent: int  # index into the tracer's span list, -1 for a root
    start: float
    end: float = 0.0


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls nest), so this is the part
    of the span no child covers.
    """
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


class Tracer:
    """An in-memory span recorder for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, layer: str, target: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, target, parent, self.clock()))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, target: str) -> Iterator[int]:
        index = self.begin(layer, target)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        target: str,
        when: Callable[[Any], bool] | None,
    ) -> Callable[..., Any]:
        """*fn* with a span around every call (or the calls *when* accepts)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(args[0]):
                return fn(*args, **kwargs)
            index = self.begin(layer, target)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every function in ``LAYERS`` for the duration of the block."""
        originals = []
        try:
            for layer, targets in LAYERS.items():
                for module, class_name, method, when in targets:
                    cls = getattr(importlib.import_module(module), class_name)
                    original = cls.__dict__[method]
                    originals.append((cls, method, original))
                    target = f"{class_name}.{method}"
                    setattr(cls, method, self.wrap(original, layer, target, when))
            yield
        finally:
            for cls, method, original in reversed(originals):
                setattr(cls, method, original)

    def export(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span recorded so far as JSON (one list per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.layer, s.target, s.parent, s.start, s.end] for s in self.spans]
        payload = {"meta": meta, "columns": ["layer", "target", "parent", "start", "end"],
                   "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")))


@dataclass
class LayerTotals:
    """What the traced operations spent in one layer."""

    calls: int = 0
    self_s: float = 0.0
    call_ms: list[float] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.call_ms) if self.call_ms else 0.0


@dataclass
class OpTrace:
    """Per-layer totals of a set of traced operations."""

    ops: int = 0
    wall_s: float = 0.0
    unattributed_s: float = 0.0
    layers: dict[str, LayerTotals] = field(default_factory=dict)
    targets: dict[str, int] = field(default_factory=dict)
    average_reads: int = 0

    def add(self, spans: Sequence[Span], root: int) -> None:
        """Fold in the operation whose root span is ``spans[root]``.

        *spans* is the tracer's whole list; only the root and the spans
        recorded after it (its descendants) are read.
        """
        tail = spans[root:]
        rebased = [
            Span(s.layer, s.target, s.parent - root if s.parent >= root else -1, s.start, s.end)
            for s in tail
        ]
        own = self_times(rebased)
        self.ops += 1
        self.wall_s += rebased[0].end - rebased[0].start
        self.unattributed_s += own[0]
        for span, self_s in zip(rebased[1:], own[1:]):
            totals = self.layers.setdefault(span.layer, LayerTotals())
            totals.calls += 1
            totals.self_s += self_s
            totals.call_ms.append(self_s * 1e3)
            self.targets[span.target] = self.targets.get(span.target, 0) + 1
            if span.target in AVERAGE_READS and (
                span.parent < 0 or rebased[span.parent].target not in AVERAGE_READS
            ):
                self.average_reads += 1

    def per_op(self, layer: str) -> tuple[float, float, float]:
        """(calls per op, self seconds per op, median self ms per call)."""
        totals = self.layers.get(layer)
        if totals is None or not self.ops:
            return 0.0, 0.0, 0.0
        return totals.calls / self.ops, totals.self_s / self.ops, totals.p50_ms
