"""Cross-process span tracing with Chrome ``trace_event`` export.

A :class:`SpanTracer` hands out ``with tracer.span("decode", capture=3):``
context managers.  Each completed span becomes an immutable
:class:`SpanRecord` carrying an id, its parent's id (from the tracer's
span stack), the *track* it ran on, monotonic timestamps from
:func:`time.perf_counter` -- which on POSIX is a system-wide clock, so
spans recorded in worker processes line up with the parent's on a shared
timeline -- and the process CPU time spent inside it.

Spans are the only stage timer: :func:`span_totals` sums them per name
into the ``{wall_s, cpu_s, calls}`` rows of ``RuntimeReport.stages`` and
the run report's span table, and :func:`innermost_span` tells the
sampling profiler which span a thread is inside when it is sampled.

Workers each build their own tracer (track names like ``chunk-003`` come
from the deterministic chunk plan), export their records, and ship them
back with the chunk result; the parent folds them in with
:meth:`SpanTracer.merge`.  Span *counts* per ``(name, category)`` are
part of the determinism contract for ``category="work"`` spans; span
timestamps, of course, are not.

:func:`chrome_trace` renders any span collection as Chrome
``trace_event`` JSON loadable in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import cast

#: Span category for work-derived spans (count-deterministic).
WORK = "work"
#: Span category for execution-substrate spans (mode-dependent).
EXEC = "exec"

#: JSON-ready attribute values a span may carry.
AttrValue = str | int | float | bool | None

#: Spans summed per name: ``{name: {"wall_s": ..., "cpu_s": ..., "calls": ...}}``.
SpanTotals = dict[str, dict[str, float | int]]

#: Names of the spans open right now, innermost last, per thread id and
#: across every tracer in the process.  Only the owning thread mutates
#: its list; the sampling profiler reads it from another thread.
_OPEN_SPANS: dict[int, list[str]] = {}

# A forked worker starts with none of its parent's spans open.
if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_OPEN_SPANS.clear)


def innermost_span(thread_id: int) -> str | None:
    """Name of the innermost span open on thread *thread_id*, if any."""
    names = _OPEN_SPANS.get(thread_id)
    # reversed() stops cleanly if the owner pops the list meanwhile.
    return next(reversed(names), None) if names else None


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (or instant event, when ``dur_s`` is None).

    ``start_s`` is a raw :func:`time.perf_counter` reading; consumers
    subtract the collection's minimum to get a run-relative timeline.
    ``cpu_s`` is the process CPU time spent inside the span (None for
    instant events and for spans exported before it was recorded).
    """

    name: str
    category: str
    track: str
    span_id: int
    parent_id: int | None
    start_s: float
    dur_s: float | None
    attrs: dict[str, AttrValue]
    cpu_s: float | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "attrs": dict(self.attrs),
            "cpu_s": self.cpu_s,
        }

    @staticmethod
    def from_dict(payload: dict[str, object]) -> "SpanRecord":
        """Rebuild a record from :meth:`as_dict` output (``cpu_s`` optional)."""
        parent = cast("int | None", payload["parent_id"])
        dur = cast("float | None", payload["dur_s"])
        cpu = cast("float | None", payload.get("cpu_s"))
        attrs = cast("dict[str, AttrValue]", payload.get("attrs") or {})
        return SpanRecord(
            name=str(payload["name"]),
            category=str(payload["category"]),
            track=str(payload["track"]),
            span_id=int(cast(int, payload["span_id"])),
            parent_id=None if parent is None else int(parent),
            start_s=float(cast(float, payload["start_s"])),
            dur_s=None if dur is None else float(dur),
            attrs=dict(attrs),
            cpu_s=None if cpu is None else float(cpu),
        )


class SpanTracer:
    """Collects spans for one track (one process / logical thread).

    Span ids are small integers local to the tracer; after a merge the
    ``(track, span_id)`` pair stays unique because each worker tracer
    gets its own track name.
    """

    def __init__(self, track: str = "main") -> None:
        self.track = track
        self._records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, category: str = WORK, **attrs: AttrValue) -> Iterator[None]:
        """Time a ``with`` block (wall + CPU) as one span under the current parent."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        open_names = _OPEN_SPANS.setdefault(threading.get_ident(), [])
        open_names.append(name)
        start = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            open_names.pop()
            self._stack.pop()
            self._records.append(
                SpanRecord(
                    name=name,
                    category=category,
                    track=self.track,
                    span_id=span_id,
                    parent_id=parent,
                    start_s=start,
                    dur_s=dur,
                    attrs=attrs,
                    cpu_s=cpu,
                )
            )

    def event(self, name: str, category: str = WORK, **attrs: AttrValue) -> None:
        """Record an instant event (a span with no duration)."""
        span_id = self._next_id
        self._next_id += 1
        self._records.append(
            SpanRecord(
                name=name,
                category=category,
                track=self.track,
                span_id=span_id,
                parent_id=self._stack[-1] if self._stack else None,
                start_s=time.perf_counter(),
                dur_s=None,
                attrs=attrs,
            )
        )

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """The completed spans so far, in completion order."""
        return tuple(self._records)

    def export(self) -> list[dict[str, object]]:
        """Serialize every record (the form that rides back with chunks)."""
        return [record.as_dict() for record in self._records]

    def merge(self, exported: Sequence[dict[str, object]]) -> None:
        """Fold serialized records from another tracer into this one."""
        self._records.extend(SpanRecord.from_dict(payload) for payload in exported)


def span_totals(records: Iterable[SpanRecord]) -> SpanTotals:
    """Completed spans summed per name into ``{wall_s, cpu_s, calls}``.

    Instant events are skipped; a span without CPU time adds none.
    Rows come back sorted by name, whatever order the spans merged in.
    """
    totals: SpanTotals = {}
    for record in records:
        if record.dur_s is None:
            continue
        row = totals.setdefault(record.name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0})
        row["wall_s"] += record.dur_s
        row["cpu_s"] += record.cpu_s or 0.0
        row["calls"] += 1
    return dict(sorted(totals.items()))


def sort_spans(records: Sequence[SpanRecord]) -> list[SpanRecord]:
    """Records in canonical display order: by start time, then track/id."""
    return sorted(records, key=lambda r: (r.start_s, r.track, r.span_id))


def chrome_trace(records: Sequence[SpanRecord]) -> dict[str, object]:
    """The spans as a Chrome ``trace_event`` JSON object.

    Complete spans become ``ph="X"`` events with microsecond ``ts`` and
    ``dur`` relative to the earliest span; instant events become
    ``ph="i"``.  Each distinct track maps to a thread id with a
    ``thread_name`` metadata event, so Perfetto shows the parent and
    every worker chunk as labelled rows.
    """
    ordered = sort_spans(records)
    tracks = sorted({record.track for record in ordered})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    origin = ordered[0].start_s if ordered else 0.0
    events: list[dict[str, object]] = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": tids[track],
            "args": {"name": track},
        }
        for track in tracks
    ]
    for record in ordered:
        event: dict[str, object] = {
            "name": record.name,
            "cat": record.category,
            "pid": 1,
            "tid": tids[record.track],
            "ts": (record.start_s - origin) * 1e6,
            "args": dict(record.attrs),
        }
        if record.dur_s is None:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = record.dur_s * 1e6
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
