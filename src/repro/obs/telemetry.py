"""The run-level telemetry container: live collector and frozen result.

:class:`Telemetry` is the live object instrumentation writes to -- one
metrics registry plus one span tracer.  Workers build their own (with a
deterministic track name from the chunk plan), :meth:`Telemetry.export`
it into plain JSON-ready data that rides back with each chunk result,
and the parent folds exports in with :meth:`Telemetry.merge_export`.
Metric merges are exact (integer adds, max-combines); the merged spans
are the run's only stage timer -- ``RuntimeReport.stages`` and the span
table of :meth:`RunTelemetry.summary` are both
:func:`~repro.obs.trace.span_totals` of them.

:meth:`Telemetry.finish` freezes the collection into a
:class:`RunTelemetry`, the record attached to
:class:`~repro.core.pipeline.LinkRun` / ``TransportRun`` and written by
the CLIs' ``--telemetry-out``.  ``RunTelemetry`` round-trips through
JSON (:meth:`as_dict` / :meth:`from_dict`) so ``repro.tools.report`` can
render a run that happened in another process, and exports spans as
Chrome ``trace_event`` JSON via :meth:`chrome_trace`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import cast

from repro.obs.metrics import MetricDict, MetricsRegistry
from repro.obs.trace import SpanRecord, SpanTracer, chrome_trace, sort_spans, span_totals

#: Serialized Telemetry/RunTelemetry payload.
TelemetryDict = dict[str, object]


class Telemetry:
    """A live metrics registry + span tracer for one collection site."""

    def __init__(self, track: str = "main") -> None:
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(track=track)

    def export(self) -> TelemetryDict:
        """Plain-data form that crosses the process boundary with a chunk."""
        return {"metrics": self.metrics.as_dict(), "spans": self.tracer.export()}

    def merge_export(self, exported: TelemetryDict) -> None:
        """Fold an :meth:`export` payload (typically a worker's) into this one."""
        metrics = cast("dict[str, MetricDict] | None", exported.get("metrics"))
        if metrics:
            self.metrics.merge(metrics)
        spans = cast("list[dict[str, object]] | None", exported.get("spans"))
        if spans:
            self.tracer.merge(spans)

    def merge_run(self, run: "RunTelemetry | None") -> None:
        """Fold a finished :class:`RunTelemetry` (e.g. one transport round)."""
        if run is None:
            return
        self.metrics.merge(run.metrics)
        self.tracer.merge([span.as_dict() for span in run.spans])

    def finish(self, meta: dict[str, object] | None = None) -> "RunTelemetry":
        """Freeze the collection into an immutable :class:`RunTelemetry`."""
        return RunTelemetry(
            metrics=self.metrics.as_dict(),
            spans=tuple(sort_spans(self.tracer.records)),
            meta=dict(meta or {}),
        )


@dataclass(frozen=True)
class RunTelemetry:
    """Everything one run's telemetry collected, frozen and JSON-ready.

    Attributes
    ----------
    metrics:
        Serialized metrics by name (see :mod:`repro.obs.metrics`).
    spans:
        Completed spans in canonical start-time order.
    meta:
        Free-form run identification (tool, seed, workers, ...).  Meta is
        *not* part of the determinism contract -- it may record the
        worker count, which legitimately differs between runs.
    """

    metrics: dict[str, MetricDict] = field(default_factory=dict)
    spans: tuple[SpanRecord, ...] = ()
    meta: dict[str, object] = field(default_factory=dict)

    def metrics_json(self) -> str:
        """Canonical JSON of the work-scoped metrics.

        Byte-identical for serial and ``workers=N`` executions of the
        same run -- the telemetry determinism artifact the tests and
        ``bench_runtime`` compare.
        """
        registry = MetricsRegistry()
        registry.merge(self.metrics)
        return registry.work_json()

    def span_counts(self, category: str | None = None) -> dict[str, int]:
        """Span counts per name, optionally restricted to one category."""
        counts: dict[str, int] = {}
        for span in self.spans:
            if category is not None and span.category != category:
                continue
            counts[span.name] = counts.get(span.name, 0) + 1
        return dict(sorted(counts.items()))

    def chrome_trace(self) -> dict[str, object]:
        """The spans as Chrome ``trace_event`` JSON (Perfetto-loadable)."""
        return chrome_trace(self.spans)

    def as_dict(self) -> TelemetryDict:
        """JSON-ready form (the ``--telemetry-out`` file format)."""
        return {
            "format": "repro.obs/1",
            "meta": dict(self.meta),
            "metrics": {name: dict(self.metrics[name]) for name in sorted(self.metrics)},
            "spans": [span.as_dict() for span in self.spans],
        }

    @staticmethod
    def from_dict(payload: TelemetryDict) -> "RunTelemetry":
        """Rebuild a run's telemetry from :meth:`as_dict` output."""
        fmt = payload.get("format", "repro.obs/1")
        if fmt != "repro.obs/1":
            raise ValueError(f"unsupported telemetry format {fmt!r}")
        metrics = cast("dict[str, MetricDict]", payload.get("metrics") or {})
        spans = cast("list[dict[str, object]]", payload.get("spans") or [])
        return RunTelemetry(
            metrics={str(k): dict(v) for k, v in metrics.items()},
            spans=tuple(SpanRecord.from_dict(s) for s in spans),
            meta=dict(cast("dict[str, object]", payload.get("meta") or {})),
        )

    @staticmethod
    def merge(runs: "Sequence[RunTelemetry | None]") -> "RunTelemetry | None":
        """Fold several runs (e.g. transport rounds) into one; None if empty."""
        present = [run for run in runs if run is not None]
        if not present:
            return None
        combined = Telemetry()
        meta: dict[str, object] = {}
        for run in present:
            combined.merge_run(run)
            meta.update(run.meta)
        meta["merged_runs"] = len(present)
        return combined.finish(meta=meta)

    # ------------------------------------------------------------------
    # Human rendering (the `repro.tools.report` terminal view)
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A terminal-friendly report: metrics tables + per-span rollup."""
        lines: list[str] = []
        if self.meta:
            pairs = " ".join(f"{k}={self.meta[k]}" for k in sorted(self.meta))
            lines.append(f"telemetry: {pairs}")
        else:
            lines.append("telemetry:")
        counters = {
            n: p for n, p in self.metrics.items() if p["kind"] == "counter"
        }
        gauges = {n: p for n, p in self.metrics.items() if p["kind"] == "gauge"}
        histograms = {
            n: p for n, p in self.metrics.items() if p["kind"] == "histogram"
        }
        if counters:
            lines.append("  counters:")
            width = max(len(n) for n in counters)
            for name in sorted(counters):
                payload = counters[name]
                mark = "" if payload["scope"] == "work" else "  [exec]"
                lines.append(f"    {name:<{width}s} {payload['value']:>10}{mark}")
        if gauges:
            lines.append("  gauges (peak):")
            width = max(len(n) for n in gauges)
            for name in sorted(gauges):
                payload = gauges[name]
                value = cast("float | None", payload["value"])
                text = "-" if value is None else f"{float(value):g}"
                mark = "" if payload["scope"] == "work" else "  [exec]"
                lines.append(f"    {name:<{width}s} {text:>10s}{mark}")
        for name in sorted(histograms):
            lines.append("  " + _histogram_block(name, histograms[name]))
        span_stats = span_totals(self.spans)
        if span_stats:
            lines.append("  spans:")
            width = max(len(n) for n in span_stats)
            for name, row in span_stats.items():
                lines.append(
                    f"    {name:<{width}s} count={row['calls']:<6d} "
                    f"wall={row['wall_s']:8.3f} s  cpu={row['cpu_s']:8.3f} s"
                )
        events = [span for span in self.spans if span.dur_s is None]
        if events:
            lines.append("  events:")
            origin = self.spans[0].start_s if self.spans else 0.0
            for span in events:
                attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
                lines.append(
                    f"    +{span.start_s - origin:8.3f} s  {span.name}"
                    + (f"  ({attrs})" if attrs else "")
                )
        return "\n".join(lines)


def _histogram_block(name: str, payload: MetricDict) -> str:
    """One histogram rendered as labelled buckets with ascii bars."""
    edges = [float(e) for e in cast(Sequence[float], payload["edges"])]
    counts = [int(c) for c in cast(Sequence[int], payload["counts"])]
    total = int(cast(int, payload["count"]))
    mark = "" if payload["scope"] == "work" else "  [exec]"
    lo = cast("float | None", payload["min"])
    hi = cast("float | None", payload["max"])
    span = (
        f" min={float(lo):g} max={float(hi):g}"
        if lo is not None and hi is not None
        else ""
    )
    lines = [f"{name}: n={total}{span}{mark}"]
    peak = max(counts) if counts else 0
    if total == 0 or peak == 0:
        # Zero-sample histograms have nothing to scale bars against;
        # say so explicitly instead of rendering an empty block.
        lines.append("    (no samples)")
        return "\n  ".join(lines)
    labels = (
        [f"< {edges[0]:g}"]
        + [f"[{a:g}, {b:g})" for a, b in zip(edges, edges[1:])]
        + [f">= {edges[-1]:g}"]
    )
    label_width = max(len(label) for label in labels)
    for label, count in zip(labels, counts):
        if count == 0:
            continue
        bar = "#" * max(1, round(24 * count / peak))
        lines.append(f"    {label:<{label_width}s} {count:>8d} {bar}")
    return "\n  ".join(lines)
