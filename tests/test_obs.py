"""Unified telemetry: metrics registry, span tracer, run-level records.

The load-bearing property throughout is *exactness*: merging worker-local
telemetry into the parent in any order must reproduce the serial run's
work-scoped metrics byte for byte (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.camera.capture import CameraModel
from repro.core.pipeline import run_link, run_transport_link
from repro.faults import FaultPlan
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunTelemetry,
    SpanRecord,
    SpanTracer,
    Telemetry,
    span_totals,
)
from repro.obs.metrics import EXEC, WORK
from repro.obs.trace import innermost_span
from repro.tools import report as report_tool
from repro.tools.report import validate_chrome_trace


class TestCounter:
    def test_increments_and_merges_exactly(self):
        a, b = Counter("frames"), Counter("frames")
        a.inc()
        a.inc(4)
        b.inc(7)
        a.merge(b.as_dict())
        assert a.value == 12

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("frames").inc(-1)

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="scope"):
            Counter("frames", scope="galactic")


class TestGauge:
    def test_keeps_running_maximum(self):
        gauge = Gauge("occupancy")
        gauge.set(3)
        gauge.set(9)
        gauge.set(5)
        assert gauge.value == 9.0

    def test_merge_is_max_combine(self):
        a, b = Gauge("occupancy"), Gauge("occupancy")
        a.set(4)
        b.set(11)
        a.merge(b.as_dict())
        assert a.value == 11.0

    def test_merge_ignores_unset_gauge(self):
        a = Gauge("occupancy")
        a.set(4)
        a.merge(Gauge("occupancy").as_dict())
        assert a.value == 4.0


class TestHistogram:
    def test_binning_underflow_and_overflow(self):
        hist = Histogram("noise", edges=(0.0, 1.0, 2.0))
        hist.observe_array([-5.0, 0.5, 1.5, 99.0, 2.0])
        # counts: [< 0, [0, 1), [1, 2), >= 2] -- 2.0 lands in overflow.
        assert hist.counts == [1, 1, 1, 2]
        assert hist.count == 5
        assert hist.min == -5.0
        assert hist.max == 99.0

    def test_edge_value_goes_right(self):
        hist = Histogram("noise", edges=(0.0, 1.0))
        hist.observe(1.0)
        assert hist.counts == [0, 0, 1]

    def test_empty_batch_is_a_no_op(self):
        hist = Histogram("noise", edges=(0.0,))
        hist.observe_array(np.empty(0))
        assert hist.count == 0
        assert hist.min is None

    def test_merge_adds_integer_counts(self):
        a = Histogram("noise", edges=(0.0, 1.0))
        b = Histogram("noise", edges=(0.0, 1.0))
        a.observe_array([0.5, 2.0])
        b.observe_array([-1.0, 0.25, 0.75])
        a.merge(b.as_dict())
        assert a.counts == [1, 3, 1]
        assert a.count == 5
        assert (a.min, a.max) == (-1.0, 2.0)

    def test_merge_rejects_edge_mismatch(self):
        a = Histogram("noise", edges=(0.0, 1.0))
        b = Histogram("noise", edges=(0.0, 2.0))
        with pytest.raises(ValueError, match="edge mismatch"):
            a.merge(b.as_dict())

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("noise", edges=(0.0, 0.0, 1.0))

    def test_rejects_empty_edges(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("noise", edges=())


class TestMetricsRegistry:
    def test_same_name_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("frames") is registry.counter("frames")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("frames")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("frames")

    def test_scope_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("frames", scope=WORK)
        with pytest.raises(ValueError, match="work-scoped"):
            registry.counter("frames", scope=EXEC)

    def test_histogram_edge_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.histogram("noise", edges=(0.0, 1.0))
        with pytest.raises(ValueError, match="different edges"):
            registry.histogram("noise", edges=(0.0, 2.0))

    def test_merge_order_never_matters(self):
        def worker(seed):
            registry = MetricsRegistry()
            rng = np.random.default_rng(seed)
            registry.counter("frames").inc(int(seed) + 1)
            registry.histogram("noise", edges=(-1.0, 0.0, 1.0)).observe_array(
                rng.normal(size=50)
            )
            registry.gauge("peak").set(float(seed))
            return registry.as_dict()

        exports = [worker(seed) for seed in range(5)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for payload in exports:
            forward.merge(payload)
        for payload in reversed(exports):
            backward.merge(payload)
        assert forward.work_json() == backward.work_json()
        assert forward.as_dict() == backward.as_dict()

    def test_work_json_excludes_exec_scope(self):
        registry = MetricsRegistry()
        registry.counter("decode.frames", scope=WORK).inc(3)
        registry.counter("exec.chunks", scope=EXEC).inc(8)
        registry.gauge("exec.shm_peak_occupancy").set(4)
        work = json.loads(registry.work_json())
        assert set(work) == {"decode.frames"}

    def test_merge_rejects_unknown_kind(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric kind"):
            registry.merge({"x": {"kind": "summary", "scope": "work"}})


class TestSpanTracer:
    def test_nesting_records_parent_ids(self):
        tracer = SpanTracer(track="main")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.event("tick")
        by_name = {record.name: record for record in tracer.records}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["tick"].parent_id == by_name["outer"].span_id
        assert by_name["tick"].dur_s is None
        assert by_name["inner"].dur_s >= 0.0

    def test_merge_keeps_track_span_id_unique(self):
        parent = SpanTracer(track="main")
        with parent.span("decide"):
            pass
        for chunk in range(2):
            worker = SpanTracer(track=f"chunk-{chunk:03d}")
            with worker.span("render", capture=chunk):
                pass
            parent.merge(worker.export())
        keys = {(r.track, r.span_id) for r in parent.records}
        assert len(keys) == len(parent.records) == 3

    def test_span_attrs_survive_export(self):
        tracer = SpanTracer()
        with tracer.span("render", capture=7, mode="serial"):
            pass
        merged = SpanTracer()
        merged.merge(tracer.export())
        assert merged.records[0].attrs == {"capture": 7, "mode": "serial"}

    def test_spans_record_cpu_time(self):
        tracer = SpanTracer()
        with tracer.span("render"):
            sum(range(20000))
        tracer.event("tick")
        span, event = tracer.records
        assert span.cpu_s is not None and span.cpu_s >= 0.0
        assert event.cpu_s is None
        merged = SpanTracer()
        merged.merge(tracer.export())
        assert merged.records == tracer.records

    def test_innermost_span_is_per_thread_under_concurrent_reads(self):
        stop = threading.Event()
        seen: set[str | None] = set()

        def churn() -> None:
            tracer = SpanTracer(track="worker")
            while not stop.is_set():
                with tracer.span("a"):
                    with tracer.span("b"):
                        time.sleep(0)  # hand over the GIL with "b" open

        tracer = SpanTracer()
        worker = threading.Thread(target=churn, daemon=True)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tracer.span("outer"):
                worker.start()
                for _ in range(20000):
                    seen.add(innermost_span(worker.ident))
                    assert innermost_span(threading.get_ident()) == "outer"
        finally:
            stop.set()
            sys.setswitchinterval(previous)
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert seen <= {None, "a", "b"} and "b" in seen
        assert innermost_span(threading.get_ident()) is None

    def test_span_totals_sum_per_name(self):
        def record(name, dur, cpu, span_id):
            return SpanRecord(name, "work", "main", span_id, None, 0.0, dur, {}, cpu)

        records = [
            record("render", 0.5, 0.25, 1),
            record("decide", 0.125, None, 2),  # exported without CPU time
            record("render", 0.25, 0.25, 3),
            record("heal.resync", None, None, 4),  # instant event: skipped
        ]
        totals = span_totals(records)
        assert list(totals) == ["decide", "render"]
        assert totals["render"] == {"wall_s": 0.75, "cpu_s": 0.5, "calls": 2}
        assert totals["decide"] == {"wall_s": 0.125, "cpu_s": 0.0, "calls": 1}
        assert span_totals([]) == {}

    def test_from_dict_accepts_spans_without_cpu_time(self, tmp_path, capsys):
        # The span layout written before spans carried CPU time.
        legacy = {
            "name": "render",
            "category": "work",
            "track": "chunk-000",
            "span_id": 1,
            "parent_id": None,
            "start_s": 10.0,
            "dur_s": 0.5,
            "attrs": {"capture": 0},
        }
        assert SpanRecord.from_dict(legacy).cpu_s is None
        path = tmp_path / "telemetry.json"
        path.write_text(
            json.dumps({"format": "repro.obs/1", "meta": {}, "metrics": {}, "spans": [legacy]})
        )
        run = report_tool.load_telemetry(path)
        assert span_totals(run.spans) == {
            "render": {"wall_s": 0.5, "cpu_s": 0.0, "calls": 1}
        }
        assert report_tool.main([str(path)]) == 0
        assert "render" in capsys.readouterr().out


class TestRunTelemetry:
    def _sample(self):
        telemetry = Telemetry(track="main")
        telemetry.metrics.counter("decode.frames").inc(3)
        telemetry.metrics.histogram("decode.block_noise", edges=(0.0, 1.0)).observe(0.5)
        telemetry.metrics.gauge("exec.shm_slots").set(6)
        with telemetry.tracer.span("decide"):
            telemetry.tracer.event("heal.resync", capture=4)
        return telemetry.finish(meta={"run": "link", "seed": 1})

    def test_json_round_trip(self):
        run = self._sample()
        clone = RunTelemetry.from_dict(json.loads(json.dumps(run.as_dict())))
        assert clone.metrics == run.metrics
        assert clone.spans == run.spans
        assert clone.meta == run.meta
        assert clone.metrics_json() == run.metrics_json()

    def test_from_dict_rejects_other_formats(self):
        with pytest.raises(ValueError, match="unsupported telemetry format"):
            RunTelemetry.from_dict({"format": "repro.obs/99"})

    def test_merge_combines_and_counts_runs(self):
        run = self._sample()
        merged = RunTelemetry.merge([run, None, run])
        assert merged.meta["merged_runs"] == 2
        assert merged.metrics["decode.frames"]["value"] == 6
        assert len(merged.spans) == 4
        assert RunTelemetry.merge([None, None]) is None

    def test_chrome_trace_is_schema_valid(self):
        trace = self._sample().chrome_trace()
        assert validate_chrome_trace(trace) == []
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}

    def test_summary_mentions_every_metric(self):
        text = self._sample().summary()
        assert "decode.frames" in text
        assert "decode.block_noise" in text
        assert "exec.shm_slots" in text
        assert "heal.resync" in text
        assert "run=link" in text


class TestHistogramSummary:
    """The ascii-bar block degrades gracefully at the edges."""

    def _summary(self, observations, edges=(0.0, 1.0, 2.0)):
        telemetry = Telemetry(track="main")
        histogram = telemetry.metrics.histogram("decode.noise", edges=edges)
        for value in observations:
            histogram.observe(value)
        return telemetry.finish(meta={}).summary()

    def test_empty_histogram_says_no_samples(self):
        text = self._summary([])
        assert "decode.noise: n=0" in text
        assert "(no samples)" in text
        assert "#" not in text

    def test_single_bucket_gets_a_full_bar(self):
        text = self._summary([0.5])
        assert "n=1 min=0.5 max=0.5" in text
        assert "(no samples)" not in text
        bars = [line for line in text.splitlines() if "#" in line]
        assert len(bars) == 1
        assert bars[0].rstrip().endswith("#" * 24)

    def test_saturated_bucket_keeps_small_buckets_visible(self):
        text = self._summary([0.5] * 1000 + [1.5])
        bars = [line for line in text.splitlines() if "#" in line]
        assert len(bars) == 2
        widths = sorted(line.count("#") for line in bars)
        # The peak bucket saturates the 24-char bar; the 1-count bucket
        # still renders a visible single-hash bar instead of vanishing.
        assert widths == [1, 24]


class TestLinkTelemetry:
    """End-to-end: the pipeline's telemetry honours the determinism contract."""

    def _run(self, config, video, workers, faulted=False):
        camera = CameraModel(width=75, height=54)
        faults = (
            FaultPlan.parse("drop:p=0.2;flip:at=0.5;blackout:at=0.7,dur=0.1", seed=21)
            if faulted
            else None
        )
        return run_link(
            config,
            video,
            camera=camera,
            seed=4,
            workers=workers,
            faults=faults,
            heal=True if faulted else None,
        )

    def test_clean_run_serial_matches_workers(self, small_config, small_video):
        serial = self._run(small_config, small_video, None)
        parallel = self._run(small_config, small_video, 4)
        assert serial.telemetry.metrics_json() == parallel.telemetry.metrics_json()
        assert serial.telemetry.span_counts("work") == parallel.telemetry.span_counts(
            "work"
        )

    def test_faulted_run_serial_matches_workers(self, small_config, small_video):
        serial = self._run(small_config, small_video, None, faulted=True)
        parallel = self._run(small_config, small_video, 4, faulted=True)
        assert serial.telemetry.metrics_json() == parallel.telemetry.metrics_json()
        assert serial.telemetry.span_counts("work") == parallel.telemetry.span_counts(
            "work"
        )

    def test_work_spans_cover_every_stage(self, small_config, small_video):
        run = self._run(small_config, small_video, None)
        counts = run.telemetry.span_counts("work")
        assert counts["render"] == len(run.captures)
        assert counts["observe"] == len(run.captures)
        assert counts["decide"] == 1
        assert counts["score"] == 1

    def test_decode_metrics_match_the_run(self, small_config, small_video):
        run = self._run(small_config, small_video, None)
        metrics = run.telemetry.metrics
        # decode.frames counts every decoded data frame, including the
        # warmup/incomplete ones that run.decoded filters out for scoring.
        assert metrics["decode.frames"]["value"] >= len(run.decoded)
        assert metrics["decode.observations"]["value"] == len(run.captures)
        noise = metrics["decode.block_noise"]
        blocks_per_frame = small_config.block_rows * small_config.block_cols
        assert noise["count"] == len(run.captures) * blocks_per_frame

    def test_faulted_run_records_healing(self, small_config, small_video):
        run = self._run(small_config, small_video, None, faulted=True)
        healing = run.degradation.healing
        metrics = run.telemetry.metrics
        assert metrics["heal.windows"]["value"] == healing.windows
        assert metrics["heal.resyncs"]["value"] == healing.n_resyncs
        assert metrics["faults.dropped_captures"]["value"] == (
            run.degradation.injected.dropped_captures
        )
        resync_events = [s for s in run.telemetry.spans if s.name == "heal.resync"]
        assert len(resync_events) == healing.n_resyncs

    def test_collect_telemetry_off_leaves_run_bare(self, small_config, small_video):
        camera = CameraModel(width=75, height=54)
        run = run_link(
            small_config, small_video, camera=camera, seed=4, collect_telemetry=False
        )
        assert run.telemetry is None

    def test_meta_records_execution_shape(self, small_config, small_video):
        run = self._run(small_config, small_video, 4)
        meta = run.telemetry.meta
        assert meta["run"] == "link"
        assert meta["workers"] == 4
        assert meta["frames"] == len(run.captures)


class TestTransportTelemetry:
    def test_fountain_run_collects_transport_metrics(self):
        import dataclasses

        from repro.analysis.experiments import ExperimentScale

        scale = dataclasses.replace(ExperimentScale.quick(), n_video_frames=24)
        config = scale.config(amplitude=30.0, tau=12)
        payload = bytes(range(48))
        run = run_transport_link(
            config,
            scale.video("gray"),
            payload,
            mode="fountain",
            camera=scale.camera(),
            seed=3,
            max_rounds=2,
        )
        telemetry = run.telemetry
        assert telemetry is not None
        metrics = telemetry.metrics
        assert metrics["transport.rounds"]["value"] >= 1
        assert metrics["transport.packets_sent"]["value"] >= 1
        assert metrics["fountain.degree"]["count"] >= 1
        # Link-level decode telemetry from each round folded in.
        assert metrics["decode.frames"]["value"] >= 1
        rounds = telemetry.span_counts()["transport.round"]
        assert rounds == metrics["transport.rounds"]["value"]
        assert telemetry.meta["run"] == "transport"
        # And the whole thing still round-trips through the file format.
        clone = RunTelemetry.from_dict(telemetry.as_dict())
        assert clone.metrics_json() == telemetry.metrics_json()
