"""Live telemetry: time-series rings, watch folding, profiler, perf gate.

The load-bearing property is *separation*: the live side-channel
(:mod:`repro.obs.live`) is wall-clock-stamped by construction, so
enabling it -- collector, snapshot stream, both exporters, sampling
profiler -- must leave the exact-merge artifact (``metrics_json()`` /
``work_json()``) byte-identical at any worker count.
"""

from __future__ import annotations

import io
import json
import signal
import time

import pytest

from repro.camera.capture import CameraModel
from repro.campaign.supervise import JournalTail, LeaseHealth, SupervisePolicy
from repro.core.pipeline import run_link
from repro.faults import FaultPlan
from repro.analysis.experiments import ExperimentScale
from repro.obs import SpanTracer, Telemetry
from repro.obs.live import (
    LIVE_FORMAT,
    LiveCollector,
    TimeSeries,
    install_live,
    live_collector,
    parse_prometheus,
    read_snapshots,
    record_live,
    render_prometheus,
)
from repro.obs.profile import ProfileReport, SamplingProfiler
from repro.tools import perf as perf_tool
from repro.tools import watch as watch_tool
from repro.tools.perf import (
    BENCH_SCHEMA,
    PERF_FORMAT,
    baseline_for,
    bench_envelope,
    compare,
    flatten_metrics,
    metric_direction,
    normalize_bench,
    read_trajectory,
)
from repro.tools.watch import (
    WatchState,
    feed_snapshots,
    render_frame,
    sparkline,
)


class TestTimeSeries:
    def test_ring_overwrites_oldest(self):
        series = TimeSeries("x", capacity=3)
        for i in range(5):
            series.record(float(i), t=float(i))
        assert len(series) == 3
        assert series.points() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
        assert series.values() == [2.0, 3.0, 4.0]

    def test_latest_and_latest_time(self):
        series = TimeSeries("x")
        assert series.latest() is None
        assert series.latest_time() is None
        series.record(7.0, t=100.0)
        series.record(9.0, t=101.0)
        assert series.latest() == 9.0
        assert series.latest_time() == 101.0

    def test_records_are_wall_stamped_by_default(self):
        series = TimeSeries("x")
        before = time.time()
        series.record(1.0)
        after = time.time()
        stamp = series.latest_time()
        assert stamp is not None and before <= stamp <= after

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TimeSeries("x", capacity=0)


class TestLiveCollector:
    def _collector(self, **kwargs):
        ticks = iter(float(i) for i in range(1, 1000))
        return LiveCollector(clock=lambda: next(ticks), **kwargs)

    def test_record_and_names(self):
        collector = self._collector()
        collector.record("b.two", 2.0)
        collector.record("a.one", 1.0)
        assert collector.names() == ["a.one", "b.two"]
        assert collector.series("a.one").latest() == 1.0

    def test_snapshot_shape_and_seq(self):
        collector = self._collector()
        collector.record("x", 5.0)
        first = collector.snapshot()
        second = collector.snapshot()
        assert first["format"] == LIVE_FORMAT
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["values"] == {"x": 5.0}
        assert isinstance(first["t"], float)

    def test_attach_samples_registry_readonly(self):
        collector = self._collector()
        telemetry = Telemetry(track="t")
        telemetry.metrics.counter("decode.frames").inc(3)
        telemetry.metrics.gauge("exec.slots").set(4)
        telemetry.metrics.histogram("noise", edges=(0.0, 1.0)).observe(0.5)
        before = telemetry.metrics.as_dict()
        collector.attach(telemetry.metrics, prefix="link.")
        snap = collector.snapshot()
        values = snap["values"]
        assert values["link.decode.frames"] == 3.0
        assert values["link.exec.slots"] == 4.0
        assert values["link.noise"] == 1.0  # histograms sample their count
        assert telemetry.metrics.as_dict() == before  # never written

    def test_attach_same_prefix_replaces(self):
        collector = self._collector()
        a, b = Telemetry(track="a"), Telemetry(track="b")
        a.metrics.counter("n").inc(1)
        b.metrics.counter("n").inc(10)
        collector.attach(a.metrics)
        collector.attach(b.metrics)
        assert collector.snapshot()["values"]["n"] == 10.0

    def test_probe_sampled_every_snapshot(self):
        collector = self._collector()
        collector.add_probe(lambda: {"probe.x": 1.5})
        collector.snapshot()
        collector.snapshot()
        assert collector.series("probe.x").values() == [1.5, 1.5]

    def test_jsonl_stream_round_trip(self, tmp_path):
        path = tmp_path / "live.jsonl"
        collector = self._collector(snapshot_path=str(path))
        collector.record("x", 1.0)
        collector.snapshot()
        collector.record("x", 2.0)
        collector.snapshot()
        # A torn final line and a foreign line are both skipped.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"format":"other/1","values":{}}\n')
            handle.write('{"format":"repro.obs.live/1","seq":9')
        with open(path, encoding="utf-8") as handle:
            records = read_snapshots(handle)
        assert [r["seq"] for r in records] == [0, 1]
        assert records[1]["values"]["x"] == 2.0

    def test_write_snapshot_swallows_oserror(self, tmp_path):
        collector = LiveCollector(snapshot_path=str(tmp_path / "no" / "dir.jsonl"))
        collector.record("x", 1.0)
        collector.snapshot()  # must not raise
        assert collector.snapshots == 1

    def test_background_sampler_snapshots_until_stopped(self):
        collector = LiveCollector(interval_s=0.01)
        collector.record("x", 1.0)
        with collector:
            time.sleep(0.05)
        assert collector.snapshots >= 2  # loop plus the final stop() snapshot

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval_s"):
            LiveCollector(interval_s=0.0)


class TestPrometheusExposition:
    def test_render_parse_round_trip(self):
        collector = LiveCollector()
        collector.record("engine.items_done", 12.0, t=100.0)
        collector.record("serve.delivery-rate", 0.75, t=100.5)
        text = render_prometheus(collector)
        assert text.startswith(f"# {LIVE_FORMAT}")
        assert "# TYPE repro_live_engine_items_done gauge" in text
        assert parse_prometheus(text) == {
            "engine.items_done": 12.0,
            "serve.delivery-rate": 0.75,
        }

    def test_samples_carry_millisecond_timestamps(self):
        collector = LiveCollector()
        collector.record("x", 1.0, t=2.5)
        sample = [
            line
            for line in render_prometheus(collector).splitlines()
            if not line.startswith("#")
        ]
        assert sample == ['repro_live_x{series="x"} 1 2500']

    def test_empty_series_are_omitted(self):
        collector = LiveCollector()
        collector.series("never.recorded")
        assert parse_prometheus(render_prometheus(collector)) == {}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus("not a sample line\n")


class TestInstallation:
    def test_record_live_is_noop_without_collector(self):
        assert live_collector() is None
        record_live("x", 1.0)  # must not raise

    def test_install_records_and_returns_previous(self):
        collector = LiveCollector()
        assert install_live(collector) is None
        try:
            record_live("x", 3.0)
            assert collector.series("x").latest() == 3.0
        finally:
            assert install_live(None) is collector
        assert live_collector() is None


class TestSamplingProfiler:
    def test_thread_mode_samples_a_busy_loop(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with profiler:
            deadline = time.perf_counter() + 0.08
            while time.perf_counter() < deadline:
                sum(range(200))
        report = profiler.report()
        assert report.samples > 0
        assert report.duration_s > 0.0
        assert sum(report.by_stage.values()) == report.samples

    def test_collapsed_stack_format(self):
        report = ProfileReport(
            samples=3,
            duration_s=0.1,
            interval_s=0.005,
            stacks={("m:a", "m:b"): 2, ("m:a",): 1},
            by_stage={"other": 3},
        )
        assert report.collapsed() == ["m:a 1", "m:a;m:b 2"]
        assert report.stage_fractions() == {"other": 1.0}
        payload = report.as_dict()
        assert payload["format"] == "repro.obs.profile/1"
        assert payload["stacks"] == {"m:a": 1, "m:a;m:b": 2}

    def test_write_collapsed(self, tmp_path):
        report = ProfileReport(
            samples=1, duration_s=0.0, interval_s=0.005, stacks={("m:f",): 1}
        )
        path = tmp_path / "profile.folded"
        report.write_collapsed(str(path))
        assert path.read_text() == "m:f 1\n"

    @pytest.mark.parametrize(
        "mode",
        [
            "thread",
            pytest.param(
                "signal",
                marks=pytest.mark.skipif(
                    not hasattr(signal, "setitimer"), reason="no SIGPROF timer here"
                ),
            ),
        ],
    )
    def test_stage_bucketing_innermost_span_wins(self, mode):
        tracer = SpanTracer()
        profiler = SamplingProfiler(interval_s=0.001, mode=mode)
        with profiler:
            with tracer.span("transport.round"):
                with tracer.span("render"):
                    deadline = time.process_time() + 0.15
                    while time.process_time() < deadline:
                        sum(range(200))
        by_stage = profiler.report().by_stage
        assert max(by_stage, key=by_stage.__getitem__) == "render"
        assert by_stage["render"] > sum(by_stage.values()) / 2

    def test_samples_outside_any_span_are_other(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with profiler:
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                sum(range(200))
        report = profiler.report()
        assert report.samples > 0
        assert report.by_stage == {"other": report.samples}

    def test_serial_link_profile_agrees_with_runtime_stages(self):
        # The sampler and RuntimeReport.stages read the same spans, so
        # they must agree on where a render-heavy run spends its time.
        scale = ExperimentScale.quick()
        config = scale.config(amplitude=20.0, tau=12)
        with SamplingProfiler() as profiler:
            run = run_link(config, scale.video("gray"), camera=scale.camera(), seed=1)
        stages = run.runtime.stages
        by_stage = profiler.report().by_stage
        top_stage = max(stages, key=lambda name: stages[name]["wall_s"])
        assert top_stage == "render"
        assert max(by_stage, key=by_stage.__getitem__) == top_stage

    def test_empty_report_summary(self):
        profiler = SamplingProfiler()
        report = profiler.report()
        assert report.stage_fractions() == {}
        assert "0 samples" in report.summary()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="interval_s"):
            SamplingProfiler(interval_s=0.0)
        with pytest.raises(ValueError, match="mode"):
            SamplingProfiler(mode="hardware")


class TestLiveByteIdentity:
    """The acceptance gate: the side-channel never perturbs exact merges."""

    def _run(self, config, video, workers, faulted):
        faults = (
            FaultPlan.parse("drop:p=0.2;flip:at=0.5", seed=21) if faulted else None
        )
        return run_link(
            config,
            video,
            camera=CameraModel(width=75, height=54),
            seed=4,
            workers=workers,
            faults=faults,
            heal=True if faulted else None,
        )

    @pytest.mark.parametrize("faulted", [False, True])
    def test_metrics_identical_with_full_live_stack(
        self, tmp_path, small_config, small_video, faulted
    ):
        baseline = self._run(small_config, small_video, None, faulted)

        collector = LiveCollector(
            interval_s=0.02, snapshot_path=str(tmp_path / "live.jsonl")
        )
        profiler = SamplingProfiler(interval_s=0.002)
        install_live(collector)
        try:
            with collector, profiler:
                serial = self._run(small_config, small_video, None, faulted)
                parallel = self._run(small_config, small_video, 4, faulted)
        finally:
            install_live(None)
        # Both exporters run over the collected state.
        exposition = render_prometheus(collector)
        parse_prometheus(exposition)
        with open(tmp_path / "live.jsonl", encoding="utf-8") as handle:
            snapshots = read_snapshots(handle)
        assert snapshots and all(s["format"] == LIVE_FORMAT for s in snapshots)

        assert serial.telemetry.metrics_json() == parallel.telemetry.metrics_json()
        assert serial.telemetry.metrics_json() == baseline.telemetry.metrics_json()
        assert serial.telemetry.span_counts("work") == parallel.telemetry.span_counts(
            "work"
        )

    def test_run_link_populates_live_series(self, small_config, small_video):
        collector = LiveCollector()
        install_live(collector)
        try:
            self._run(small_config, small_video, None, False)
            collector.snapshot()
        finally:
            install_live(None)
        names = collector.names()
        assert "engine.items_done" in names
        assert any(name.startswith("link.") for name in names)


def _journal_lines(now: float) -> list[str]:
    """A synthetic mid-flight campaign journal (one stuck, one live lease)."""
    records = [
        {
            "event": "campaign",
            "format": "repro.campaign/1",
            "spec": "tau-sweep",
            "scale": "quick",
            "seed": 7,
            "units": 4,
            "max_attempts": 2,
        },
        {"event": "master", "incarnation": 1},
        {"event": "queued", "unit": "u0", "index": 0},
        {"event": "queued", "unit": "u1", "index": 1},
        {"event": "queued", "unit": "u2", "index": 2},
        {"event": "queued", "unit": "u3", "index": 3},
        # u0: healthy lease, fresh heartbeat.
        {
            "event": "leased", "unit": "u0", "index": 0, "worker": "w1",
            "fence": 1, "granted": now - 3.0, "expires": now + 600.0,
        },
        {
            "event": "heartbeat", "unit": "u0", "index": 0, "fence": 1,
            "seq": 2, "t": now - 0.5,
        },
        # u1: leased 20 s ago, heartbeats stopped 20 s ago -> STUCK.
        {
            "event": "leased", "unit": "u1", "index": 1, "worker": "w2",
            "fence": 2, "granted": now - 25.0, "expires": now + 600.0,
        },
        {
            "event": "heartbeat", "unit": "u1", "index": 1, "fence": 2,
            "seq": 0, "t": now - 20.0,
        },
        # A heartbeat for a fenced-off lease must be ignored.
        {
            "event": "heartbeat", "unit": "u1", "index": 1, "fence": 1,
            "seq": 99, "t": now,
        },
        {"event": "done", "unit": "u2", "fence": 3, "result": {"index": 2}},
        {
            "event": "quarantined", "unit": "u3", "reclaims": 3, "deaths": 1,
            "error": "poison unit",
        },
    ]
    return [json.dumps(r, sort_keys=True) for r in records]


class TestWatchState:
    def _fed(self, now):
        state = WatchState()
        state.feed([json.loads(line) for line in _journal_lines(now)])
        return state

    def test_fold_counts_and_header(self):
        now = time.time()
        state = self._fed(now)
        assert state.header is not None and state.header["spec"] == "tau-sweep"
        assert state.counts() == {
            "queued": 0, "leased": 2, "done": 1, "failed": 0, "quarantined": 1,
        }
        assert [v.key for v in state.leased()] == ["u0", "u1"]
        assert not state.complete

    def test_stuck_lease_classified_within_policy_window(self):
        now = time.time()
        state = self._fed(now)
        policy = SupervisePolicy.resolve(heartbeat_s=1.0, stuck_after_s=4.0)
        healths = {v.key: v.health(now, policy) for v in state.leased()}
        assert healths["u0"] is LeaseHealth.LIVE
        assert healths["u1"] is LeaseHealth.STUCK

    def test_fenced_off_heartbeat_ignored(self):
        state = self._fed(time.time())
        assert state.units["u1"].beat_seq == 0  # not the fence-1 seq 99

    def test_failed_respects_max_attempts(self):
        state = WatchState()
        state.feed([json.loads(line) for line in _journal_lines(time.time())])
        state.feed([
            {"event": "failed", "unit": "u0", "fence": 1, "kind": "crash",
             "attempt": 1, "error": "boom"},
        ])
        assert state.units["u0"].status == "queued"  # 1 < max_attempts=2
        state.feed([
            {"event": "failed", "unit": "u0", "fence": 1, "kind": "crash",
             "attempt": 2, "error": "boom"},
        ])
        assert state.units["u0"].status == "failed"

    def test_complete_on_drain_or_terminal_units(self):
        state = WatchState()
        assert not state.complete
        state.feed([{"event": "drained", "incarnation": 1, "outstanding": 0}])
        assert state.complete

    def test_unknown_events_ignored(self):
        state = WatchState()
        state.feed([{"event": "futuristic", "unit": "u9"}])
        assert state.units == {}


class TestSparkline:
    def test_scales_min_to_max(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_flat_and_empty(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_window_clips_to_width(self):
        assert len(sparkline(list(range(100)), width=8)) == 8


class TestRenderFrame:
    def test_frame_shows_stuck_lease_and_poison(self):
        now = time.time()
        state = WatchState()
        state.feed([json.loads(line) for line in _journal_lines(now)])
        collector = LiveCollector()
        feed_snapshots(
            collector,
            [{"format": LIVE_FORMAT, "seq": 0, "t": now,
              "values": {"campaign.leases.stuck": 1.0}}],
        )
        policy = SupervisePolicy.resolve(heartbeat_s=1.0, stuck_after_s=4.0)
        frame = render_frame(state, collector, now=now, policy=policy, skipped=1)
        assert "campaign: tau-sweep" in frame
        assert "queued=0 leased=2 done=1 failed=0 quarantined=1" in frame
        assert "STUCK" in frame and "LIVE" in frame
        assert "[poison] u3" in frame and "poison unit" in frame
        assert "campaign.leases.stuck" in frame
        assert "1 torn/foreign lines skipped" in frame

    def test_frame_without_any_data(self):
        frame = render_frame(
            WatchState(),
            LiveCollector(),
            now=0.0,
            policy=SupervisePolicy.resolve(),
        )
        assert "waiting for journal/snapshot data" in frame

    def test_feed_snapshots_skips_foreign_records(self):
        collector = LiveCollector()
        folded = feed_snapshots(
            collector,
            [
                {"format": "other/9", "values": {"x": 1.0}},
                {"format": LIVE_FORMAT, "seq": 0, "t": 1.0, "values": "torn"},
                {"format": LIVE_FORMAT, "seq": 1, "t": 2.0,
                 "values": {"x": 3.0, "label": "skipped"}},
            ],
        )
        assert folded == 1
        assert collector.names() == ["x"]
        assert collector.series("x").points() == [(2.0, 3.0)]


class TestWatchTailUnderConcurrentAppends:
    """Satellite: the watcher tolerates journals being appended this instant."""

    def _torn(self, line: str) -> str:
        # The same half-line shape the chaos ``tear:`` injector writes.
        return line[: max(1, (len(line) - 1) // 2)]

    def test_torn_final_line_is_picked_up_next_poll(self, tmp_path):
        now = time.time()
        lines = _journal_lines(now)
        path = tmp_path / "j.jsonl"
        path.write_text("\n".join(lines[:4]) + "\n" + self._torn(lines[4] + "\n"))
        tail = JournalTail(path)
        state = WatchState()
        state.feed(tail.poll())
        assert len(state.units) == 2  # u2's queued line is still torn
        # The writer finishes the line and keeps appending.
        with open(path, "a", encoding="utf-8") as handle:
            rest = (lines[4] + "\n")[len(self._torn(lines[4] + "\n")):]
            handle.write(rest)
            for line in lines[5:]:
                handle.write(line + "\n")
        state.feed(tail.poll())
        assert len(state.units) == 4
        assert state.counts()["quarantined"] == 1
        assert tail.skipped == 0

    def test_torn_midfile_heartbeat_skipped_not_fatal(self, tmp_path):
        now = time.time()
        lines = _journal_lines(now)
        beat = json.dumps(
            {"event": "heartbeat", "unit": "u0", "index": 0, "fence": 1,
             "seq": 3, "t": now},
            sort_keys=True,
        )
        path = tmp_path / "j.jsonl"
        # A crashed worker left half a heartbeat *mid-file* (the next
        # append started a fresh line after it).
        path.write_text(
            "\n".join(lines[:8]) + "\n" + self._torn(beat) + "\n"
            + "\n".join(lines[8:]) + "\n"
        )
        tail = JournalTail(path)
        state = WatchState()
        state.feed(tail.poll())
        assert tail.skipped == 1
        assert len(state.units) == 4
        assert state.units["u0"].beat_seq == 2  # the torn beat never landed

    def test_watch_once_cli_renders_and_exports(self, tmp_path, capsys):
        now = time.time()
        journal = tmp_path / "j.jsonl"
        journal.write_text("\n".join(_journal_lines(now)) + "\n")
        snapshots = tmp_path / "live.jsonl"
        snapshots.write_text(
            json.dumps({"format": LIVE_FORMAT, "seq": 0, "t": now,
                        "values": {"engine.items_done": 5.0}})
            + "\n"
        )
        prom = tmp_path / "metrics.prom"
        code = watch_tool.main([
            "--journal", str(journal),
            "--snapshots", str(snapshots),
            "--once",
            "--stuck-after", "4.0",
            "--prometheus-out", str(prom),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: tau-sweep" in out
        assert "STUCK" in out
        assert "engine.items_done" in out
        assert parse_prometheus(prom.read_text()) == {"engine.items_done": 5.0}

    def test_watch_requires_a_stream(self, capsys):
        with pytest.raises(SystemExit):
            watch_tool.main(["--once"])


class TestPerfEnvelope:
    def test_bench_envelope_merges_in_place(self):
        record = {"runs": [{"workers": 1, "elapsed_s": 2.0}], "note": "x"}
        out = bench_envelope(record, bench="runtime", quick=True)
        assert out is record
        assert record["schema"] == BENCH_SCHEMA
        assert record["bench"] == "runtime" and record["quick"] is True
        assert record["usable_cpus"] >= 1
        assert record["metrics"] == {"runs.0.elapsed_s": 2.0, "runs.0.workers": 1.0}
        assert record["note"] == "x"  # existing keys untouched

    def test_flatten_skips_bools_strings_and_envelope(self):
        flat = flatten_metrics({
            "schema": BENCH_SCHEMA,
            "bench": "x",
            "quick": True,
            "usable_cpus": 8,
            "ok": True,
            "label": "fast",
            "nested": {"a": 1, "b": [2.5, {"c": 3}]},
        })
        assert flat == {"nested.a": 1.0, "nested.b.0": 2.5, "nested.b.1.c": 3.0}

    def test_normalize_legacy_payload_from_filename(self):
        record = normalize_bench(
            {"overhead_ratio": 1.01}, source="bench_telemetry_overhead.json"
        )
        assert record["bench"] == "telemetry_overhead"
        assert record["quick"] is False
        record = normalize_bench({"n": 1}, source="bench_campaign_quick.json")
        assert record["bench"] == "campaign" and record["quick"] is True

    def test_normalize_enveloped_payload_passes_through(self):
        payload = bench_envelope({"elapsed_s": 1.0}, bench="serve", quick=False)
        record = normalize_bench(dict(payload), source="bench_other.json")
        assert record["bench"] == "serve" and record["quick"] is False


class TestMetricDirection:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("runs.0.elapsed_s", "lower"),
            ("overhead_ratio", "lower"),
            ("telemetry.per_field_s", "lower"),
            ("fleet.deaths", "lower"),
            ("frames_per_s", "higher"),
            ("runs.2.speedup_vs_serial", "higher"),
            ("fleet.delivery_rate", "higher"),
            ("goodput_kbps", "higher"),
            ("rerender.reuse_ratio", "higher"),
            ("runs.0.workers", None),
            ("units", None),
        ],
    )
    def test_direction_inference(self, name, expected):
        assert metric_direction(name) == expected


class TestPerfGate:
    def _results_dir(self, tmp_path, elapsed=2.0, rate=10.0):
        results = tmp_path / "results"
        results.mkdir(exist_ok=True)
        record = bench_envelope(
            {"runs": [{"elapsed_s": elapsed, "frames_per_s": rate}]},
            bench="runtime",
            quick=True,
        )
        (results / "bench_runtime_quick.json").write_text(json.dumps(record))
        return results

    def _cli(self, *argv):
        return perf_tool.main(list(argv))

    def test_ingest_then_check_passes_on_identical_results(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        assert self._cli(
            "ingest", "--results", str(results), "--trajectory", str(trajectory)
        ) == 0
        payload = read_trajectory(trajectory)
        assert payload["format"] == PERF_FORMAT
        assert len(payload["runs"]) == 1
        assert self._cli(
            "check", "--results", str(results), "--trajectory", str(trajectory)
        ) == 0
        assert "no directional metric past its budget" in capsys.readouterr().out

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        self._cli("ingest", "--results", str(results), "--trajectory", str(trajectory))
        # A 30% slowdown on a lower-is-better metric trips the 20% budget.
        self._results_dir(tmp_path, elapsed=2.0 * 1.3)
        assert self._cli(
            "check", "--results", str(results), "--trajectory", str(trajectory)
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSED runs.0.elapsed_s" in out

    def test_rate_drop_regresses_downward(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        self._cli("ingest", "--results", str(results), "--trajectory", str(trajectory))
        self._results_dir(tmp_path, rate=10.0 * 0.6)
        assert self._cli(
            "check", "--results", str(results), "--trajectory", str(trajectory)
        ) == 1
        assert "REGRESSED runs.0.frames_per_s" in capsys.readouterr().out

    def test_metric_threshold_override_widens_budget(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        self._cli("ingest", "--results", str(results), "--trajectory", str(trajectory))
        self._results_dir(tmp_path, elapsed=2.0 * 1.3)
        assert self._cli(
            "check", "--results", str(results), "--trajectory", str(trajectory),
            "--metric-threshold", "elapsed_s=0.5",
        ) == 0
        capsys.readouterr()

    def test_check_without_baseline_passes(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        assert self._cli(
            "check", "--results", str(results), "--trajectory", str(trajectory)
        ) == 0
        assert "no baseline yet" in capsys.readouterr().out

    def test_check_json_report_shape(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        self._cli("ingest", "--results", str(results), "--trajectory", str(trajectory))
        capsys.readouterr()
        assert self._cli(
            "check", "--results", str(results), "--trajectory", str(trajectory),
            "--json",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == PERF_FORMAT
        assert payload["checks"][0]["bench"] == "runtime"
        assert payload["checks"][0]["regressions"] == []

    def test_show_summarizes_runs(self, tmp_path, capsys):
        results = self._results_dir(tmp_path)
        trajectory = tmp_path / "perf_trajectory.json"
        self._cli("ingest", "--results", str(results), "--trajectory", str(trajectory))
        capsys.readouterr()
        assert self._cli("show", "--trajectory", str(trajectory)) == 0
        assert "runtime/quick" in capsys.readouterr().out

    def test_bad_trajectory_format_is_an_error(self, tmp_path, capsys):
        trajectory = tmp_path / "perf_trajectory.json"
        trajectory.write_text(json.dumps({"format": "repro.perf/99", "runs": []}))
        assert self._cli("show", "--trajectory", str(trajectory)) == 2
        assert "error:" in capsys.readouterr().out

    def test_rolling_baseline_windows_recent_runs(self):
        trajectory = {
            "format": PERF_FORMAT,
            "runs": [
                {"bench": "b", "quick": True, "metrics": {"elapsed_s": value}}
                for value in (100.0, 2.0, 4.0)
            ],
        }
        assert baseline_for(trajectory, "b", True, window=2) == {"elapsed_s": 3.0}

    def test_compare_skips_zero_baseline_and_undirected(self):
        rows = compare(
            {"elapsed_s": 2.0, "workers": 9.0, "zero": 5.0},
            {"elapsed_s": 1.0, "workers": 1.0, "zero": 0.0},
            threshold=0.2,
        )
        by_metric = {row["metric"]: row for row in rows}
        assert "zero" not in by_metric
        assert by_metric["elapsed_s"]["regressed"] is True
        assert by_metric["workers"]["regressed"] is False
        assert by_metric["workers"]["direction"] is None
