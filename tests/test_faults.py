"""Fault injection, self-healing decode and degradation-aware transport."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.capture import CameraModel, CapturedFrame
from repro.core.decoder import HealingReport, InFrameDecoder
from repro.core.pipeline import InFrameSender, run_link, run_transport_link
from repro.faults import (
    CompiledFaults,
    FaultInjectedCamera,
    FaultPlan,
    InjectionLog,
    PacketFaults,
    apply_stream_faults,
)
from repro.faults.report import DegradationReport
from repro.transport.arq import ArqReceiver, ArqSender
from repro.transport.packet import PacketType, build_packet
from repro.video.synthetic import pure_color_video


class TestFaultPlanParsing:
    def test_parse_kinds_and_params(self):
        plan = FaultPlan.parse("drop:p=0.2,burst=3;flip:at=0.4,frames=5", seed=7)
        kinds = [spec.kind for spec in plan.faults]
        assert kinds == ["drop", "flip"]
        drop = plan.by_kind("drop")[0]
        assert drop["p"] == pytest.approx(0.2)
        assert drop["burst"] == pytest.approx(3)
        flip = plan.by_kind("flip")[0]
        assert flip["at"] == pytest.approx(0.4)
        assert flip["frames"] == pytest.approx(5)

    def test_defaults_fill_missing_params(self):
        plan = FaultPlan.parse("drop", seed=0)
        assert plan.by_kind("drop")[0]["p"] == pytest.approx(0.10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.parse("meteor:p=1.0", seed=0)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="has no parameter"):
            FaultPlan.parse("drop:q=0.5", seed=0)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("", seed=0)

    def test_compile_is_deterministic(self):
        kwargs = dict(n_captures=24, fps=30.0, duration_s=0.8, refresh_hz=120.0)
        a = FaultPlan.parse("drop:p=0.3;jitter:std=2e-3", seed=5).compile(**kwargs)
        b = FaultPlan.parse("drop:p=0.3;jitter:std=2e-3", seed=5).compile(**kwargs)
        assert np.array_equal(a.dropped, b.dropped)
        assert np.array_equal(a.time_offset_s, b.time_offset_s)

    def test_for_round_keeps_deterministic_events(self):
        plan = FaultPlan.parse("drop:p=0.3;flip:at=0.5;blackout:at=0.5,dur=0.2", seed=5)
        kwargs = dict(n_captures=24, fps=30.0, duration_s=0.8, refresh_hz=120.0)
        r1 = plan.for_round(1).compile(**kwargs)
        r2 = plan.for_round(2).compile(**kwargs)
        # The flip and blackout stay put; the random drops re-randomise.
        assert np.array_equal(r1.time_offset_s, r2.time_offset_s)
        assert r1.blackouts == r2.blackouts
        assert not np.array_equal(r1.dropped, r2.dropped)
        # Same round index -> identical tables.
        r1b = plan.for_round(1).compile(**kwargs)
        assert np.array_equal(r1.dropped, r1b.dropped)

    def test_for_receiver_reseeds_but_keeps_structure(self):
        plan = FaultPlan.parse("drop:p=0.3;blackout:at=0.5,dur=0.2", seed=5)
        kwargs = dict(n_captures=24, fps=30.0, duration_s=0.8, refresh_hz=120.0)
        assert plan.for_receiver(0) is plan
        a = plan.for_receiver(1)
        b = plan.for_receiver(2)
        assert a.seed != b.seed != plan.seed
        assert a.spec() == b.spec() == plan.spec()
        # Deterministic events stay put; random draws diverge per receiver.
        ca, cb = a.compile(**kwargs), b.compile(**kwargs)
        assert ca.blackouts == cb.blackouts
        assert not np.array_equal(ca.dropped, cb.dropped)

    def test_compile_origin_shifts_onsets_to_absolute_time(self):
        plan = FaultPlan.parse(
            "flip:at=0.5;exposure:at=0.25,gain=0.7;blackout:at=0.5,dur=0.2;"
            "drift:ppm=100",
            seed=5,
        )
        kwargs = dict(n_captures=24, fps=30.0, duration_s=0.8, refresh_hz=120.0)
        base = plan.compile(**kwargs)
        shifted = plan.compile(**kwargs, origin_s=2.0)
        # Every onset moves by exactly the origin: a mid-stream joiner's
        # faults land inside the window it actually watches.
        assert shifted.flip_times_s[0] == pytest.approx(base.flip_times_s[0] + 2.0)
        assert shifted.exposure_steps[0][0] == pytest.approx(
            base.exposure_steps[0][0] + 2.0
        )
        assert shifted.blackouts[0][0] == pytest.approx(base.blackouts[0][0] + 2.0)
        assert shifted.blackouts[0][1] == pytest.approx(base.blackouts[0][1] + 2.0)
        # Drift accumulates over time-since-join, not absolute time, so
        # the flip-free part of the offset table is origin-invariant.
        drift_only = FaultPlan.parse("drift:ppm=100", seed=5)
        assert np.allclose(
            drift_only.compile(**kwargs).time_offset_s,
            drift_only.compile(**kwargs, origin_s=2.0).time_offset_s,
        )


class TestStreamInjection:
    def _observed(self, small_config, small_sender, n=12, seed=0):
        camera = CameraModel(width=75, height=54)
        decoder = InFrameDecoder(small_config, small_sender.geometry, 54, 75)
        timeline = small_sender.timeline()
        rng = np.random.default_rng(seed)
        captures = [
            camera.capture_frame(timeline, i, rng=rng) for i in range(n)
        ]
        observations = [decoder.observe(c) for c in captures]
        return captures, observations

    def test_drops_counted_and_removed(self, small_config, small_sender):
        captures, observations = self._observed(small_config, small_sender)
        plan = FaultPlan.parse("drop:p=0.5", seed=9)
        compiled = plan.compile(
            n_captures=len(captures), fps=30.0, duration_s=0.4, refresh_hz=120.0
        )
        kept_c, kept_o, log = apply_stream_faults(compiled, captures, observations)
        assert log.dropped_captures == len(captures) - len(kept_c)
        assert log.dropped_captures > 0
        assert len(kept_c) == len(kept_o)

    def test_observations_alone_fault_like_the_full_stream(
        self, small_config, small_sender
    ):
        # A broadcast receiver keeps only observations; its faulted stream
        # and log must match the link path's, which keeps captures too.
        captures, observations = self._observed(small_config, small_sender)
        plan = FaultPlan.parse(
            "drop:p=0.3;dup:p=0.3;reorder:p=0.3;blackout:at=0.2,dur=0.1", seed=9
        )
        compiled = plan.compile(
            n_captures=len(captures), fps=30.0, duration_s=0.4, refresh_hz=120.0
        )
        kept_c, kept_o, log = apply_stream_faults(compiled, captures, observations)
        none_c, alone_o, alone_log = apply_stream_faults(compiled, None, observations)
        assert none_c is None
        assert alone_log == log
        assert log.blackout_captures > 0
        assert [o.capture_index for o in alone_o] == [o.capture_index for o in kept_o]
        for a, b in zip(alone_o, kept_o):
            assert np.array_equal(a.noise_map, b.noise_map) and a.level == b.level

    def test_duplicates_extend_stream(self, small_config, small_sender):
        captures, observations = self._observed(small_config, small_sender)
        plan = FaultPlan.parse("dup:p=0.5", seed=9)
        compiled = plan.compile(
            n_captures=len(captures), fps=30.0, duration_s=0.4, refresh_hz=120.0
        )
        kept_c, kept_o, log = apply_stream_faults(compiled, captures, observations)
        # A duplicate is a stuck frame: the stream length is unchanged
        # but the previous capture's content lands twice.
        assert len(kept_c) == len(captures)
        assert log.duplicated_captures > 0
        stuck = [
            i
            for i in range(1, len(kept_c))
            if np.array_equal(kept_c[i].pixels, kept_c[i - 1].pixels)
        ]
        assert len(stuck) >= log.duplicated_captures

    def test_blackout_darkens_captures(self, small_config, small_sender):
        captures, _ = self._observed(small_config, small_sender)
        plan = FaultPlan.parse("blackout:at=0.0,dur=1.0", seed=0)
        compiled = plan.compile(
            n_captures=len(captures), fps=30.0, duration_s=0.4, refresh_hz=120.0
        )
        camera = FaultInjectedCamera(
            CameraModel(width=75, height=54), compiled
        )
        timeline = small_sender.timeline()
        frame = camera.capture_frame(timeline, 0, rng=np.random.default_rng(0))
        assert float(frame.pixels.mean()) < 40.0

    def test_injected_camera_keeps_nominal_timestamps(
        self, small_config, small_sender
    ):
        plan = FaultPlan.parse("flip:at=0.0,frames=3", seed=0)
        compiled = plan.compile(
            n_captures=12, fps=30.0, duration_s=0.4, refresh_hz=120.0
        )
        base = CameraModel(width=75, height=54)
        faulty = FaultInjectedCamera(base, compiled)
        timeline = small_sender.timeline()
        clean = base.capture_frame(timeline, 2, rng=np.random.default_rng(1))
        shifted = faulty.capture_frame(timeline, 2, rng=np.random.default_rng(1))
        # The shifted capture reports the nominal clock but saw content
        # from 3 display frames later.
        assert shifted.mid_exposure_s == pytest.approx(clean.mid_exposure_s)
        assert not np.array_equal(shifted.pixels, clean.pixels)


class TestLinkDeterminism:
    @pytest.mark.parametrize("workers", [None, 4])
    def test_same_plan_same_run(self, small_config, small_video, workers):
        camera = CameraModel(width=75, height=54)
        runs = []
        for _ in range(2):
            plan = FaultPlan.parse(
                "drop:p=0.2;flip:at=0.5;exposure:at=0.6,gain=0.7", seed=21
            )
            runs.append(
                run_link(
                    small_config,
                    small_video,
                    camera=camera,
                    seed=4,
                    workers=workers,
                    faults=plan,
                    heal=True,
                )
            )
        a, b = runs
        assert a.stats == b.stats
        assert all(
            np.array_equal(x.pixels, y.pixels)
            for x, y in zip(a.captures, b.captures)
        )
        assert a.degradation.injected == b.degradation.injected

    def test_workers_match_serial_bit_exactly(self, small_config, small_video):
        camera = CameraModel(width=75, height=54)

        def one(workers):
            plan = FaultPlan.parse(
                "drop:p=0.2;flip:at=0.5;blackout:at=0.7,dur=0.1", seed=21
            )
            return run_link(
                small_config,
                small_video,
                camera=camera,
                seed=4,
                workers=workers,
                faults=plan,
                heal=True,
            )

        serial, parallel = one(None), one(4)
        assert serial.stats == parallel.stats
        assert len(serial.captures) == len(parallel.captures)
        assert all(
            np.array_equal(x.pixels, y.pixels)
            for x, y in zip(serial.captures, parallel.captures)
        )
        assert serial.degradation.injected == parallel.degradation.injected
        assert (
            serial.degradation.healing.resyncs
            == parallel.degradation.healing.resyncs
        )


class TestSelfHealingDecode:
    # An 8 ms exposure straddles 120 Hz display-frame transitions, so a
    # clock slip actually corrupts the integrated pair energies; at the
    # camera default (2 ms) every capture sits inside one display frame
    # and slips are harmless -- there would be nothing to heal.
    def _sender(self, small_config):
        video = pure_color_video(80, 112, 127.0, n_frames=30)
        return InFrameSender(small_config, video)

    def _slipped_captures(self, sender, n, slip_s, onset_s, seed=2):
        camera = CameraModel(width=75, height=54, exposure_s=0.008)
        timeline = sender.timeline()
        captures = camera.capture_sequence(timeline, n, rng=np.random.default_rng(seed))
        # The camera clock slips at the onset: captures keep their nominal
        # stamps but the content comes from slip_s later.
        out = []
        for c in captures:
            if c.mid_exposure_s < onset_s:
                out.append(c)
            else:
                out.append(
                    CapturedFrame(
                        pixels=c.pixels,
                        index=c.index,
                        start_time_s=c.start_time_s - slip_s,
                        mid_exposure_s=c.mid_exposure_s - slip_s,
                    )
                )
        return out

    @staticmethod
    def _accuracy(sender, frames):
        total = correct = 0
        for frame in frames:
            k = min(frame.index, sender.stream.n_data_frames - 1)
            truth = sender.stream.ground_truth(k)
            correct += int((frame.bits == truth).sum())
            total += truth.size
        return correct / max(total, 1)

    def test_healed_beats_plain_after_slip(self, small_config):
        sender = self._sender(small_config)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        slip = 5 / small_config.refresh_hz
        captures = self._slipped_captures(sender, 28, slip, onset_s=0.40)
        plain = decoder.decode(captures)
        healed, report = decoder.decode_healed(captures)
        assert report.n_resyncs >= 1
        assert self._accuracy(sender, healed) > self._accuracy(sender, plain) + 0.05

    def test_sub_pair_slip_needs_no_healing(self, small_config):
        # A slip smaller than one pair cycle does not desync this PHY:
        # polarity comes from the pair energies themselves and tau-frame
        # redundancy absorbs the shift.  Healing must stay quiet.
        sender = self._sender(small_config)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        slip = 2 / small_config.refresh_hz
        captures = self._slipped_captures(sender, 28, slip, onset_s=0.40)
        plain = decoder.decode(captures)
        healed, report = decoder.decode_healed(captures)
        assert report.n_resyncs == 0
        assert self._accuracy(sender, healed) == pytest.approx(
            self._accuracy(sender, plain), abs=1e-9
        )

    def test_healed_matches_plain_on_clean_stream(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        camera = CameraModel(width=75, height=54)
        captures = camera.capture_sequence(
            sender.timeline(), 18, rng=np.random.default_rng(3)
        )
        plain = decoder.decode(captures)
        healed, report = decoder.decode_healed(captures)
        assert report.n_resyncs == 0
        assert len(healed) == len(plain)
        for a, b in zip(healed, plain):
            assert np.array_equal(a.bits, b.bits)

    def test_gain_segmentation_excludes_blackout(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        camera = CameraModel(width=75, height=54)
        captures = camera.capture_sequence(
            sender.timeline(), 18, rng=np.random.default_rng(3)
        )
        dark = [
            CapturedFrame(
                pixels=c.pixels * 0.05,
                index=c.index,
                start_time_s=c.start_time_s,
                mid_exposure_s=c.mid_exposure_s,
            )
            if 6 <= i < 12
            else c
            for i, c in enumerate(captures)
        ]
        _, report = decoder.decode_healed(dark)
        assert report.excluded_captures >= 5
        assert any(seg.blackout for seg in report.segments)

    def test_empty_and_tiny_streams(self, small_config, small_geometry):
        decoder = InFrameDecoder(small_config, small_geometry, 54, 75)
        frames, report = decoder.decide_observations_healed([])
        assert frames == [] and report.windows == 0

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(slip_frames=st.integers(min_value=4, max_value=6))
    def test_relock_found_for_every_phase_offset(self, slip_frames):
        # Every offset big enough to desync the decoder (>= 2 pair
        # cycles; smaller slips are absorbed by the PHY, see
        # test_sub_pair_slip_needs_no_healing) must be re-locked.
        # Rebuilt per example (hypothesis forbids function-scoped fixtures).
        from repro.core.config import InFrameConfig

        config = InFrameConfig(
            element_pixels=2, pixels_per_block=4, block_rows=8, block_cols=12,
            amplitude=20.0, tau=12,
        )
        video = pure_color_video(80, 112, 127.0, n_frames=30)
        sender = InFrameSender(config, video)
        decoder = InFrameDecoder(config, sender.geometry, 54, 75)
        slip = slip_frames / config.refresh_hz
        captures = TestSelfHealingDecode()._slipped_captures(
            sender, 28, slip, onset_s=0.40
        )
        _, report = decoder.decode_healed(captures)
        assert report.n_resyncs >= 1
        # The adopted phase undoes the slip up to a whole pair cycle
        # (2 display frames) -- a pair-cycle offset decodes identically.
        pair_cycle = 2.0 / config.refresh_hz
        final = report.resyncs[-1].phase_after_s
        residual = (final - (-slip)) % pair_cycle
        residual = min(residual, pair_cycle - residual)
        assert residual <= 0.25 * pair_cycle


class TestSyncEdgeCases:
    def _captures(self, sender, n, seed=0, exposure_s=1 / 500):
        camera = CameraModel(
            width=75, height=54, readout_s=0.004, exposure_s=exposure_s
        )
        return camera.capture_sequence(
            sender.timeline(), n, rng=np.random.default_rng(seed)
        )

    def test_synchronized_on_truncated_stream(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        captures = self._captures(sender, 3)
        blind = decoder.synchronized(captures)
        cycle = small_config.tau / small_config.refresh_hz
        assert 0.0 <= blind.clock_phase_s < cycle

    def test_synchronized_on_odd_length_stream(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        captures = self._captures(sender, 7)
        blind = decoder.synchronized(captures)
        decoded = blind.decode(captures)
        assert decoded  # a truncated odd stream still yields frames

    def test_estimate_cycle_phase_requires_three(self, small_config, small_video):
        from repro.core.decoder import estimate_cycle_phase

        sender = InFrameSender(small_config, small_video)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        captures = self._captures(sender, 2)
        with pytest.raises(ValueError):
            estimate_cycle_phase(captures, decoder)

    def test_healed_decode_on_odd_truncated_stream(self, small_config, small_video):
        sender = InFrameSender(small_config, small_video)
        decoder = InFrameDecoder(small_config, sender.geometry, 54, 75)
        for n in (3, 5, 7):
            frames, report = decoder.decode_healed(self._captures(sender, n))
            assert report.windows >= 1
            assert isinstance(frames, list)


class TestArqReceiverHardening:
    def _packets(self, payload=b"0123456789abcdef", chunk=4, session_id=1):
        return ArqSender(payload, chunk, session_id=session_id)

    def test_foreign_session_ignored(self):
        sender = self._packets(session_id=1)
        intruder = self._packets(payload=b"xxxxyyyy", session_id=2)
        receiver = ArqReceiver()
        assert receiver.receive(sender.packet(0))
        assert not receiver.receive(intruder.packet(0))
        assert receiver.n_foreign == 1
        assert receiver.received_bytes == 4

    def test_total_len_mismatch_is_foreign(self):
        receiver = ArqReceiver()
        assert receiver.receive(self._packets().packet(0))
        liar = build_packet(PacketType.DATA, 1, 4, b"zzzz", 9999)
        assert not receiver.receive(liar)
        assert receiver.n_foreign == 1

    def test_duplicates_counted_once(self):
        sender = self._packets()
        receiver = ArqReceiver()
        assert receiver.receive(sender.packet(1))
        assert not receiver.receive(sender.packet(1))
        assert receiver.n_duplicate == 1
        assert receiver.received_bytes == 4

    def test_out_of_range_seq_dropped(self):
        sender = self._packets()
        receiver = ArqReceiver()
        assert receiver.receive(sender.packet(0))
        rogue = build_packet(PacketType.DATA, 1, 1000, b"zz", len(sender.payload))
        assert not receiver.receive(rogue)
        assert receiver.n_out_of_range == 1
        overhang = build_packet(
            PacketType.DATA, 1, len(sender.payload) - 1, b"zzzz", len(sender.payload)
        )
        assert not receiver.receive(overhang)
        assert receiver.n_out_of_range == 2

    def test_garbage_never_raises(self):
        receiver = ArqReceiver()
        for raw in (b"", b"\x00" * 3, b"not a packet at all", bytes(range(64))):
            assert receiver.receive(raw) is False
        assert receiver.n_rejected == 4


class TestPacketFaults:
    def test_inactive_by_default(self):
        pf = PacketFaults(seed=1)
        assert not pf.active
        raws = [b"abcdef" * 3]
        out, corrupted, truncated = pf.apply(raws)
        assert out == raws and corrupted == 0 and truncated == 0

    def test_corruption_is_deterministic(self):
        raws = [bytes(range(32)) for _ in range(8)]
        a = PacketFaults(seed=3, corrupt_p=0.5).apply(raws, round_index=2)
        b = PacketFaults(seed=3, corrupt_p=0.5).apply(raws, round_index=2)
        assert a == b
        assert a[1] > 0  # some packet corrupted at p=0.5 over 8 packets
        assert any(x != y for x, y in zip(a[0], raws))

    def test_truncation_shortens(self):
        raws = [bytes(range(32)) for _ in range(8)]
        out, _, truncated = PacketFaults(seed=3, truncate_p=0.9).apply(raws)
        assert truncated > 0
        assert any(len(x) < 32 for x in out)


class TestDegradationReport:
    def test_merge_link_reports(self):
        a = DegradationReport(
            injected=InjectionLog(dropped_captures=2),
            healing=HealingReport(windows=3),
        )
        b = DegradationReport(
            injected=InjectionLog(dropped_captures=1, blackout_captures=4),
            healing=HealingReport(windows=2, relock_attempts=1),
        )
        merged = DegradationReport.merge_link_reports(
            [a, None, b], total_bytes=100, delivered_bytes=40, partial=True
        )
        assert merged.injected.dropped_captures == 3
        assert merged.injected.blackout_captures == 4
        assert merged.healing.windows == 5
        assert merged.recovered_ratio == pytest.approx(0.4)

    def test_summary_states(self):
        complete = DegradationReport(total_bytes=10, delivered_bytes=10)
        partial = DegradationReport(total_bytes=10, delivered_bytes=4, partial=True)
        failed = DegradationReport(total_bytes=10, delivered_bytes=0)
        assert "complete" in complete.summary()
        assert "PARTIAL" in partial.summary()
        assert "FAILED" in failed.summary()
        assert DegradationReport().summary() == "faults: none injected"


class TestTransportDegradation:
    @pytest.fixture(scope="class")
    def phy(self):
        scale = dataclasses.replace(
            __import__(
                "repro.analysis.experiments", fromlist=["ExperimentScale"]
            ).ExperimentScale.quick(),
            n_video_frames=24,
        )
        return scale

    def test_retry_budget_reported(self, phy):
        config = phy.config(amplitude=30.0, tau=12)
        payload = bytes(range(96))
        plan = FaultPlan.parse("drop:p=0.3", seed=11)
        run = run_transport_link(
            config,
            phy.video("gray"),
            payload,
            mode="arq",
            camera=phy.camera(),
            seed=3,
            max_rounds=4,
            faults=plan,
            retry_budget=0,
        )
        d = run.degradation
        assert d is not None
        assert d.total_bytes == len(payload)
        assert 0 <= d.delivered_bytes <= len(payload)
        if run.payload != payload:
            assert run.arq_stats.budget_exhausted

    def test_deadline_ends_session(self, phy):
        config = phy.config(amplitude=30.0, tau=12)
        payload = bytes(range(96))
        plan = FaultPlan.parse("drop:p=0.6", seed=11)
        run = run_transport_link(
            config,
            phy.video("gray"),
            payload,
            mode="arq",
            camera=phy.camera(),
            seed=3,
            max_rounds=6,
            faults=plan,
            deadline_s=1e-9,
        )
        # One forward pass always happens; the deadline stops retries.
        assert run.arq_stats.rounds <= 2
        if run.payload != payload:
            assert run.arq_stats.deadline_hit
