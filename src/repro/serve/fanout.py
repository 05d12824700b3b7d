"""Fan one broadcast session out to a fleet of simulated receivers.

The expensive half of simulating a receiver -- rendering the emitted
light field -- is shared: every camera films the *same* display.  So the
fan-out renders nothing per receiver.  The session's memoized timeline
(warmed over one carousel cycle) travels to the workers through fork
inheritance; when its store is a shared-memory pool the workers read the
parent's bytes in place, and either way a receiver's captures are pure
cache hits.  Per receiver the worker still pays for what genuinely
differs: the rolling-shutter blend at its own clock/exposure, sensor
noise on its own RNG stream, decode, and the carousel collect.

Determinism contract
--------------------
Everything random is addressed, never shared: receiver parameters are
drawn in the parent (:func:`repro.serve.cohort.compile_receivers`),
capture noise uses ``spawn_rng(seed, _KEY_RECEIVER, receiver_id,
capture_index)``, and fault plans were re-seeded per receiver before
chunking.  Chunk results carry per-chunk :class:`~repro.obs.Telemetry`
exports that merge exactly.  ``run_fleet`` with the same inputs is
therefore bit-identical -- report bytes and work-scope metrics bytes --
at ``workers=1`` and ``workers=N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.camera.capture import CameraModel, CapturedFrame
from repro.core.decoder import BlockObservation, InFrameDecoder
from repro.display.scheduler import MemoizedTimeline
from repro.faults.inject import FaultInjectedCamera, apply_stream_faults
from repro.obs import RunTelemetry, Telemetry
from repro.obs.live import live_collector, record_live
from repro.obs.metrics import EXEC
from repro.obs.telemetry import TelemetryDict
from repro.runtime.engine import ExecutionEngine
from repro.runtime.scheduler import WorkChunk, plan_chunks, spawn_rng
from repro.serve.cohort import CohortSpec, ReceiverSpec, compile_receivers
from repro.serve.report import (
    FleetReport,
    ReceiverResult,
    build_fleet_report,
    record_receiver_telemetry,
)
from repro.serve.session import BroadcastSession
from repro.transport.carousel import CarouselReceiver
from repro.transport.packet import PacketSlotAccumulator

#: Spawn-key namespace of per-(receiver, capture) noise streams.
_KEY_RECEIVER = 0x5EBE

#: Slack past the last receiver's watch window when sizing the stream.
_HORIZON_MARGIN_S = 0.5


@dataclass(frozen=True)
class _FleetContext:
    """Fork-inherited worker state: the shared timeline plus fleet facts."""

    timeline: MemoizedTimeline
    session: BroadcastSession
    base_camera: CameraModel
    specs: tuple[ReceiverSpec, ...]
    seed: int
    default_dwell_s: float


def _simulate_receiver(
    spec: ReceiverSpec, ctx: _FleetContext, telemetry: Telemetry
) -> ReceiverResult:
    """One receiver's whole life: join, watch, decode, collect, leave."""
    session = ctx.session
    config = session.config
    camera = spec.camera(ctx.base_camera)
    dwell = spec.dwell_s if spec.dwell_s is not None else ctx.default_dwell_s
    n_captures = min(
        int(dwell * camera.fps), camera.frames_covering(ctx.timeline)
    )
    if n_captures < 1:
        return ReceiverResult(
            receiver_id=spec.receiver_id,
            cohort=spec.cohort,
            join_s=spec.join_s,
            delivered=False,
            n_captures=0,
            n_data_frames=0,
            join_offset=None,
            symbols_consumed=0,
            packets_rejected=0,
            resyncs=0,
            time_to_deliver_s=None,
            goodput_kbps=None,
        )

    compiled = None
    if spec.faults is not None:
        compiled = spec.faults.compile(
            n_captures,
            camera.fps,
            duration_s=n_captures / camera.fps,
            refresh_hz=config.refresh_hz,
            origin_s=spec.join_s,
        )
    source = (
        FaultInjectedCamera(camera, compiled)
        if compiled is not None and compiled.perturbs_captures
        else camera
    )
    decoder = InFrameDecoder(
        config,
        session.geometry,
        camera.height,
        camera.width,
        screen_rect=camera.screen_rect() if camera.screen_fill < 1.0 else None,
    )
    # The same stage spans as the link path (repro.runtime.link_exec).
    span = telemetry.tracer.span
    captures: list[CapturedFrame] = []
    observations: list[BlockObservation] = []
    for i in range(n_captures):
        rng = spawn_rng(ctx.seed, _KEY_RECEIVER, spec.receiver_id, i)
        with span("render", capture=i):
            capture = source.capture_frame(ctx.timeline, i, rng=rng)
        with span("observe", capture=i):
            observations.append(decoder.observe(capture))
        if compiled is not None and compiled.perturbs_stream:
            captures.append(capture)
    if compiled is not None and compiled.perturbs_stream:
        _, observations, _ = apply_stream_faults(compiled, captures, observations)

    resyncs = 0
    with span("decide"):
        if spec.heal:
            decoded, healing = decoder.decide_observations_healed(observations)
            resyncs = healing.n_resyncs
        else:
            decoded = decoder.decide_observations(observations)

    # Collect the carousel incrementally: each decoded data frame merges
    # into its cycle slot, and a slot is delivered the moment it becomes
    # RS-decodable -- so time-to-payload lands on the data frame that
    # completed the fountain, not at the end of the watch window.
    receiver = CarouselReceiver()
    accumulator = PacketSlotAccumulator(session.codec, session.cycle_packets)
    packet_faults = spec.faults.packet_faults() if spec.faults is not None else None
    fed: set[int] = set()
    delivered_at: float | None = None
    for frame in sorted(decoded, key=lambda f: f.index):
        accumulator.add_frame(frame)
        slot = frame.index % session.cycle_packets
        if slot in fed:
            continue
        raw = accumulator.decode_slot(slot)
        if raw is None:
            continue
        if packet_faults is not None and packet_faults.active:
            raw = packet_faults.apply([raw], round_index=frame.index + 1)[0][0]
        rejected_before = receiver.n_rejected
        receiver.receive(raw)
        if receiver.n_rejected == rejected_before:
            # Accepted (possibly redundant): this slot's symbol is in.  A
            # rejected buffer stays out of `fed` so a later re-air of the
            # slot retries under a fresh corruption draw.
            fed.add(slot)
        if receiver.complete:
            delivered_at = (frame.index + 1) * config.tau / config.refresh_hz
            break

    delivered = receiver.complete and receiver.payload() == session.payload
    time_to_deliver = (
        delivered_at - spec.join_s if delivered and delivered_at is not None else None
    )
    goodput = (
        len(session.payload) * 8.0 / time_to_deliver / 1000.0
        if time_to_deliver is not None and time_to_deliver > 0.0
        else None
    )
    result = ReceiverResult(
        receiver_id=spec.receiver_id,
        cohort=spec.cohort,
        join_s=spec.join_s,
        delivered=delivered,
        n_captures=n_captures,
        n_data_frames=len(decoded),
        join_offset=receiver.join_offset,
        symbols_consumed=receiver.symbols_consumed,
        packets_rejected=receiver.n_rejected,
        resyncs=resyncs,
        time_to_deliver_s=time_to_deliver,
        goodput_kbps=goodput,
    )
    record_receiver_telemetry(result, telemetry)
    return result


@dataclass(frozen=True)
class _ChunkOutput:
    """What one worker chunk sends back through the result queue."""

    results: tuple[ReceiverResult, ...]
    telemetry: TelemetryDict
    cache_hits: int
    cache_misses: int


def _simulate_fleet_chunk(chunk: WorkChunk, ctx: _FleetContext) -> _ChunkOutput:
    """Worker entry: simulate one chunk of receivers against the shared timeline."""
    telemetry = Telemetry(track=f"fleet-{chunk.index:03d}")
    hits0, misses0 = ctx.timeline.hits, ctx.timeline.misses
    results = []
    with telemetry.tracer.span(
        "serve.fleet_chunk", category=EXEC, receivers=len(chunk)
    ):
        for item in chunk.items:
            results.append(_simulate_receiver(ctx.specs[item], ctx, telemetry))
    cache_hits = ctx.timeline.hits - hits0
    cache_misses = ctx.timeline.misses - misses0
    telemetry.metrics.counter("serve.render_cache.hits", scope=EXEC).inc(cache_hits)
    telemetry.metrics.counter("serve.render_cache.misses", scope=EXEC).inc(cache_misses)
    return _ChunkOutput(
        results=tuple(results),
        telemetry=telemetry.export(),
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


@dataclass
class FleetRun:
    """Everything one fleet run produced."""

    report: FleetReport
    results: tuple[ReceiverResult, ...]
    telemetry: RunTelemetry


def run_fleet(
    session: BroadcastSession,
    cohorts: tuple[CohortSpec, ...] | list[CohortSpec],
    *,
    base_camera: CameraModel | None = None,
    seed: int = 0,
    workers: int | None = None,
    default_dwell_s: float = 8.0,
) -> FleetRun:
    """Serve one broadcast session to a cohort-described fleet.

    Parameters
    ----------
    session:
        The broadcast being watched.  Its emitted stream is prepared (and
        its render cache warmed) to cover the latest joiner's window.
    cohorts:
        The fleet, from :func:`repro.serve.cohort.parse_cohorts`.
    base_camera:
        The camera every receiver derives from; defaults to the paper's
        receiver auto-exposed for the session's panel.
    seed:
        Root of every receiver-parameter and sensor-noise draw.
    workers:
        Worker processes; ``None``/``<=1`` runs in-process.  Any value
        yields bit-identical reports and work-scope metrics.
    default_dwell_s:
        Watch window for cohorts that set no ``dwell``.
    """
    if default_dwell_s <= 0.0:
        raise ValueError(f"default_dwell_s must be > 0, got {default_dwell_s}")
    specs = compile_receivers(cohorts, seed=seed)
    if base_camera is None:
        base_camera = CameraModel().auto_exposed(
            session.panel.gamma_curve.peak_luminance * session.panel.brightness
        )
    telemetry = Telemetry(track="serve")
    live = live_collector()
    if live is not None:
        live.attach(telemetry.metrics)

    horizon = (
        max(
            spec.join_s + (spec.dwell_s if spec.dwell_s is not None else default_dwell_s)
            for spec in specs
        )
        + _HORIZON_MARGIN_S
    )
    renders_before = session.render_cache_misses
    with telemetry.tracer.span(
        "serve.prepare", category=EXEC, horizon_s=round(horizon, 3)
    ):
        timeline = session.prepare(horizon)
    renders = session.render_cache_misses - renders_before
    telemetry.metrics.counter("serve.render_cache.renders", scope=EXEC).inc(renders)
    telemetry.metrics.gauge("serve.fleet_size").set(len(specs))

    serial = workers is None or int(workers) <= 1
    engine = ExecutionEngine(workers=1 if serial else int(workers), telemetry=telemetry)
    chunks = plan_chunks(
        len(specs), n_chunks=1 if serial else engine.workers * 2, seed=seed
    )
    context = _FleetContext(
        timeline=timeline,
        session=session,
        base_camera=base_camera,
        specs=specs,
        seed=seed,
        default_dwell_s=default_dwell_s,
    )
    # Live delivery progress: chunk results arrive in completion order,
    # so the counters here are exec-scoped by nature.  They feed only
    # the advisory snapshot stream; the report below still merges the
    # ordered `outputs` list, so report/metrics bytes are untouched.
    progress = {"done": 0, "delivered": 0}

    def _on_chunk(_index: int, output: _ChunkOutput) -> None:
        progress["done"] += len(output.results)
        progress["delivered"] += sum(1 for r in output.results if r.delivered)
        record_live("serve.receivers_done", progress["done"])
        record_live("serve.delivered", progress["delivered"])
        if progress["done"]:
            record_live(
                "serve.delivery_rate", progress["delivered"] / progress["done"]
            )

    session.retain_readers()
    try:
        with telemetry.tracer.span(
            "serve.fanout", category=EXEC, receivers=len(specs), chunks=len(chunks)
        ):
            outputs = engine.map(
                _simulate_fleet_chunk, chunks, context=context, on_result=_on_chunk
            )
    finally:
        session.release_readers()

    results: list[ReceiverResult] = []
    cache_hits = 0
    for output in outputs:
        telemetry.merge_export(output.telemetry)
        results.extend(output.results)
        cache_hits += output.cache_hits
    results.sort(key=lambda r: r.receiver_id)
    report = build_fleet_report(
        results,
        payload_bytes=len(session.payload),
        k=session.k,
        cycle_packets=session.cycle_packets,
        cycle_s=session.cycle_s,
        render_reads=cache_hits,
        renders=session.render_cache_misses,
    )
    run = telemetry.finish(
        meta={
            "tool": "repro.serve",
            "receivers": len(specs),
            "cohorts": [c.name for c in cohorts],
            "seed": seed,
            "workers": engine.workers,
            "delivery_rate": report.delivery_rate,
        }
    )
    return FleetRun(report=report, results=tuple(results), telemetry=run)
