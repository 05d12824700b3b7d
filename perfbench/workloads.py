"""The benchmark's three workloads: set-up, one operation, reference check.

Every workload drives the public API (``run_link``, ``run_transport_link``,
``run_fleet``) as a closed loop: one operation after another, each started
when the previous one returned.  Inputs come from a committed pool of
``pool`` operation seeds per workload; workload seed ``w`` runs pool
entries ``w mod WINDOWS``, ``w mod WINDOWS + WINDOWS``, ... in that order,
so each seed gets its own slice of the pool and every operation it runs has
a committed reference output (``references/<workload>.json``, written by
``make_references.py``).

Nothing here imports :mod:`repro` at module level: ``worker.py`` times the
imports as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from tracer import OP, Tracer

#: Workload seeds ``w`` and ``w + WINDOWS`` run the same operation inputs.
WINDOWS = 8

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: Content frames of the untimed warm-up call each run makes after set-up.
WARM_FRAMES = 12

# link-gray: the Fig 7 gray delta=20 tau=12 cell at benchmark scale.
LINK_VIDEO_FRAMES = 64
DELTA = 20.0  # also the fleet session's amplitude
LINK_TAU = 12

# transfer-video: a 512 B ARQ delivery over the sunrise clip.
TRANSFER_PAYLOAD_BYTES = 512
TRANSFER_WORKERS = 2

# fleet: 16 receivers (12 near, 4 far) on one quick-scale carousel session.
FLEET_COHORTS = (
    "near:n=12,join_spread=0.6,dwell=2.5|"
    "far:n=4,distance=1.3,join_spread=0.6,dwell=2.5"
)
FLEET_PAYLOAD_BYTES = 64
#: Latest join (0.6 s) + dwell (2.5 s) + run_fleet's 0.5 s margin: the
#: set-up warm-up covers every fleet a seed can draw, so no operation
#: renders.
FLEET_HORIZON_S = 3.6


@dataclass
class OpResult:
    """What one operation produced, as the benchmark scores it."""

    host_s: float
    sim_s: float  # simulated camera-watch seconds, summed over receivers
    goodput_kbps: float
    display_frames: int  # display frames the operation aired
    ok: bool
    detail: str = ""
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the size of its committed input pool."""

    name: str
    pool: int
    #: Operations every run completes; sim_goodput_kbps is their mean, so it
    #: depends on the seed alone.  One run's transfer rounds are whole
    #: numbers (3 or 4), so transfer-video averages three deliveries; the
    #: default seed's single link-gray operation is the Fig 7 run.
    min_ops: int

    def op_seed(self, workload_seed: int, op_index: int) -> int:
        """The committed pool entry operation *op_index* of a seed runs."""
        per_window = self.pool // WINDOWS
        return workload_seed % WINDOWS + WINDOWS * (op_index % per_window)


#: Why each workload was chosen is recorded in ``plan.json``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("link-gray", pool=96, min_ops=1),
        Workload("transfer-video", pool=64, min_ops=3),
        Workload("fleet", pool=48, min_ops=2),
    )
}


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references(name: str) -> dict[str, Any]:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Reference records: what an operation's output must match, per op seed
# ----------------------------------------------------------------------
def link_record(run: Any) -> dict[str, Any]:
    """Decoded-bit digest plus ``LinkStats`` of one ``run_link`` call."""
    import numpy as np

    h = hashlib.sha256()
    for frame in run.decoded:
        h.update(int(frame.index).to_bytes(4, "little"))
        for grid in (frame.bits, frame.gob_available, frame.gob_parity_ok):
            h.update(np.packbits(np.asarray(grid, dtype=bool)).tobytes())
    return {"bits_sha256": h.hexdigest(), "stats": asdict(run.stats)}


def transfer_record(run: Any) -> dict[str, Any]:
    """Delivered-payload digest, transport stats and per-round link stats."""
    return {
        "payload_sha256": sha256_hex(run.payload) if run.payload is not None else None,
        "stats": asdict(run.stats),
        "link_stats": [asdict(s) for s in run.link_stats],
    }


def fleet_record(run: Any) -> dict[str, Any]:
    """Digest of ``FleetReport.work_json()`` (the fleet's byte-identity artifact)."""
    return {
        "work_sha256": sha256_hex(run.report.work_json().encode()),
        "delivered": run.report.delivered,
    }


def _json_roundtrip(record: dict[str, Any]) -> dict[str, Any]:
    parsed: dict[str, Any] = json.loads(json.dumps(record))
    return parsed


def check(record: dict[str, Any], reference: dict[str, Any] | None) -> tuple[bool, str]:
    """Whether *record* equals the committed reference, and why not."""
    if reference is None:
        return False, "no committed reference for this operation seed"
    got = _json_roundtrip(record)
    for key in sorted(set(got) | set(reference)):
        if got.get(key) != reference.get(key):
            return False, f"{key} differs from the reference"
    return True, ""


# ----------------------------------------------------------------------
# Set-up and operations
# ----------------------------------------------------------------------
class LinkGray:
    """Back-to-back ``run_link`` calls on 64 frames of gray 127."""

    workload = WORKLOADS["link-gray"]
    workers: int | None = None
    record = staticmethod(link_record)

    def __init__(self) -> None:
        from repro.analysis.experiments import ExperimentScale

        scale = ExperimentScale(n_video_frames=LINK_VIDEO_FRAMES)
        self.config = scale.config(amplitude=DELTA, tau=LINK_TAU)
        self.video = scale.video("gray")
        self.camera = scale.camera()

    def close(self) -> None:
        pass

    def warm(self) -> None:
        """One short call at the same scale, so first-use costs stay out of the timings."""
        from repro.core.pipeline import run_link
        from repro.video.synthetic import pure_color_video

        short = pure_color_video(self.video.height, self.video.width, 127.0, n_frames=WARM_FRAMES)
        run_link(self.config, short, camera=self.camera, seed=0)

    def run(self, seed: int, workers: int | None) -> Any:
        from repro.core.pipeline import run_link

        return run_link(self.config, self.video, camera=self.camera, seed=seed, workers=workers)

    def score(self, run: Any, seed: int, host_s: float) -> OpResult:
        return OpResult(
            host_s=host_s,
            sim_s=len(run.captures) / self.camera.fps,
            goodput_kbps=run.stats.throughput_kbps,
            display_frames=run.sender.stream.n_frames,
            ok=True,
            extras={
                "runtime.chunks": float(run.runtime.chunks),
                "runtime.retries": float(run.runtime.retries),
            },
        )


class TransferVideo:
    """Back-to-back 512 B ARQ transfers over the materialised sunrise clip."""

    workload = WORKLOADS["transfer-video"]
    workers: int | None = TRANSFER_WORKERS
    record = staticmethod(transfer_record)

    def __init__(self) -> None:
        import numpy as np

        from repro.analysis.experiments import ExperimentScale
        from repro.serve import deterministic_payload
        from repro.video.source import ArrayVideoSource

        scale = ExperimentScale()
        self.config = scale.config()
        clip = scale.video("video")
        # Synthesising the clip is not part of the transfer: materialise
        # it once so every round replays stored frames.
        self.video = ArrayVideoSource(np.stack(clip.frames()), fps=clip.fps)
        self.camera = scale.camera()
        self.payloads = {
            seed: deterministic_payload(TRANSFER_PAYLOAD_BYTES, seed=seed)
            for seed in range(self.workload.pool)
        }

    def close(self) -> None:
        pass

    def warm(self) -> None:
        import numpy as np

        from repro.core.pipeline import run_transport_link
        from repro.video.source import ArrayVideoSource

        short = ArrayVideoSource(
            np.stack([self.video.frame(i) for i in range(WARM_FRAMES)]), fps=self.video.fps
        )
        run_transport_link(
            self.config,
            short,
            b"warm-up",
            mode="arq",
            camera=self.camera,
            workers=TRANSFER_WORKERS,
        )

    def run(self, seed: int, workers: int | None) -> Any:
        from repro.core.pipeline import run_transport_link

        return run_transport_link(
            self.config,
            self.video,
            self.payloads[seed],
            mode="arq",
            camera=self.camera,
            seed=seed,
            workers=workers,
        )

    def score(self, run: Any, seed: int, host_s: float) -> OpResult:
        stats = run.stats
        delivered = stats.delivered and run.payload == self.payloads[seed]
        return OpResult(
            host_s=host_s,
            sim_s=run.runtime.frames / self.camera.fps,
            goodput_kbps=stats.goodput_bps / 1000.0,
            display_frames=stats.rounds * self.video.n_frames * self.config.frame_duplication,
            ok=delivered,
            detail="" if delivered else "payload not delivered",
            extras={
                "transport.rounds": float(stats.rounds),
                "transport.packets_sent": float(stats.packets_sent),
                "transport.packets_recovered": float(stats.packets_recovered),
                "runtime.chunks": float(run.runtime.chunks),
                "runtime.retries": float(run.runtime.retries),
            },
        )


class Fleet:
    """Back-to-back 16-receiver fleets against one warmed broadcast session."""

    workload = WORKLOADS["fleet"]
    workers: int | None = None
    record = staticmethod(fleet_record)

    def __init__(self) -> None:
        from repro.analysis.experiments import ExperimentScale
        from repro.serve import BroadcastSession, deterministic_payload, parse_cohorts

        scale = ExperimentScale.quick()
        self.camera = scale.camera()
        self.cohorts = parse_cohorts(FLEET_COHORTS)
        self.session = BroadcastSession(
            scale.config(amplitude=DELTA),
            scale.video("gray"),
            deterministic_payload(FLEET_PAYLOAD_BYTES),
            session_id=1,
        )
        self.display_frames = self.session.prepare(FLEET_HORIZON_S).n_frames

    def close(self) -> None:
        self.session.close()

    def warm(self) -> None:
        from repro.serve import parse_cohorts, run_fleet

        run_fleet(
            self.session,
            parse_cohorts("warm:n=1,dwell=0.2"),
            base_camera=self.camera,
            seed=0,
        )

    def run(self, seed: int, workers: int | None) -> Any:
        from repro.serve import run_fleet

        return run_fleet(
            self.session, self.cohorts, base_camera=self.camera, seed=seed, workers=workers
        )

    def score(self, run: Any, seed: int, host_s: float) -> OpResult:
        report = run.report
        goodputs = [r.goodput_kbps for r in run.results if r.goodput_kbps is not None]
        delivered = report.delivered == report.receivers
        return OpResult(
            host_s=host_s,
            sim_s=sum(r.n_captures for r in run.results) / self.camera.fps,
            goodput_kbps=sum(goodputs) / len(goodputs) if goodputs else 0.0,
            display_frames=self.display_frames,
            ok=delivered,
            detail="" if delivered else f"{report.receivers - report.delivered} undelivered",
            extras={"serve.reuse_ratio": float(report.reuse_ratio)},
        )


SETUPS = {"link-gray": LinkGray, "transfer-video": TransferVideo, "fleet": Fleet}


def timed_op(
    bench: Any,
    seed: int,
    reference: dict[str, Any] | None,
    workers: int | None,
    tracer: Tracer | None = None,
) -> OpResult:
    """Run one operation, time it, and check its output against *reference*.

    With a *tracer* the call runs inside a root ``op`` span, with every
    layer function wrapped.
    """
    root = contextlib.nullcontext() if tracer is None else tracer.span(OP, bench.workload.name)
    installed = contextlib.nullcontext() if tracer is None else tracer.installed()
    with installed:
        t0 = time.perf_counter()
        try:
            with root:
                run = bench.run(seed, workers)
        except Exception as exc:  # an operation that raises counts as failed
            return OpResult(time.perf_counter() - t0, 0.0, 0.0, 0, False, repr(exc))
        host_s = time.perf_counter() - t0
    result = bench.score(run, seed, host_s)
    matches, why = check(bench.record(run), reference)
    if not matches:
        result.ok = False
        result.detail = why
    return result
