"""Golden digests of the receive paths, the Fig 7 cells and the encoder.

Each test runs one quick-scale scenario and compares SHA-256 digests of
its outputs against committed values.  The faulted scenarios pin what
``perfbench``'s references do not cover: fault compilation, stream-fault
injection, the heal default and the healed decide step.  The Fig 7 cells
pin the captured-frame bytes of clean links, and the stream digests pin
the raw multiplexed display frames, so a change to the encode or render
layers that shifts any pixel fails here even when the decoded bits
survive it.

Policy: a digest here changes only together with a CHANGES.md entry that
names the layer whose behaviour changed.  Digests are never regenerated
just to make a run green.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentScale
from repro.core.framing import PseudoRandomSchedule
from repro.core.multiplexer import MultiplexedStream
from repro.core.pipeline import run_link, run_transport_link
from repro.faults import FaultPlan
from repro.serve import BroadcastSession, deterministic_payload, parse_cohorts, run_fleet
from repro.video.synthetic import rgb_sunrise_video, sunrise_video

QUICK = ExperimentScale.quick()


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _json_sha(record: object) -> str:
    return _sha(json.dumps(record, sort_keys=True))


def _bits_sha(decoded) -> str:
    h = hashlib.sha256()
    for frame in decoded:
        h.update(int(frame.index).to_bytes(4, "little"))
        for grid in (frame.bits, frame.gob_available, frame.gob_parity_ok):
            h.update(np.packbits(np.asarray(grid, dtype=bool)).tobytes())
    return h.hexdigest()


def _frames_sha(frames) -> str:
    h = hashlib.sha256()
    for frame in frames:
        h.update(np.ascontiguousarray(frame, dtype=np.float32).tobytes())
    return h.hexdigest()


GOLDEN = {
    "link": {
        "bits": "1eb27808647111f33bc8ff23f6d77e6f67183ae2482e0773a13d1019c33e4228",
        "stats": "c6b31e2504f9c97b1689fb8d5f71ddc785413d0bc4edb8cfee8af34bc5086aff",
        "metrics": "48189e1e7347d3ff0acfa8b8178d8e68275a034bb673d8862f7ac091123033e2",
    },
    "link-blackout": {
        "bits": "556d07c87903bcc86550ab8b2aaa821ef5a95179cc4e2769469dc6b968e57d3e",
        "stats": "b540e22ca28fcaf0cb032b964b7ed3beb75d2010e4abca7caed6f0145204bb5f",
        "metrics": "5bc7843709553a19ee0b17255cb257bddd6182bcc7d32d4200a8761b6a56b2a8",
    },
    "transport": {
        "payload": "4dbdc2b2b62cb00749785bc84202236dbc3777d74660611b8e58812f0cfde6c3",
        "stats": "cc96695e6d587157f6234d8fb94eac8cafe53808e93544e150e90f70c934cbf9",
        "metrics": "51b9cb3a92eaa6b85e3b7738c2acfe49ed8705abe49beaa441980a0383d71457",
    },
    "fleet": {
        "work": "4039fc7a140ddcd6326df247ae18ede76db5d5b065f5129498901614f03d9239",
        "metrics": "7b7e6add1299644d873d005357ffca0748e131c6eed4051f51620073cb7dffb2",
    },
    "fig7-gray": {
        "captures": "a4bcc5936309e0dbf95099191fced21ff20c2329cacf02d992db71133451ea10",
        "bits": "145a0b0fce47e7e1daaabb83cc5e399f4985a32d2806e46c59df4c57dfb044e7",
        "stats": "3bd466889fe57e30c40fe382218d924ed545875939cdf05cfeb6aaf9ffd93310",
    },
    "fig7-dark-gray": {
        "captures": "3613eab019cc48fafb8f35ebc2d368da3c827ad603f2cf55bfe169f358a3b7ab",
        "bits": "aed22dc6c4cbe565df8ca0dcf9299ed235924862df8fd9159ea04141029e6eaf",
        "stats": "093cb35b92abd081d00b8cf050dce7285ca571f9ac2fecd748e9eb8b30d2958d",
    },
    "fig7-video": {
        "captures": "234543b9a62edcf96f15ce7b755630b8be950e016def70fd2aa5cef8c1d27d19",
        "bits": "0f97d365e75508bee8e61acfc919be2e4cd31707b851470ecfd911d42f730c05",
        "stats": "bd6e7ec0e31eede3ceeca637a5d743ede997d7ec8898dc4710a31a09f8905f0f",
    },
    "stream-rgb": {
        "frames": "6330711e72257b331f9345a6e63e8d9157f777b06b5bb15e47a758888f3146b9",
    },
    "stream-90hz": {
        "frames": "d81e6543076ea8701ac11b009604c298ee8ebb058874cebf226a9bce59f2e994",
    },
}


def link_digests() -> dict[str, str]:
    """A faulted run_link, healed by default because faults are present."""
    plan = FaultPlan.parse("drop:p=0.1;flip:at=0.4", seed=4)
    run = run_link(
        QUICK.config(amplitude=20.0, tau=12),
        QUICK.video("gray"),
        camera=QUICK.camera(),
        seed=5,
        faults=plan,
    )
    assert run.degradation is not None and run.degradation.healing is not None
    return {
        "bits": _bits_sha(run.decoded),
        "stats": _json_sha(asdict(run.stats)),
        "metrics": _sha(run.telemetry.metrics_json()),
    }


def link_blackout_digests() -> dict[str, str]:
    """Faults that leave the stream order alone, decoded unhealed."""
    plan = FaultPlan.parse("blackout:at=0.3,dur=0.2", seed=4)
    run = run_link(
        QUICK.config(amplitude=20.0, tau=12),
        QUICK.video("gray"),
        camera=QUICK.camera(),
        seed=5,
        faults=plan,
        heal=False,
    )
    assert run.degradation is not None and run.degradation.healing is None
    return {
        "bits": _bits_sha(run.decoded),
        "stats": _json_sha(asdict(run.stats)),
        "metrics": _sha(run.telemetry.metrics_json()),
    }


def transport_digests() -> dict[str, str]:
    """A faulted ARQ delivery over the same PHY."""
    payload = bytes(range(48))
    run = run_transport_link(
        QUICK.config(amplitude=30.0, tau=12),
        QUICK.video("gray"),
        payload,
        mode="arq",
        camera=QUICK.camera(),
        seed=3,
        max_rounds=3,
        faults=FaultPlan.parse("drop:p=0.1;flip:at=0.4", seed=11),
    )
    return {
        "payload": _sha(run.payload) if run.payload is not None else "none",
        "stats": _json_sha(asdict(run.stats)),
        "metrics": _sha(run.telemetry.metrics_json()),
    }


def fleet_digests() -> dict[str, str]:
    """Two cohorts on one session; the faulted one heals by default."""
    cohorts = parse_cohorts(
        "near:n=2,join_spread=0.4,dwell=1.5"
        "|far:n=2,distance=1.3,join=0.3,join_spread=0.3,dwell=1.5,"
        "faults=drop:p=0.1/flip:at=0.4",
        seed=2,
    )
    payload = deterministic_payload(64, seed=1)
    with BroadcastSession(QUICK.config(), QUICK.video("gray"), payload) as session:
        run = run_fleet(session, cohorts, base_camera=QUICK.camera(), seed=6)
    return {
        "work": _sha(run.report.work_json()),
        "metrics": _sha(run.telemetry.metrics_json()),
    }


def fig7_cell_digests(video: str, amplitude: float) -> dict[str, str]:
    """A clean quick-scale run_link on one Fig 7 cell (tau = 12)."""
    run = run_link(
        QUICK.config(amplitude=amplitude, tau=12),
        QUICK.video(video),
        camera=QUICK.camera(),
        seed=1,
    )
    return {
        "captures": _frames_sha(capture.pixels for capture in run.captures),
        "bits": _bits_sha(run.decoded),
        "stats": _json_sha(asdict(run.stats)),
    }


def _stream_digest(stream: MultiplexedStream) -> str:
    """Raw display frames of the stream's first two data cycles, in order."""
    n_frames = 2 * stream.config.tau
    return _frames_sha(stream.frame(i) for i in range(n_frames))


def rgb_stream_digests() -> dict[str, str]:
    """An RGB clip with both encoder extensions on (gamma and adaptive)."""
    config = QUICK.config(amplitude=20.0, tau=12, gamma_compensation=True,
                          adaptive_amplitude=True)
    video = rgb_sunrise_video(QUICK.video_height, QUICK.video_width, n_frames=8)
    stream = MultiplexedStream(config, video, PseudoRandomSchedule(config))
    return {"frames": _stream_digest(stream)}


def odd_duplication_stream_digests() -> dict[str, str]:
    """A 90 Hz panel over 30 FPS content: three refreshes per content frame,
    so every other complementary pair spans two content frames."""
    config = QUICK.config(amplitude=20.0, tau=12, refresh_hz=90.0)
    video = sunrise_video(QUICK.video_height, QUICK.video_width, n_frames=8)
    stream = MultiplexedStream(config, video, PseudoRandomSchedule(config))
    return {"frames": _stream_digest(stream)}


@pytest.mark.parametrize(
    "name, digests",
    [
        ("link", link_digests),
        ("link-blackout", link_blackout_digests),
        ("transport", transport_digests),
        ("fleet", fleet_digests),
        ("fig7-gray", lambda: fig7_cell_digests("gray", 20.0)),
        ("fig7-dark-gray", lambda: fig7_cell_digests("dark-gray", 20.0)),
        ("fig7-video", lambda: fig7_cell_digests("video", 30.0)),
        ("stream-rgb", rgb_stream_digests),
        ("stream-90hz", odd_duplication_stream_digests),
    ],
)
def test_golden_digests(name, digests):
    assert digests() == GOLDEN[name]
