"""Fault injectors: where a compiled plan meets the capture stream.

Injection happens at three points, matching where real systems fail:

* :class:`FaultInjectedCamera` wraps the :class:`~repro.camera.capture.CameraModel`
  a receiver renders its captures with.  Timing faults (clock drift, extra
  jitter, polarity slips) shift the *true* render time while the frame
  keeps its *nominal* timestamps -- the camera's clock lies, exactly the
  desynchronisation the self-healing decoder must detect.  Pixel faults
  (exposure/ambient steps, occlusion blackouts) land on the rendered
  frame before the decoder's observation is extracted.
* :func:`apply_stream_faults` post-processes the ordered capture stream
  just before the receiver decides it: dropped captures vanish,
  duplicated captures deliver the previous frame's *pixels* under their
  own timestamps (a stale frame buffer), and reordered captures swap
  content with a nearby capture -- all timestamp/content mismatches a
  naive decoder trusts blindly.
* :meth:`CompiledFaults.corrupt_packets` damages transport packets after
  the PHY decode (miscorrected RS codewords, torn buffers).

Because every decision was pre-drawn by :meth:`FaultPlan.compile`, the
injectors are pure functions: parallel and serial runs inject the exact
same faults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.camera.capture import CameraModel, CapturedFrame, TimelineLike
from repro.core.decoder import BlockObservation
from repro.faults.plan import CompiledFaults
from repro.faults.report import InjectionLog


@dataclass(frozen=True)
class FaultInjectedCamera:
    """A camera whose clock and optics misbehave per a compiled plan.

    Duck-types the slice of :class:`~repro.camera.capture.CameraModel`
    the runtime workers use (``capture_frame`` plus the geometry
    attributes).  The returned frames carry the *nominal* timestamps --
    the injected time offset is invisible to the receiver, which is the
    whole point.
    """

    camera: CameraModel
    compiled: CompiledFaults

    @property
    def height(self) -> int:
        return self.camera.height

    @property
    def width(self) -> int:
        return self.camera.width

    @property
    def fps(self) -> float:
        return self.camera.fps

    def capture_frame(
        self,
        timeline: TimelineLike,
        index: int,
        rng: np.random.Generator | None = None,
    ) -> CapturedFrame:
        """Capture frame *index* at its faulted true time, nominally stamped."""
        offset = self.compiled.capture_time_offset(index)
        if offset != 0.0:
            shifted = replace(
                self.camera, clock_offset_s=self.camera.clock_offset_s + offset
            )
        else:
            shifted = self.camera
        capture = shifted.capture_frame(timeline, index, rng=rng)
        pixels = self.compiled.perturb_pixels(
            index, capture.mid_exposure_s - offset, capture.pixels
        )
        return CapturedFrame(
            pixels=pixels,
            index=capture.index,
            start_time_s=capture.start_time_s - offset,
            mid_exposure_s=capture.mid_exposure_s - offset,
        )


def apply_stream_faults(
    compiled: CompiledFaults,
    captures: list[CapturedFrame] | None,
    observations: list[BlockObservation],
) -> tuple[list[CapturedFrame] | None, list[BlockObservation], InjectionLog]:
    """Drop, duplicate and reorder the ordered capture stream.

    *observations* (and *captures*, when given) must be index-aligned,
    as the receiver's per-capture step produces them.  Returns the
    faulted stream plus the :class:`InjectionLog` accounting every event
    that actually landed inside the stream.  A receiver that keeps only
    observations passes ``captures=None`` and gets None back in its place.

    Duplication and reordering move pixel *content* between captures
    while each capture keeps its own timestamps: the decoder's noise
    evidence (already extracted per capture) moves with the content, so
    the observation list stays consistent with what a receiver
    re-observing the faulted pixels would compute.
    """
    n = len(observations)
    if captures is not None and len(captures) != n:
        raise ValueError(
            f"captures ({len(captures)}) and observations ({n}) misaligned"
        )
    content = list(range(n))  # content[i] = which original capture's pixels land at i

    reordered = 0
    for i, j in compiled.swaps:
        if i < n and j < n:
            content[i], content[j] = content[j], content[i]
            reordered += 2

    duplicated = 0
    for i in range(1, min(n, compiled.duplicated.size)):
        if compiled.duplicated[i]:
            content[i] = content[i - 1]
            duplicated += 1

    kept = [i for i in range(n) if not (i < compiled.dropped.size and compiled.dropped[i])]
    if not kept:
        # The drop guard in FaultPlan.compile keeps one capture alive,
        # but swaps/duplicates cannot empty the stream either way.
        raise AssertionError("stream faults erased every capture")
    out_observations = [
        observations[i]
        if content[i] == i
        else replace(
            observations[i],
            noise_map=observations[content[i]].noise_map,
            level=observations[content[i]].level,
        )
        for i in kept
    ]
    out_captures = None
    if captures is not None:
        out_captures = [
            captures[i]
            if content[i] == i
            else replace(captures[i], pixels=captures[content[i]].pixels)
            for i in kept
        ]

    blackout = sum(
        1 for o in out_observations if compiled.in_blackout(o.mid_exposure_s)
    )
    log = InjectionLog(
        dropped_captures=n - len(kept),
        duplicated_captures=duplicated,
        reordered_captures=reordered,
        blackout_captures=blackout,
        polarity_flips=len(compiled.flip_times_s),
        exposure_steps=len(compiled.exposure_steps),
        ambient_steps=len(compiled.ambient_steps),
    )
    return out_captures, out_observations, log
