"""Rolling-shutter exposure geometry.

A rolling-shutter sensor does not expose the whole frame at once: row ``r``
starts its exposure ``r * readout_s / n_rows`` after row 0.  When the
display flips from ``V + D`` to ``V - D`` mid-readout, the rows whose
exposure windows straddle the flip integrate both signs and the chessboard
cancels -- the paper's stated reason for needing parity/ECC and the
temporal smoothing cycle.

:class:`RollingShutter` turns a camera frame start time into per-display-
frame row-weight vectors: ``weights[d][r]`` is the fraction of row ``r``'s
exposure that display frame ``d`` contributes.  The capture pipeline then
blends per-frame average-luminance fields with those weights, which is
exact for a piecewise-constant display and a very good approximation once
the display timeline has already folded the LC response into per-frame
averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_in_range, check_positive, check_positive_int


@dataclass(frozen=True)
class RollingShutter:
    """Exposure timing of a rolling-shutter sensor.

    Attributes
    ----------
    n_rows:
        Number of sensor rows (camera resolution height).
    exposure_s:
        Per-row exposure time in seconds.
    readout_s:
        Time between row 0 and the last row starting exposure.  0 gives a
        global shutter.
    """

    n_rows: int
    exposure_s: float
    readout_s: float

    def __post_init__(self) -> None:
        check_positive_int(self.n_rows, "n_rows")
        check_positive(self.exposure_s, "exposure_s")
        check_in_range(self.readout_s, "readout_s", 0.0, 1.0)

    def row_window(self, frame_start_s: float, row: int) -> tuple[float, float]:
        """Exposure window ``(start, end)`` of *row* for a frame starting at *frame_start_s*."""
        if not (0 <= row < self.n_rows):
            raise ValueError(f"row {row} outside [0, {self.n_rows})")
        offset = self.readout_s * row / self.n_rows
        start = frame_start_s + offset
        return (start, start + self.exposure_s)

    def display_frame_weights(
        self,
        frame_start_s: float,
        display_interval_s: float,
        n_display_frames: int,
    ) -> dict[int, np.ndarray]:
        """Per-row exposure weights of each display frame.

        Returns a mapping ``display_frame_index -> weights`` where
        ``weights`` has shape ``(n_rows,)`` and each row's weights sum to 1
        (display frames beyond the stream are clamped to its endpoints, so
        a camera running past the stream end keeps seeing the last frame).
        """
        check_positive(display_interval_s, "display_interval_s")
        check_positive_int(n_display_frames, "n_display_frames")
        rows = np.arange(self.n_rows, dtype=np.float64)
        starts = frame_start_s + self.readout_s * rows / self.n_rows
        ends = starts + self.exposure_s

        first = int(np.floor(starts.min() / display_interval_s))
        last = int(np.ceil(ends.max() / display_interval_s))
        weights: dict[int, np.ndarray] = {}
        for d in range(first, last + 1):
            d_start = d * display_interval_s
            d_end = d_start + display_interval_s
            overlap = np.clip(
                np.minimum(ends, d_end) - np.maximum(starts, d_start), 0.0, None
            )
            if not np.any(overlap > 0.0):
                continue
            clamped = min(max(d, 0), n_display_frames - 1)
            w = (overlap / self.exposure_s).astype(np.float32)
            if clamped in weights:
                weights[clamped] = weights[clamped] + w
            else:
                weights[clamped] = w
        return weights
