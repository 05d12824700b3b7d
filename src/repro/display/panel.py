"""The display panel model.

Models the pieces of an LCD that shape both InFrame channels:

* a refresh clock (frames are latched at ``1 / refresh_hz`` intervals);
* the gamma transfer from pixel values to luminance (:class:`GammaCurve`);
* a global brightness (backlight) scale;
* a first-order liquid-crystal response -- a pixel does not jump to its new
  luminance instantaneously but relaxes exponentially with a time constant
  of a few milliseconds, which softens the 60 Hz complementary carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_fraction, check_in_range, check_positive, check_positive_int
from repro.display.gamma import GammaCurve


@dataclass(frozen=True)
class DisplayPanel:
    """Static description of a display panel.

    The defaults describe the paper's Eizo FG2421 setup: 1920x1080 at
    120 Hz with brightness at 100%.

    Attributes
    ----------
    width, height:
        Panel resolution in pixels.
    refresh_hz:
        Refresh rate in frames per second.
    brightness:
        Backlight scale in [0, 1]; 1.0 is the paper's setting.
    response_time_s:
        Liquid-crystal time constant in seconds (0 disables the response
        model).  The FG2421's fast-VA class specifies ~1 ms gray-to-gray; specs like that are typical for the panel
        class used in the paper.
    gamma_curve:
        The pixel-value to luminance transfer.
    diagonal_inches:
        Physical diagonal, used for viewing-distance geometry.
    """

    width: int = 1920
    height: int = 1080
    refresh_hz: float = 120.0
    brightness: float = 1.0
    response_time_s: float = 0.001
    gamma_curve: GammaCurve = field(default_factory=GammaCurve)
    diagonal_inches: float = 24.0

    def __post_init__(self) -> None:
        check_positive_int(self.width, "width")
        check_positive_int(self.height, "height")
        check_positive(self.refresh_hz, "refresh_hz")
        check_fraction(self.brightness, "brightness")
        check_in_range(self.response_time_s, "response_time_s", 0.0, 0.1)
        check_positive(self.diagonal_inches, "diagonal_inches")

    @property
    def frame_interval_s(self) -> float:
        """Seconds between successive refreshes."""
        return 1.0 / self.refresh_hz

    @property
    def pixel_pitch_mm(self) -> float:
        """Physical size of one pixel in millimetres."""
        diagonal_mm = self.diagonal_inches * 25.4
        diagonal_px = float(np.hypot(self.width, self.height))
        return diagonal_mm / diagonal_px

    def typical_viewing_distance_m(self) -> float:
        """The paper's "typical viewing distance": 1.2x the screen diagonal."""
        return 1.2 * self.diagonal_inches * 25.4 / 1000.0

    def emitted_luminance(self, frame: np.ndarray) -> np.ndarray:
        """Luminance field (cd/m^2) for a latched pixel-value *frame*.

        Accepts grayscale ``(h, w)`` or RGB ``(h, w, 3)`` frames; colour
        frames are converted channel-wise through the gamma curve and
        combined with Rec.709 luma weights, which is what a luminance-
        sensing receiver (and the flicker-fusion eye model) responds to.
        """
        frame = np.asarray(frame)
        if frame.ndim == 3:
            weights = np.array([0.2126, 0.7152, 0.0722], dtype=np.float32)
            channels = self.gamma_curve.to_luminance(frame)
            lum = (channels * weights).sum(axis=2)
            return (lum * np.float32(self.brightness)).astype(np.float32, copy=False)
        return (self.gamma_curve.to_luminance(frame) * np.float32(self.brightness)).astype(
            np.float32, copy=False
        )

    def scaled(self, scale: float) -> "DisplayPanel":
        """A panel with the same optics but spatial resolution scaled by *scale*.

        The experiment harness uses this to run the full pipeline at reduced
        resolution: all per-pixel physics are resolution-independent, so a
        scaled run preserves the channel behaviour at a fraction of the cost.
        """
        check_positive(scale, "scale")
        return DisplayPanel(
            width=max(1, int(round(self.width * scale))),
            height=max(1, int(round(self.height * scale))),
            refresh_hz=self.refresh_hz,
            brightness=self.brightness,
            response_time_s=self.response_time_s,
            gamma_curve=self.gamma_curve,
            diagonal_inches=self.diagonal_inches,
        )
