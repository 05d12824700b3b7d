"""Pixel value to luminance transfer curves.

Displays are not linear: an 8-bit pixel value ``v`` produces luminance
approximately ``L_max * (v / 255) ** gamma``.  InFrame's chessboard keys a
fixed *pixel-value* amplitude ``delta``, so the emitted *luminance*
modulation grows with the base level -- the slope of the gamma curve is
``gamma * L(v) / v``.  Combined with the Ferry-Porter rise of the critical
flicker frequency with luminance, this is what makes bright content flicker
more in the paper's Figure 6 (left).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_in_range, check_positive


class GammaCurve:
    """A power-law display transfer curve.

    Parameters
    ----------
    gamma:
        Exponent of the power law; 2.2 approximates sRGB displays.
    peak_luminance:
        Luminance in cd/m^2 emitted at pixel value 255 and 100% brightness.
    black_level:
        Luminance emitted at pixel value 0 (LCD leakage), in cd/m^2.

    Examples
    --------
    >>> curve = GammaCurve(gamma=2.2, peak_luminance=300.0)
    >>> round(float(curve.to_luminance(255)), 1)
    300.0
    >>> int(curve.to_pixel(curve.to_luminance(128)))
    128
    """

    def __init__(
        self,
        gamma: float = 2.2,
        peak_luminance: float = 300.0,
        black_level: float = 0.3,
    ) -> None:
        self.gamma = check_in_range(gamma, "gamma", 1.0, 4.0)
        self.peak_luminance = check_positive(peak_luminance, "peak_luminance")
        self.black_level = check_in_range(black_level, "black_level", 0.0, peak_luminance)

    def to_luminance(self, pixel_values: np.ndarray | float) -> np.ndarray:
        """Map pixel values in [0, 255] to luminance in cd/m^2."""
        values = np.clip(np.asarray(pixel_values, dtype=np.float32), 0.0, 255.0)
        normalized = values / np.float32(255.0)
        span = self.peak_luminance - self.black_level
        return (self.black_level + span * normalized**self.gamma).astype(np.float32, copy=False)

    def to_pixel(self, luminance: np.ndarray | float) -> np.ndarray:
        """Map luminance in cd/m^2 back to pixel values in [0, 255]."""
        lum = np.asarray(luminance, dtype=np.float32)
        span = self.peak_luminance - self.black_level
        normalized = np.clip((lum - self.black_level) / span, 0.0, 1.0)
        return (255.0 * normalized ** (1.0 / self.gamma)).astype(np.float32)

    def local_slope(self, pixel_values: np.ndarray | float) -> np.ndarray:
        """d(luminance)/d(pixel value) at the given pixel values.

        This is the factor that converts a small pixel-value amplitude
        (e.g. InFrame's delta) into a luminance amplitude.
        """
        values = np.clip(np.asarray(pixel_values, dtype=np.float32), 0.0, 255.0)
        normalized = values / np.float32(255.0)
        span = self.peak_luminance - self.black_level
        # Guard the v=0 singularity for gamma < 1 (not reachable here) and
        # return the exact derivative elsewhere.
        safe = np.maximum(normalized, 1e-6)
        return (span * self.gamma * safe ** (self.gamma - 1.0) / 255.0).astype(np.float32)

    def local_curvature(self, pixel_values: np.ndarray | float) -> np.ndarray:
        """d^2(luminance)/d(pixel value)^2 at the given pixel values.

        Drives the gamma-compensation correction: a symmetric pixel-value
        modulation of amplitude ``M`` raises the fused luminance by
        ``curvature * M^2 / 2``.
        """
        values = np.clip(np.asarray(pixel_values, dtype=np.float32), 0.0, 255.0)
        normalized = np.maximum(values / np.float32(255.0), 1e-6)
        span = self.peak_luminance - self.black_level
        return (
            span
            * self.gamma
            * (self.gamma - 1.0)
            * normalized ** (self.gamma - 2.0)
            / (255.0**2)
        ).astype(np.float32)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GammaCurve(gamma={self.gamma}, peak_luminance={self.peak_luminance}, "
            f"black_level={self.black_level})"
        )
