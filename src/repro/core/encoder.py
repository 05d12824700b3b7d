"""Data-frame encoding (paper Section 3.3).

A Block carrying bit 1 receives the chessboard pattern at amplitude
``delta``; a Block carrying bit 0 is left untouched.  Because the
multiplexed pixel values must stay inside [0, 255], the amplitude is
locally limited by the video content's headroom -- the paper "locally
adjust[s] the amplitude for corresponding Blocks in two subsequent
complementary frames", i.e. the + and - frames use the *same* reduced
amplitude so the pair stays complementary.

Two clip modes are provided:

* ``pixel`` -- each modulated pixel is limited by its own headroom
  ``min(delta, v, 255 - v)``;
* ``block`` -- the whole Block uses the minimum headroom of its modulated
  pixels (a uniform chessboard per Block, closer to the paper's wording,
  at the cost of more amplitude loss on high-contrast content).

Two extensions beyond the paper (enabled via the config):

* **gamma compensation** -- pixel-value complementarity fuses slightly
  *bright* on a gamma display (convexity: ``L(v+M)+L(v-M) > 2 L(v)``).
  When enabled, both frames of a pair are shifted by the second-order
  correction ``c = -curvature(v) * M^2 / (2 * slope(v))`` at modulated
  pixels, making the fused *luminance* match the plain video.
* **adaptive amplitude** -- Blocks whose content is already textured can
  carry more amplitude without becoming visible (spatial masking); the
  per-Block delta grows with the content's own high-frequency level, up
  to ``adaptive_amplitude_max``.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro._util import check_frame
from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry
from repro.core.patterns import pattern_field
from repro.core.smoothing import SmoothingWaveform
from repro.display.gamma import GammaCurve

#: One content frame's encode invariants: validated frame, headroom field
#: and (adaptive amplitude only) per-pixel delta field.
_Content = tuple[np.ndarray, np.ndarray, np.ndarray | None]


class DataFrameEncoder:
    """Turns Block bit grids into per-pixel modulation fields.

    Parameters
    ----------
    config:
        The InFrame configuration.
    geometry:
        Grid placement for the target frame size.
    gamma_curve:
        The target display's transfer curve; only consulted when
        ``config.gamma_compensation`` is on.
    """

    def __init__(
        self,
        config: InFrameConfig,
        geometry: FrameGeometry,
        gamma_curve: GammaCurve | None = None,
    ) -> None:
        if geometry.config is not config:
            # Allow equal configs from different objects, but insist they match.
            if geometry.config != config:
                raise ValueError("geometry was built for a different config")
        self.config = config
        self.geometry = geometry
        self.gamma_curve = gamma_curve if gamma_curve is not None else GammaCurve()
        self.pattern = pattern_field(config, geometry)
        self.waveform = SmoothingWaveform(config.tau, config.waveform)
        self._content_cache: tuple[object, _Content] | None = None

    # ------------------------------------------------------------------
    # Static data frames (paper Fig. 4 uses these directly)
    # ------------------------------------------------------------------
    def data_frame(self, bits: np.ndarray) -> np.ndarray:
        """The raw data frame D for a bit grid: delta * chessboard on 1-Blocks.

        This is the unclipped, un-smoothed D of the paper's formulation
        ``V +/- D``; values are in [0, delta].
        """
        bit_field = self.geometry.expand_block_grid(np.asarray(bits, dtype=bool))
        return (self.pattern * bit_field * np.float32(self.config.amplitude)).astype(np.float32)

    # ------------------------------------------------------------------
    # Smoothed, clip-aware modulation
    # ------------------------------------------------------------------
    def envelope_grid(
        self,
        bits_now: np.ndarray,
        bits_next: np.ndarray,
        step: int,
    ) -> np.ndarray:
        """Per-Block envelope (0..1) at displayed-frame *step* of the cycle.

        Invariant Blocks (1->1 or 0->0) keep a constant envelope, exactly as
        the paper specifies; only switching Blocks ride the Omega ramps.
        """
        current_factor, next_factor = self.waveform.factors(step)
        now = np.asarray(bits_now, dtype=np.float32)
        nxt = np.asarray(bits_next, dtype=np.float32)
        steady = now * nxt
        falling = now * (1.0 - nxt) * np.float32(current_factor)
        rising = (1.0 - now) * nxt * np.float32(next_factor)
        return steady + falling + rising

    def modulation_field(
        self,
        video_frame: np.ndarray,
        bits_now: np.ndarray,
        bits_next: np.ndarray | None = None,
        step: int = 0,
    ) -> np.ndarray:
        """Unsigned modulation amplitude per pixel, pattern and clip applied.

        The multiplexed pair is ``clip(V + M), clip(V - M)`` -- with the
        headroom limit applied the clip never actually truncates, which is
        what keeps the pair exactly complementary.
        """
        _, headroom, delta_field = self._content(video_frame)
        if bits_next is None:
            bits_next = bits_now
        envelope = self.envelope_grid(bits_now, bits_next, step)
        # Built in place on the freshly expanded envelope: one full-frame
        # allocation per field.
        field = self.geometry.expand_block_grid(envelope)
        field *= delta_field if delta_field is not None else np.float32(self.config.amplitude)
        np.minimum(field, headroom, out=field)
        field *= self.pattern
        return field

    def multiplexed_pair(
        self,
        video_frame: np.ndarray,
        bits_now: np.ndarray,
        bits_next: np.ndarray | None = None,
        step: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The complementary pair ``(V + M, V - M)`` for one iteration.

        With gamma compensation on, the pair is ``(V + c + M, V + c - M)``
        where ``c`` cancels the fused-luminance brightening.  RGB frames
        receive the same modulation on every channel (a gray chessboard),
        which is how the paper's prototype treats colour content.  Both
        frames share one ``M`` (and one ``c``), computed once per pair.
        """
        video = self._content(video_frame)[0]
        modulation = self.modulation_field(video_frame, bits_now, bits_next, step)
        offset, negative = modulation, -modulation
        if self.config.gamma_compensation:
            correction = self.compensation_field(video, modulation)
            offset = offset + correction
            negative = negative + correction
        if video.ndim == 3:
            offset = offset[..., None]
            negative = negative[..., None]
        plus = video + offset
        minus = video + negative
        np.clip(plus, 0.0, 255.0, out=plus)
        np.clip(minus, 0.0, 255.0, out=minus)
        return plus, minus

    def compensation_field(
        self, video: np.ndarray, modulation: np.ndarray
    ) -> np.ndarray:
        """The per-pixel luminance-complementarity correction ``c``.

        Zero everywhere when ``config.gamma_compensation`` is off, and at
        unmodulated pixels always.  The correction is the second-order
        term of the gamma expansion and is kept within the remaining
        pixel-value headroom.
        """
        if not self.config.gamma_compensation:
            return np.zeros(video.shape[:2], dtype=np.float32)
        flat = video.mean(axis=2) if video.ndim == 3 else video
        slope = np.maximum(self.gamma_curve.local_slope(flat), 1e-6)
        curvature = self.gamma_curve.local_curvature(flat)
        correction = -(curvature * modulation**2) / (2.0 * slope)
        # Stay inside [0, 255] after the +/- modulation is applied (for RGB
        # the binding channel is the darkest/brightest one).
        low_base = video.min(axis=2) if video.ndim == 3 else video
        high_base = video.max(axis=2) if video.ndim == 3 else video
        low = -(low_base - modulation)
        high = 255.0 - (high_base + modulation)
        return np.clip(correction, np.minimum(low, 0.0), np.maximum(high, 0.0)).astype(
            np.float32
        )

    def _adaptive_delta(self, video: np.ndarray) -> np.ndarray:
        """Per-Block amplitude raised where content texture masks it."""
        rows, cols = self.geometry.data_area_slices()
        flat = video.mean(axis=2) if video.ndim == 3 else video
        area = flat[rows, cols]
        smooth = ndimage.uniform_filter(area, size=3, mode="nearest")
        texture = np.abs(area - smooth)
        side = self.config.block_side_px
        tiled = texture.reshape(
            self.config.block_rows, side, self.config.block_cols, side
        )
        block_texture = tiled.mean(axis=(1, 3))
        cap = max(self.config.amplitude, self.config.adaptive_amplitude_max)
        delta = np.minimum(
            np.float32(self.config.amplitude) + block_texture.astype(np.float32),
            np.float32(cap),
        )
        return delta

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _content(self, video_frame: np.ndarray) -> _Content:
        """The validated frame, its headroom and its adaptive delta field.

        These depend on the content frame alone, so they are computed once
        per frame object and reused by every pair that frame carries.  The
        cache holds a reference to the last frame it saw: an identity match
        is never a recycled ``id()``.  Frames are read-only once encoded,
        as every video source serves them.
        """
        cached = self._content_cache
        if cached is not None and cached[0] is video_frame:
            return cached[1]
        video = check_frame(video_frame, "video_frame")
        if video.shape[:2] != (self.geometry.frame_height, self.geometry.frame_width):
            raise ValueError(
                f"video frame {video.shape} does not match geometry "
                f"{(self.geometry.frame_height, self.geometry.frame_width)}"
            )
        delta_field = None
        if self.config.adaptive_amplitude:
            delta_field = self.geometry.expand_block_grid(self._adaptive_delta(video))
        content = (video, self._headroom(video), delta_field)
        self._content_cache = (video_frame, content)
        return content

    def _headroom(self, video: np.ndarray) -> np.ndarray:
        """Largest symmetric amplitude each pixel (or Block) can carry.

        For RGB content the binding constraint is the channel closest to
        either end of the range, since the gray chessboard moves all
        channels together.
        """
        if video.ndim == 3:
            per_pixel = np.minimum(video.min(axis=2), 255.0 - video.max(axis=2)).astype(
                np.float32
            )
        else:
            per_pixel = np.minimum(video, 255.0 - video).astype(np.float32)
        if self.config.clip_mode == "pixel":
            return per_pixel
        # Block mode: the minimum headroom of the Block's *modulated* pixels.
        rows, cols = self.geometry.data_area_slices()
        area = per_pixel[rows, cols]
        area_pattern = self.pattern[rows, cols]
        side = self.config.block_side_px
        h_blocks = self.config.block_rows
        w_blocks = self.config.block_cols
        # Mask out unmodulated pixels with +inf so they never bind.
        masked = np.where(area_pattern > 0, area, np.float32(np.inf))
        tiled = masked.reshape(h_blocks, side, w_blocks, side)
        block_min = tiled.min(axis=(1, 3))
        block_min = np.where(np.isfinite(block_min), block_min, 0.0).astype(np.float32)
        field = np.zeros_like(per_pixel)
        field[rows, cols] = np.kron(block_min, np.ones((side, side), dtype=np.float32))
        return field
