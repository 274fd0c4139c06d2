"""Procedural DIV2K-like image generator.

Images are deterministic functions of (seed, index): multi-octave smooth
value noise gives natural low-frequency structure, plus random linear
gradients (lighting), and sharp geometric shapes (rectangles/disks) that
give SR models real edges to learn.  Values are RGB float32 in [0, 1],
CHW layout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.utils.seeding import derive_seed

#: DIV2K split sizes (paper §II-E)
TRAIN_SIZE = 800
VAL_SIZE = 100
TEST_SIZE = 100


class SyntheticDiv2k:
    """Deterministic synthetic HR image source with DIV2K-like splits."""

    def __init__(
        self,
        *,
        height: int = 96,
        width: int = 96,
        seed: int = 2021,
        octaves: int = 4,
        num_shapes: int = 6,
    ):
        if height < 8 or width < 8:
            raise DataError(f"images must be at least 8x8, got {height}x{width}")
        if octaves < 1:
            raise DataError("octaves must be >= 1")
        self.height = height
        self.width = width
        self.seed = seed
        self.octaves = octaves
        self.num_shapes = num_shapes
        h, w = height, width
        # Everything below depends only on the shape, so each image pays
        # only for its own draws.  Per octave: its amplitude, the coarse
        # grid's shape, its offset within one channel's draw, and the
        # bilinear taps of one row and one column (per axis, not per pixel,
        # so the table stays O(octaves * (H + W)) at any image size).
        self._octave_taps = []
        offset = 0
        amplitude, self._total = 1.0, 0.0
        for octave in range(octaves):
            grid = max(4, min(h, w) // (2**octave + 1))
            gh, gw = max(2, h // grid), max(2, w // grid)
            ys = np.linspace(0, gh - 1, h)
            xs = np.linspace(0, gw - 1, w)
            y0 = np.floor(ys).astype(int)
            x0 = np.floor(xs).astype(int)
            y1 = np.minimum(y0 + 1, gh - 1)
            x1 = np.minimum(x0 + 1, gw - 1)
            fy = (ys - y0)[:, None]
            fx = xs - x0
            self._octave_taps.append(
                (amplitude, gh, gw, offset, y0, y1, x0, x1, fy, 1 - fy, fx, 1 - fx)
            )
            offset += gh * gw
            self._total += amplitude
            amplitude *= 0.55
        self._grid_values = offset
        self._yy = np.linspace(-0.5, 0.5, h)[:, None]
        self._xx = np.linspace(-0.5, 0.5, w)[None, :]
        self._disk_y = self._yy * h
        self._disk_x = self._xx * w

    def __len__(self) -> int:
        return TRAIN_SIZE + VAL_SIZE + TEST_SIZE

    def image(self, index: int) -> np.ndarray:
        """HR image ``index`` as (3, H, W) float32 in [0, 1]."""
        if not 0 <= index < len(self):
            raise DataError(f"image index {index} out of range [0, {len(self)})")
        rng = np.random.default_rng(derive_seed(self.seed, "image", index))
        h, w = self.height, self.width
        base_hue = rng.random(3) * 0.6 + 0.2
        # PCG64 fills doubles in order, so one draw equals the per-channel,
        # per-octave draws in that order.
        coarse = rng.random(3 * self._grid_values).reshape(3, -1)
        acc = self._value_noise(coarse)
        img = base_hue[:, None, None] * 0.5 + 0.5 * acc / self._total
        # lighting gradient
        gy, gx = rng.standard_normal(2) * 0.15
        img += gy * self._yy + gx * self._xx
        # sharp shapes (edges)
        for _ in range(self.num_shapes):
            color = rng.random(3).reshape(3, 1, 1)
            if rng.random() < 0.5:
                y0, x0 = rng.integers(0, h - 4), rng.integers(0, w - 4)
                dy = int(rng.integers(3, max(4, h // 3)))
                dx = int(rng.integers(3, max(4, w // 3)))
                img[:, y0 : y0 + dy, x0 : x0 + dx] = (
                    0.6 * img[:, y0 : y0 + dy, x0 : x0 + dx] + 0.4 * color
                )
            else:
                cy, cx = rng.integers(0, h), rng.integers(0, w)
                r = int(rng.integers(2, max(3, min(h, w) // 5)))
                mask = (
                    (self._disk_y - (cy - h / 2)) ** 2
                    + (self._disk_x - (cx - w / 2)) ** 2
                    <= r * r
                )
                img[:, mask] = 0.6 * img[:, mask] + 0.4 * color.reshape(3, 1)
        return np.clip(img, 0.0, 1.0).astype(np.float32)

    def _value_noise(self, coarse: np.ndarray) -> np.ndarray:
        """Multi-octave value noise, (3, H, W) float64, not yet normalized.

        ``coarse`` holds each channel's random grid values, octave after
        octave, as (3, G).  Each octave is bilinearly upsampled and added
        in amplitude order, one elementwise step at a time: a reduction
        (``np.sum``, ``einsum``, ``@``) could reassociate the additions.
        """
        h, w = self.height, self.width
        acc = np.zeros((3, h, w))
        for amplitude, gh, gw, offset, y0, y1, x0, x1, fy, ofy, fx, ofx in self._octave_taps:
            grid = coarse[:, offset : offset + gh * gw].reshape(3, gh, gw)
            rows0, rows1 = grid[:, y0], grid[:, y1]
            top = rows0[:, :, x0] * ofx + rows0[:, :, x1] * fx
            bottom = rows1[:, :, x0] * ofx + rows1[:, :, x1] * fx
            acc += amplitude * (top * ofy + bottom * fy)
        return acc

    # -- splits -------------------------------------------------------------
    def train_indices(self) -> range:
        return range(0, TRAIN_SIZE)

    def val_indices(self) -> range:
        return range(TRAIN_SIZE, TRAIN_SIZE + VAL_SIZE)

    def test_indices(self) -> range:
        return range(TRAIN_SIZE + VAL_SIZE, TRAIN_SIZE + VAL_SIZE + TEST_SIZE)
