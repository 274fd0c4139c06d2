"""Classical bicubic resampling (Keys 1981, a=-0.5).

Serves two roles: the traditional-baseline comparison of the paper's
Fig. 4, and the degradation operator that synthesizes LR training inputs
from HR targets (paper §II-E: "LR training images can be obtained by
downsampling HR target images").
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import DataError


def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic convolution kernel."""
    ax = np.abs(x)
    ax2, ax3 = ax * ax, ax * ax * ax
    out = np.zeros_like(ax)
    inner = ax <= 1
    outer = (ax > 1) & (ax < 2)
    out[inner] = (a + 2) * ax3[inner] - (a + 3) * ax2[inner] + 1
    out[outer] = a * ax3[outer] - 5 * a * ax2[outer] + 8 * a * ax[outer] - 4 * a
    return out


@functools.lru_cache(maxsize=64)
def _taps(in_size: int, out_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge-clamped source indices and normalized weights, both (out, 4).

    Depends only on the two sizes, so it is computed once per size pair.
    The arrays are read-only because every caller shares them.
    """
    scale = in_size / out_size
    # output sample centres in input coordinates
    centres = (np.arange(out_size) + 0.5) * scale - 0.5
    left = np.floor(centres).astype(int) - 1
    offsets = np.arange(4)
    sample_idx = left[:, None] + offsets[None, :]  # (out, 4)
    weights = _cubic_kernel(centres[:, None] - sample_idx)  # (out, 4)
    weights = weights / weights.sum(axis=1, keepdims=True)
    sample_idx = np.clip(sample_idx, 0, in_size - 1)
    sample_idx.flags.writeable = False
    weights.flags.writeable = False
    return sample_idx, weights


def _resample_axis(image: np.ndarray, out_size: int, axis: int) -> np.ndarray:
    """Separable cubic resampling along one axis (edge-clamped)."""
    in_size = image.shape[axis]
    if in_size == out_size:
        return image
    sample_idx, weights = _taps(in_size, out_size)
    moved = np.moveaxis(image, axis, 0)
    gathered = moved[sample_idx]  # (out, 4, ...)
    result = np.einsum("of,of...->o...", weights.astype(image.dtype), gathered)
    return np.moveaxis(result, 0, axis)


def bicubic_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (C,H,W) or (H,W) image to (out_h, out_w)."""
    if image.ndim == 2:
        image = image[None]
        squeeze = True
    elif image.ndim == 3:
        squeeze = False
    else:
        raise DataError(f"bicubic_resize expects (C,H,W) or (H,W), got {image.shape}")
    if out_h < 1 or out_w < 1:
        raise DataError(f"output size must be >= 1, got ({out_h}, {out_w})")
    out = _resample_axis(image, out_h, axis=1)
    out = _resample_axis(out, out_w, axis=2)
    return out[0] if squeeze else out


def bicubic_upscale(image: np.ndarray, scale: int) -> np.ndarray:
    """Upscale a (C,H,W) image by an integer factor."""
    if scale < 1:
        raise DataError(f"scale must be >= 1, got {scale}")
    h, w = image.shape[-2], image.shape[-1]
    return bicubic_resize(image, h * scale, w * scale)


def bicubic_downscale(image: np.ndarray, scale: int) -> np.ndarray:
    """Downscale a (C,H,W) image by an integer factor (the LR generator)."""
    h, w = image.shape[-2], image.shape[-1]
    if h % scale or w % scale:
        raise DataError(
            f"image dims {(h, w)} not divisible by scale {scale}"
        )
    return bicubic_resize(image, h // scale, w // scale)
