"""Convolution, padding, and pixel-shuffle (the EDSR upsampler primitive).

``conv2d`` uses im2col + GEMM: the transformation numpy executes fastest
and the same lowering real frameworks use on GPUs, so the FLOP model in
:mod:`repro.models.costing` mirrors what actually runs here.

Layout is NCHW throughout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor, collect_parents, result_requires_grad


class ConvWorkspace:
    """Reusable im2col scratch buffers, keyed by (shape, dtype).

    The im2col patch matrix is the largest allocation of a conv layer's
    forward pass and its shape is fixed across training steps, so each
    :class:`~repro.tensor.nn.layers.Conv2d` owns one workspace and the
    buffer is allocated once and rewritten in place every step.

    Validity condition: the buffer is overwritten by the next forward
    call, and the backward closure reads it for the weight gradient — so
    a workspace-backed layer supports **one forward/backward in flight at
    a time** (the training pattern).  Layers never share a workspace.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[tuple[int, ...], np.dtype], np.ndarray] = {}

    def buffer(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


def _im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    workspace: ConvWorkspace | None = None,
) -> tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> (N, out_h, out_w, C*kh*kw) patch matrix.

    With a workspace the patch copy lands in a reused buffer instead of a
    fresh allocation (the gather itself is unavoidable: the GEMM needs a
    contiguous operand).
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    shape = (n, c, out_h, out_w, kh, kw)
    strides = (s0, s1, s2 * stride, s3 * stride, s2, s3)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    # -> (N, out_h, out_w, C, kh, kw) then flatten the window
    windowed = patches.transpose(0, 2, 3, 1, 4, 5)
    if workspace is None:
        return windowed.reshape(n, out_h, out_w, c * kh * kw), out_h, out_w
    out = workspace.buffer((n, out_h, out_w, c, kh, kw), x.dtype)
    np.copyto(out, windowed)
    return out.reshape(n, out_h, out_w, c * kh * kw), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add the patch matrix back to input layout (grad of im2col)."""
    n, c, h, w = x_shape
    x_grad = np.zeros(x_shape, dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            x_grad[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += cols[
                :, :, :, :, i, j
            ]
    return x_grad


def pad2d(x, padding: int, value: float = 0.0) -> Tensor:
    """Zero (or constant) padding on the two spatial dims of NCHW."""
    x = as_tensor(x)
    if padding == 0:
        return x
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    p = padding
    n, c, h, w = x.shape
    out_data = np.full((n, c, h + 2 * p, w + 2 * p), value, dtype=x.data.dtype)
    out_data[:, :, p:-p, p:-p] = x.data
    if not result_requires_grad(x):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad[:, :, p:-p, p:-p])

    return Tensor(out_data, True, _parents=collect_parents(x), _backward=backward)


def conv2d(
    x,
    weight,
    bias=None,
    *,
    stride: int = 1,
    padding: int = 0,
    workspace: ConvWorkspace | None = None,
) -> Tensor:
    """2-D cross-correlation: x (N,C,H,W), weight (F,C,kh,kw), bias (F,).

    ``workspace`` reuses the im2col buffer across calls; see
    :class:`ConvWorkspace` for the one-in-flight validity condition.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(
            f"conv2d expects 4-D input/weight, got {x.shape} and {weight.shape}"
        )
    f, c_w, kh, kw = weight.shape
    if x.shape[1] != c_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {c_w}"
        )
    x_padded = pad2d(x, padding) if padding else x
    xp = x_padded.data
    n, c, h, w = xp.shape
    if h < kh or w < kw:
        raise ShapeError(f"input {xp.shape} smaller than kernel ({kh},{kw})")
    cols, out_h, out_w = _im2col(xp, kh, kw, stride, workspace)
    w_mat = weight.data.reshape(f, c * kh * kw)
    out_data = cols @ w_mat.T  # (N, out_h, out_w, F)
    if bias is not None:
        bias = as_tensor(bias)
        out_data = out_data + bias.data
    out_data = np.ascontiguousarray(out_data.transpose(0, 3, 1, 2))

    if not result_requires_grad(x, weight, *( [bias] if bias is not None else [] )):
        return Tensor(out_data)

    cols_flat = cols.reshape(-1, c * kh * kw)

    def backward(grad: np.ndarray) -> None:
        g = grad.transpose(0, 2, 3, 1).reshape(-1, f)  # (N*oh*ow, F)
        if weight.requires_grad:
            gw = (g.T @ cols_flat).reshape(f, c, kh, kw)
            weight.accumulate_grad(gw)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))
        if x_padded.requires_grad or x.requires_grad:
            gcols = g @ w_mat  # (N*oh*ow, C*kh*kw)
            gx_padded = _col2im(
                gcols.reshape(n, out_h, out_w, c * kh * kw),
                xp.shape, kh, kw, stride, out_h, out_w,
            )
            if padding:
                # accumulate into the pad node; the topological sweep in
                # Tensor.backward() propagates it on to ``x``
                x_padded.accumulate_grad(gx_padded)
            else:
                x.accumulate_grad(gx_padded)

    parents = collect_parents(
        x if padding == 0 else x_padded,
        weight,
        *([bias] if bias is not None else []),
    )
    return Tensor(out_data, True, _parents=parents, _backward=backward)


def pixel_shuffle(x, upscale_factor: int) -> Tensor:
    """(N, C*r^2, H, W) -> (N, C, H*r, W*r) sub-pixel rearrangement."""
    x = as_tensor(x)
    r = upscale_factor
    n, c_r2, h, w = x.shape
    if c_r2 % (r * r) != 0:
        raise ShapeError(
            f"pixel_shuffle: channels {c_r2} not divisible by r^2={r * r}"
        )
    c = c_r2 // (r * r)
    out_data = (
        x.data.reshape(n, c, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c, h * r, w * r)
    )
    if not result_requires_grad(x):
        return Tensor(out_data)

    def backward(grad: np.ndarray) -> None:
        g = (
            grad.reshape(n, c, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, c_r2, h, w)
        )
        x.accumulate_grad(g)

    return Tensor(out_data, True, _parents=collect_parents(x), _backward=backward)
