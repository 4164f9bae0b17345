"""Dense float64 kernels under the autodiff ops: overflow-safe sigmoid and
softplus, the convolution spec, and the im2col/col2im pair.

Tensors are plain C-contiguous ``numpy.ndarray`` objects with dtype float64
(NCHW layout for image-shaped data). Every operation here is pure: inputs are
never mutated, and finite inputs produce finite outputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray


def sigmoid(x: Tensor) -> Tensor:
    # split by sign so exp never overflows
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), overflow-safe."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass(frozen=True)
class ConvSpec:
    """Kernel/stride/padding triple; ``transposed`` selects up-convolution."""

    kernel: int
    stride: int
    padding: int
    transposed: bool = False

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ValueError(f"invalid conv spec {self}")

    def out_extent(self, n: int) -> int:
        if self.transposed:
            m = (n - 1) * self.stride - 2 * self.padding + self.kernel
        else:
            m = (n + 2 * self.padding - self.kernel) // self.stride + 1
        if m < 1:
            raise ValueError(f"spec {self} on extent {n} gives output extent {m} < 1")
        return m

    @property
    def name(self) -> str:
        tag = "UpConv" if self.transposed else "Conv"
        return f"{tag}-{self.kernel}{self.stride}{self.padding}"


def im2col(x: Tensor, kernel: int, stride: int, padding: int) -> Tensor:
    """Unfold NCHW input into a (N*OH*OW, K*K*C) patch matrix (zero padding).

    Channel is the innermost patch axis so the adjoint scatter in
    :func:`col2im` runs over contiguous channel blocks.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"im2col: kernel {kernel} too large for padded input {x.shape}")
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    out = np.empty((n, oh, ow, kernel, kernel, c), dtype=np.float64)
    np.copyto(out, win.transpose(0, 2, 3, 4, 5, 1))
    return out.reshape(n * oh * ow, kernel * kernel * c)


def col2im(cols: Tensor, x_shape, kernel: int, stride: int, padding: int) -> Tensor:
    """Adjoint of :func:`im2col`: scatter-add patches back to NCHW shape."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    hp, wp = h + 2 * padding, w + 2 * padding
    g = cols.reshape(n, oh, ow, kernel, kernel, c)
    acc = np.zeros((n, hp, wp, c), dtype=np.float64)
    for kh in range(kernel):
        for kw in range(kernel):
            acc[:, kh:kh + stride * oh:stride, kw:kw + stride * ow:stride, :] += g[:, :, :, kh, kw, :]
    out = np.empty((n, c, h, w), dtype=np.float64)
    np.copyto(out, acc[:, padding:padding + h, padding:padding + w, :].transpose(0, 3, 1, 2))
    return out
