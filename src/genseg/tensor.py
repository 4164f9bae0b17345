"""Dense float64 kernels under the autodiff ops: overflow-safe sigmoid and
softplus, the convolution spec, the im2col/col2im pair, and the convolution
kernels built on im2col.

Every convolution, forward or adjoint, is an :func:`im2col` gather followed
by one matrix product. :func:`conv` gathers strided patches of its input.
:func:`conv_transpose`, the input gradient of :func:`conv`, splits a stride-s
kernel into s*s flipped sub-pixel phases, runs them as one stride-1
convolution and interleaves the phases (depth-to-space). :func:`kernel_grad`
multiplies a gradient by patch columns. No autodiff node calls the
scatter-add :func:`col2im`; it stays as :func:`im2col`'s adjoint reference.

Tensors are plain ``numpy.ndarray`` objects with dtype float64 (NCHW indexing
for image-shaped data). Convolution outputs are NCHW views of channels-last
memory, which the next :func:`im2col` reads in place or copies once. A
convolution's bias is added to the contiguous product, one value per output
channel along its last axis, before the NCHW view or the phase interleave;
each output element gets the same one addition as a broadcast over the NCHW
view, so the values are the same to the bit. :func:`conv_transpose` frees
its padded channels-last copy once :func:`im2col` has read it, and its patch
matrix once the product has, before the phase interleave copies the result.
Every operation here is pure: inputs are never mutated, and finite inputs
produce finite outputs.
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
        if self.kernel % self.stride:
            # conv_transpose splits the kernel into stride x stride phases
            raise ValueError(f"conv spec {self}: kernel {self.kernel} is not a multiple "
                             f"of stride {self.stride}")

    def out_extent(self, n: int) -> int:
        if self.transposed:
            m = (n - 1) * self.stride - 2 * self.padding + self.kernel
        else:
            m = (n + 2 * self.padding - self.kernel) // self.stride + 1
        if m < 1:
            raise ValueError(f"spec {self} on extent {n} gives output extent {m} < 1")
        return m

    def weight_shape(self, in_ch: int, out_ch: int) -> tuple[int, int, int, int]:
        """(out, in, k, k), or (in, out, k, k) when transposed."""
        k = self.kernel
        return (in_ch, out_ch, k, k) if self.transposed else (out_ch, in_ch, k, k)

    @property
    def name(self) -> str:
        tag = "UpConv" if self.transposed else "Conv"
        return f"{tag}-{self.kernel}{self.stride}{self.padding}"


def im2col(x: Tensor, kernel: int, stride: int, padding: int) -> Tensor:
    """Unfold NCHW input into a (N*OH*OW, K*K*C) patch matrix (zero padding).

    Channel is the innermost patch axis, so patches are gathered from a
    channels-last copy of the padded input in runs of K*C doubles; an
    unpadded input whose memory is already channels-last is read in place.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"im2col: kernel {kernel} too large for padded input {x.shape}")
    rows = x.transpose(0, 2, 3, 1)
    if padding or not rows.flags.c_contiguous:
        rows = _pad_channels_last(x, padding, padding, padding)
    sn, sh, sw, sc = rows.strides
    win = np.ndarray((n, oh, ow, kernel, kernel, c), np.float64, rows, 0,
                     (sn, sh * stride, sw * stride, sh, sw, sc))
    return win.reshape(n * oh * ow, kernel * kernel * c)


def _pad_channels_last(x: Tensor, lo: int, hi_h: int, hi_w: int) -> Tensor:
    """Channels-last (N, H, W, C) copy of NCHW ``x``, zero-padded on the
    spatial axes by ``lo`` before and ``hi_h``/``hi_w`` after; a negative
    amount crops instead."""
    h, w = x.shape[2], x.shape[3]
    rows = x.transpose(0, 2, 3, 1)[:, max(-lo, 0):h - max(-hi_h, 0), max(-lo, 0):w - max(-hi_w, 0)]
    n, rh, rw, c = rows.shape
    top = max(lo, 0)
    out = np.zeros((n, top + rh + max(hi_h, 0), top + rw + max(hi_w, 0), c), dtype=np.float64)
    out[:, top:top + rh, top:top + rw] = rows
    return out


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


def conv(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int,
         cols: Tensor) -> Tensor:
    """Strided convolution of NCHW ``x`` with an (out, in, k, k) kernel and,
    unless ``b`` is None, a bias of one entry per output channel.

    ``cols`` is ``im2col(x, k, stride, padding)``, which the caller keeps for
    the kernel gradient. The result is an NCHW view of channels-last memory.
    """
    n, _, h, wd = x.shape
    co, k = w.shape[0], w.shape[2]
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    y = cols @ w.transpose(0, 2, 3, 1).reshape(co, -1).T
    if b is not None:
        y += b
    return y.reshape(n, oh, ow, co).transpose(0, 3, 1, 2)


def kernel_grad(a: Tensor, cols: Tensor, kernel: int) -> Tensor:
    """(C_a, C_cols, k, k) kernel gradient: NCHW ``a`` flattened to pixels
    times the matching (pixels, k*k*C_cols) patch matrix ``cols``."""
    ch = a.shape[1]
    flat = a.transpose(0, 2, 3, 1).reshape(-1, ch)
    return (flat.T @ cols).reshape(ch, kernel, kernel, -1).transpose(0, 3, 1, 2)


def conv_transpose(x: Tensor, w: Tensor, b: Tensor | None, stride: int, padding: int,
                   extent) -> Tensor:
    """Transposed convolution of NCHW ``x`` with an (in, out, k, k) kernel
    and, unless ``b`` is None, a bias of one entry per output channel,
    cropped to the spatial ``extent`` (oh, ow).

    The adjoint of :func:`conv` with the same kernel: ``extent`` is the
    convolution input's, which may exceed the natural output extent
    (h - 1) * stride - 2 * padding + k by up to stride - 1 rows or columns.
    Full-output position q * s + r takes kernel taps r + m * s from input
    q - m, so each phase r is a stride-1 convolution with k/s taps; all
    s * s phases run as one product, then interleave and crop to ``extent``.
    """
    n, ci, h, wd = x.shape
    co, k = w.shape[1], w.shape[2]
    s = stride
    kk = k // s
    shift, crop = divmod(padding, s)
    oh, ow = extent
    qh, qw = -(-(crop + oh) // s), -(-(crop + ow) // s)  # phase rows and columns kept
    lo = kk - 1 - shift
    # the padded channels-last copy is freed once im2col has read it
    cols = im2col(_pad_channels_last(x, lo, qh + kk - 1 - lo - h, qw + kk - 1 - lo - wd)
                  .transpose(0, 3, 1, 2), kk, 1, 0)
    # tap r + m * s of w -> row (kk-1-m) of phase r; columns ordered (rh, rw, out)
    phases = w.reshape(ci, co, kk, s, kk, s)[:, :, ::-1, :, ::-1, :]
    phases = phases.transpose(2, 4, 0, 3, 5, 1).reshape(kk * kk * ci, s * s * co)
    y = (cols @ phases).reshape(n, qh, qw, s, s, co)
    del cols  # spent: free the patch matrix before the interleave copies y
    if b is not None:
        y += b
    y = y.transpose(0, 1, 3, 2, 4, 5).reshape(n, qh * s, qw * s, co)
    return y[:, crop:crop + oh, crop:crop + ow].transpose(0, 3, 1, 2)
