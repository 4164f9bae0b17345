"""Dense float64 kernels under the autodiff ops: overflow-safe sigmoid and
softplus, the convolution spec, the im2col/col2im pair, and the convolution
kernels built on im2col.

Every convolution, forward or adjoint, is an :func:`im2col` gather followed
by one stacked matrix product. The gather is the MEC lowering (Cho & Brand,
arXiv 1706.06873): it unfolds the input by width only, so each output
column holds its K padded input columns for every input row, about
Hp/(OH*K) of the bytes of a full patch matrix (a quarter for 8x8 stride 2).
An output pixel's patch is then a contiguous run of K lowered rows, and the
product runs one output row per stack item over a strided view of the
lowered array, without a copy. :func:`_product` is that product and its
bias add, the one step of every forward and transposed convolution.
:func:`conv` runs it on a caller's gather of strided patches, with the
kernel as a row-major (K*K*C, M) copy: the products are thin (1-32 output
channels), and OpenBLAS runs them up to 1.8 times as fast from a row-major
kernel matrix as from a column-major view of the kernel. A 1x1
stride-1 layer (the networks' heads, forward and transposed) lowers to its
input's (H, N, W, C) memory itself and runs one flat product, each element
formed as in the stacked product.
:func:`conv_transpose`, the input gradient of :func:`conv`, splits a stride-s
kernel into s*s flipped sub-pixel phases, runs them as one stride-1 product
and interleaves the phases (depth-to-space). :func:`kernel_grad`
multiplies a gradient by the patches of each output row and sums the rows
in order: as one stacked product when its (OH, C_a, K*K*C) stack of
products holds no more doubles than the gradient, else row by row, so the
stack never adds more than the gradient's size to a pass's peak. No
autodiff node calls the scatter-add :func:`col2im`; it stays as
:func:`im2col`'s adjoint reference.

Tensors are plain ``numpy.ndarray`` objects with dtype float64 (NCHW
indexing for image-shaped data). Convolution outputs are NCHW views of
(H, N, W, C) memory, the product's own row-major order; the next
:func:`im2col` copies them once, and a 1x1 head reads them in place. The
bias is added to the contiguous product before the NCHW view or the phase
interleave, in one pass over rows that each hold a whole image row of output
channels (the bias tiled to the row's width); each output element gets the
same one addition as a broadcast over the NCHW view, so the values are the
same to the bit. :func:`conv_transpose` frees its padded channels-last copy
once :func:`im2col` has read it, and its lowered input once the product has,
before the phase interleave copies the result. :func:`channel_sums`, a bias
gradient, sums such (H, N, W, C) memory in its own order, as long rows.
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
    """Unfold NCHW input by width into an (N, OW, Hp, K, C) array (MEC
    lowering, zero padding): entry [n, j, r] holds the K padded input
    columns j*stride .. j*stride+K-1 of padded row r, channels innermost.

    Output pixel (i, j)'s K*K*C patch is then the run of K rows from row
    i*stride, contiguous in memory; :func:`_patch_rows` views all patches as
    a stack of matrices, one per output row. The array holds about
    Hp/(OH*K) of the bytes of a full (N*OH*OW, K*K*C) patch matrix. It is
    copied from a channels-last copy of the padded input in runs of K*C
    doubles; an unpadded input whose memory is already channels-last is read
    in place. A 1x1, stride-1, unpadded layer's array is a view of (H, N, W,
    C) memory: the input's own, as convolution outputs are, or one copy of it
    laid out so.
    """
    n, c, _, w = x.shape
    ow = (w + 2 * padding - kernel) // stride + 1
    if kernel == stride == 1 and not padding:
        rows = x.transpose(2, 0, 3, 1)
        if not rows.flags.c_contiguous:
            rows = rows.copy()
        return rows.transpose(1, 2, 0, 3)[:, :, :, None]
    rows = x.transpose(0, 2, 3, 1)
    if padding or not rows.flags.c_contiguous:
        rows = _pad_channels_last(x, padding, padding, padding)
    sn, sh, sw, sc = rows.strides
    win = np.ndarray((n, ow, rows.shape[1], kernel, c), np.float64, rows, 0,
                     (sn, sw * stride, sh, sw, sc))
    return win.copy()


def _patch_rows(cols: Tensor, stride: int) -> Tensor:
    """(OH, N*OW, K*K*C) view of :func:`im2col`'s ``cols``: item i holds the
    patches of output row i, one per (image, output column), each a run of K
    lowered rows. Its row stride is Hp*K*C, so ``np.matmul`` hands every item
    to BLAS with that leading dimension, without a copy. A contiguous
    ``cols`` is viewed by ``np.ndarray`` over its buffer, several times
    cheaper per call than ``as_strided``, which a 1x1 layer's view needs.
    Its rows overlap for K > 1, so the view is read-only either way."""
    n, ow, hp, k, c = cols.shape
    _, sw, sh, _, sc = cols.strides
    shape, strides = ((hp - k) // stride + 1, n * ow, k * k * c), (sh * stride, sw, sc)
    if not cols.flags.c_contiguous:
        return np.lib.stride_tricks.as_strided(cols, shape, strides, writeable=False)
    rows = np.ndarray(shape, np.float64, cols, 0, strides)
    rows.flags.writeable = False
    return rows


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
    """Adjoint of :func:`im2col`: scatter-add lowered columns back to NCHW shape."""
    n, c, h, w = x_shape
    ow = cols.shape[1]
    acc = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=np.float64)
    for kw in range(kernel):
        acc[:, :, kw:kw + stride * ow:stride] += cols[:, :, :, kw].transpose(0, 2, 1, 3)
    out = np.empty((n, c, h, w), dtype=np.float64)
    np.copyto(out, acc[:, padding:padding + h, padding:padding + w, :].transpose(0, 3, 1, 2))
    return out


def _product(cols: Tensor, stride: int, wmat: Tensor, b: Tensor | None) -> Tensor:
    """(OH, N*OW, M) product of :func:`im2col`'s ``cols`` and a (K*K*C, M)
    kernel matrix whose columns run over the output channels innermost, plus
    the bias ``b`` (unless None) tiled along each image row of the product.

    A 1x1 stride-1 layer's ``cols`` is (H, N, W, C) memory, so its product
    is one flat (H*N*W, C) product, not one per output row. Every element is
    formed by the same operations as in the stacked product, so the values
    are the same to the bit.
    """
    n, ow, hp, k, c = cols.shape
    if k == stride == 1:
        flat = cols.transpose(2, 0, 1, 3, 4).reshape(hp * n * ow, c)  # a view
        y = (flat @ wmat).reshape(hp, n * ow, -1)
    else:
        y = _patch_rows(cols, stride) @ wmat
    if b is not None:
        rows = y.reshape(y.shape[0] * n, -1)  # a view: one image row per row
        rows += b[None].repeat(rows.shape[1] // b.size, axis=0).reshape(-1)  # b tiled
    return y


def conv(cols: Tensor, w: Tensor, b: Tensor | None, stride: int) -> Tensor:
    """Strided convolution with an (out, in, k, k) kernel and, unless ``b``
    is None, a bias of one entry per output channel.

    ``cols`` is ``im2col(x, k, stride, padding)`` of the NCHW input ``x``;
    the caller gathers it, so it may share one gather with a kernel
    gradient. The product runs one output row at a time, so the result is
    an NCHW view of (H, N, W, C) memory.

    The kernel matrix is one row-major (K*K*C, M) copy of ``w``, rows in
    patch order (kh, kw, c): OpenBLAS runs these thin products of 1-32
    output channels up to 1.8 times as fast from a row-major B operand as
    from a column-major view of ``w``. It is a copy also where the reshape
    alone would be a strided view: a 1x1 kernel, or one input channel.
    """
    n, ow = cols.shape[:2]
    co = w.shape[0]
    wmat = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(-1, co)
    y = _product(cols, stride, wmat, b)
    return y.reshape(y.shape[0], n, ow, co).transpose(1, 3, 0, 2)


def kernel_grad(a: Tensor, cols: Tensor, stride: int) -> Tensor:
    """(C_a, C_cols, k, k) kernel gradient: for each output row, NCHW ``a``'s
    pixels of that row times the row's patches in ``cols``
    (``im2col(b, k, stride, padding)``, which holds k), summed over the rows
    in order.

    Where the (OH, C_a, k*k*C_cols) stack of the rows' products holds no
    more doubles than ``a`` (k*k*C_cols <= N*OW), the products run as one
    stacked ``np.matmul``, one BLAS call per row as in the loop, summed
    over the rows in order by ``np.add.reduce``; the stack is then no larger
    than a gradient the pass already holds. A larger stack, as the
    generator's 8x8 cells would make (dec3's is four times its input),
    would raise the pass's peak, so there the sum accumulates row by row
    and no stack is held. The two give the same values to the bit."""
    oh, ch, k = a.shape[2], a.shape[1], cols.shape[3]
    per_row = a.transpose(2, 1, 0, 3).reshape(oh, ch, -1)  # a view for (H, N, W, C) memory
    patches = _patch_rows(cols, stride)
    if patches.shape[2] <= per_row.shape[2]:
        grad = np.add.reduce(per_row @ patches, axis=0)
    else:
        grad = per_row[0] @ patches[0]
        for i in range(1, oh):
            grad += per_row[i] @ patches[i]
    return grad.reshape(ch, k, k, -1).transpose(0, 3, 1, 2)


def channel_sums(x: Tensor) -> Tensor:
    """Per-channel sums of NCHW ``x`` over images, rows and columns: a bias
    gradient. When ``x``'s memory is (H, N, W, C), as a convolution's output
    is, it sums that memory as H*N rows of W*C doubles, then the W blocks of
    C, so each pass runs along long contiguous rows; otherwise it is
    ``np.sum(x, axis=(0, 2, 3))``. Summed by numpy, not by a BLAS product,
    whose rounding depends on how many threads split it."""
    n, c, h, w = x.shape
    rows = x.transpose(2, 0, 3, 1)
    if rows.flags.c_contiguous:
        return rows.reshape(h * n, w * c).sum(axis=0).reshape(w, c).sum(axis=0)
    return np.sum(x, axis=(0, 2, 3))


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
    s * s phases run as one :func:`_product`, then interleave and crop.
    The result, like :func:`conv`'s, is an NCHW view of (H, N, W, C) memory.
    """
    n, ci, h, wd = x.shape
    co, k = w.shape[1], w.shape[2]
    s = stride
    kk = k // s
    shift, crop = divmod(padding, s)
    oh, ow = extent
    qh, qw = -(-(crop + oh) // s), -(-(crop + ow) // s)  # phase rows and columns kept
    lo = kk - 1 - shift
    hi_h, hi_w = qh + kk - 1 - lo - h, qw + kk - 1 - lo - wd
    if lo == hi_h == hi_w == 0:  # nothing to pad, as for a 1x1 layer: no padded copy
        cols = im2col(x, kk, 1, 0)
    else:
        # the padded channels-last copy is freed once im2col has read it
        cols = im2col(_pad_channels_last(x, lo, hi_h, hi_w).transpose(0, 3, 1, 2), kk, 1, 0)
    # tap r + m * s of w -> row (kk-1-m) of phase r; columns ordered (rh, rw, out)
    phases = w.reshape(ci, co, kk, s, kk, s)[:, :, ::-1, :, ::-1, :]
    phases = phases.transpose(2, 4, 0, 3, 5, 1).reshape(kk * kk * ci, s * s * co)
    y = _product(cols, 1, phases, b)  # (qh, n * qw, s * s * co)
    del cols  # spent: free the lowered input before the interleave copies y
    y = y.reshape(qh, n, qw, s, s, co).transpose(0, 3, 1, 2, 4, 5).reshape(qh * s, n, qw * s, co)
    return y[crop:crop + oh, :, crop:crop + ow].transpose(1, 3, 0, 2)
