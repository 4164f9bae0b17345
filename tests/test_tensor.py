import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genseg import autodiff as ad
from genseg import tensor
from genseg.autodiff import constant
from genseg.engine import TrainConfig, Trainer
from genseg.models import DOUBLE, DOWN_CANDIDATES, HALVE, HEAD, UP_CANDIDATES
from genseg.synthdata import Dataset, gen_task
from genseg.tensor import ConvSpec, im2col, col2im

DOWN_SPECS = [ConvSpec(4, 2, 1), ConvSpec(6, 2, 2), ConvSpec(8, 2, 3)]
UP_SPECS = [ConvSpec(4, 2, 1, True), ConvSpec(6, 2, 2, True), ConvSpec(8, 2, 3, True)]


def conv2d(x, w, b, spec):
    """The autodiff convolution that the models run, on constant inputs."""
    return ad.conv2d(constant(x), constant(w), constant(b), spec).value


def softmax(logits):
    return ad.softmax(constant(logits)).value


def conv2d_reference(x, w, b, spec):
    """Direct six-loop convolution (or its transpose) used as the oracle."""
    n, c, h, wd = x.shape
    oh, ow = spec.out_extent(h), spec.out_extent(wd)
    if not spec.transposed:
        co = w.shape[0]
        out = np.zeros((n, co, oh, ow))
        for ni in range(n):
            for o in range(co):
                for i in range(c):
                    for yy in range(oh):
                        for xx in range(ow):
                            for kh in range(spec.kernel):
                                for kw in range(spec.kernel):
                                    sy = yy * spec.stride + kh - spec.padding
                                    sx = xx * spec.stride + kw - spec.padding
                                    if 0 <= sy < h and 0 <= sx < wd:
                                        out[ni, o, yy, xx] += x[ni, i, sy, sx] * w[o, i, kh, kw]
        return out + b[None, :, None, None]
    co = w.shape[1]
    out = np.zeros((n, co, oh, ow))
    # adjoint of the forward loop above with weight mapping co -> c
    for ni in range(n):
        for i in range(c):
            for o in range(co):
                for yy in range(h):
                    for xx in range(wd):
                        for kh in range(spec.kernel):
                            for kw in range(spec.kernel):
                                ty = yy * spec.stride + kh - spec.padding
                                tx = xx * spec.stride + kw - spec.padding
                                if 0 <= ty < oh and 0 <= tx < ow:
                                    out[ni, o, ty, tx] += x[ni, i, yy, xx] * w[i, o, kh, kw]
    return out + b[None, :, None, None]


class TestElementwise:
    # forward values of the autodiff ops
    def test_add(self):
        out = ad.add(constant([1.0, 2.0]), constant([3.0, 4.0]))
        np.testing.assert_array_equal(out.value, [4.0, 6.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(constant(np.zeros(3))).value[0] == 0.5

    def test_scalar_second_operand(self):
        out = ad.mul(constant([1.0, 2.0]), constant(3.0))
        np.testing.assert_array_equal(out.value, [3.0, 6.0])

    def test_does_not_mutate_inputs(self):
        a = np.array([1.0, -2.0])
        b = np.array([3.0, 4.0])
        ad.add(constant(a), constant(b))
        ad.sigmoid(constant(a))
        np.testing.assert_array_equal(a, [1.0, -2.0])
        np.testing.assert_array_equal(b, [3.0, 4.0])


class TestReduce:
    def test_sum_all(self):
        assert ad.sum_(constant([[1.0, 2.0], [3.0, 4.0]])).value == 10.0

    def test_mean(self):
        assert ad.mean_(constant([2.0, 4.0])).value == 3.0

    def test_sum_zeros(self):
        assert ad.sum_(constant(np.zeros((5, 5)))).value == 0.0

    def test_axis_reduce(self):
        out = ad.sum_(constant([[1.0, 2.0], [3.0, 4.0]]), axes=0)
        np.testing.assert_array_equal(out.value, [4.0, 6.0])

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            ad.sum_(constant(np.zeros((2, 2))), axes=5)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_hand_computed_log_inputs(self):
        # exp(ln k) = k, so softmax([ln1, ln2, ln3]) = [1/6, 2/6, 3/6]
        out = softmax(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.floats(-100, 100))
    def test_shift_invariance(self, logits, c):
        a = softmax(np.array(logits))
        b = softmax(np.array(logits) + c)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_large_logits_stable(self):
        out = softmax(np.array([1e4, 0.0]))
        assert np.all(np.isfinite(out)) and abs(out.sum() - 1) < 1e-12


class TestConvSpec:
    def test_conv421_shape(self):
        assert ConvSpec(4, 2, 1).out_extent(16) == 8

    def test_upconv622_shape(self):
        assert ConvSpec(6, 2, 2, True).out_extent(8) == 16

    def test_output_extent_below_one_rejected(self):
        with pytest.raises(ValueError):
            ConvSpec(8, 2, 3).out_extent(1)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_kernel_not_multiple_of_stride_rejected(self, transposed):
        with pytest.raises(ValueError, match="not a multiple of stride"):
            ConvSpec(3, 2, 1, transposed)

    @pytest.mark.parametrize("extent", range(4, 65, 2))
    def test_candidate_pool_halves_and_doubles(self, extent):
        for spec in DOWN_SPECS:
            assert spec.out_extent(extent) == extent // 2
        for spec in UP_SPECS:
            assert spec.out_extent(extent) == 2 * extent


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 1, 1))
        out = conv2d(x, w, np.zeros(1), ConvSpec(1, 1, 0))
        np.testing.assert_array_equal(out, x)

    def test_conv421_spatial(self):
        x = np.zeros((1, 1, 16, 16))
        w = np.zeros((3, 1, 4, 4))
        assert conv2d(x, w, np.zeros(3), ConvSpec(4, 2, 1)).shape == (1, 3, 8, 8)

    def test_upconv622_spatial(self):
        x = np.zeros((1, 2, 8, 8))
        w = np.zeros((2, 1, 6, 6))
        assert conv2d(x, w, np.zeros(1), ConvSpec(6, 2, 2, True)).shape == (1, 1, 16, 16)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d(np.zeros((1, 2, 8, 8)), np.zeros((3, 1, 4, 4)), np.zeros(3), ConvSpec(4, 2, 1))

    @pytest.mark.parametrize("spec, wshape", [(ConvSpec(4, 2, 1), (3, 1, 4, 4)),
                                              (ConvSpec(4, 2, 1, True), (1, 3, 4, 4))],
                             ids=["conv", "upconv"])
    def test_bias_length_mismatch(self, spec, wshape):
        with pytest.raises(ValueError, match="bias"):
            conv2d(np.zeros((1, 1, 8, 8)), np.zeros(wshape), np.zeros(1), spec)

    @pytest.mark.parametrize("spec, wshape", [(ConvSpec(4, 2, 1), (3, 1, 6, 6)),
                                              (ConvSpec(4, 2, 1, True), (1, 3, 4, 3))],
                             ids=["conv", "upconv"])
    def test_kernel_size_mismatch(self, spec, wshape):
        with pytest.raises(ValueError, match="kernel"):
            conv2d(np.zeros((1, 1, 8, 8)), np.zeros(wshape), np.zeros(3), spec)

    # extent 8 keeps the bare spec name as its id; (h + 2p - k) mod 2 != 0
    # at 5 and 7 for every strided spec
    @pytest.mark.parametrize(
        "spec, extent",
        [pytest.param(spec, extent, id=spec.name if extent == 8 else f"{spec.name}-{extent}")
         for spec in DOWN_SPECS + UP_SPECS + [ConvSpec(3, 1, 1)] for extent in (8, 5, 7)])
    def test_matches_loop_reference(self, spec, extent):
        rng = np.random.default_rng(extent)
        x = rng.normal(size=(2, 2, extent, extent))
        wshape = (2, 2, spec.kernel, spec.kernel)
        w = rng.normal(size=wshape)
        b = rng.normal(size=2)
        got = conv2d(x, w, b, spec)
        want = conv2d_reference(x, w, b, spec)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_loop_reference_5x5(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        np.testing.assert_allclose(conv2d(x, w, b, ConvSpec(3, 1, 1)),
                                   conv2d_reference(x, w, b, ConvSpec(3, 1, 1)), atol=1e-12)

    def test_does_not_mutate_input(self):
        x = np.ones((1, 1, 4, 4))
        conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), ConvSpec(3, 1, 1))
        np.testing.assert_array_equal(x, np.ones((1, 1, 4, 4)))


def im2col_reference(x, kernel, stride, padding):
    """The full (N*OH*OW, K*K*C) patch matrix, channel innermost: the
    lowering that :func:`tensor.im2col` replaces, kept as its oracle."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))).transpose(0, 2, 3, 1)
    cols = np.empty((n, oh, ow, kernel, kernel, c))
    for kh in range(kernel):
        for kw in range(kernel):
            cols[:, :, :, kh, kw] = xp[:, kh:kh + stride * oh:stride, kw:kw + stride * ow:stride]
    return cols.reshape(n * oh * ow, -1)


def col2im_reference(cols, x_shape, kernel, stride, padding):
    """Adjoint of :func:`im2col_reference`: scatter-add patches to NCHW."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    g = cols.reshape(n, oh, ow, kernel, kernel, c)
    acc = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    for kh in range(kernel):
        for kw in range(kernel):
            acc[:, kh:kh + stride * oh:stride, kw:kw + stride * ow:stride] += g[:, :, :, kh, kw]
    return acc[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)


# every gather the models run: the strided and 1x1 convolutions, and the
# stride-1 phase convolutions (kernels 2-4) inside conv_transpose
GATHERS = [(4, 2, 1), (6, 2, 2), (8, 2, 3), (1, 1, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0)]
# the forward convolutions; conv_transpose runs each as its adjoint
LOWERED = [ConvSpec(4, 2, 1), ConvSpec(6, 2, 2), ConvSpec(8, 2, 3), ConvSpec(1, 1, 0)]


def assert_close_to(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestIm2col:
    def test_col2im_is_adjoint(self):
        # <im2col(x), c> == <x, col2im(c)> characterizes the adjoint pair
        rng = np.random.default_rng(0)
        for (k, s, p), extent in itertools.product(GATHERS, (7, 8)):
            x = rng.normal(size=(2, 3, extent, extent))
            cols = im2col(x, k, s, p)
            c = rng.normal(size=cols.shape)
            lhs = np.sum(cols * c)
            rhs = np.sum(x * col2im(c, x.shape, k, s, p))
            assert abs(lhs - rhs) < 1e-12 * np.sum(np.abs(cols * c)), (k, s, p, extent)

    @pytest.mark.parametrize("layout", ["nchw", "hnwc"])
    @pytest.mark.parametrize("extent", [7, 8])
    @pytest.mark.parametrize("k, s, p", GATHERS, ids=lambda v: str(v))
    def test_holds_the_reference_patches(self, k, s, p, extent, layout):
        # output pixel (i, j)'s patch is the run of k lowered rows from row
        # i * s of lowered column j, whatever the memory order of the input
        # (convolution outputs are (H, N, W, C) memory)
        x = np.random.default_rng(extent).normal(size=(3, 2, extent, extent))
        if layout == "hnwc":
            x = np.ascontiguousarray(x.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)
        cols = im2col(x, k, s, p)
        hp = cols.shape[2]
        assert hp == extent + 2 * p
        oh = (hp - k) // s + 1
        patches = np.stack([cols[:, :, i * s:i * s + k] for i in range(oh)], axis=1)
        assert patches.tobytes() == im2col_reference(x, k, s, p).tobytes()

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("k, s, p", GATHERS, ids=lambda v: str(v))
    def test_patch_rows_are_a_read_only_view(self, k, s, p, contiguous):
        # the rows of a k > 1 view overlap in memory: a write through it would
        # change every patch that shares the element
        cols = im2col(np.random.default_rng(k).normal(size=(2, 3, 8, 8)), k, s, p)
        cols = (np.ascontiguousarray(cols) if contiguous
                else np.concatenate([cols, cols], axis=-1)[..., :cols.shape[-1]])
        rows = tensor._patch_rows(cols, s)
        assert cols.flags.c_contiguous == contiguous and np.shares_memory(rows, cols)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0, 0] = 1.0

    @pytest.mark.parametrize("spec", DOWN_SPECS + UP_SPECS, ids=lambda spec: spec.name)
    def test_head_reads_a_layer_output_in_place(self, spec):
        # a convolution's output, and its tanh, are (H, N, W, C) memory, which
        # a 1x1 head reads without a copy
        rng = np.random.default_rng(spec.kernel)
        x = constant(rng.normal(size=(3, 2, 8, 8)))
        y = ad.conv2d_tanh(x, constant(rng.normal(size=spec.weight_shape(2, 4))),
                           constant(rng.normal(size=4)), spec).value
        assert np.shares_memory(im2col(y, 1, 1, 0), y)



class TestChannelSums:
    @pytest.mark.parametrize("c", [1, 2, 8])
    @pytest.mark.parametrize("layout", ["nchw", "hnwc"])
    def test_matches_numpy_sum(self, layout, c):
        rng = np.random.default_rng(c)
        n, h, w = 3, 5, 6
        if layout == "nchw":
            x = rng.normal(size=(n, c, h, w))
        else:
            # an NCHW view of (H, N, W, C) memory, as convolutions return
            x = rng.normal(size=(h, n, w, c)).transpose(1, 3, 0, 2)
        got = tensor.channel_sums(x)
        assert got.shape == (c,)
        np.testing.assert_array_less(np.abs(got - np.sum(x, axis=(0, 2, 3))),
                                     1e-13 * np.sum(np.abs(x), axis=(0, 2, 3)))


class TestLowering:
    # the products on the lowered gather equal the full patch matrix's
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("extent", [7, 8])
    @pytest.mark.parametrize("spec", LOWERED, ids=lambda spec: spec.name)
    def test_products_match_the_full_patch_matrix(self, spec, extent, batch):
        rng = np.random.default_rng(spec.kernel + extent + batch)
        k, s, p = spec.kernel, spec.stride, spec.padding
        x = rng.normal(size=(batch, 3, extent, extent))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        o = spec.out_extent(extent)
        full = im2col_reference(x, k, s, p)
        w_mat = w.transpose(0, 2, 3, 1).reshape(4, -1)
        want = (full @ w_mat.T).reshape(batch, o, o, 4).transpose(0, 3, 1, 2) + b.reshape(1, -1, 1, 1)
        assert_close_to(tensor.conv(im2col(x, k, s, p), w, b, s), want)
        # the kernel gradient of a pixel-by-pixel gradient g
        g = rng.normal(size=(batch, 4, o, o))
        g_pix = g.transpose(0, 2, 3, 1).reshape(-1, 4)
        want = (g_pix.T @ full).reshape(4, k, k, 3).transpose(0, 3, 1, 2)
        assert_close_to(tensor.kernel_grad(g, im2col(x, k, s, p), s), want)
        # the transposed convolution of g back to x's extent: the scatter of
        # g's pixels times the kernel
        want = col2im_reference(g_pix @ w_mat, x.shape, k, s, p) + 0.5
        assert_close_to(tensor.conv_transpose(g, w, np.full(3, 0.5), s, p, (extent, extent)),
                        want)


class TestBiasInGemmLayout:
    # every spec the models run, at its natural extent, with 5 output
    # channels; the segmenter's 2-channel 1x1 head, whose product rows hold 2
    # biases per pixel; and the strided specs at 7x7, where
    # (7 + 2p - k) mod 2 != 0 and the transposed convolution crops past its
    # natural extent (as in checks.check_op_grads)
    CASES = ([pytest.param(spec, 8, 5, id=f"{tag}-{spec.name}")
              for tag, specs in (("cell", DOWN_CANDIDATES + UP_CANDIDATES),
                                 ("fixed", (HALVE, DOUBLE, HEAD)))
              for spec in specs]
             + [pytest.param(HEAD, 8, 2, id=f"seg-head-{HEAD.name}")]
             + [pytest.param(spec, 7, 5, id=f"7x7-{spec.name}")
                for spec in (ConvSpec(4, 2, 1), ConvSpec(8, 2, 3))])

    @pytest.mark.parametrize("spec, extent, co", CASES)
    def test_bias_added_in_product_equals_nchw_broadcast(self, spec, extent, co):
        # the bias added to the GEMM output gives, bit for bit, the bias-free
        # result plus a broadcast add over its NCHW view
        rng = np.random.default_rng(spec.kernel + extent)
        k, s, p = spec.kernel, spec.stride, spec.padding
        b = rng.normal(size=co)
        x = rng.normal(size=(3, 4, extent, extent))
        w = rng.normal(size=spec.weight_shape(4, co))
        if spec.transposed:
            ext = (spec.out_extent(extent),) * 2
            got = tensor.conv_transpose(x, w, b, s, p, ext)
            want = tensor.conv_transpose(x, w, None, s, p, ext)
        else:
            cols = im2col(x, k, s, p)
            got = tensor.conv(cols, w, b, s)
            want = tensor.conv(cols, w, None, s)
        want += b.reshape(1, -1, 1, 1)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        if not spec.transposed:
            # the transposed convolution back to the strided one's input
            # extent, as the input gradient runs it
            w = rng.normal(size=(4, co, k, k))
            g = rng.normal(size=(3, 4, spec.out_extent(extent), spec.out_extent(extent)))
            got = tensor.conv_transpose(g, w, b, s, p, (extent, extent))
            want = tensor.conv_transpose(g, w, None, s, p, (extent, extent))
            want += b.reshape(1, -1, 1, 1)
            assert got.shape == (3, co, extent, extent)
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def conv_transpose_interleaved(x, w, b, stride, padding, extent):
    """conv_transpose as all s*s sub-pixel phases over every phase row in one
    product, then interleaved (depth-to-space) and cropped: the kernel that
    the per-phase-row products replace, kept as their reference."""
    n, ci, h, wd = x.shape
    co, k = w.shape[1], w.shape[2]
    s = stride
    kk = k // s
    shift, crop = divmod(padding, s)
    oh, ow = extent
    qh, qw = -(-(crop + oh) // s), -(-(crop + ow) // s)
    lo = kk - 1 - shift
    xp = tensor._pad_channels_last(x, lo, qh + kk - 1 - lo - h, qw + kk - 1 - lo - wd)
    cols = im2col(xp.transpose(0, 3, 1, 2), kk, 1, 0)
    phases = w.reshape(ci, co, kk, s, kk, s)[:, :, ::-1, :, ::-1, :]
    phases = phases.transpose(2, 4, 0, 3, 5, 1).reshape(kk * kk * ci, s * s * co)
    y = tensor._product(cols, 1, phases, b)
    y = y.reshape(qh, n, qw, s, s, co).transpose(0, 3, 1, 2, 4, 5).reshape(qh * s, n, qw * s, co)
    return y[crop:crop + oh, :, crop:crop + ow].transpose(1, 3, 0, 2)


class TestPhaseRowProducts:
    # a strided conv_transpose runs one product per phase row over the output
    # rows it keeps, written into those rows of its output buffer. It equals
    # the phases interleaved after one product over every phase row: to the
    # byte at the segmenter's k4 s2 p1 shapes, and within rounding elsewhere,
    # where OpenBLAS may round a product with s*co columns differently from
    # one with s*s*co. A product written into a temporary would leave the
    # buffer's uninitialised memory in the output
    @pytest.mark.parametrize("x_shape, extent, bias", [
        ((16, 16, 8, 8), (16, 16), True),  # up1 forward, 8 -> 16 px
        ((16, 16, 16, 16), (32, 32), True),  # up2 forward, 16 -> 32 px
        ((16, 16, 8, 8), (16, 16), False),  # down2's input gradient
    ], ids=["up1", "up2", "down2-input-grad"])
    def test_equals_interleaved_phases_at_the_segmenter_shapes(self, x_shape, extent, bias):
        rng = np.random.default_rng(x_shape[2])
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(16, 8, 4, 4))
        b = rng.normal(size=8) if bias else None
        got = tensor.conv_transpose(x, w, b, 2, 1, extent)
        want = conv_transpose_interleaved(x, w, b, 2, 1, extent)
        assert got.shape == want.shape == (16, 8, *extent)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    # a forward spec's input gradient and its transposed twin run the same
    # conv_transpose, so each (kernel, stride, padding) is checked once
    STRIDED = sorted({(spec.kernel, spec.stride, spec.padding)
                      for spec in DOWN_CANDIDATES + UP_CANDIDATES + (HALVE, DOUBLE)})

    @pytest.mark.parametrize("past", [0, 1], ids=["natural", "adjoint"])
    @pytest.mark.parametrize("h, w", [(7, 7), (8, 8), (8, 4)])
    @pytest.mark.parametrize("k, s, p", STRIDED, ids=lambda v: str(v))
    def test_close_to_interleaved_phases(self, k, s, p, h, w, past):
        # from an h x w input to the natural output extent, or to the
        # adjoint's extent one row and one column past it, as the input
        # gradient of a convolution from that extent runs it
        rng = np.random.default_rng(100 * k + 10 * h + w + past)
        x = rng.normal(size=(3, 4, h, w))
        wt = rng.normal(size=(4, 5, k, k))
        b = rng.normal(size=5)
        extent = tuple((e - 1) * s - 2 * p + k + past for e in (h, w))
        assert_close_to(tensor.conv_transpose(x, wt, b, s, p, extent),
                        conv_transpose_interleaved(x, wt, b, s, p, extent))


class TestOneByOneProducts:
    # a 1x1 stride-1 layer's product is one flat product over (H, N, W, C)
    # memory, also with a single input channel; each equals, to the byte, the
    # product stacked over output rows that every other layer runs. The
    # input has exact and signed zeros
    @staticmethod
    def stacked(x, wmat):
        n, _, h, w = x.shape
        y = tensor._patch_rows(im2col(x, 1, 1, 0), 1) @ wmat
        return y.reshape(h, n, w, -1).transpose(1, 3, 0, 2)

    @pytest.mark.parametrize("layout", ["hnwc", "nchw"])
    @pytest.mark.parametrize("c, m", [(8, 2), (8, 1), (1, 8), (1, 1), (3, 5)])
    @pytest.mark.parametrize("n, h, w", [(8, 32, 32), (3, 5, 7)])
    def test_conv_and_conv_transpose_heads(self, layout, c, m, n, h, w):
        rng = np.random.default_rng(100 * c + 10 * m + h)
        x = rng.normal(size=(n, c, h, w))
        x[rng.uniform(size=x.shape) < 0.1] = 0.0
        x[rng.uniform(size=x.shape) < 0.1] = -0.0
        if layout == "hnwc":  # an NCHW view of (H, N, W, C) memory, as convolutions return
            x = np.ascontiguousarray(x.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)
        wt = rng.normal(size=(m, c, 1, 1))
        wt[0, 0] = -0.0
        got = tensor.conv(im2col(x, 1, 1, 0), wt, None, 1)
        want = self.stacked(x, np.ascontiguousarray(wt.reshape(m, c).T))  # row-major, as conv's
        assert got.shape == want.shape == (n, m, h, w)
        assert got.transpose(2, 0, 3, 1).flags.c_contiguous
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        # the transposed head, with an (in, out) kernel, as an input gradient runs it
        wt = rng.normal(size=(c, m, 1, 1))
        got = tensor.conv_transpose(x, wt, None, 1, 0, (h, w))
        want = self.stacked(x, wt.reshape(c, m))
        assert got.shape == want.shape == (n, m, h, w)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestKernelMatrixLayout:
    # conv hands _product its kernel as one row-major (K*K*C, M) array, the
    # layout OpenBLAS runs these thin products fastest from: at every spec
    # the networks run forward, and at each transposed spec's input gradient,
    # which autodiff runs as conv. One input channel (the mask input) and
    # the 1x1 heads are the kernels whose reshape would otherwise be a view
    SPECS = tuple(dict.fromkeys(DOWN_CANDIDATES + UP_CANDIDATES + (HALVE, DOUBLE, HEAD)))

    @pytest.mark.parametrize("c, m", [(1, 8), (8, 16), (16, 32), (8, 2), (32, 1)])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_conv_hands_a_row_major_kernel_matrix(self, monkeypatch, spec, c, m):
        rng = np.random.default_rng(spec.kernel + c + m)
        x = ad.Node(rng.normal(size=(2, c, 8, 8)))
        w, b = constant(rng.normal(size=spec.weight_shape(c, m))), constant(rng.normal(size=m))
        seen, product = [], tensor._product

        def captured(cols, stride, wmat, bias):
            seen.append(wmat)
            return product(cols, stride, wmat, bias)

        if spec.transposed:  # only the input gradient, a conv with the (in, out) kernel
            y = ad.conv2d(x, w, b, spec)
            monkeypatch.setattr(tensor, "_product", captured)
            ad.backward(ad.sum_(y), [x])
            shape = (spec.kernel ** 2 * m, c)
        else:
            monkeypatch.setattr(tensor, "_product", captured)
            ad.conv2d(x, w, b, spec)
            shape = (spec.kernel ** 2 * c, m)
        assert len(seen) == 1
        assert seen[0].shape == shape
        assert seen[0].flags.c_contiguous


class TestKernelGradSum:
    # kernel_grad runs its per-output-row products as one stacked product
    # where that stack holds no more doubles than the gradient, and row by
    # row otherwise; either way it equals, to the byte, the rows' products
    # summed in order. Checked on every kernel gradient that one search32
    # iteration and one baseline step run, as they run them
    @staticmethod
    def row_by_row(a, cols, stride):
        oh, ch, k = a.shape[2], a.shape[1], cols.shape[3]
        per_row = a.transpose(2, 1, 0, 3).reshape(oh, ch, -1)
        patches = tensor._patch_rows(cols, stride)
        grad = per_row[0] @ patches[0]
        for i in range(1, oh):
            grad += per_row[i] @ patches[i]
        return grad.reshape(ch, k, k, -1).transpose(0, 3, 1, 2)

    @pytest.mark.parametrize("mode, n_train, n_val", [("genseg", 8, 32), ("baseline", 16, 4)])
    def test_equals_the_rows_summed_in_order(self, monkeypatch, mode, n_train, n_val):
        data = gen_task(seed=2, n=n_train + n_val, size=32)
        trainer = Trainer(TrainConfig(mode=mode, iters=1, img_size=32, seed=2),
                          Dataset(data.pairs[:n_train], split="train"),
                          Dataset(data.pairs[n_train:], split="val"))
        sides, kernel_grad = set(), tensor.kernel_grad

        def compared(a, cols, stride):
            got = kernel_grad(a, cols, stride)
            want = self.row_by_row(a, cols, stride)
            stacked = cols.shape[3] ** 2 * cols.shape[4] <= a.shape[0] * a.shape[3]
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), \
                (a.shape, cols.shape, stride, stacked)
            sides.add(stacked)
            return got

        monkeypatch.setattr(tensor, "kernel_grad", compared)
        trainer.train()
        # search32's iteration runs both sides of the size rule (the
        # generator's 8x8 cells row by row); a baseline step stacks every one
        assert sides == ({True, False} if mode == "genseg" else {True})
