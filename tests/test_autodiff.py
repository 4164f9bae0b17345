import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseg import autodiff as ad
from genseg import tensor
from genseg.autodiff import (Node, ParamGroup, backward, bind, constant, mixed_hvp_exact,
                             mixed_hvp_fd)
from genseg.checks import HVP_COSINE_TOL, HVP_RATIO_RANGE, check_hvp, cosine, fd_gradient
from genseg.engine import TrainConfig, Trainer, bce_with_logits, seg_cross_entropy
from genseg.models import (DOUBLE, DOWN_CANDIDATES, HALVE, HEAD, UP_CANDIDATES, DiscriminatorNet,
                           GeneratorNet, SegNet)
from genseg.synthdata import Dataset, gen_task
from genseg.tensor import ConvSpec


def tanh(a: Node) -> Node:
    """Tanh as a tape op, with the derivative node ``ad.conv2d_tanh`` uses.
    The networks take tanh only fused into a convolution; the reference
    chains below take it as a node of its own."""
    return Node(np.tanh(a.value), (a,), lambda out, g: (lambda: ad._dtanh(out, g),))


def two_layer_loss(binding, x, target):
    h = tanh(ad.conv2d(constant(x), binding["w1"], binding["b1"], ConvSpec(3, 1, 1)))
    y = ad.conv2d(h, binding["w2"], binding["b2"], ConvSpec(3, 1, 1))
    d = ad.sub(y, constant(target))
    return ad.mean_(ad.mul(d, d))


def random_net_group(seed):
    rng = np.random.default_rng(seed)
    return ParamGroup("G", [
        ("w1", rng.normal(0, 0.4, (3, 2, 3, 3))),
        ("b1", rng.normal(0, 0.1, 3)),
        ("w2", rng.normal(0, 0.4, (2, 3, 3, 3))),
        ("b2", rng.normal(0, 0.1, 2)),
    ]), rng


class TestBackward:
    def test_sum_of_squares(self):
        g = ParamGroup("G", [("x", np.array([1.0, 2.0]))])
        b = bind(g)
        grads = backward(ad.dot(b["x"], b["x"]), list(b.values()))
        np.testing.assert_allclose(grads[0], [2.0, 4.0])

    def test_constant_loss_gives_zeros(self):
        g = ParamGroup("G", [("x", np.array([1.0, 2.0]))])
        b = bind(g)
        grads = backward(constant(np.float64(5.0)), list(b.values()))
        np.testing.assert_array_equal(grads[0], [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(constant(np.zeros(3)), [])

    def test_two_layer_net_matches_finite_differences(self):
        group, rng = random_net_group(0)
        x = rng.normal(size=(2, 2, 5, 5))
        target = rng.normal(size=(2, 2, 5, 5))
        b = bind(group)
        analytic = ad.flat_grad(two_layer_loss(b, x, target), b)

        def f(vec):
            bb = bind(group.unflatten(vec))
            return float(two_layer_loss(bb, x, target).value)

        numeric = fd_gradient(f, group.flatten(), h=1e-5)
        denom = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / denom < 1e-6

    def test_gradient_linearity_of_sum(self):
        group, rng = random_net_group(1)
        x = rng.normal(size=(1, 2, 5, 5))
        t1 = rng.normal(size=(1, 2, 5, 5))
        t2 = rng.normal(size=(1, 2, 5, 5))
        b = bind(group)
        l1, l2 = two_layer_loss(b, x, t1), two_layer_loss(b, x, t2)
        g_sum = ad.flat_grad(ad.add(l1, l2), b)
        b2 = bind(group)
        g1 = ad.flat_grad(two_layer_loss(b2, x, t1), b2)
        b3 = bind(group)
        g2 = ad.flat_grad(two_layer_loss(b3, x, t2), b3)
        np.testing.assert_allclose(g_sum, g1 + g2, atol=1e-12)

    def test_replay_same_tape_bit_identical(self):
        group, rng = random_net_group(2)
        x = rng.normal(size=(1, 2, 5, 5))
        t = rng.normal(size=(1, 2, 5, 5))
        b = bind(group)
        loss = two_layer_loss(b, x, t)
        first = ad.flat_grad(loss, b)
        second = ad.flat_grad(loss, b)
        assert np.array_equal(first, second)

    def test_shared_subexpression_accumulates(self):
        g = ParamGroup("G", [("x", np.array([3.0]))])
        b = bind(g)
        # loss = x*x uses the same leaf twice: gradient must be 2x, not x
        grads = backward(ad.sum_(ad.mul(b["x"], b["x"])), list(b.values()))
        np.testing.assert_allclose(grads[0], [6.0])

    def test_interior_node_in_wrt_rejected(self):
        # its rule consumes an interior node's gradient, which would come
        # back as zeros
        x, w, b = (constant(np.ones(shape)) for shape in ((1, 1, 4, 4), (1, 1, 3, 3), (1,)))
        y = ad.conv2d(x, w, b, ConvSpec(3, 1, 1))
        with pytest.raises(ValueError, match="leaves only"):
            backward(ad.sum_(y), [w, y])


def walk_checking_creation_order(root: Node) -> int:
    """The number of nodes ``root`` reaches; fails on a node whose id is not
    above each of its parents' ids."""
    seen, stack = {root.id}, [root]
    while stack:
        node = stack.pop()
        for p in node.parents:
            assert p.id < node.id, f"{node} has parent {p}"
            if p.id not in seen:
                seen.add(p.id)
                stack.append(p)
    return len(seen)


class TestCreationOrder:
    # backward runs the rules in reverse id order, a topological order only
    # if every node is built after its parents

    def test_every_tape_of_a_genseg_iteration(self, monkeypatch):
        # the default networks at the benchmark's search32 shape (8 train and
        # 32 val pairs at 32 px), one iteration: each tape handed to one of
        # its seven backward calls, walked before the pass
        data = gen_task(seed=5, n=40, size=32)
        trainer = Trainer(TrainConfig(mode="genseg", iters=1, img_size=32),
                          Dataset(data.pairs[:8], split="train"),
                          Dataset(data.pairs[8:], split="val"))
        sizes, real = [], ad.backward

        def spied(loss, wrt, create_graph=False):
            sizes.append(walk_checking_creation_order(loss))
            return real(loss, wrt, create_graph)

        monkeypatch.setattr(ad, "backward", spied)
        trainer.train()
        # 463 nodes in all, leaves included: each cell's softmax is one node
        assert len(sizes) == 7 and sum(sizes) == 463

    def test_a_gradient_graph(self):
        # create_graph builds the gradients' nodes after the forward's, and
        # each from nodes that exist already
        for loss, leaves in network_losses(0):
            grads = backward(loss, leaves, create_graph=True)
            s = ad.dot(grads[0], grads[0])
            for g in grads[1:]:
                s = ad.add(s, ad.dot(g, g))
            assert walk_checking_creation_order(s) > walk_checking_creation_order(loss)


class TestSum:
    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axes", [None, 0, -1, (0, 2), (-1, 1)])
    def test_value_and_gradients(self, axes, keepdims):
        rng = np.random.default_rng(0)
        x = Node(rng.normal(size=(2, 3, 4)))
        out = ad.sum_(x, axes=axes, keepdims=keepdims)
        want = np.sum(x.value, axis=axes, keepdims=keepdims)
        assert out.value.shape == want.shape and np.array_equal(out.value, want)
        # each input element's gradient is g at the output element it is
        # summed into
        g = Node(rng.normal(size=want.shape))
        summed = set(range(3)) if axes is None else {a % 3 for a in np.atleast_1d(axes)}
        expected = np.empty(x.value.shape)
        for idx in np.ndindex(x.value.shape):
            at = [0 if d in summed else i for d, i in enumerate(idx)] if keepdims else \
                [i for d, i in enumerate(idx) if d not in summed]
            expected[idx] = g.value[tuple(at)]
        (gx,) = backward(ad.dot(out, g), [x])
        assert np.array_equal(gx, expected)
        # the differentiable gradient has the same value, and is linear in
        # g: its gradient in g against r sums r over the summed axes
        (gx_node,) = backward(ad.dot(ad.sum_(x, axes=axes, keepdims=keepdims), g), [x],
                              create_graph=True)
        assert np.array_equal(gx_node.value, expected)
        r = rng.normal(size=x.value.shape)
        (gg,) = backward(ad.dot(gx_node, constant(r)), [g])
        np.testing.assert_allclose(gg, np.sum(r, axis=axes, keepdims=keepdims), rtol=1e-14)


def network_losses(seed):
    """(loss, leaves) of a generator loss through the discriminator and of a
    segmenter loss, on small networks."""
    rng = np.random.default_rng(seed)
    masks = (rng.uniform(size=(2, 1, 8, 8)) < 0.4).astype(np.float64)
    images = rng.uniform(-0.9, 0.9, size=(2, 1, 8, 8))
    gen = GeneratorNet(enc_cells=1, base_channels=2)
    disc = DiscriminatorNet(base_channels=2, depth=2)
    seg = SegNet(base_channels=2)
    G, A = gen.init_params(seed)
    gb, ab, hb = bind(G), bind(A), bind(disc.init_params(seed + 1))
    m, i = constant(masks), constant(images)
    fake = gen.forward(gb, ab, m)
    l1 = ad.mean_(ad.absval(ad.sub(fake, i)))
    gan = ad.add(bce_with_logits(disc.forward(hb, m, fake), 1.0), ad.scale(l1, 100.0))
    sb = bind(seg.init_params(seed + 2))
    segl = seg_cross_entropy(seg.forward(sb, i), masks)
    return [(gan, [*gb.values(), *ab.values(), *hb.values()]), (segl, list(sb.values()))]


def identity_keeping_rule_output(rule_output: list):
    """An identity op whose backward rule builds ``tanh(g * a)`` and keeps it."""
    def op(a):
        def vjp(_, g):
            def thunk():
                rule_output.append(tanh(ad.mul(g, a)))
                return rule_output[-1]
            return (thunk,)
        return Node(a.value, (a,), vjp)
    return op


class TestNoTape:
    def test_restored_after_an_exception(self):
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_tape():
                assert not ad._recording
                raise RuntimeError("inside")
        assert ad._recording

    def test_nested_blocks_restore_the_outer_state(self):
        with ad.no_tape():
            with ad.no_tape():
                assert not ad._recording
            assert not ad._recording
            with pytest.raises(ValueError):
                with ad.no_tape():
                    raise ValueError
            assert not ad._recording
        assert ad._recording

    def test_nodes_have_no_parents_and_no_rule(self):
        # the same segmenter forward, taped and tape-free: equal values, and
        # no tape-free node links to anything
        seg = SegNet()
        s = seg.init_params(0)
        image = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        taped = seg.forward(bind(s), constant(image))
        with ad.no_tape():
            sb = bind(s)
            logits = seg.forward(sb, constant(image))
            built = [ad.sigmoid(logits), ad.concat([logits, logits]), ad.sum_(logits)]
        assert taped.parents and taped.vjp is not None
        assert logits.value.tobytes() == taped.value.tobytes()
        for node in [logits, *built, *sb.values()]:
            assert node.parents == () and node.vjp is None


class TestValueOnlyBackward:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_bytes_as_differentiable_backward(self, seed):
        for loss, leaves in network_losses(seed):
            values = backward(loss, leaves)
            nodes = backward(loss, leaves, create_graph=True)
            assert [v.tobytes() for v in values] == [n.value.tobytes() for n in nodes]
            assert any(n.parents for n in nodes)

    def test_rules_build_no_tape(self):
        x = Node(np.array([0.3, -0.7]))
        value_only, differentiable = [], []
        backward(ad.sum_(identity_keeping_rule_output(value_only)(x)), [x])
        backward(ad.sum_(identity_keeping_rule_output(differentiable)(x)), [x], create_graph=True)
        assert value_only[0].parents == () and value_only[0].vjp is None
        assert differentiable[0].parents and differentiable[0].vjp is not None

    def test_recording_restored_after_a_rule_raises(self):
        x = Node(np.array([0.3, -0.7]))

        def broken(_, g):
            ad.exp(g)  # built while recording is off
            raise RuntimeError("rule failed")

        with pytest.raises(RuntimeError, match="rule failed"):
            backward(ad.sum_(Node(x.value, (x,), broken)), [x])
        assert ad._recording
        y = tanh(x)
        assert y.parents == (x,) and y.vjp is not None
        (g,) = backward(ad.sum_(ad.mul(y, y)), [x])
        t = np.tanh(x.value)
        np.testing.assert_allclose(g, 2 * t * (1 - t * t), rtol=1e-14)


def bilinear_loss(pb, qb):
    # L = (p . q)^2
    s = ad.dot(pb["p"], qb["q"])
    return ad.mul(s, s)


class TestMixedHvp:
    def test_hand_computed_closed_form(self):
        # L = (p q)^2 at p=1, q=2: d/dq [dL/dp] = 4 p q = 8. The forward
        # difference of dL/dp = 2 p q^2 over a step d is (8 d + 2 d^2) / eps,
        # 8 + 2 eps at d = eps = 1e-6; d is the step q = 2 can represent
        p = ParamGroup("P", [("p", np.array([1.0]))])
        q = ParamGroup("Q", [("q", np.array([2.0]))])
        got = mixed_hvp_fd(bilinear_loss, p, q, np.array([1.0]))
        eps = 1e-6
        d = (2.0 + eps) - 2.0
        assert got[0] == pytest.approx((8 * d + 2 * d * d) / eps, abs=1e-9)
        exact = mixed_hvp_exact(bilinear_loss, p, q, np.array([1.0]))
        assert exact[0] == pytest.approx(8.0, abs=1e-12)

    def test_loss_independent_of_q_gives_zeros(self):
        p = ParamGroup("P", [("p", np.array([1.0, 2.0]))])
        q = ParamGroup("Q", [("q", np.array([3.0]))])

        def loss(pb, qb):
            return ad.dot(pb["p"], pb["p"])

        np.testing.assert_array_equal(mixed_hvp_fd(loss, p, q, np.ones(1)), np.zeros(2))

    def test_zero_vector_short_circuits(self):
        p = ParamGroup("P", [("p", np.array([1.0]))])
        q = ParamGroup("Q", [("q", np.array([2.0]))])
        np.testing.assert_array_equal(mixed_hvp_fd(bilinear_loss, p, q, np.zeros(1)), np.zeros(1))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_supplied_base_gradient_gives_same_bytes(self, seed):
        # the generator loss through the discriminator, P = A and Q = G as in
        # stage III
        rng = np.random.default_rng(seed)
        masks = (rng.uniform(size=(2, 1, 8, 8)) < 0.4).astype(np.float64)
        images = rng.uniform(-0.9, 0.9, size=(2, 1, 8, 8))
        gen = GeneratorNet(enc_cells=1, base_channels=2)
        disc = DiscriminatorNet(base_channels=2, depth=2)
        G, A = gen.init_params(seed)
        H = disc.init_params(seed + 1)

        def loss(ab, gb):
            m = constant(masks)
            fake = gen.forward(gb, ab, m)
            l1 = ad.mean_(ad.absval(ad.sub(fake, constant(images))))
            return ad.add(bce_with_logits(disc.forward(bind(H), m, fake), 1.0),
                          ad.scale(l1, 100.0))

        ab = bind(A)
        base = ad.flat_grad(loss(ab, bind(G)), ab)
        v = rng.normal(size=G.size)
        computed = mixed_hvp_fd(loss, A, G, v)
        assert np.any(computed)
        assert mixed_hvp_fd(loss, A, G, v, base).tobytes() == computed.tobytes()

    def test_fd_matches_exact_on_50_param_net(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 2))
        p = ParamGroup("P", [("w1", rng.normal(0, 0.5, (3, 4)))])   # 12
        q = ParamGroup("Q", [("w2", rng.normal(0, 0.5, (4, 2))),    # 8
                             ("w3", rng.normal(0, 0.5, (2, 2))),    # 4 -> wider below
                             ("w4", rng.normal(0, 0.5, (2, 13)))])  # 26: total 50
        assert p.size + q.size == 50

        def loss(pb, qb):
            h = tanh(ad.matmul(constant(x), pb["w1"]))
            o = ad.matmul(ad.matmul(ad.matmul(h, qb["w2"]), qb["w3"]), qb["w4"])
            d = ad.sub(ad.sum_(o, axes=1, keepdims=True), constant(y[:, :1]))
            return ad.mean_(ad.mul(d, d))

        v = rng.normal(size=q.size)
        fd = mixed_hvp_fd(loss, p, q, v)
        exact = mixed_hvp_exact(loss, p, q, v)
        assert cosine(fd, exact) >= 0.999

    @pytest.mark.parametrize("seed", range(10))
    def test_check_hvp_gate(self, seed):
        cos, ratio = check_hvp(seed)
        assert cos >= HVP_COSINE_TOL
        assert HVP_RATIO_RANGE[0] <= ratio <= HVP_RATIO_RANGE[1]

    @pytest.mark.parametrize("extent", [6, 7])
    @pytest.mark.parametrize("spec", DOWN_CANDIDATES + UP_CANDIDATES + (HEAD,),
                             ids=lambda spec: spec.name)
    def test_fd_matches_exact_through_kernel_gradient(self, spec, extent):
        # Q is a layer of the spec under test, so the exact product
        # differentiates its kernel gradient in both operands; at 7x7 the
        # strided specs' b-gradient crops past the natural extent
        rng = np.random.default_rng(extent)
        x = rng.normal(size=(2, 2, extent, extent))
        p = ParamGroup("P", [("w1", rng.normal(0, 0.5, (3, 2, 3, 3))),
                             ("b1", rng.normal(0, 0.1, 3))])
        q = ParamGroup("Q", [("w2", rng.normal(0, 0.5, spec.weight_shape(3, 2))),
                             ("b2", rng.normal(0, 0.1, 2))])
        n = spec.out_extent(extent)
        y = rng.normal(size=(2, 2, n, n))

        def loss(pb, qb):
            h = tanh(ad.conv2d(constant(x), pb["w1"], pb["b1"], ConvSpec(3, 1, 1)))
            d = ad.sub(ad.conv2d(h, qb["w2"], qb["b2"], spec), constant(y))
            return ad.mean_(ad.mul(d, d))

        v = rng.normal(size=q.size)
        fd = mixed_hvp_fd(loss, p, q, v)
        exact = mixed_hvp_exact(loss, p, q, v)
        assert cosine(fd, exact) >= HVP_COSINE_TOL
        lo, hi = HVP_RATIO_RANGE
        assert lo <= np.linalg.norm(fd) / np.linalg.norm(exact) <= hi

    def test_vector_length_mismatch(self):
        p = ParamGroup("P", [("p", np.zeros(2))])
        q = ParamGroup("Q", [("q", np.zeros(3))])
        with pytest.raises(ValueError):
            mixed_hvp_fd(bilinear_loss, p, q, np.zeros(2))


class TestParamGroup:
    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_flatten_unflatten_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(rng.integers(1, 4, size=rng.integers(1, 4))) for _ in range(3)]
        g = ParamGroup("S", [(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)])
        back = g.unflatten(g.flatten())
        assert [lbl for lbl, _ in back.entries] == [lbl for lbl, _ in g.entries]
        for (_, a), (_, b) in zip(g.entries, back.entries):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    def test_unflatten_wrong_length(self):
        g = ParamGroup("S", [("p", np.zeros((2, 2)))])
        with pytest.raises(ValueError):
            g.unflatten(np.zeros(5))

    def test_entries_are_views_of_one_read_only_buffer(self):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(2, 3)), rng.normal(size=4), rng.normal(size=())]
        g = ParamGroup("S", [(f"p{i}", a) for i, a in enumerate(arrays)])
        flat = g.flatten()
        assert flat.tobytes() == b"".join(a.tobytes() for a in arrays)
        assert not flat.flags.writeable
        for (_, entry), a in zip(g.entries, arrays):
            assert entry.base is flat or entry.base is flat.base
            assert entry.shape == a.shape and entry.tobytes() == a.tobytes()
        with pytest.raises(ValueError):
            g.entries[0][1][0, 0] = 1.0
        # the vector handed to unflatten becomes the new group's buffer
        vec = flat * 2.0
        h = g.unflatten(vec)
        assert h.flatten() is vec and not vec.flags.writeable
        assert [lbl for lbl, _ in h.entries] == ["p0", "p1", "p2"]


class TestConvPatches:
    # a forward convolution holds no patch matrix; its kernel-gradient rule
    # gathers the patches again from the input's value

    @pytest.mark.parametrize("create_graph", [False, True], ids=["value", "graph"])
    @pytest.mark.parametrize("spec", DOWN_CANDIDATES + (HEAD, ConvSpec(3, 1, 1)),
                             ids=lambda spec: spec.name)
    def test_kernel_gradient_is_the_gathered_product(self, spec, create_graph):
        rng = np.random.default_rng(spec.kernel)
        k, s, p = spec.kernel, spec.stride, spec.padding
        x = constant(rng.normal(size=(2, 3, 8, 8)))
        w = constant(rng.normal(size=spec.weight_shape(3, 4)))
        b = constant(rng.normal(size=4))
        n = spec.out_extent(8)
        g = rng.normal(size=(2, 4, n, n))
        y = ad.conv2d(x, w, b, spec)
        gw, gx = backward(ad.dot(y, constant(g)), [w, x], create_graph=create_graph)
        want = tensor.kernel_grad(g, tensor.im2col(x.value, k, s, p), s)
        got = gw.value if create_graph else gw
        assert got.tobytes() == want.tobytes()
        if create_graph:
            # second order through the re-gathered patches equals second
            # order through a kernel-gradient node given the patches
            r = constant(rng.normal(size=gw.value.shape))
            by_hand = ad._kernel_grad(constant(g), x, tensor.im2col(x.value, k, s, p), s, p)
            got2, = backward(ad.dot(gw, r), [x])
            want2, = backward(ad.dot(by_hand, r), [x])
            assert got2.tobytes() == want2.tobytes()

    def test_taped_forward_keeps_no_patch_matrix(self):
        # the fused cells' 8x8 stride-2 layer, whose full patch matrix
        # (N*OH*OW rows of K*K*C doubles) is 16x its input
        spec = ConvSpec(8, 2, 3)
        rng = np.random.default_rng(0)
        x = tanh(constant(rng.normal(size=(4, 4, 16, 16))))
        w = constant(rng.normal(size=spec.weight_shape(4, 8)))
        b = constant(rng.normal(size=8))
        cols = 4 * 8 * 8 * spec.kernel ** 2 * 4 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.conv2d(x, w, b, spec)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y.parents and y.vjp is not None
        assert grown < cols

    def test_transposed_backward_peaks_below_half_a_patch_matrix(self):
        # a value-only backward through the generator's dec3 layer, an 8x8
        # stride-2 transposed convolution (8, 16, 16, 16) -> (8, 8, 32, 32):
        # both kernel and input gradient gather the (8, 8, 32, 32) gradient,
        # whose full patch matrix is 8*16*16 rows of 8*8*8 doubles, 8.4 MB
        spec = UP_CANDIDATES[-1]
        rng = np.random.default_rng(0)
        x = constant(rng.normal(size=(8, 16, 16, 16)))
        w = constant(rng.normal(0, 0.1, size=spec.weight_shape(16, 8)))
        b = constant(rng.normal(0, 0.1, size=8))
        probe = constant(rng.normal(size=(8, 8, 32, 32)))
        loss = ad.dot(ad.conv2d_tanh(x, w, b, spec), probe)
        full = 8 * 16 * 16 * spec.kernel ** 2 * 8 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = backward(loss, [x, w, b])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(np.any(g) for g in grads)
        assert peak < full / 2


def held_by_forward(forward) -> int:
    """Traced bytes still held once ``forward()`` has built its node."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = forward()  # bound, so the node is alive while measured
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestConvTanh:
    # one node for a convolution followed by tanh, equal to the two nodes to
    # the bit, at every spec the models run it at
    SPECS = DOWN_CANDIDATES + UP_CANDIDATES + (HEAD,)

    @staticmethod
    def layer(spec, seed=0, extent=8):
        rng = np.random.default_rng(seed)
        x = constant(rng.normal(size=(2, 3, extent, extent)))
        w = constant(rng.normal(0, 0.3, size=spec.weight_shape(3, 4)))
        b = constant(rng.normal(0, 0.3, size=4))
        n = spec.out_extent(extent)
        probe = constant(rng.normal(size=(2, 4, n, n)))
        return x, w, b, probe

    @pytest.mark.parametrize("create_graph", [False, True], ids=["value", "graph"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_value_and_gradients_equal_the_two_nodes(self, spec, create_graph):
        x, w, b, probe = self.layer(spec)
        fused = ad.conv2d_tanh(x, w, b, spec)
        chain = tanh(ad.conv2d(x, w, b, spec))
        assert fused.value.tobytes() == chain.value.tobytes()
        assert fused.parents == (x, w, b)
        got, want = (backward(ad.dot(y, probe), [x, w, b], create_graph=create_graph)
                     for y in (fused, chain))
        for g, h in zip(got, want):
            g, h = (g.value, h.value) if create_graph else (g, h)
            assert np.any(g)
            assert g.tobytes() == h.tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_second_order_equals_the_two_nodes(self, spec):
        x, w, b, probe = self.layer(spec, seed=1)
        rng = np.random.default_rng(2)
        dirs = [constant(rng.normal(size=leaf.value.shape)) for leaf in (x, w, b)]
        results = []
        for conv_tanh in (ad.conv2d_tanh, lambda *a: tanh(ad.conv2d(*a))):
            grads = backward(ad.dot(conv_tanh(x, w, b, spec), probe), [x, w, b],
                             create_graph=True)
            s = ad.add(ad.add(ad.dot(grads[0], dirs[0]), ad.dot(grads[1], dirs[1])),
                       ad.dot(grads[2], dirs[2]))
            results.append(backward(s, [x, w, b]))
        for got, want in zip(*results):
            assert np.any(got)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "no-tape"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_one_node_per_layer(self, spec, taped):
        # the fused layer builds no node beyond the convolution's, so each
        # such layer of the networks counts once on the tape
        x, w, b, _ = self.layer(spec)
        built = []
        for layer in (ad.conv2d, ad.conv2d_tanh):
            with nullcontext() if taped else ad.no_tape():
                before = ad._next_id
                layer(x, w, b, spec)
                built.append(ad._next_id - before)
        assert built[1] == built[0]

    def test_value_only_under_no_tape(self):
        x, w, b, _ = self.layer(HEAD)
        with ad.no_tape():
            y = ad.conv2d_tanh(x, w, b, HEAD)
        assert y.parents == () and y.vjp is None

    @pytest.mark.parametrize("spec", [HALVE, DOUBLE], ids=lambda spec: spec.name)
    def test_taped_layer_holds_one_output(self, spec):
        # the convolution's output is dropped once tanh has read it
        x, w, b, _ = self.layer(spec, extent=64)
        out = ad.conv2d_tanh(x, w, b, spec).value.nbytes
        assert held_by_forward(lambda: tanh(ad.conv2d(x, w, b, spec))) >= 2 * out
        assert held_by_forward(lambda: ad.conv2d_tanh(x, w, b, spec)) < 1.5 * out

    def test_backward_lets_go_of_the_gradient_it_has_scaled(self):
        # segmenter's up2 shape and its head. The fused rule scales its
        # gradient and lets it go before the transposed convolution gathers
        # the scaled one's patches (8 MB), so the pass peaks at least one
        # 32x8x32x32 gradient below the two nodes' pass
        rng = np.random.default_rng(0)
        x = constant(rng.normal(size=(32, 16, 16, 16)))
        w = constant(rng.normal(0, 0.1, size=DOUBLE.weight_shape(16, 8)))
        b = constant(rng.normal(0, 0.1, size=8))
        hw = constant(rng.normal(size=HEAD.weight_shape(8, 2)))
        hb = constant(rng.normal(size=2))
        probe = constant(rng.normal(size=(32, 2, 32, 32)))

        def backward_peak(conv_tanh):
            tracemalloc.start()
            try:
                loss = ad.dot(ad.conv2d(conv_tanh(x, w, b, DOUBLE), hw, hb, HEAD), probe)
                tracemalloc.reset_peak()
                backward(loss, [x, w, b, hw, hb])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chain = backward_peak(lambda *a: tanh(ad.conv2d(*a)))
        fused = backward_peak(ad.conv2d_tanh)
        assert fused <= chain - 32 * 8 * 32 * 32 * 8


class TestTanhDerivativeNode:
    # one node for g * (1 - out**2), equal to the op chain it replaces

    @staticmethod
    def operands(seed=0):
        rng = np.random.default_rng(seed)
        x = constant(rng.normal(size=(2, 3, 5, 4)))
        g = constant(rng.normal(size=(2, 3, 5, 4)))
        probe = constant(rng.normal(size=(2, 3, 5, 4)))
        return x, g, probe

    @staticmethod
    def chain(out, g):
        return ad.mul(g, ad.shift(ad.neg(ad.mul(out, out)), 1.0))

    @pytest.mark.parametrize("create_graph", [False, True], ids=["value", "graph"])
    def test_value_and_gradients_equal_the_chain(self, create_graph):
        x, g, probe = self.operands()
        results = []
        for dtanh in (ad._dtanh, self.chain):
            y = dtanh(tanh(x), g)
            grads = backward(ad.dot(y, probe), [x, g], create_graph=create_graph)
            results.append([y.value, *(gr.value if create_graph else gr for gr in grads)])
        for got, want in zip(*results):
            assert np.any(got)
            assert np.array_equal(got, want)

    def test_one_node(self):
        x, g, _ = self.operands()
        out = tanh(x)
        before = ad._next_id
        y = ad._dtanh(out, g)
        assert ad._next_id - before == 1
        assert y.parents == (out, g)

    def test_second_order_near_the_chain(self):
        # the fused rule adds the two equal products into ``out`` before the
        # other gradients that reach it, so sums may round apart in the last
        # place
        x, g, probe = self.operands(1)
        rng = np.random.default_rng(2)
        dirs = [constant(rng.normal(size=leaf.value.shape)) for leaf in (x, g)]
        results = []
        for dtanh in (ad._dtanh, self.chain):
            gx, gg = backward(ad.dot(dtanh(tanh(x), g), probe), [x, g], create_graph=True)
            s = ad.add(ad.dot(gx, dirs[0]), ad.dot(gg, dirs[1]))
            results.append(backward(s, [x, g]))
        for got, want in zip(*results):
            assert np.any(want)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))



class TestWindowDots:
    # parts at their own offsets in a (2, 3, 4, 4) array, one of them
    # unwidened, as in checks.check_op_grads
    SHAPE = (2, 3, 4, 4)
    STARTS = ((0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0))
    PART_SHAPES = ((2, 3, 2, 2), (2, 3, 3, 2), (2, 3, 4, 4))
    WHERE = ad.windows(SHAPE, STARTS, PART_SHAPES)

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        return (constant(rng.normal(size=self.SHAPE)),
                [constant(rng.normal(size=shape)) for shape in self.PART_SHAPES],
                constant(rng.normal(size=len(self.STARTS))))

    def embed(self, part, start):
        for axis, s in enumerate(start):
            if part.value.shape[axis] != self.SHAPE[axis]:
                part = ad.pad_insert(part, (*self.SHAPE[:axis + 1], *part.value.shape[axis + 1:]),
                                     axis, s)
        return part

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_is_the_dot_with_each_embedded_part(self, seed):
        g, parts, _ = self.operands(seed)
        got = ad.window_dots(g, parts, self.WHERE).value
        assert got.shape == (len(parts),)
        for dot, part, start in zip(got, parts, self.STARTS):
            embedded = self.embed(part, start)
            want = ad.sum_(ad.mul(g, embedded)).value
            assert abs(dot - want) <= 1e-13 * np.sum(np.abs(g.value * embedded.value))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adjoint_of_the_mixture_in_its_weights(self, seed):
        # <mixture(c), g> = <c, window_dots(g)>
        g, parts, c = self.operands(seed)
        lhs = ad.dot(ad.mixture(c, parts, self.WHERE), g).value
        rhs = ad.dot(c, ad.window_dots(g, parts, self.WHERE)).value
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def canvas_mixture(weights, parts, shape, starts):
    """The mixture's value as weighted parts added onto a zero canvas, part
    by part: the reference for the nested sum."""
    out = np.zeros(shape)
    for k, (start, part) in enumerate(zip(starts, parts)):
        out[tuple(slice(s, s + n) for s, n in zip(start, part.shape))] += weights[k:k + 1] * part
    return out


class TestMixtureValue:
    # the searchable cells' kernel layout: 4x4, 6x6 and 8x8 kernels centred
    # in the 8x8 one, nested, and their biases, all of one window
    LAYOUTS = {
        "kernels": ((2, 3, 8, 8), ((0, 0, 2, 2), (0, 0, 1, 1), (0, 0, 0, 0)),
                    ((2, 3, 4, 4), (2, 3, 6, 6), (2, 3, 8, 8))),
        "biases": ((3,), ((0,), (0,), (0,)), ((3,), (3,), (3,))),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_equals_the_zero_canvas_to_the_byte(self, layout, seed):
        shape, starts, part_shapes = self.LAYOUTS[layout]
        where = ad.windows(shape, starts, part_shapes)
        rng = np.random.default_rng(seed)
        parts = [rng.normal(size=ps) for ps in part_shapes]
        # signed zeros: where every part's product is -0.0 the canvas holds
        # 0.0; exact zeros and negative weights elsewhere
        for part in parts:
            part[..., 1] = -0.0
            part[..., 0] = 0.0
            part[..., 2] = np.where(rng.uniform(size=part[..., 2].shape) < 0.5, 0.0, -0.0)
        for weights in (rng.normal(size=len(parts)), np.array([0.5, -0.0, 2.0]),
                        -np.abs(rng.normal(size=len(parts)))):
            got = ad.mixture(constant(weights), [constant(p) for p in parts], where).value
            want = canvas_mixture(weights, parts, shape, starts)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("starts, part_shapes", [
        # side by side, neither holding the other
        (((0, 0, 0, 0), (0, 0, 2, 2)), ((2, 3, 2, 2), (2, 3, 2, 2))),
        # nested, but the last part is not the whole
        (((0, 0, 1, 1), (0, 0, 0, 0)), ((2, 3, 2, 2), (2, 3, 3, 3))),
        # the whole first, then a part inside it
        (((0, 0, 0, 0), (0, 0, 1, 1)), ((2, 3, 4, 4), (2, 3, 2, 2))),
    ], ids=["apart", "not_whole", "outside_in"])
    def test_a_layout_that_does_not_nest_is_refused(self, starts, part_shapes):
        with pytest.raises(ValueError, match="do not nest"):
            ad.windows((2, 3, 4, 4), starts, part_shapes)


class TestSoftmaxNode:
    """``softmax``'s one node against the chain of ops it stands for."""

    @staticmethod
    def chain(a):
        z = ad.sub(a, constant(np.max(a.value, axis=-1, keepdims=True)))
        e = ad.exp(z)
        return ad.div(e, ad.sum_(e, axes=-1, keepdims=True))

    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_and_value_only_gradient(self, shape, seed):
        rng = np.random.default_rng(seed)
        a = constant(rng.normal(size=shape) * 3)
        probe = constant(rng.normal(size=shape))
        results = [(op(a).value, backward(ad.dot(ad.sigmoid(op(a)), probe), [a])[0])
                   for op in (ad.softmax, self.chain)]
        (value, grad), (chain_value, chain_grad) = results
        assert value.tobytes() == chain_value.tobytes()
        assert grad.tobytes() == chain_grad.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_graph_gradient_differentiated_again(self, seed):
        # the second backward adds up the terms reaching the logits in
        # another order than the chain's, so it may round apart
        rng = np.random.default_rng(seed)
        a, probe, v = (constant(rng.normal(size=4)) for _ in range(3))
        results = []
        for op in (ad.softmax, self.chain):
            (g,) = backward(ad.dot(ad.sigmoid(op(a)), probe), [a], create_graph=True)
            results.append(backward(ad.dot(g, v), [a])[0])
        got, want = results
        assert np.any(want)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_node(self):
        a = constant(np.zeros(3))
        before = ad._next_id
        ad.softmax(a)
        assert ad._next_id - before == 1


class TestChannelConcat:
    @pytest.mark.parametrize("layouts", [("hnwc", "hnwc"), ("nchw", "nchw"), ("hnwc", "nchw")])
    def test_equals_np_concatenate_in_hnwc_memory(self, layouts):
        rng = np.random.default_rng(len(layouts[0]) + len(layouts[1]))
        values = []
        for c, layout in zip((3, 5), layouts):
            x = rng.normal(size=(2, c, 4, 6))
            values.append(np.ascontiguousarray(x.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)
                          if layout == "hnwc" else x)
        out = ad.concat([constant(v) for v in values]).value
        want = np.concatenate(values, axis=1)
        assert out.shape == want.shape
        assert out.transpose(2, 0, 3, 1).flags.c_contiguous
        assert np.ascontiguousarray(out).tobytes() == want.tobytes()


class TestPerOpFiniteDifferences:
    def test_every_op_under_tolerance(self):
        from genseg.checks import check_op_grads
        errs = check_op_grads(seed=0)
        bad = {k: v for k, v in errs.items() if v >= 1e-5}
        assert not bad, f"ops over tolerance: {bad}"
        # each convolution spec is judged plain and as the fused tanh layer
        convs = [k for k in errs if k.startswith(("conv_", "upconv_", "head_"))]
        assert len(convs) == 20
        assert {k for k in convs if not k.endswith("_tanh")} == {k[:-5] for k in convs
                                                                 if k.endswith("_tanh")}

    def test_check_hvp_differentiates_the_fused_layer(self, monkeypatch):
        # the exact double-backward oracle runs through the fused rule at
        # each trial's hidden layer
        from genseg.checks import HVP_SPECS
        specs, conv2d_tanh = [], ad.conv2d_tanh
        monkeypatch.setattr(ad, "conv2d_tanh",
                            lambda x, w, b, spec: specs.append(spec) or conv2d_tanh(x, w, b, spec))
        check_hvp(0)
        assert set(specs) == {first for first, _ in HVP_SPECS}
