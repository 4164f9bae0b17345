import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genseg import autodiff as ad
from genseg import models
from genseg.autodiff import ParamGroup, bind, constant
from genseg.models import (DiscriminatorNet, GeneratorNet, SearchableCell, SegNet,
                           _conv_params, derive_architecture, predict_mask)
from genseg.tensor import ConvSpec


def dyadic(bound: float):
    """Floats in [-bound, bound] on the grid k * 2**-20."""
    return st.integers(-int(bound * 2**20), int(bound * 2**20)).map(lambda k: k * 2.0**-20)


def softmax(logits):
    e = np.exp(logits - np.max(logits))
    return e / np.sum(e)


def cell_entries(cell, rng):
    """The cell's candidate weights and biases, drawn from ``rng`` in row order."""
    return [entry for layer in cell.layers for entry in _conv_params(rng, *layer)]


def make_cell(seed=0, in_ch=2, out_ch=3, transposed=False):
    cell = SearchableCell("enc1", in_ch, out_ch, transposed)
    rng = np.random.default_rng(seed)
    params = {lbl: constant(arr) for lbl, arr in cell_entries(cell, rng)}
    return cell, params


def candidate_outputs(cell, params, x):
    """Each candidate evaluated individually (oracle for the mixture)."""
    return [ad.conv2d(constant(x), params[f"{cell.name}.{spec.name}.w"],
                      params[f"{cell.name}.{spec.name}.b"], spec).value
            for spec in cell.candidates]


class TestSearchableCell:
    def test_saturated_logits_select_single_candidate(self):
        cell, params = make_cell()
        x = np.random.default_rng(1).normal(size=(2, 2, 8, 8))
        out = cell.forward(params, constant(np.array([20.0, -20.0, -20.0])), constant(x))
        np.testing.assert_allclose(out.value, candidate_outputs(cell, params, x)[0], atol=1e-8)

    def test_equal_logits_give_arithmetic_mean(self):
        cell, params = make_cell(seed=2)
        x = np.random.default_rng(3).normal(size=(1, 2, 8, 8))
        out = cell.forward(params, constant(np.zeros(3)), constant(x))
        mean = sum(candidate_outputs(cell, params, x)) / 3.0
        np.testing.assert_allclose(out.value, mean, atol=1e-10)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_random_logits_match_recomputed_mixture(self, transposed):
        cell, params = make_cell(seed=4, transposed=transposed)
        rng = np.random.default_rng(5)
        logits = rng.normal(size=3)
        x = rng.normal(size=(2, 2, 8, 8))
        out = cell.forward(params, constant(logits), constant(x))
        weights = softmax(logits)
        want = sum(w * o for w, o in zip(weights, candidate_outputs(cell, params, x)))
        np.testing.assert_allclose(out.value, want, atol=1e-10)

    def test_mixture_gradient_reaches_logits(self):
        cell, _ = make_cell(seed=6)
        rng = np.random.default_rng(7)
        entries = cell_entries(cell, rng)
        params = {lbl: constant(arr) for lbl, arr in entries}
        a = ParamGroup("A", [("enc1.logits", rng.normal(size=3))])
        x = constant(rng.normal(size=(1, 2, 8, 8)))
        probe = constant(rng.normal(size=(1, 3, 4, 4)))

        def loss(b):
            return ad.dot(cell.forward(params, b["enc1.logits"], x), probe)

        b = bind(a)
        analytic = ad.flat_grad(loss(b), b)
        assert np.linalg.norm(analytic) > 1e-8
        from genseg.checks import fd_gradient
        numeric = fd_gradient(lambda v: float(loss(bind(a.unflatten(v))).value),
                              a.flatten(), h=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("pool, match", [
        # a stride-1 kernel that would sit inside the 8x8 one
        ((ConvSpec(4, 1, 1), ConvSpec(8, 2, 3)), "does not embed"),
        # padded 4, more than the 8x8 kernel's 3: it would start at offset -1
        ((ConvSpec(4, 2, 4), ConvSpec(8, 2, 3)), "do not nest"),
        # padded 0: it would end at 3 + 6 = 9, past the 8x8 kernel
        ((ConvSpec(6, 2, 0), ConvSpec(8, 2, 3)), "do not nest"),
    ], ids=["stride", "before_the_start", "past_the_end"])
    def test_a_pool_that_does_not_fit_its_largest_kernel_is_refused(self, monkeypatch, pool,
                                                                     match):
        monkeypatch.setattr(models, "DOWN_CANDIDATES", pool)
        with pytest.raises(ValueError, match=match):
            SearchableCell("enc1", 2, 3, transposed=False)


def chain_forward(cell, params, logits, x):
    """The cell's forward with its mixture as separate ops: per candidate a
    window of the softmax, an embed of a smaller kernel into the largest, a
    mul and an add, for the kernel and for the bias (reference for the
    mixture node)."""
    weights = ad.softmax(logits)
    big = cell.fused_spec
    w_eff = b_eff = None
    for idx, spec in enumerate(cell.candidates):
        wk = params[f"{cell.name}.{spec.name}.w"]
        bk = params[f"{cell.name}.{spec.name}.b"]
        off = big.padding - spec.padding
        if spec.kernel != big.kernel:
            span = slice(off, off + spec.kernel)
            wk = ad.embed(wk, (*wk.value.shape[:2], big.kernel, big.kernel),
                          (slice(None), slice(None), span, span))
        alpha = ad.window(weights, (slice(idx, idx + 1),))
        w_term, b_term = ad.mul(alpha, wk), ad.mul(alpha, bk)
        w_eff = w_term if w_eff is None else ad.add(w_eff, w_term)
        b_eff = b_term if b_eff is None else ad.add(b_eff, b_term)
    return ad.conv2d(x, w_eff, b_eff, big)


class TestMixtureNodeEqualsChain:
    """``SearchableCell.forward``'s mixture nodes against the chain of ops they
    replace: values, value-only gradients, and a create_graph gradient
    differentiated again. Values and the parts' gradients are compared with
    ``==``. The logits' gradient comes from ``window_dots``, which sums each
    part's products over its own window where the chain sums over the
    zero-embedded kernel, so it is compared within ``ROUNDOFF`` of the largest
    entry (at most 2.6e-15 over 40 cases, seeds 0-19 each way)."""

    ROUNDOFF = 1e-13

    @classmethod
    def assert_within_roundoff(cls, got, want):
        assert np.any(want)
        assert np.max(np.abs(got - want)) <= cls.ROUNDOFF * np.max(np.abs(want))

    @staticmethod
    def case(transposed, seed, squash=True):
        cell = SearchableCell("enc1", 2, 3, transposed)
        rng = np.random.default_rng(seed)
        # nonzero biases, so the bias mixture's gradient in the weights is too
        G = ParamGroup("G", [(lbl, arr + rng.normal(0, 0.1, arr.shape) if lbl.endswith(".b")
                              else arr) for lbl, arr in cell_entries(cell, rng)])
        A = ParamGroup("A", [(cell.logit_label(), rng.normal(size=len(cell.candidates)))])
        x = rng.normal(size=(2, 2, 6, 6))
        probe = rng.normal(size=cell.forward(bind(G), bind(A)["enc1.logits"],
                                             constant(x)).value.shape)

        def loss_fn(forward):
            def loss(ab, gb):
                y = forward(cell, gb, ab["enc1.logits"], constant(x))
                return ad.dot(ad.sigmoid(y) if squash else y, constant(probe))
            return loss

        return cell, G, A, loss_fn

    @pytest.mark.parametrize("transposed", [False, True], ids=["down", "up"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_value_and_value_only_gradients(self, transposed, seed):
        cell, G, A, loss_fn = self.case(transposed, seed)
        results = []
        for forward in (chain_forward, SearchableCell.forward):
            ab, gb = bind(A), bind(G)
            loss = loss_fn(forward)(ab, gb)
            grads = ad.backward(loss, [ab["enc1.logits"], *gb.values()])
            results.append((loss.value, grads))
        (chain_loss, chain_grads), (mix_loss, mix_grads) = results
        assert np.array_equal(mix_loss, chain_loss)
        assert len(mix_grads) == 1 + 2 * len(cell.candidates)
        self.assert_within_roundoff(mix_grads[0], chain_grads[0])
        for got, want in zip(mix_grads[1:], chain_grads[1:]):
            assert np.array_equal(got, want)

    @staticmethod
    def second_order(loss_fn, A, G, seed):
        """The two mixed products of a cell loss: the architecture's with
        the generator weights' gradient (what stage III's exact oracle takes
        through a cell) and the reverse block."""
        v = np.random.default_rng(seed + 10).normal(size=G.size)
        va = np.random.default_rng(seed + 20).normal(size=A.size)
        return (ad.mixed_hvp_exact(loss_fn, A, G, v),
                ad.mixed_hvp_exact(lambda gb, ab: loss_fn(ab, gb), G, A, va))

    @pytest.mark.parametrize("transposed", [False, True], ids=["down", "up"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_graph_gradient_differentiated_again(self, transposed, seed):
        # a loss linear in the cell output: the second backward reaches the
        # softmax weights only through the gradient graph, two terms per weight
        # the architecture's product is a logits gradient; the generator
        # weights' product reaches the parts through elementwise products only
        cell, G, A, loss_fn = self.case(transposed, seed, squash=False)
        (arch, weights), (chain_arch, chain_weights) = (
            self.second_order(loss_fn(forward), A, G, seed)
            for forward in (SearchableCell.forward, chain_forward))
        self.assert_within_roundoff(arch, chain_arch)
        assert np.any(weights)
        assert np.array_equal(weights, chain_weights)

    @pytest.mark.parametrize("transposed", [False, True], ids=["down", "up"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_graph_gradient_through_a_nonlinear_loss(self, transposed, seed):
        # through sigmoid the second backward also reaches each softmax weight
        # through both forward mixtures; the four terms add up in the order
        # the graph walk meets them, which the chain's shared weight slices
        # set differently, so the sums may differ in the last bit
        cell, G, A, loss_fn = self.case(transposed, seed)
        chain = self.second_order(loss_fn(chain_forward), A, G, seed)
        mixed = self.second_order(loss_fn(SearchableCell.forward), A, G, seed)
        for got, want in zip(mixed, chain):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_one_node_per_mixture(self):
        # the softmax, the two mixtures and the convolution
        cell, G, A, _ = self.case(False, 0)
        args = bind(G), constant(A.flatten()), constant(np.zeros((1, 2, 6, 6)))
        before = ad._next_id
        cell.forward(*args)
        assert ad._next_id - before == 4


class TestGenerator:
    def test_output_shape_and_range(self):
        gen = GeneratorNet(enc_cells=2, base_channels=4)
        G, A = gen.init_params(0)
        mask = np.zeros((1, 1, 16, 16))
        out = gen.forward(bind(G), bind(A), constant(mask))
        assert out.value.shape == (1, 1, 16, 16)
        assert np.all(out.value > -1) and np.all(out.value < 1)

    def test_deterministic_forward(self):
        gen = GeneratorNet(enc_cells=2, base_channels=4)
        G, A = gen.init_params(3)
        mask = (np.random.default_rng(1).uniform(size=(2, 1, 16, 16)) < 0.4).astype(float)
        a = gen.forward(bind(G), bind(A), constant(mask)).value
        b = gen.forward(bind(G), bind(A), constant(mask)).value
        assert np.array_equal(a, b)

    def test_too_small_extent_rejected(self):
        gen = GeneratorNet(enc_cells=3, base_channels=2)
        G, A = gen.init_params(0)
        with pytest.raises(ValueError):
            gen.forward(bind(G), bind(A), constant(np.zeros((1, 1, 4, 4))))

    @pytest.mark.parametrize("enc_cells", [1, 2, 3])
    @pytest.mark.parametrize("extent", [8, 16, 32])
    def test_output_matches_mask_shape(self, enc_cells, extent):
        gen = GeneratorNet(enc_cells=enc_cells, base_channels=2)
        G, A = gen.init_params(1)
        mask = np.zeros((1, 1, extent, extent))
        out = gen.forward(bind(G), bind(A), constant(mask))
        assert out.value.shape == mask.shape

    def test_saturated_mixture_equals_fixed_architecture_network(self):
        # one-hot logits reduce the searchable net to its selected candidates
        gen = GeneratorNet(enc_cells=2, base_channels=4)
        G, A = gen.init_params(7)
        choice = {lbl: i % 3 for i, (lbl, _) in enumerate(A.entries)}
        A_hot = ParamGroup("A", [(lbl, np.eye(3)[idx] * 60.0 - 30.0)
                                 for lbl, idx in choice.items()])
        mask = (np.random.default_rng(8).uniform(size=(2, 1, 16, 16)) < 0.3).astype(float)
        mixed = gen.forward(bind(G), bind(A_hot), constant(mask)).value

        fixed = fixed_generator_forward(gen, G, choice, mask)
        np.testing.assert_allclose(mixed, fixed, atol=1e-8)


def fixed_generator_forward(gen, G, choice, mask):
    """Reference network using only each cell's selected candidate."""
    g = {lbl: constant(arr) for lbl, arr in G.entries}

    def layer(x, name, spec):
        return constant(np.tanh(ad.conv2d(x, g[f"{name}.w"], g[f"{name}.b"], spec).value))

    x = constant(mask)
    skips = []
    for cell in gen.encoders:
        spec = cell.candidates[choice[cell.logit_label()]]
        x = layer(x, f"{cell.name}.{spec.name}", spec)
        skips.append(x)
    for j, cell in enumerate(gen.decoders, start=1):
        if j > 1:
            x = ad.concat([x, skips[gen.enc_cells - j]])
        spec = cell.candidates[choice[cell.logit_label()]]
        x = layer(x, f"{cell.name}.{spec.name}", spec)
    return layer(x, "head", ConvSpec(1, 1, 0)).value


class TestDiscriminator:
    def test_patch_logit_shape(self):
        disc = DiscriminatorNet(base_channels=4, depth=3)
        H = disc.init_params(0)
        out = disc.forward(bind(H), constant(np.zeros((1, 1, 16, 16))),
                           constant(np.zeros((1, 1, 16, 16))))
        assert out.value.shape == (1, 1, 2, 2)

    def test_zero_weights_zero_logits(self):
        disc = DiscriminatorNet(base_channels=4, depth=2)
        H = disc.init_params(0)
        zeros = ParamGroup("H", [(lbl, np.zeros_like(arr)) for lbl, arr in H.entries])
        out = disc.forward(bind(zeros), constant(np.ones((1, 1, 16, 16))),
                           constant(np.ones((1, 1, 16, 16))))
        np.testing.assert_array_equal(out.value, np.zeros_like(out.value))

    def test_sensitive_to_image(self):
        rng = np.random.default_rng(2)
        disc = DiscriminatorNet(base_channels=4, depth=2)
        H = disc.init_params(1)
        mask = constant((rng.uniform(size=(1, 1, 16, 16)) < 0.4).astype(float))
        a = disc.forward(bind(H), mask, constant(rng.normal(size=(1, 1, 16, 16)))).value
        b = disc.forward(bind(H), mask, constant(rng.normal(size=(1, 1, 16, 16)))).value
        assert not np.allclose(a, b)

    def test_spatial_mismatch_rejected(self):
        disc = DiscriminatorNet()
        H = disc.init_params(0)
        with pytest.raises(ValueError):
            disc.forward(bind(H), constant(np.zeros((1, 1, 16, 16))),
                         constant(np.zeros((1, 1, 8, 8))))


class TestSegNet:
    def test_logit_shape(self):
        seg = SegNet(base_channels=4)
        S = seg.init_params(0)
        out = seg.forward(bind(S), constant(np.zeros((3, 1, 16, 16))))
        assert out.value.shape == (3, 2, 16, 16)

    def test_argmax_shift_invariance(self):
        seg = SegNet(base_channels=4)
        S = seg.init_params(1)
        img = np.random.default_rng(2).normal(size=(1, 1, 16, 16))
        logits = seg.forward(bind(S), constant(img)).value
        np.testing.assert_array_equal(predict_mask(logits), predict_mask(logits + 3.7))

    def test_overfits_single_pair(self):
        # convergence pilot: one pair, plain gradient steps, dice >= 0.99
        from genseg.engine import seg_cross_entropy
        from genseg.metrics import overlap_scores
        from genseg.synthdata import gen_task
        ds = gen_task(seed=9, n=1, size=16)
        image, mask = ds[0].image[None], ds[0].mask[None]
        seg = SegNet(base_channels=8)
        S = seg.init_params(3)
        for _ in range(500):
            b = bind(S)
            loss = seg_cross_entropy(seg.forward(b, constant(image)), mask)
            grads = ad.backward(loss, list(b.values()))
            S = ParamGroup("S", [(lbl, arr - 0.5 * g)
                                 for (lbl, arr), g in zip(S.entries, grads)])
            pred = predict_mask(seg.forward(bind(S), constant(image)).value)
            if overlap_scores(pred, mask)[0][0] >= 0.99:
                break
        pred = predict_mask(seg.forward(bind(S), constant(image)).value)
        assert overlap_scores(pred, mask)[0][0] >= 0.99

    def test_from_params_round_trip(self):
        seg = SegNet(img_channels=1, base_channels=4)
        S = seg.init_params(0)
        rebuilt = SegNet.from_params(S)
        assert rebuilt.img_channels == 1
        assert (rebuilt.down, rebuilt.up, rebuilt.head) == (seg.down, seg.up, seg.head)
        img = constant(np.random.default_rng(1).normal(size=(1, 1, 16, 16)))
        np.testing.assert_array_equal(seg.forward(bind(S), img).value,
                                      rebuilt.forward(bind(S), img).value)

    @pytest.mark.parametrize("label", ["down1.w", "head.w", "down2.b", "up1.w", "up2.b"])
    def test_from_params_names_missing_layer(self, label):
        S = SegNet(base_channels=2).init_params(0)
        S = ParamGroup("S", [(lbl, arr) for lbl, arr in S.entries if lbl != label])
        with pytest.raises(ValueError, match=f"'{label}'"):
            SegNet.from_params(S)

    def test_from_params_names_misshapen_layer(self):
        S = SegNet(base_channels=2).init_params(0)
        S = ParamGroup("S", [(lbl, arr[:1] if lbl == "up1.b" else arr) for lbl, arr in S.entries])
        with pytest.raises(ValueError, match=r"'up1.b' has shape \(1,\)"):
            SegNet.from_params(S)


def params_hash(*groups) -> str:
    """First 16 hex digits of sha256 over each label and its <f8 bytes, in entry order."""
    h = hashlib.sha256()
    for group in groups:
        for label, arr in group.entries:
            h.update(label.encode())
            h.update(np.asarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("groups, want", [
    (lambda: GeneratorNet(enc_cells=3, base_channels=8).init_params(0), "f357f36cc2bf77ee"),
    (lambda: [DiscriminatorNet(base_channels=8, depth=3).init_params(0)], "7a4d00078b9474a4"),
    (lambda: [SegNet(base_channels=8).init_params(0)], "454b6f03ee256381"),
], ids=["generator", "discriminator", "segmenter"])
def test_initial_parameters_pinned(groups, want):
    # labels, shapes, values and draw order of every init_params, byte for byte
    assert params_hash(*groups()) == want


class TestDeriveArchitecture:
    def test_argmax_selection(self):
        a = ParamGroup("A", [("enc1.logits", np.array([0.1, 0.9, 0.2]))])
        assert derive_architecture(a) == {"enc1.logits": 1}

    def test_tie_breaks_to_lowest_index(self):
        a = ParamGroup("A", [("enc1.logits", np.zeros(3))])
        assert derive_architecture(a) == {"enc1.logits": 0}

    # Logits and shift lie on the grid k * 2**-20 with |x + c| < 2**6, so x + c
    # is exact in float64. Over arbitrary floats no index-valued rule can be
    # shift invariant: rounding x + c merges logits closer than one ulp of c
    # ([-3.7e-50, 0, 0] + 1.0 gives [1, 1, 1]), turning a strict winner into a tie.
    @given(st.lists(dyadic(5), min_size=3, max_size=3), dyadic(50))
    @example([0.75, 0.75, -2.0], 3.5)  # an exact tie survives the shift
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, logits, c):
        x = np.array(logits)
        shifted = x + c
        assert [Fraction(s) for s in shifted] == [Fraction(v) + Fraction(c) for v in logits]
        a1 = ParamGroup("A", [("x.logits", x)])
        a2 = ParamGroup("A", [("x.logits", shifted)])
        assert derive_architecture(a1) == derive_architecture(a2)
