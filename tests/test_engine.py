import gc
import math
import os
import platform
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genseg import autodiff as ad
from genseg import engine as eng
from genseg import metrics as met
from genseg import tensor
from genseg.autodiff import ParamGroup, bind, constant
from genseg.checks import (HVP_COSINE_TOL, HVP_RATIO_RANGE, HYPER_COSINE_TOL, cosine,
                           hypergrad_agreement, rel_error, tiny_instance)
from genseg.autodiff import Node
from genseg.engine import (CONFIG_KEYS, ConfigError, TrainConfig, Trainer, TrainingAborted,
                           bce_with_logits, config_digest, parse_config,
                           resolved_config_text, seg_cross_entropy)
from genseg.metrics import records_to_csv
from genseg.models import DiscriminatorNet, GeneratorNet, SegNet, predict_mask
from genseg.synthdata import Dataset, MaskImagePair, gen_task


def small_setup(seed=0, n_train=4, n_val=2, size=8, mode="genseg", **kw):
    cfg = TrainConfig(mode=mode, seed=seed, iters=0, img_size=size, enc_cells=1,
                      base_channels=2, **kw)
    data = gen_task(seed=seed + 50, n=n_train + n_val, size=size)
    train = Dataset(data.pairs[:n_train], split="train")
    val = Dataset(data.pairs[n_train:], split="val")
    return Trainer(cfg, train, val), train, val


def group_blob(group: ParamGroup) -> bytes:
    return b"".join(arr.tobytes() for _, arr in group.entries)


class TestConfig:
    def test_all_keys_parse(self):
        pairs = [
            ("mode", "separate"), ("seed", "3"), ("iters", "17"), ("img_size", "16"),
            ("enc_cells", "2"), ("base_channels", "4"),
            ("eta_g", "0.001"), ("eta_h", "0.002"), ("eta_s", "0.3"), ("eta_a", "0.0001"),
            ("gamma", "2.0"), ("lambda_l1", "50"), ("data_dir", "/tmp/d"), ("out_dir", "/tmp/o"),
        ]
        # every config key is exercised, and the keys are the fields
        assert [k for k, _ in pairs] == CONFIG_KEYS
        assert CONFIG_KEYS == [f.name for f in fields(TrainConfig)]
        cfg = parse_config("\n".join(f"{k} = {v}" for k, v in pairs))
        assert cfg.mode == "separate" and cfg.seed == 3 and cfg.iters == 17
        assert cfg.data_dir == "/tmp/d" and cfg.out_dir == "/tmp/o"
        assert cfg.lambda_l1 == 50.0 and cfg.gamma == 2.0

    def test_unknown_key_named_in_error(self):
        for key, value in (("etaa_g", "0.1"), ("hypergrad_backend", "exact"),
                           ("eps_scale", "0.01"), ("augment.rotate", "true")):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                parse_config(f"{key} = {value}")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full line comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="iters"):
            parse_config("iters = many")

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            parse_config("mode = turbo")

    def test_resolved_text_round_trips(self):
        # every accepted path reads back, inner blanks, '=' and tabs included
        for path in ("/data/a", "", "/tmp/run 1", "runs/a=b", "données/ü", "a\tb"):
            cfg = TrainConfig(seed=5, gamma=2.5, mode="separate", data_dir=path, out_dir=path)
            assert parse_config(resolved_config_text(cfg)) == cfg

    @pytest.mark.parametrize("path", ["/tmp/run#1", " /tmp/d ", "/tmp/d\n", "\tx", "a\nb",
                                      "a\rb", "a\u2028b"])
    @pytest.mark.parametrize("key", ["data_dir", "out_dir"])
    def test_path_that_would_not_read_back_rejected(self, key, path):
        # parse_config cuts a line at '#' and strips the value, so the
        # resolved config of such a path would name another one
        with pytest.raises(ValueError, match=f"^{key} must hold no '#'"):
            TrainConfig(**{key: path})
        with pytest.raises(ConfigError, match=f"^{key} must hold no '#'"):
            parse_config("", {key: path})

    def test_digest_sensitive_to_values(self):
        assert config_digest(TrainConfig(seed=1)) != config_digest(TrainConfig(seed=2))

    def test_default_digest_pinned(self):
        # the key list and the digest text it feeds are derived from the fields
        assert config_digest(TrainConfig()) == "7a2d1115a9c1dc11"

    def test_digest_ignores_paths(self):
        a = TrainConfig(data_dir="/data/a", out_dir="/runs/a")
        b = TrainConfig(data_dir="/data/b", out_dir="/runs/b")
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(replace(a, seed=1))

    @pytest.mark.parametrize("key, value", [
        ("enc_cells", "0"), ("base_channels", "0"), ("base_channels", "-2"),
        ("img_size", "0"), ("img_size", "12"), ("img_size", "4"), ("seed", "-1"),
    ])
    def test_structural_value_named_in_error(self, key, value):
        # the default enc_cells = 3 needs img_size >= 8
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["eta_g", "eta_h", "eta_s", "eta_a", "gamma", "lambda_l1"])
    def test_non_finite_value_named_in_error(self, key, value):
        # nan < 0 is False, so a sign check alone lets NaN through
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}")

    def test_img_size_below_the_segmenter_depth_named_in_error(self):
        # one encoder cell halves 2 px once, but the segmenter's two down
        # layers need 4 px
        with pytest.raises(ConfigError, match="img_size"):
            parse_config("img_size = 2\nenc_cells = 1")

    def test_smallest_extent_for_enc_cells_accepted(self):
        cfg = parse_config("img_size = 4\nenc_cells = 2\nbase_channels = 1")
        assert (cfg.img_size, cfg.enc_cells, cfg.base_channels) == (4, 2, 1)


class TestLosses:
    def test_bce_of_zero_logits(self):
        logits = constant(np.zeros((2, 1, 3, 3)))
        assert float(bce_with_logits(logits, 1.0).value) == pytest.approx(math.log(2))
        assert float(bce_with_logits(logits, 0.0).value) == pytest.approx(math.log(2))

    def test_seg_ce_uniform_logits(self):
        logits = constant(np.zeros((2, 2, 4, 4)))
        masks = (np.random.default_rng(0).uniform(size=(2, 1, 4, 4)) < 0.5).astype(float)
        assert float(seg_cross_entropy(logits, masks).value) == pytest.approx(math.log(2))

    def test_seg_ce_perfect_logits_near_zero(self):
        masks = (np.random.default_rng(1).uniform(size=(1, 1, 4, 4)) < 0.5).astype(float)
        logits = np.concatenate([(1 - masks) * 50, masks * 50], axis=1)
        assert float(seg_cross_entropy(constant(logits), masks).value) < 1e-9


def log(a: Node) -> Node:
    """Natural log as a tape op; training never takes one, the reference
    chain below does."""
    return Node(np.log(a.value), (a,), lambda _, g: (lambda: ad.div(g, a),))


def reduced_seg_cross_entropy(logits, masks):
    """The segmentation loss with its log-sum-exp reduced along the class axis."""
    m = constant(np.asarray(masks, dtype=np.float64))
    z0 = ad.window(logits, (slice(None), slice(0, 1)))
    z1 = ad.window(logits, (slice(None), slice(1, 2)))
    zt = ad.add(ad.mul(m, z1), ad.mul(ad.shift(ad.neg(m), 1.0), z0))
    top = constant(np.max(logits.value, axis=1, keepdims=True))
    lse = ad.add(log(ad.sum_(ad.exp(ad.sub(logits, top)), axes=1, keepdims=True)), top)
    return ad.mean_(ad.sub(lse, zt))


class TestLossFromClassPlanes:
    """The two-plane log-sum-exp equals the class-axis reduction bit for bit."""

    @staticmethod
    def make_logits(kind, rng):
        if kind == "segnet":
            # what training passes in: an NCHW view of channels-last memory
            seg = SegNet(base_channels=2)
            images = constant(rng.uniform(-1, 1, size=(3, 1, 8, 8)))
            logits = seg.forward(bind(seg.init_params(5)), images).value
            assert not logits.flags["C_CONTIGUOUS"]
            return logits
        if kind == "ties":
            z = rng.normal(0, 3, size=(3, 1, 8, 8))
            z[0, 0, :4] = 0.0
            return np.concatenate([z, z], axis=1)
        return rng.choice([-800.0, 800.0], size=(3, 2, 8, 8))

    @staticmethod
    def make_masks(kind, rng):
        if kind == "zeros":
            return np.zeros((3, 1, 8, 8))
        if kind == "ones":
            return np.ones((3, 1, 8, 8))
        return (rng.uniform(size=(3, 1, 8, 8)) < 0.4).astype(np.float64)

    @pytest.mark.parametrize("mask_kind", ["random", "zeros", "ones"])
    @pytest.mark.parametrize("logit_kind", ["segnet", "ties", "wide"])
    def test_value_gradient_and_second_order_equal(self, logit_kind, mask_kind):
        rng = np.random.default_rng(7)
        logits = self.make_logits(logit_kind, rng)
        masks = self.make_masks(mask_kind, rng)
        probe = constant(rng.normal(0, 1, size=logits.shape))
        results = []
        for loss_fn in (seg_cross_entropy, reduced_seg_cross_entropy):
            leaf = constant(logits)
            loss = loss_fn(leaf, masks)
            (grad,) = ad.backward(loss, [leaf])
            leaf = constant(logits)
            (g_node,) = ad.backward(loss_fn(leaf, masks), [leaf], create_graph=True)
            (second,) = ad.backward(ad.dot(g_node, probe), [leaf])
            results.append((loss.value, grad, g_node.value, second))
        for new, old in zip(*results):
            assert np.isfinite(new).all()
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("logit_kind", ["segnet", "ties", "wide"])
    def test_gradient_is_a_view_of_channels_last_memory(self, logit_kind):
        # the channel join writes (H, N, W, C) memory, which the 1x1 head's
        # backward reads in place; value-only and under create_graph
        rng = np.random.default_rng(7)
        logits = self.make_logits(logit_kind, rng)
        masks = self.make_masks("random", rng)
        leaf = constant(logits)
        (grad,) = ad.backward(seg_cross_entropy(leaf, masks), [leaf])
        leaf = constant(logits)
        (g_node,) = ad.backward(seg_cross_entropy(leaf, masks), [leaf], create_graph=True)
        for g in (grad, g_node.value):
            assert g.shape == logits.shape
            assert g.transpose(2, 0, 3, 1).flags.c_contiguous

    def test_nan_logit_gives_nan_loss(self):
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 1, 1, 0] = np.nan
        loss = seg_cross_entropy(constant(logits), np.ones((1, 1, 2, 2)))
        with pytest.raises(TrainingAborted, match="seg loss became non-finite"):
            eng._check_loss(loss, "seg loss", 3)

    def test_one_node_on_the_logits(self):
        rng = np.random.default_rng(3)
        logits = ad.sigmoid(constant(rng.normal(size=(3, 2, 8, 8))))
        masks = self.make_masks("random", rng)
        before = ad._next_id
        loss = seg_cross_entropy(logits, masks)
        assert ad._next_id - before == 1
        assert loss.parents == (logits,)

    def test_taped_loss_holds_no_class_plane(self):
        # search32's validation shape: 32 images at 32 px
        rng = np.random.default_rng(4)
        logits = ad.sigmoid(constant(rng.normal(size=(32, 2, 32, 32))))
        masks = (rng.uniform(size=(32, 1, 32, 32)) < 0.4).astype(np.float64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = seg_cross_entropy(logits, masks)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < masks.nbytes
        assert loss.vjp is not None


def gan_losses(trainer, G, A, H, masks, images) -> tuple[float, float]:
    """Discriminator and generator loss values of the stage-I graph."""
    hb, m, i = bind(H), constant(masks), constant(images)
    l_gen, d_fake = trainer.generator_loss(bind(G), bind(A), hb, m, i)
    l_disc = ad.add(bce_with_logits(trainer.disc.forward(hb, m, i), 1.0),
                    bce_with_logits(d_fake, 0.0))
    return float(l_disc.value), float(l_gen.value)


class TestGanLosses:
    def test_zero_discriminator_gives_two_log_two(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        H0 = ParamGroup("H", [(lbl, np.zeros_like(arr)) for lbl, arr in state.H.entries])
        l_disc, _ = gan_losses(trainer, state.G, state.A, H0, train.masks(), train.images())
        assert l_disc == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_l1_term_vanishes_when_generator_matches_target(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        masks = train.masks()
        fake = trainer.gen.forward(bind(state.G), bind(state.A), constant(masks)).value
        _, l_gen_on_own_output = gan_losses(trainer, state.G, state.A, state.H, masks, fake)
        trainer.config.lambda_l1 = 0.0
        _, pure_adversarial = gan_losses(trainer, state.G, state.A, state.H, masks, fake)
        assert l_gen_on_own_output == pytest.approx(pure_adversarial, abs=1e-12)

    def test_zero_l1_weight_leaves_the_adversarial_term(self):
        # lambda_l1 = 0 adds 0 times the L1 term: the loss and its gradients
        # in G and in A are those of the adversarial term alone, to the bit
        trainer, train, _ = small_setup(lambda_l1=0.0)
        state = trainer.init_state()
        m, i = constant(train.masks()), constant(train.images())
        results = []
        for whole in (True, False):
            gb, ab, hb = bind(state.G), bind(state.A), bind(state.H)
            if whole:
                loss, _ = trainer.generator_loss(gb, ab, hb, m, i)
            else:
                fake = trainer.gen.forward(gb, ab, m)
                loss = bce_with_logits(trainer.disc.forward(hb, m, fake), 1.0)
            results.append([loss.value, *ad.backward(loss, [*gb.values(), *ab.values()])])
        for got, want in zip(*results, strict=True):
            assert np.array_equal(got, want)

    def test_discriminator_loss_decreases_after_one_step(self):
        trainer, train, _ = small_setup(eta_g=0.0, eta_h=1e-3)
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        before, _ = gan_losses(trainer, state.G, state.A, state.H, masks, images)
        trainer.stage1_update(state, masks, images)
        after, _ = gan_losses(trainer, state.G, state.A, state.H, masks, images)
        assert after < before

    def test_empty_batch_rejected(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        with pytest.raises(ValueError):
            trainer.stage1_update(state, np.zeros((0, 1, 8, 8)), np.zeros((0, 1, 8, 8)))


class TestGdStep:
    def test_gradient_list_must_match_the_group(self):
        # the gradient is the group's flat one: every entry raveled, in order
        group = ParamGroup("S", [("a", np.ones(2)), ("b", np.ones(3))])
        stepped = eng._gd_step(group, np.ones(5), 0.5)
        assert [arr.tolist() for _, arr in stepped.entries] == [[0.5] * 2, [0.5] * 3]
        with pytest.raises(ValueError):
            eng._gd_step(group, np.ones(2), 0.5)


class TestStage1:
    def test_zero_rate_leaves_g_bitwise(self):
        trainer, train, _ = small_setup(eta_g=0.0, eta_h=1e-3)
        state = trainer.init_state()
        before = group_blob(state.G)
        trainer.stage1_update(state, train.masks(), train.images())
        assert group_blob(state.G) == before

    def test_single_parameter_hand_update(self):
        # G' = G - eta * grad, checked on one scalar parameter
        trainer, train, _ = small_setup(eta_g=1e-3, eta_h=0.0)
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        gb = bind(state.G)
        l_gen, _ = trainer.generator_loss(gb, bind(state.A), bind(state.H), constant(masks),
                                          constant(images))
        grads = ad.backward(l_gen, list(gb.values()))
        expect = state.G.entries[0][1] - 1e-3 * grads[0]
        trainer.stage1_update(state, masks, images)
        np.testing.assert_allclose(state.G.entries[0][1], expect, atol=1e-15)

    def test_step_norm_equals_rate_times_grad_norm(self):
        trainer, train, _ = small_setup(eta_g=2e-3, eta_h=0.0)
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        G_before = state.G.flatten()
        gb = bind(state.G)
        l_gen, _ = trainer.generator_loss(gb, bind(state.A), bind(state.H), constant(masks),
                                          constant(images))
        gnorm = np.linalg.norm(ad.flat_grad(l_gen, gb))
        trainer.stage1_update(state, masks, images)
        step = np.linalg.norm(state.G.flatten() - G_before)
        assert step == pytest.approx(2e-3 * gnorm, rel=1e-12)


class TestSynthBatch:
    def test_no_augmentation_is_identity(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        masks = train.masks()
        m_hats, images = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])
        assert np.array_equal(m_hats, masks)
        assert images.shape[0] == masks.shape[0]

    def test_contract_binary_masks_images_in_range(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        rng = np.random.default_rng(0)
        from genseg.augment import random_sequence
        ops = [random_sequence(rng, 8) for _ in range(len(train))]
        m_hats, images = trainer.synth_batch(state.G, state.A, train.masks(), ops)
        assert set(np.unique(m_hats)) <= {0.0, 1.0}
        assert np.all(images > -1) and np.all(images < 1)
        assert m_hats.shape == train.masks().shape

    def test_same_ops_bit_identical(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        from genseg.augment import random_sequence
        ops = [random_sequence(np.random.default_rng(7), 8) for _ in range(len(train))]
        a = trainer.synth_batch(state.G, state.A, train.masks(), ops)
        b = trainer.synth_batch(state.G, state.A, train.masks(), ops)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestStage2:
    def test_gamma_zero_matches_synthetic_only(self):
        trainer, train, _ = small_setup(gamma=0.0, eta_s=0.1)
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        m_hats, synth = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])

        sb = bind(state.S)
        loss = seg_cross_entropy(trainer.seg.forward(sb, constant(synth)), m_hats)
        grads = ad.backward(loss, list(sb.values()))
        expect = [(lbl, arr - 0.1 * g) for (lbl, arr), g in zip(state.S.entries, grads)]
        trainer.stage2_update(state, m_hats, synth, masks, images)
        for (_, got), (_, want) in zip(state.S.entries, expect):
            np.testing.assert_array_equal(got, want)

    def test_large_gamma_converges_to_real_direction(self):
        trainer, train, _ = small_setup(gamma=1e6)
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        m_hats, synth = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])

        sb = bind(state.S)
        real_only = seg_cross_entropy(trainer.seg.forward(sb, constant(images)), masks)
        g_real = ad.flat_grad(real_only, sb)

        S_before = state.S.flatten()
        trainer.stage2_update(state, m_hats, synth, masks, images)
        step = S_before - state.S.flatten()  # descent direction * eta
        assert cosine(step, g_real) >= 0.999

    def test_zero_rate_identity(self):
        trainer, train, _ = small_setup(eta_s=0.0)
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        m_hats, synth = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])
        before = group_blob(state.S)
        trainer.stage2_update(state, m_hats, synth, masks, images)
        assert group_blob(state.S) == before

    def test_objective_linear_in_gamma(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        m_hats, synth = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])
        vals = []
        for gamma in (0.0, 1.0, 2.0):
            trainer.config.gamma = gamma
            sb = bind(state.S)
            obj = trainer.stage2_objective(sb, m_hats, constant(synth), masks, images)
            vals.append(float(obj.value))
        assert abs((vals[2] - vals[1]) - (vals[1] - vals[0])) < 1e-12


class TestStage3:
    def _run_stages(self, trainer, train, state):
        state.iteration = 1
        return trainer.search_step(state, train.masks(), train.images())

    def test_zero_inner_rates_give_exact_zero(self):
        # eta_g = 0 leaves the direct term, so only eta_s = 0 zeroes the result
        trainer, train, _ = small_setup(eta_s=0.0)
        state = trainer.init_state()
        chain, _ = self._run_stages(trainer, train, state)
        assert np.array_equal(chain, np.zeros_like(chain))

    def test_zero_generator_step_leaves_the_direct_term(self, monkeypatch):
        # eta_g = 0 scales w by 0: the result is -eta_s * d to the bit, with d
        # the product taken on the graph stage III differentiates
        trainer, train, _ = small_setup(eta_g=0.0)
        state = trainer.init_state()
        products = []
        seg_hvp = Trainer._seg_hvp_fd

        def recorded(self, *args):
            products.append(seg_hvp(self, *args))
            return products[-1]

        monkeypatch.setattr(Trainer, "_seg_hvp_fd", recorded)
        chain, _ = self._run_stages(trainer, train, state)
        [(_, direct)] = products
        assert np.any(chain)
        assert np.array_equal(chain, -trainer.config.eta_s * direct)

    def test_linearity_in_validation_loss_exact_backend(self):
        trainer, train, _ = tiny_instance(0)
        state = trainer.init_state()
        state.iteration = 1
        _, saved = trainer.search_step(state, train.masks(), train.images())
        # doubling the validation loss doubles v, and the chain is linear in v
        v = validation_grad(trainer, state, saved)
        np.testing.assert_allclose(exact_chain(trainer, state, saved, 2 * v),
                                   2 * exact_chain(trainer, state, saved, v), atol=1e-12)

    def test_stationary_validation_loss_returns_zero(self):
        trainer, train, val = small_setup()
        state = trainer.init_state()
        # zero segmenter weights plus a half-foreground validation mask make
        # the validation gradient exactly zero (uniform probabilities match
        # the class balance, and zero activations kill every weight gradient)
        state.S = ParamGroup("S", [(lbl, np.zeros_like(arr)) for lbl, arr in state.S.entries])
        half = np.zeros((1, 1, 8, 8))
        half[:, :, :4, :] = 1.0
        from genseg.synthdata import Dataset, MaskImagePair
        balanced = Dataset([MaskImagePair(half[0], val[0].image)], split="val")
        masks, images = train.masks(), train.images()
        # stage I leaves S as it is
        trainer.stage1_update(state, masks, images)
        m_hats, _ = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])
        out = trainer.stage3_hypergrad(state.G, state.H, state.S, state, masks, images,
                                       m_hats, balanced.masks(), balanced.images())
        assert np.array_equal(out, np.zeros(state.A.size))

    def test_needs_its_iterations_stage1_and_synth(self):
        # stage III reads what this iteration's stage I and synth_batch wrote;
        # without either it names the missing one instead of computing it
        trainer, train, val = small_setup()
        state = trainer.init_state()
        masks, images = train.masks(), train.images()
        m_hats, _ = trainer.synth_batch(state.G, state.A, masks, [[] for _ in masks])
        args = (state.G, state.H, state.S, state, masks, images, m_hats,
                val.masks(), val.images())
        with pytest.raises(KeyError, match="grad_a"):
            trainer.stage3_hypergrad(*args)
        trainer.stage1_update(state, masks, images)
        with pytest.raises(KeyError, match="synth"):
            trainer.stage3_hypergrad(*args)


def counted_calls(monkeypatch, attr: str) -> list:
    """The argument tuples of every ``Trainer.<attr>`` call from now on."""
    calls = []
    real = getattr(Trainer, attr)

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Trainer, attr, counted)
    return calls


class TestSearchStep:
    @pytest.mark.parametrize("mode, steps", [("genseg", 3), ("separate", 0), ("baseline", 0)])
    def test_train_runs_it_once_per_genseg_iteration(self, monkeypatch, mode, steps):
        trainer, _, _ = small_setup(mode=mode)
        trainer.config.iters = 3
        calls = counted_calls(monkeypatch, "search_step")
        trainer.train()
        assert len(calls) == steps

    def test_returns_what_stage3_was_given(self, monkeypatch):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        state.iteration = 1
        calls = counted_calls(monkeypatch, "stage3_hypergrad")
        hyper, args = trainer.search_step(state, train.masks(), train.images())
        assert len(calls) == 1 and len(args) == 9
        assert all(a is b for a, b in zip(args, calls[0], strict=True))
        assert args[3] is state and hyper.shape == (state.A.size,)

    def test_one_iteration_builds_the_generator_loss_twice(self, monkeypatch):
        # stage I at the base point and stage III at the perturbed generator
        # weights: the forward difference subtracts the first's gradient in A
        # from the second's, so both come from this one graph
        trainer, _, _ = small_setup()
        trainer.config.iters = 1
        calls = counted_calls(monkeypatch, "generator_loss")
        trainer.train()
        assert len(calls) == 2


def validation_grad(trainer, state, saved):
    """Validation-loss gradient at the updated segmenter of a search step."""
    *_, val_masks, val_images = saved
    sb = bind(state.S)
    val_loss = seg_cross_entropy(trainer.seg.forward(sb, constant(val_images)), val_masks)
    return ad.flat_grad(val_loss, sb)


def exact_chain(trainer, state, saved, v):
    """Stage III's hypergradient for validation gradient ``v`` with every
    mixed product taken exactly by double backward, at stage III's arguments
    as ``Trainer.search_step`` returned them (``state`` as it left it, before
    the architecture step): the chain term through G's step and the direct
    term of A in generation."""
    G_pre, H_pre, S_pre, _, masks, images, m_hats, _, _ = saved

    def synth_loss(gb, ab, sb):
        fake = trainer.gen.forward(gb, ab, constant(m_hats))
        return seg_cross_entropy(trainer.seg.forward(sb, fake), m_hats)

    u = ad.mixed_hvp_exact(lambda gb, sb: synth_loss(gb, bind(state.A), sb), state.G, S_pre, v)
    d = ad.mixed_hvp_exact(lambda ab, sb: synth_loss(bind(state.G), ab, sb), state.A, S_pre, v)
    w = ad.mixed_hvp_exact(
        lambda ab, gb: trainer.generator_loss(gb, ab, bind(H_pre), constant(masks),
                                              constant(images))[0],
        state.A, G_pre, u)
    cfg = trainer.config
    return cfg.eta_g * cfg.eta_s * w - cfg.eta_s * d


def plant_rebuilt_handoffs(trainer, args):
    """Write to ``trainer._kept`` the generator graph and the generator-loss
    gradient in A that stage III reads, rebuilt here from stage III's
    arguments ``args``."""
    G_pre, H_pre, _, state, masks, images, m_hats, _, _ = args
    gb, ab = bind(state.G), bind(state.A)
    trainer._kept["synth"] = (trainer.gen.forward(gb, ab, constant(m_hats)), gb, ab)
    ab = bind(state.A)
    l_gen, _ = trainer.generator_loss(bind(G_pre), ab, bind(H_pre), constant(masks),
                                      constant(images))
    trainer._kept["grad_a"] = ad.flat_grad(l_gen, ab)


def count_forwards(monkeypatch) -> dict[str, int]:
    """Counts of network forward passes from now on, by network."""
    calls = {"gen": 0, "disc": 0, "seg": 0}
    for name, cls in (("gen", GeneratorNet), ("disc", DiscriminatorNet), ("seg", SegNet)):
        def counted(self, *args, _forward=cls.forward, _name=name):
            calls[_name] += 1
            return _forward(self, *args)
        monkeypatch.setattr(cls, "forward", counted)
    return calls


def start_from_noisy_segmenter(monkeypatch, trainer):
    """Make ``trainer.train`` start from random segmenter weights, which
    predict some foreground, so its scores are not trivially zero."""
    init_state = trainer.init_state

    def noisy_segmenter():
        state = init_state()
        state.S = state.S.unflatten(np.random.default_rng(2).normal(size=state.S.size))
        return state

    monkeypatch.setattr(trainer, "init_state", noisy_segmenter)


def holds_node(x) -> bool:
    if isinstance(x, Node):
        return True
    if isinstance(x, (tuple, list)):
        return any(holds_node(y) for y in x)
    if isinstance(x, dict):
        return any(holds_node(y) for y in x.values())
    return False


class TestForwardReuse:
    @pytest.mark.parametrize("n_val, seg_forwards",
                             [(2, 5), (17, 6), (20, 6), (32, 6), (33, 7), (48, 7), (65, 9)])
    def test_forwards_per_genseg_iteration(self, monkeypatch, n_val, seg_forwards):
        # generator: stage I, synth, and the perturbed point of the stage-III
        # generator-loss difference (stage III differentiates synth's graph
        # and takes the base point's gradient from stage I); segmenter: two
        # in stage II, one validation forward per chunk of 16 images (17: 16
        # + 1; 20: 16 + 4; 33: 16 + 16 + 1; 48: three of 16; 65: four of 16
        # + 1) and two in stage III's difference. The epoch validation scores
        # stage III's logits, which come from the chunks evaluation runs, for
        # every split size. The benchmark's search32 validates 32 pairs every
        # iteration
        assert eng.EVAL_CHUNK == 16
        trainer, _, val = small_setup(n_val=n_val)
        trainer.config.iters = 1
        start_from_noisy_segmenter(monkeypatch, trainer)
        calls = count_forwards(monkeypatch)
        (record,), state = trainer.train()
        assert calls == {"gen": 3, "disc": 3, "seg": seg_forwards}
        # reused or scored again, the val dice is what evaluation reads
        assert 0.0 < record.dice < 1.0
        assert (record.dice, record.jaccard) == eng.evaluate_segmenter(trainer.seg, state.S, val)

    def test_reused_graph_equals_recomputed(self, monkeypatch):
        trainer, train, val = small_setup()
        state = trainer.init_state()
        state.iteration = 1
        masks, images = train.masks(), train.images()
        G_pre, H_pre, S_pre = state.G, state.H, state.S
        trainer.stage1_update(state, masks, images)
        ops = trainer._sample_ops(state.rng, len(masks))
        m_hats, synth = trainer.synth_batch(state.G, state.A, masks, ops)
        trainer.stage2_update(state, m_hats, synth, masks, images)
        args = (G_pre, H_pre, S_pre, state, masks, images, m_hats, val.masks(), val.images())
        assert set(trainer._kept) == {"grad_a", "synth"}
        calls = count_forwards(monkeypatch)
        reused = trainer.stage3_hypergrad(*args)
        # only the perturbed generator-loss point runs the generator
        assert calls["gen"] == calls["disc"] == 1
        # the first call popped both; the same from a graph and a gradient
        # rebuilt here gives the same bits
        plant_rebuilt_handoffs(trainer, args)
        recomputed = trainer.stage3_hypergrad(*args)
        assert np.any(reused)
        assert np.array_equal(reused, recomputed)

    @pytest.mark.parametrize("mode", ["genseg", "separate", "baseline"])
    def test_arch_gradient_kept_only_in_genseg(self, monkeypatch, mode):
        # only genseg's stage III reads it, so only genseg's stage I pays for
        # the A leaves in its generator-loss backward; each genseg iteration
        # makes two G-and-A backwards: that one and stage III's segmentation
        # products
        trainer, _, _ = small_setup(mode=mode)
        trainer.config.iters = 2  # separate: stage I, then stage II
        kept, requested = [], []
        stage1, backward = Trainer.stage1_update, ad.backward

        def spied_stage1(self, *args):
            stage1(self, *args)
            kept.append(self._kept.get("grad_a"))

        def spied_backward(loss, wrt, create_graph=False):
            requested.append(len(wrt))
            return backward(loss, wrt, create_graph)

        monkeypatch.setattr(Trainer, "stage1_update", spied_stage1)
        monkeypatch.setattr(ad, "backward", spied_backward)
        _, state = trainer.train()
        n_g, n_a = len(state.G.entries), len(state.A.entries)
        if mode == "genseg":
            assert [k.size for k in kept] == [state.A.size] * 2
            assert requested.count(n_g + n_a) == 2 * 2
        else:
            assert kept == ([None] if mode == "separate" else [])
            assert n_g + n_a not in requested

    def test_stage3_differentiates_the_kept_graph(self, monkeypatch):
        # stage I, synth and the perturbed generator-loss point: stage III
        # differentiates synth's graph in G and in A instead of running the
        # generator again
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        state.iteration = 1
        calls = count_forwards(monkeypatch)
        reused, args = trainer.search_step(state, train.masks(), train.images())
        assert calls["gen"] == 3
        # search_step's own stage III popped what it read: plant a generator
        # graph and an A-gradient rebuilt here (two generator forwards), and
        # stage III runs the generator once more
        trainer._kept.clear()
        plant_rebuilt_handoffs(trainer, args)
        recomputed = trainer.stage3_hypergrad(*args)
        assert calls["gen"] == 3 + 3
        assert np.any(reused)
        assert np.array_equal(reused, recomputed)

    @pytest.mark.parametrize("mode", ["genseg", "separate", "baseline"])
    def test_store_empty_after_train(self, mode):
        # 48 pairs are drawn 16 at a time, so three iterations per validation:
        # the fourth leaves stage III's logits unscored, and `separate` keeps
        # graphs no stage III takes
        trainer, _, _ = small_setup(mode=mode, n_train=48)
        trainer.config.iters = 4
        trainer.train()
        assert trainer._kept == {}

    def test_val_record_equals_evaluate_segmenter(self, monkeypatch):
        trainer, _, val = small_setup(seed=2, n_val=4)
        trainer.config.iters = 1
        start_from_noisy_segmenter(monkeypatch, trainer)
        records, state = trainer.train()
        (record,) = records
        assert 0.0 < record.dice < 1.0
        assert (record.dice, record.jaccard) == eng.evaluate_segmenter(trainer.seg, state.S, val)

    def test_separate_renders_without_a_tape(self, monkeypatch):
        # no stage III runs in separate, so its second half renders the
        # synthetic images as values only and no generator graph is held
        # through stage II
        trainer, _, _ = small_setup(mode="separate")
        trainer.config.iters = 4
        synth = []
        stage2 = Trainer.stage2_update

        def spied_stage2(self, *args):
            synth.append(self._kept["synth"][0])
            stage2(self, *args)

        monkeypatch.setattr(Trainer, "stage2_update", spied_stage2)
        trainer.train()
        assert len(synth) == 2
        assert all(images.parents == () and images.vjp is None for images in synth)
        assert ad._recording

    @pytest.mark.parametrize("mode", ["genseg", "separate"])
    def test_no_graph_outlives_train(self, mode):
        trainer, _, _ = small_setup(mode=mode)
        trainer.config.iters = 4
        trainer.train()
        assert not any(holds_node(x) for x in vars(trainer).values())


class TestCol2imOffTrainingPath:
    def test_no_col2im_in_training_or_evaluation(self, monkeypatch):
        # every convolution and its gradients run as im2col gathers; col2im is
        # only im2col's adjoint reference and no tape node calls it, not even
        # in exact second-order products
        calls = []
        real = tensor.col2im

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tensor, "col2im", counted)
        trainer, _, val = small_setup()
        trainer.config.iters = 1
        _, state = trainer.train()
        eng.evaluate_segmenter(trainer.seg, state.S, val)
        # the product of d/dS with d/dimages differentiates every kernel
        # gradient of the segmenter back to its images
        images = ParamGroup("X", [("x", val.images())])
        ad.mixed_hvp_exact(lambda xb, sb: seg_cross_entropy(
            trainer.seg.forward(sb, xb["x"]), val.masks()), images, state.S, np.ones(state.S.size))
        assert calls == []


class TestWorkPerIteration:
    # the work one iteration does at each benchmark workload's shape: tape
    # nodes, im2col calls and the bytes they copy (a view of the input
    # copies none), backward calls, forwards per network, and Python calls
    # into genseg's own functions. These counts do not depend on the data's
    # values, the BLAS build or numpy's version; a change that moves one
    # updates it here and names the change. The run is counted after a
    # warm-up run of the same trainer
    GENSEG = os.path.dirname(ad.__file__) + os.sep
    # a comprehension is a function call in CPython 3.11 and inlined from
    # 3.12 (PEP 709): left out, so the count is the same in both
    COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

    def count_work(self, monkeypatch, mode, n_train, n_val, iters) -> dict[str, int]:
        data = gen_task(seed=1, n=n_train + n_val, size=32)
        trainer = Trainer(TrainConfig(mode=mode, iters=iters, img_size=32, seed=1),
                          Dataset(data.pairs[:n_train], split="train"),
                          Dataset(data.pairs[n_train:], split="val"))
        trainer.train()
        calls = 0

        def profile(frame, event, _):
            nonlocal calls
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(self.GENSEG) \
                    and code.co_name not in self.COMPREHENSIONS:
                calls += 1

        work = {"im2col": 0, "im2col_bytes": 0, "backward": 0}
        im2col, backward = tensor.im2col, ad.backward

        def counted_im2col(x, *args):
            out = im2col(x, *args)
            work["im2col"] += 1
            work["im2col_bytes"] += 0 if np.shares_memory(out, x) else out.nbytes
            return out

        def counted_backward(*args, **kwargs):
            work["backward"] += 1
            return backward(*args, **kwargs)

        monkeypatch.setattr(tensor, "im2col", counted_im2col)
        monkeypatch.setattr(ad, "backward", counted_backward)
        forwards = count_forwards(monkeypatch)
        before = ad._next_id
        sys.setprofile(profile)
        try:
            trainer.train()
        finally:
            sys.setprofile(None)
        return {"nodes": ad._next_id - before, "calls": calls, **work, **forwards}

    def test_one_genseg_iteration_at_the_search32_shape(self, monkeypatch):
        # default networks, 32 px, 8 train and 32 val pairs: one iteration
        # with its validation
        assert self.count_work(monkeypatch, "genseg", 8, 32, 1) == {
            "nodes": 1132, "calls": 5396, "im2col": 152, "im2col_bytes": 61_562_880,
            "backward": 7, "gen": 3, "disc": 3, "seg": 6}

    def test_one_baseline_epoch_at_the_segment_shape(self, monkeypatch):
        # 64 train and 16 val pairs: four minibatches of 16 and one validation
        assert self.count_work(monkeypatch, "baseline", 64, 16, 4) == {
            "nodes": 265, "calls": 1389, "im2col": 53, "im2col_bytes": 28_672_000,
            "backward": 4, "gen": 0, "disc": 0, "seg": 5}


class TestTapeFreeEvaluation:
    def test_equals_taped_forward_scored_pair_by_pair(self, monkeypatch):
        # 70 pairs, so four chunks of EVAL_CHUNK = 16 images and one of 6; one
        # truth mask is empty and one is not binary
        rng = np.random.default_rng(7)
        pairs = gen_task(seed=7, n=70, size=8).pairs
        pairs[3] = MaskImagePair(np.zeros_like(pairs[3].mask), pairs[3].image)
        pairs[66] = MaskImagePair(rng.uniform(size=pairs[66].mask.shape), pairs[66].image)
        ds = Dataset(pairs)
        seg = SegNet()
        # random weights predict some foreground, so the scores are not trivial
        S = seg.init_params(0)
        S = S.unflatten(rng.normal(size=S.size))

        sb = bind(S)
        dices, jacs = [], []
        for start in range(0, 70, 16):
            chunk = range(start, min(start + 16, 70))
            logits = seg.forward(sb, constant(ds.images(chunk)))
            assert logits.parents
            for pred, truth in zip(predict_mask(logits.value), ds.masks(chunk)):
                d, j = met.overlap_scores(pred[None], truth[None])
                dices.append(float(d[0]))
                jacs.append(float(j[0]))
        taped = (float(np.mean(dices)), float(np.mean(jacs)))
        assert 0.0 < taped[0] < 1.0

        recording = []
        forward = SegNet.forward

        def watched(net, params, image):
            recording.append(ad._recording)
            return forward(net, params, image)

        monkeypatch.setattr(SegNet, "forward", watched)
        assert eng.EVAL_CHUNK == 16
        assert eng.evaluate_segmenter(seg, S, ds) == taped
        assert recording == [False] * 5
        assert ad._recording

    def test_chunks_equal_one_forward_over_the_split(self, monkeypatch):
        # 64 pairs at the benchmark's 32 px score in four forwards of 16
        # images, to the bit as one forward of all 64 scored pair by pair: the
        # chunk does not move dice
        rng = np.random.default_rng(3)
        ds = Dataset(gen_task(seed=3, n=64, size=32).pairs)
        seg = SegNet()
        S = seg.init_params(0)
        S = S.unflatten(rng.normal(size=S.size))

        with ad.no_tape():
            logits = seg.forward(bind(S), constant(ds.images())).value
        scores = [met.overlap_scores(pred[None], truth[None])
                  for pred, truth in zip(predict_mask(logits), ds.masks())]
        whole = (float(np.mean([d[0] for d, _ in scores])),
                 float(np.mean([j[0] for _, j in scores])))
        assert 0.0 < whole[0] < 1.0

        batches = []
        forward = SegNet.forward

        def watched(net, params, image):
            batches.append(len(image.value))
            return forward(net, params, image)

        monkeypatch.setattr(SegNet, "forward", watched)
        assert eng.evaluate_segmenter(seg, S, ds) == whole
        assert batches == [16] * 4


class TestOuterUpdate:
    def test_zero_grad_zero_decay_identity(self):
        # the logits start at zero, so the decoupled decay moves them by zero too
        trainer, _, _ = small_setup()
        state = trainer.init_state()
        before = group_blob(state.A)
        trainer.outer_update_A(state, np.zeros(state.A.size))
        assert group_blob(state.A) == before

    def test_first_step_magnitude_is_learning_rate(self):
        trainer, _, _ = small_setup(eta_a=1e-4)
        state = trainer.init_state()
        g = np.full(state.A.size, 0.5)
        before = state.A.flatten()
        trainer.outer_update_A(state, g)
        delta = state.A.flatten() - before
        np.testing.assert_allclose(np.abs(delta), 1e-4, rtol=1e-6)
        assert np.all(np.sign(delta) == -np.sign(g))

    def test_deterministic_given_gradients(self):
        results = []
        for _ in range(2):
            trainer, _, _ = small_setup()
            state = trainer.init_state()
            for step in range(3):
                g = np.full(state.A.size, 0.1 * (step + 1))
                trainer.outer_update_A(state, g)
            results.append(group_blob(state.A))
        assert results[0] == results[1]

    def test_shape_mismatch_rejected(self):
        trainer, _, _ = small_setup()
        state = trainer.init_state()
        with pytest.raises(ValueError):
            trainer.outer_update_A(state, np.zeros(state.A.size + 1))


class TestSplitShapes:
    CONFIG = TrainConfig(mode="baseline", iters=1, img_size=8, enc_cells=1, base_channels=2)

    @staticmethod
    def reshaped(pairs, kind):
        if kind == "extent":  # a 16 px split for an 8 px run
            return [MaskImagePair(np.kron(p.mask, np.ones((1, 2, 2))),
                                  np.kron(p.image, np.ones((1, 2, 2)))) for p in pairs]
        return [MaskImagePair(p.mask, np.concatenate([p.image, p.image])) for p in pairs]

    @pytest.mark.parametrize("kind, shape", [("extent", (1, 16, 16)), ("channels", (2, 8, 8))])
    @pytest.mark.parametrize("split", ["val", "test"])
    def test_split_of_another_shape_named(self, split, kind, shape):
        data = gen_task(seed=50, n=8, size=8)
        train = Dataset(data.pairs[:4], split="train")
        other = Dataset(self.reshaped(data.pairs[4:], kind), split=split)
        val, test = (other, None) if split == "val" else (Dataset(data.pairs[4:6]), other)
        with pytest.raises(ValueError) as info:
            Trainer(self.CONFIG, train, val, test)
        assert str(info.value) == (f"{split} split pair 0: image shape {shape} is not "
                                   f"(1, 8, 8) for img_size 8")

    def test_mask_of_another_extent_named(self):
        data = gen_task(seed=50, n=6, size=8)
        small = [MaskImagePair(p.mask[:, :4, :4], p.image) for p in data.pairs[4:]]
        with pytest.raises(ValueError, match=r"^val split pair 0: mask shape \(1, 4, 4\) is not"):
            Trainer(self.CONFIG, Dataset(data.pairs[:4]), Dataset(small))

    @pytest.mark.parametrize("mode", eng.MODES)
    def test_non_square_split_refused_in_every_mode(self, mode):
        # 16x8 pairs match an 8 px run in width only
        data = gen_task(seed=50, n=6, size=8)
        tall = [MaskImagePair(np.kron(p.mask, np.ones((1, 2, 1))),
                              np.kron(p.image, np.ones((1, 2, 1)))) for p in data.pairs]
        with pytest.raises(ValueError) as info:
            Trainer(replace(self.CONFIG, mode=mode), Dataset(tall[:4]), Dataset(tall[4:]))
        assert str(info.value) == ("train split pair 0: image shape (1, 16, 8) is not "
                                   "(1, 8, 8) for img_size 8")

    def test_two_channel_masks_refused(self):
        data = gen_task(seed=50, n=6, size=8)
        doubled = [MaskImagePair(np.concatenate([p.mask, p.mask]), p.image) for p in data.pairs]
        with pytest.raises(ValueError) as info:
            Trainer(self.CONFIG, Dataset(doubled[:4]), Dataset(doubled[4:]))
        assert str(info.value) == ("train split pair 0: mask shape (2, 8, 8) is not "
                                   "(1, 8, 8) for img_size 8")

    @pytest.mark.parametrize("what, value, message", [
        ("image", np.nan, "val split pair 1: image value nan at flat index 5 is not finite"),
        ("image", -np.inf, "val split pair 1: image value -inf at flat index 5 is not finite"),
        ("mask", 0.5, "val split pair 1: mask value 0.5 at flat index 5 is not 0 or 1"),
    ], ids=["image-nan", "image-neg-inf", "mask-half"])
    def test_bad_value_named_with_pair_and_flat_index(self, what, value, message):
        # in-memory data meets the rules load_dataset applies to files
        data = gen_task(seed=50, n=6, size=8)
        bad = getattr(data.pairs[5], what).copy()
        bad.flat[5] = value
        val = [data.pairs[4], replace(data.pairs[5], **{what: bad})]
        with pytest.raises(ValueError) as info:
            Trainer(self.CONFIG, Dataset(data.pairs[:4]), Dataset(val))
        assert str(info.value) == message

    def test_matching_and_empty_test_splits_accepted(self):
        data = gen_task(seed=50, n=8, size=8)
        train, val = Dataset(data.pairs[:4]), Dataset(data.pairs[4:6])
        Trainer(self.CONFIG, train, val, Dataset(data.pairs[6:]))
        Trainer(self.CONFIG, train, val, Dataset([]))


class TestTrainLoop:
    def test_zero_iters_returns_init_no_records(self):
        trainer, train, val = small_setup()
        records, state = trainer.train()
        assert records == []
        init = trainer.init_state()
        assert group_blob(state.G) == group_blob(init.G)
        assert group_blob(state.S) == group_blob(init.S)

    def test_zero_step_full_iteration_identity(self):
        trainer, train, val = small_setup(eta_g=0.0, eta_h=0.0, eta_s=0.0, eta_a=0.0)
        trainer.config.iters = 1
        state0 = trainer.init_state()
        records, state = trainer.train()
        for name in ("G", "H", "S", "A"):
            assert group_blob(getattr(state, name)) == group_blob(getattr(state0, name))

    def test_baseline_never_touches_g_h_a(self):
        trainer, train, val = small_setup(mode="baseline")
        trainer.config.iters = 5
        init = trainer.init_state()
        records, state = trainer.train()
        for name in ("G", "H", "A"):
            assert group_blob(getattr(state, name)) == group_blob(getattr(init, name))
        assert group_blob(state.S) != group_blob(init.S)

    def test_best_val_is_running_max(self, monkeypatch):
        # a scripted, non-monotone dice sequence: the best is at iteration 3,
        # the tie at iteration 5 does not replace it, and S keeps moving
        trainer, train, val = small_setup(mode="baseline", eta_s=0.3)
        trainer.config.iters = 6
        script = iter([0.2, 0.1, 0.6, 0.3, 0.6, 0.5])
        seen = []

        def scripted(seg, S, dataset):
            seen.append(S)
            return next(script), 0.0

        monkeypatch.setattr(eng, "evaluate_segmenter", scripted)
        records, state = trainer.train()
        assert [r.dice for r in records] == [0.2, 0.1, 0.6, 0.3, 0.6, 0.5]
        assert state.best_metric == 0.6
        assert group_blob(state.best_params["S"]) == group_blob(seen[2])
        assert group_blob(state.best_params["S"]) != group_blob(state.S)

    def test_minibatch_rule(self, monkeypatch):
        # up to 32 pairs the whole training set is the minibatch and every
        # iteration validates; 33 pairs are drawn 16 at a time, so a
        # validation comes every ceil(33 / 16) = 3 iterations
        sizes = []
        update = Trainer._baseline_update

        def spied(self, state, masks, images):
            sizes.append(len(masks))
            update(self, state, masks, images)

        monkeypatch.setattr(Trainer, "_baseline_update", spied)
        for n_train, batch, val_iters in ((32, 32, [1, 2, 3, 4, 5, 6]), (33, 16, [3, 6])):
            sizes.clear()
            trainer, _, _ = small_setup(mode="baseline", n_train=n_train)
            trainer.config.iters = 6
            records, _ = trainer.train()
            assert sizes == [batch] * 6
            assert [r.iteration for r in records] == val_iters

    @pytest.mark.parametrize("mode", ["genseg", "separate", "baseline"])
    def test_no_stage_writes_a_parameter_array(self, monkeypatch, mode):
        # best_params holds the groups themselves, not copies, which is sound
        # only while every step builds new arrays: with each parameter array
        # read-only from the moment it reaches the state, an in-place write
        # anywhere in training, validation or the test score raises
        trainer, _, val = small_setup(mode=mode)
        trainer.test_ds = val
        trainer.config.iters = 4
        assign = eng.TrainState.__setattr__

        def read_only(self, name, value):
            if isinstance(value, ParamGroup):
                for _, arr in value.entries:
                    arr.setflags(write=False)
            assign(self, name, value)

        monkeypatch.setattr(eng.TrainState, "__setattr__", read_only)
        records, state = trainer.train()
        assert [r.split for r in records] == ["val"] * 4 + ["test"]
        assert not any(arr.flags.writeable
                       for group in state.best_params.values() for _, arr in group.entries)

    def test_full_run_determinism_csv_bytes(self):
        outs = []
        for _ in range(2):
            trainer, train, val = small_setup(mode="genseg", eta_g=1e-3, eta_h=1e-3)
            trainer.config.iters = 4
            records, _ = trainer.train()
            outs.append(records_to_csv(records))
        assert outs[0] == outs[1]

    def test_empty_training_set_rejected(self):
        cfg = TrainConfig(img_size=8, enc_cells=1, base_channels=2)
        empty = Dataset([], split="train")
        val = gen_task(seed=1, n=2, size=8)
        with pytest.raises(ValueError):
            Trainer(cfg, empty, val)

    def test_empty_validation_set_rejected(self):
        cfg = TrainConfig(img_size=8, enc_cells=1, base_channels=2)
        train = gen_task(seed=1, n=2, size=8)
        with pytest.raises(ValueError, match="validation set"):
            Trainer(cfg, train, Dataset([], split="val"))

    def test_separate_mode_freezes_gan_losses_in_second_half(self):
        trainer, train, val = small_setup(mode="separate", eta_g=1e-3, eta_h=1e-3)
        trainer.config.iters = 8
        records, state = trainer.train()
        vals = [r for r in records if r.split == "val"]
        second_half = [r for r in vals if r.iteration > 4]
        assert len({r.loss_g for r in second_half}) == 1
        assert len({r.loss_d for r in second_half}) == 1
        assert second_half[0].loss_g == vals[3].loss_g  # frozen at the switch

    def test_test_row_written_when_test_split_given(self):
        trainer, train, val = small_setup(mode="baseline")
        trainer.config.iters = 3
        trainer.test_ds = val
        records, _ = trainer.train()
        assert records[-1].split == "test"

    def test_img_size_mismatch_rejected(self):
        cfg = TrainConfig(img_size=16, enc_cells=1, base_channels=2)
        data = gen_task(seed=0, n=4, size=8)
        with pytest.raises(ValueError, match="img_size"):
            Trainer(cfg, data, data)


class TestGraphsFreedPromptly:
    def test_no_graph_is_a_reference_cycle(self):
        # every graph is freed by reference counting as soon as it becomes
        # unreachable, so the cyclic collector finds nothing left behind
        gc.collect()
        gc.disable()
        try:
            for mode in ("genseg", "separate", "baseline"):
                trainer, train, val = small_setup(mode=mode, eta_g=1e-3, eta_h=1e-3)
                trainer.config.iters = 3
                _, state = trainer.train()
            G, H, A = state.G, state.H, state.A
            m, i = constant(train.masks()), constant(train.images())
            ad.mixed_hvp_exact(lambda ab, gb: trainer.generator_loss(gb, ab, bind(H), m, i)[0],
                               A, G, np.ones(G.size))
            eng.evaluate_segmenter(trainer.seg, state.S, val)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_heap_retention_applies_on_glibc(self):
        assert eng.retain_heap()


def two_backward_hvp(trainer, images, binding, S, v, m_hats):
    """``Trainer._seg_hvp_fd`` as the difference of two separate gradients."""
    eps = ad.default_eps(v)
    s0 = S.flatten()

    def grad_p(svec):
        sb = bind(S.unflatten(svec))
        loss = seg_cross_entropy(trainer.seg.forward(sb, images), m_hats)
        return ad.flat_grad(loss, binding)

    return (grad_p(s0 + eps * v) - grad_p(s0 - eps * v)) / (2.0 * eps)


class TestSegHvp:
    def _case(self, seed):
        trainer, train, _ = tiny_instance(seed)
        state = trainer.init_state()
        gb, ab = bind(state.G), bind(state.A)
        m_hats = train.masks()
        images = trainer.gen.forward(gb, ab, constant(m_hats))
        v = np.random.default_rng(seed).normal(size=state.S.size)
        return trainer, images, gb, ab, state, v, m_hats

    # one call returns both products: in G for the chain, in A for the direct
    # term; `product` picks the one a case checks
    @pytest.mark.parametrize("product", ["G", "A"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_antisymmetric_in_v_exactly(self, seed, product):
        trainer, images, gb, ab, state, v, m_hats = self._case(seed)
        k = "GA".index(product)
        plus = trainer._seg_hvp_fd(images, gb, ab, state.S, v, m_hats)[k]
        minus = trainer._seg_hvp_fd(images, gb, ab, state.S, -v, m_hats)[k]
        assert np.any(plus)
        assert np.array_equal(plus, -minus)

    @pytest.mark.parametrize("product", ["G", "A"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_difference_of_two_gradients(self, seed, product):
        trainer, images, gb, ab, state, v, m_hats = self._case(seed)
        k = "GA".index(product)
        one = trainer._seg_hvp_fd(images, gb, ab, state.S, v, m_hats)[k]
        two = two_backward_hvp(trainer, images, (gb, ab)[k], state.S, v, m_hats)
        assert rel_error(one, two) <= 1e-6

    def test_one_backward_per_product(self, monkeypatch):
        # one backward over G's leaves, then A's, gives both products
        trainer, images, gb, ab, state, v, m_hats = self._case(0)
        calls = []
        backward = ad.backward

        def counted(*args, **kwargs):
            calls.append(1)
            return backward(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", counted)
        u, direct = trainer._seg_hvp_fd(images, gb, ab, state.S, v, m_hats)
        assert len(calls) == 1
        assert u.shape == (state.G.size,) and direct.shape == (state.A.size,)
        assert np.any(u) and np.any(direct)


class TestGeneratorProduct:
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_product_matches_central_difference(self, seed):
        # stage III's w, the generator loss's mixed product in (A, G) with u,
        # checked on its own: in the hypergradient eta_g = 2e-3 scales it, so
        # an error in the cells' second-order rules would hide there
        trainer, train, _ = small_setup(seed=seed)
        state = trainer.init_state()
        rng = np.random.default_rng(seed)
        A = state.A.unflatten(rng.normal(size=state.A.size))
        G, H = state.G, state.H
        m, i = constant(train.masks()), constant(train.images())

        def gen_loss(ab, gb):
            return trainer.generator_loss(gb, ab, bind(H), m, i)[0]

        def grad_a(gvec):
            ab = bind(A)
            return ad.flat_grad(gen_loss(ab, bind(G.unflatten(gvec))), ab)

        u = rng.normal(size=G.size)
        exact = ad.mixed_hvp_exact(gen_loss, A, G, u)
        eps = ad.default_eps(u)
        fd = (grad_a(G.flatten() + eps * u) - grad_a(G.flatten() - eps * u)) / (2.0 * eps)
        assert cosine(fd, exact) >= HVP_COSINE_TOL
        ratio = float(np.linalg.norm(fd) / np.linalg.norm(exact))
        assert HVP_RATIO_RANGE[0] <= ratio <= HVP_RATIO_RANGE[1]


class TestValidationGraphFreed:
    def test_gone_when_the_segmentation_products_start(self, monkeypatch):
        # Node has __slots__ and no weak reference, so the live nodes are
        # counted through the collector. Only op outputs count (leaves, such
        # as a kernel with as many output channels as there are pairs, do
        # not): none may hold a validation-batch array, while the kept
        # generator graph's training-batch ones live
        n_train, n_val = 4, 5
        trainer, _, _ = small_setup(n_train=n_train, n_val=n_val)
        trainer.config.iters = 1
        counts = []
        seg_hvp = Trainer._seg_hvp_fd

        def probe(self, *args):
            batches = [o.value.shape[0] for o in gc.get_objects()
                       if isinstance(o, Node) and o.parents and o.value.ndim == 4]
            counts.append((batches.count(n_val), batches.count(n_train)))
            return seg_hvp(self, *args)

        monkeypatch.setattr(Trainer, "_seg_hvp_fd", probe)
        trainer.train()
        assert len(counts) == 1
        val_nodes, train_nodes = counts[0]
        assert train_nodes > 0
        assert val_nodes == 0


class TestEarlierIterationFreed:
    def test_earlier_generator_weights_gone_when_stage3_starts(self, monkeypatch):
        # iteration t-1's starting generator weights are unreachable when
        # iteration t's stage III starts, unless they are the best snapshot
        trainer, _, _ = small_setup()
        trainer.config.iters = 5
        earlier, held = [], []
        stage3 = Trainer.stage3_hypergrad

        def probe(self, G_pre, H_pre, S_pre, state, *rest):
            if earlier:
                prev = earlier[-1]()
                held.append(prev is not None and prev is not state.best_params["G"])
            earlier.append(weakref.ref(G_pre))
            return stage3(self, G_pre, H_pre, S_pre, state, *rest)

        monkeypatch.setattr(Trainer, "stage3_hypergrad", probe)
        trainer.train()
        assert held == [False] * 4


class TestHypergradOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_backend_matches_pipeline_fd(self, seed):
        from genseg.checks import check_hypergrad
        assert check_hypergrad(seed=seed) >= 0.99

    def test_fd_vs_exact_chain_agreement(self):
        # the engine's finite-difference chain after 8 iterations against the
        # chain with exact mixed products at the same saved inputs
        trainer, train, _ = tiny_instance(3)
        state = trainer.init_state()
        for it in range(1, 9):
            state.iteration = it
            chain, saved = trainer.search_step(state, train.masks(), train.images())
            if it < 8:
                trainer.outer_update_A(state, chain)
        exact = exact_chain(trainer, state, saved, validation_grad(trainer, state, saved))
        assert cosine(chain, exact) >= 0.95

    def test_default_path_matches_pipeline_oracle(self):
        trainer, train, _ = tiny_instance(2)
        state = trainer.init_state()
        for it in range(1, 13):
            state.iteration = it
            chain, saved = trainer.search_step(state, train.masks(), train.images())
            if it < 12:
                trainer.outer_update_A(state, chain)
        oracle = eng.hypergrad_fd_oracle(trainer, *saved[:3], state.A, *saved[4:])
        assert cosine(chain, oracle) >= 0.99

    def test_without_generator_step_matches_oracle(self):
        # with eta_g = 0 the chain term vanishes but the direct term does not
        trainer, train, _ = tiny_instance(2)
        trainer.config.eta_g = 0.0
        state = trainer.init_state()
        for it in range(1, 6):
            state.iteration = it
            chain, saved = trainer.search_step(state, train.masks(), train.images())
            if it < 5:
                trainer.outer_update_A(state, chain)
        oracle = eng.hypergrad_fd_oracle(trainer, *saved[:3], state.A, *saved[4:])
        assert np.any(chain)
        assert cosine(chain, oracle) >= 0.99

    def test_chunked_validation_gradient_matches_oracle(self, monkeypatch):
        # 33 val pairs: stage III takes v over chunks of 16 + 16 + 1 images,
        # weighted by their shares, where the oracle scores one forward
        assert eng.EVAL_CHUNK == 16
        trainer, train, _ = small_setup(seed=2, n_val=33)
        vs = []
        seg_hvp = Trainer._seg_hvp_fd

        def spied(self, images, gb, ab, S_base, v, m_hats):
            vs.append(v)
            return seg_hvp(self, images, gb, ab, S_base, v, m_hats)

        monkeypatch.setattr(Trainer, "_seg_hvp_fd", spied)
        state = trainer.init_state()
        for it in range(1, 6):
            state.iteration = it
            chain, saved = trainer.search_step(state, train.masks(), train.images())
            if it < 5:
                trainer.outer_update_A(state, chain)
        assert rel_error(vs[-1], validation_grad(trainer, state, saved)) <= 1e-12
        oracle = eng.hypergrad_fd_oracle(trainer, *saved[:3], state.A, *saved[4:])
        assert np.any(chain)
        assert cosine(chain, oracle) >= 0.99

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(extent=st.sampled_from([8, 16]), enc_cells=st.sampled_from([1, 2]),
           base_channels=st.sampled_from([2, 4]),
           eta_g=st.sampled_from([0.0, 2e-3, 2e-2, 0.1]), eta_s=st.sampled_from([0.05, 0.2, 1.0]),
           gamma=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
           lambda_l1=st.sampled_from([0.0, 1.0, 100.0]), eta_a=st.sampled_from([1e-4, 1e-2]),
           n_train=st.sampled_from([1, 2, 4]), warmup=st.sampled_from([0, 3, 10]))
    @example(extent=16, enc_cells=1, base_channels=2, eta_g=0.1, eta_s=1.0, gamma=0.0,
             lambda_l1=100.0, eta_a=1e-4, n_train=1, warmup=10)  # saturated
    def test_chain_matches_oracle_across_configs(self, extent, enc_cells, base_channels,
                                                 eta_g, eta_s, gamma, lambda_l1, eta_a,
                                                 n_train, warmup):
        # one path serves every weight, extent, depth and width: after
        # ``warmup`` training iterations the next chain agrees with the
        # oracle. Where a large generator step has saturated every generator
        # output (eta_g 0.1 with lambda_l1 100), the hypergradient is below
        # the oracle's resolution, and neither vector has a direction: there
        # the chain must be as small (checks.hypergrad_agreement)
        cfg = TrainConfig(mode="genseg", seed=0, iters=warmup, img_size=extent,
                          enc_cells=enc_cells, base_channels=base_channels, eta_g=eta_g,
                          eta_s=eta_s, eta_a=eta_a, gamma=gamma, lambda_l1=lambda_l1)
        data = gen_task(seed=100, n=n_train + 2, size=extent)
        train = Dataset(data.pairs[:n_train], split="train")
        trainer = Trainer(cfg, train, Dataset(data.pairs[n_train:], split="val"))
        _, state = trainer.train()
        state.iteration = warmup + 1
        chain, saved = trainer.search_step(state, train.masks(), train.images())
        oracle = eng.hypergrad_fd_oracle(trainer, *saved[:3], state.A, *saved[4:])
        assert hypergrad_agreement(chain, oracle) >= HYPER_COSINE_TOL

    @pytest.mark.parametrize("chain, oracle, score", [
        ([1e-6, 0.0], [0.0, 0.0], 0.0),  # a chain with a direction, an oracle without one
        ([1e-14, 0.0], [0.0, 0.0], 1.0),  # both below the oracle's resolution
        ([1e-14, 0.0], [0.0, 1e-14], 1.0),
        ([1.0, 1.0], [1.0, 0.0], math.sqrt(0.5)),  # above it, the cosine
    ])
    def test_agreement_floor(self, chain, oracle, score):
        assert hypergrad_agreement(np.array(chain), np.array(oracle)) == pytest.approx(score)


class TestAbort:
    def test_non_finite_loss_names_stage_and_iteration(self):
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        state.iteration = 7
        images = np.full_like(train.images(), np.nan)
        with pytest.raises(TrainingAborted, match="discriminator loss .*at iteration 7"):
            trainer.stage1_update(state, train.masks(), images)

    def test_non_finite_baseline_gradient_aborts(self, monkeypatch):
        trainer, _, _ = small_setup(mode="baseline")
        trainer.config.iters = 3
        real_backward = ad.backward

        def poisoned(loss, wrt, create_graph=False):
            grads = real_backward(loss, wrt, create_graph)
            grads[0] = np.full_like(grads[0], np.inf)
            return grads

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(TrainingAborted,
                           match="gradient of segmentation loss became non-finite at iteration 1"):
            trainer.train()

    def test_non_finite_hypergradient_names_stage_three(self):
        # eta_g * eta_s overflows, so stage III's hypergradient is non-finite
        # at iteration 1
        trainer, _, _ = tiny_instance(0)
        trainer.config.eta_g = trainer.config.eta_s = 1e160
        trainer.config.iters = 4
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingAborted,
                match="^architecture hypergradient became non-finite at iteration 1$"):
            trainer.train()

    def test_non_finite_hypergradient_leaves_moments_and_logits(self):
        trainer, _, _ = small_setup()
        state = trainer.init_state()
        state.iteration = 3
        before = (state.adam_m.copy(), state.adam_v.copy(), state.adam_t, group_blob(state.A))
        hyper = np.zeros(state.A.size)
        hyper[-1] = np.inf
        with pytest.raises(TrainingAborted, match="at iteration 3"):
            trainer.outer_update_A(state, hyper)
        assert np.array_equal(state.adam_m, before[0]) and np.array_equal(state.adam_v, before[1])
        assert (state.adam_t, group_blob(state.A)) == before[2:]

    # label -> (group whose step it guards, the stage that takes the step)
    DESCENTS = {
        "discriminator loss": ("H", lambda tr, st, m, i: tr.stage1_update(st, m, i)),
        "generator loss": ("G", lambda tr, st, m, i: tr.stage1_update(st, m, i)),
        "segmentation objective": ("S", lambda tr, st, m, i: tr.stage2_update(st, m, i, m, i)),
        "segmentation loss": ("S", lambda tr, st, m, i: tr._baseline_update(st, m, i)),
    }

    @pytest.mark.parametrize("label", list(DESCENTS),
                             ids=["disc-loss", "gen-loss", "seg-objective", "seg-loss"])
    @pytest.mark.parametrize("poisoned", ["loss", "gradient"])
    def test_every_descent_aborts_naming_label_and_iteration(self, monkeypatch, label,
                                                            poisoned):
        group_name, run_stage = self.DESCENTS[label]
        trainer, train, _ = small_setup()
        state = trainer.init_state()
        state.iteration = 7
        masks, images = train.masks(), train.images()
        if poisoned == "gradient":
            # every descent takes its group's gradients in one backward, the
            # group's leaves first (genseg's stage I adds A's after G's)
            real_backward = ad.backward
            first_leaf = getattr(state, group_name).entries[0][1]

            def poison(loss, wrt, create_graph=False):
                grads = real_backward(loss, wrt, create_graph)
                if wrt[0].value is first_leaf:
                    grads[0] = np.full_like(grads[0], np.inf)
                return grads

            monkeypatch.setattr(ad, "backward", poison)
            pattern = f"gradient of {label} became non-finite at iteration 7"
        else:
            pattern = rf"{label} became non-finite \(nan\) at iteration 7"
            if label == "generator loss":
                # NaN images would trip the discriminator loss's check first
                real_loss = Trainer.generator_loss

                def poisoned_loss(self, *a):
                    loss, d_fake = real_loss(self, *a)
                    return ad.scale(loss, np.nan), d_fake

                monkeypatch.setattr(Trainer, "generator_loss", poisoned_loss)
            else:
                images = np.full_like(images, np.nan)
        with pytest.raises(TrainingAborted, match=pattern):
            run_stage(trainer, state, masks, images)
