import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseg.augment import KINDS, MAX_OPS, AugmentOp, apply, apply_sequence, random_sequence


def random_mask(seed, size=8):
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=(size, size)) < 0.35).astype(np.float64)


class TestApply:
    def test_flip_horizontal_is_involution(self):
        m = random_mask(0)
        op = AugmentOp("flip_h")
        np.testing.assert_array_equal(apply(op, apply(op, m)), m)

    def test_flip_vertical_is_involution(self):
        m = random_mask(1)
        op = AugmentOp("flip_v")
        np.testing.assert_array_equal(apply(op, apply(op, m)), m)

    def test_rotations_compose_to_identity(self):
        m = random_mask(2)
        out = apply(AugmentOp("rotate90", turns=3), apply(AugmentOp("rotate90", turns=1), m))
        np.testing.assert_array_equal(out, m)

    def test_translate_drops_pixels_and_fills_zero(self):
        m = np.zeros((4, 4))
        m[1, 0] = 1.0  # pixel at column 0
        m[2, 3] = 1.0
        out = apply(AugmentOp("translate", dx=2), m)
        want = np.zeros((4, 4))
        want[1, 2] = 1.0  # column 0 pixel moved right; column 3 pixel dropped
        np.testing.assert_array_equal(out, want)
        assert out.sum() <= m.sum()
        assert np.all(out[:, :2] == 0.0)  # zero fill enters at the left

    def test_translate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply(AugmentOp("translate", dx=8), np.zeros((4, 8)))
        with pytest.raises(ValueError):
            apply(AugmentOp("translate", dy=-4), np.zeros((4, 8)))

    def test_rotate_turns_validated(self):
        with pytest.raises(ValueError):
            AugmentOp("rotate90", turns=4)

    def test_channel_axis_preserved(self):
        m = random_mask(3)[None]  # (1, H, W)
        out = apply(AugmentOp("rotate90", turns=2), m)
        assert out.shape == m.shape

    @pytest.mark.parametrize("turns", [1, 3])
    def test_odd_turns_of_non_square_mask_rejected(self, turns):
        with pytest.raises(ValueError, match="extent 8x16 into 16x8"):
            apply(AugmentOp("rotate90", turns=turns), np.zeros((1, 8, 16)))

    @pytest.mark.parametrize("op", [AugmentOp("rotate90", turns=2), AugmentOp("flip_h"),
                                    AugmentOp("flip_v"), AugmentOp("translate", dx=-5, dy=3)],
                             ids=lambda op: op.kind)
    def test_non_square_shape_preserved(self, op):
        m = (np.random.default_rng(4).uniform(size=(1, 8, 16)) < 0.35).astype(np.float64)
        out = apply(op, m)
        assert out.shape == m.shape
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_binary_preservation_random_sequences(self, seed):
        rng = np.random.default_rng(seed)
        m = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        ops = random_sequence(rng, extent=8)
        out = apply_sequence(ops, m)
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert out.shape == m.shape

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_rotations_flips_preserve_count_translation_never_adds(self, seed):
        rng = np.random.default_rng(seed)
        m = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        ops = random_sequence(rng, extent=8)
        out = apply_sequence(ops, m)
        if all(op.kind != "translate" for op in ops):
            assert out.sum() == m.sum()
        else:
            assert out.sum() <= m.sum()


class TestRandomSequence:
    def test_same_seed_identical(self):
        a = random_sequence(np.random.default_rng(42), extent=16)
        b = random_sequence(np.random.default_rng(42), extent=16)
        assert a == b

    def test_draw_stream_pinned(self):
        # the kinds, lengths and parameters every training run draws
        rng = np.random.default_rng(0)
        draws = [random_sequence(rng, extent=32) for _ in range(200)]
        assert hashlib.sha256(repr(draws).encode()).hexdigest()[:16] == "f86bb7f3e05f486f"

    def test_kind_frequencies_uniform(self):
        rng = np.random.default_rng(123)
        counts = {k: 0 for k in KINDS}
        total = 0
        for _ in range(10_000):
            ops = random_sequence(rng, extent=16)
            assert 1 <= len(ops) <= MAX_OPS
            for op in ops:
                counts[op.kind] += 1
                total += 1
        for k, c in counts.items():
            assert abs(c / total - 0.25) < 0.02, (k, c / total)

    def test_translation_offsets_within_quarter_extent(self):
        rng = np.random.default_rng(7)
        shifts = [(op.dx, op.dy) for _ in range(2000) for op in random_sequence(rng, extent=16)
                  if op.kind == "translate"]
        assert len(shifts) > 500
        assert all(abs(dx) <= 4 and abs(dy) <= 4 for dx, dy in shifts)
        # every offset in the range is drawn
        assert {dx for dx, _ in shifts} == set(range(-4, 5))
