import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseg.metrics import (CSV_HEADER, EvalRecord, aggregate, overlap_scores, read_csv,
                            records_to_csv, write_csv)


def dice(pred, truth):
    """Dice of one pair, scored as a batch of one."""
    return float(overlap_scores(pred[None], truth[None])[0][0])


def jaccard(pred, truth):
    """Jaccard of one pair, scored as a batch of one."""
    return float(overlap_scores(pred[None], truth[None])[1][0])


def random_mask_pair(seed, size=6):
    rng = np.random.default_rng(seed)
    return ((rng.uniform(size=(size, size)) < 0.4).astype(float),
            (rng.uniform(size=(size, size)) < 0.4).astype(float))


class TestDiceJaccard:
    def test_identical_nonempty(self):
        m = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert dice(m, m) == 1.0
        assert jaccard(m, m) == 1.0

    def test_disjoint(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert dice(a, b) == 0.0
        assert jaccard(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4)); a[0, :4] = 1.0          # |A| = 4
        b = np.zeros((4, 4)); b[0, 2:] = 1.0; b[1, :2] = 1.0  # |B| = 4, overlap 2
        assert dice(a, b) == pytest.approx(0.5)
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_both_empty_convention(self):
        z = np.zeros((3, 3))
        assert dice(z, z) == 1.0
        assert jaccard(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            jaccard(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_dice_jaccard_identity(self, seed):
        a, b = random_mask_pair(seed)
        d, j = dice(a, b), jaccard(a, b)
        assert abs(d - 2 * j / (1 + j)) < 1e-12

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, seed):
        a, b = random_mask_pair(seed)
        assert dice(a, b) == dice(b, a)
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= dice(a, b) <= 1.0
        assert dice(a, b) >= jaccard(a, b)

    def test_adding_correct_pixel_never_decreases_dice(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pred, truth = random_mask_pair(int(rng.integers(1e6)))
            wrong = np.argwhere((truth == 1) & (pred == 0))
            if len(wrong) == 0:
                continue
            y, x = wrong[0]
            better = pred.copy()
            better[y, x] = 1.0
            assert dice(better, truth) >= dice(pred, truth)


class TestOverlapScores:
    def test_batch_equals_per_image_sums(self):
        # each image's scores equal, bit for bit, the per-image sums; one
        # truth is empty (with an empty and a non-empty prediction) and one
        # is not binary, so its sums are not whole numbers
        rng = np.random.default_rng(3)
        pred = (rng.uniform(size=(6, 1, 16, 16)) < 0.4).astype(float)
        truth = (rng.uniform(size=(6, 1, 16, 16)) < 0.4).astype(float)
        truth[0] = truth[1] = pred[0] = 0.0
        truth[2] = rng.uniform(size=(1, 16, 16))
        d, j = overlap_scores(pred, truth)
        for i, (p, t) in enumerate(zip(pred, truth)):
            inter, total = float(np.sum(p * t)), float(np.sum(p) + np.sum(t))
            assert d[i] == (1.0 if total == 0.0 else 2.0 * inter / total)
            assert j[i] == (1.0 if total - inter == 0.0 else inter / (total - inter))
            assert (d[i], j[i]) == (dice(p, t), jaccard(p, t))
        assert d[0] == 1.0 and d[1] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            overlap_scores(np.zeros((2, 1, 4, 4)), np.zeros((2, 1, 4, 3)))


class TestAggregate:
    def test_single_seed_zero_std(self):
        assert aggregate([0.7]) == (0.7, 0.0)

    def test_two_values(self):
        mean, std = aggregate([0.5, 0.7])
        assert mean == pytest.approx(0.6)
        assert std == pytest.approx(np.sqrt(0.02), abs=1e-12)

    def test_three_equal_values(self):
        mean, std = aggregate([0.5, 0.5, 0.5])
        assert (mean, std) == (0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestCsv:
    def test_exact_format(self):
        recs = [EvalRecord(10, "val", 0.5, 1 / 3, 0.25, 1.0, 2.0),
                EvalRecord(20, "test", 1.0, 1.0, 0.0, 0.0, 0.0)]
        text = records_to_csv(recs)
        assert text == (
            "iter,split,dice,jaccard,loss_seg,loss_g,loss_d\n"
            "10,val,0.500000,0.333333,0.250000,1.000000,2.000000\n"
            "20,test,1.000000,1.000000,0.000000,0.000000,0.000000\n")

    def test_round_trip(self, tmp_path):
        recs = [EvalRecord(1, "val", 0.123456, 0.2, 0.3, 0.4, 0.5)]
        path = tmp_path / "m.csv"
        write_csv(recs, path)
        back = read_csv(path)
        assert back[0].iteration == 1 and back[0].split == "val"
        assert back[0].dice == pytest.approx(0.123456)

    def test_header_line(self):
        assert records_to_csv([]).splitlines()[0] == CSV_HEADER

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        with pytest.raises(ValueError):
            read_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("1,val,0.5,0.4", "line 3: expected 7 fields, got 4"),
        ("1,val,0.5,0.4,0.1,0.2,0.3,9", "line 3: expected 7 fields, got 8"),
        ("1,val,abc,0.4,0.1,0.2,0.3", "line 3: field 'dice': cannot read 'abc' as float"),
        ("x,val,0.5,0.4,0.1,0.2,0.3", "line 3: field 'iter': cannot read 'x' as int"),
        ("1,val,nan,0.4,0.1,0.2,0.3", "line 3: field 'dice': 'nan' is not finite"),
    ], ids=["short", "long", "bad-float", "bad-int", "non-finite"])
    def test_malformed_row_names_file_line_and_field(self, tmp_path, row, message):
        p = tmp_path / "m.csv"
        p.write_text(CSV_HEADER + "\n2,val,0.5,0.4,0.1,0.2,0.3\n" + row + "\n")
        with pytest.raises(ValueError) as e:
            read_csv(p)
        assert str(e.value) == f"{p}: {message}"
