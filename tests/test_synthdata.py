import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genseg.autodiff import ParamGroup
from genseg.synthdata import (Dataset, MaskImagePair, gen_task, load_checkpoint,
                              load_dataset, load_tensor, read_pgm, render_image,
                              save_checkpoint, save_dataset, save_tensor, split,
                              tensor_from_bytes, tensor_to_bytes)


class TestGenTask:
    def test_same_seed_bit_identical(self):
        a = gen_task(seed=5, n=4, size=16)
        b = gen_task(seed=5, n=4, size=16)
        for pa, pb in zip(a.pairs, b.pairs):
            assert np.array_equal(pa.mask, pb.mask)
            assert np.array_equal(pa.image, pb.image)

    def test_different_seed_differs(self):
        a = gen_task(seed=1, n=2, size=16)
        b = gen_task(seed=2, n=2, size=16)
        assert not all(np.array_equal(x.mask, y.mask) for x, y in zip(a.pairs, b.pairs))

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            gen_task(seed=0, n=1, size=31)
        with pytest.raises(ValueError):
            gen_task(seed=0, n=1, size=4)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            gen_task(seed=0, n=0, size=16)

    def test_masks_binary_images_in_range(self):
        ds = gen_task(seed=3, n=10, size=16)
        for p in ds.pairs:
            assert set(np.unique(p.mask)) <= {0.0, 1.0}
            assert np.all(p.image >= -1.0) and np.all(p.image <= 1.0)
            assert p.mask.shape == (1, 16, 16) and p.image.shape == (1, 16, 16)

    def test_foreground_fraction_bounds(self):
        # statistical contract over a large draw
        ds = gen_task(seed=11, n=1000, size=16)
        fracs = [p.mask.mean() for p in ds.pairs]
        assert min(fracs) >= 0.02 and max(fracs) <= 0.6

    def test_zero_noise_render_is_function_of_mask(self):
        mask = (np.random.default_rng(0).uniform(size=(16, 16)) < 0.3).astype(float)
        a = render_image(mask)
        b = render_image(mask)
        assert np.array_equal(a, b)

    def test_zero_difficulty_dataset_deterministic_render(self):
        ds = gen_task(seed=7, n=3, size=16, difficulty=0.0)
        for p in ds.pairs:
            np.testing.assert_array_equal(p.image[0], render_image(p.mask[0]))


class TestSplit:
    def test_paper_ratio_40_10(self):
        ds = gen_task(seed=0, n=50, size=8)
        train, val = split(ds, seed=1)
        assert (len(train), len(val)) == (40, 10)
        assert (train.split, val.split) == ("train", "val")

    @given(st.integers(1, 40), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, seed):
        ds = gen_task(seed=3, n=n, size=8)
        train, val = split(ds, seed=seed)
        assert len(train) == round(0.8 * n)
        ids = sorted(id(p) for p in train.pairs + val.pairs)
        assert ids == sorted(id(p) for p in ds.pairs)

    def test_stable_under_fixed_seed(self):
        ds = gen_task(seed=4, n=20, size=8)
        a = split(ds, seed=9)
        b = split(ds, seed=9)
        for da, db in zip(a, b):
            assert [id(p) for p in da.pairs] == [id(p) for p in db.pairs]


class TestGstn:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 3, 4), (2, 1, 3, 2)],
                             ids=lambda s: f"rank{len(s)}")
    def test_round_trip_ranks_0_to_4(self, shape, tmp_path):
        rng = np.random.default_rng(1)
        t = rng.normal(size=shape)
        path = tmp_path / "t.gstn"
        save_tensor(path, t)
        back = load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, np.asarray(t, dtype=np.float64))

    def test_byte_layout(self):
        blob = tensor_to_bytes(np.zeros((2,)))
        assert blob[:4] == b"GSTN"
        assert blob[4] == 1 and blob[5] == 0 and blob[6] == 1
        assert blob[7:11] == (2).to_bytes(4, "little")
        assert len(blob) == 11 + 16

    def test_bad_magic_reports_offset(self):
        with pytest.raises(ValueError) as exc:
            tensor_from_bytes(b"XXXX" + bytes(20))
        assert "byte 0" in str(exc.value)

    def test_truncation_reports_expected_vs_actual(self, tmp_path):
        blob = tensor_to_bytes(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "trunc.gstn"
        path.write_bytes(blob[:-10])
        with pytest.raises(ValueError) as exc:
            load_tensor(path)
        msg = str(exc.value)
        assert "expected 48" in msg and "have 38" in msg

    @pytest.mark.parametrize("length", [4, 5, 6])
    def test_cut_inside_fixed_header_reports_offset(self, length):
        blob = tensor_to_bytes(np.zeros(2))[:length]
        with pytest.raises(ValueError, match="truncated GSTN header at byte 4"):
            tensor_from_bytes(blob)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.gstn"
        path.write_bytes(tensor_to_bytes(np.zeros(2)) + b"xx")
        with pytest.raises(ValueError):
            load_tensor(path)

    def test_element_count_does_not_wrap(self):
        # 2^31 * 2^31 * 4 elements is 0 modulo 2^64; the payload is still named
        blob = b"GSTN\x01\x00\x03" + b"".join(e.to_bytes(4, "little")
                                             for e in (2 ** 31, 2 ** 31, 4))
        with pytest.raises(ValueError, match="truncated GSTN payload at byte 19"):
            tensor_from_bytes(blob)

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_bytes_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(0, 5))
        shape = tuple(int(s) for s in rng.integers(1, 5, size=rank))
        t = rng.normal(size=shape)
        back, end = tensor_from_bytes(tensor_to_bytes(t))
        assert np.array_equal(back, t) and back.shape == t.shape


def make_groups(seed=0):
    rng = np.random.default_rng(seed)
    return {name: ParamGroup(name, [(f"{name.lower()}1", rng.normal(size=(2, 3))),
                                    (f"{name.lower()}2", rng.normal(size=(4,)))])
            for name in ("G", "H", "S", "A")}


def write_ckpt_body(path, body: bytes):
    """A version-1 checkpoint around ``body`` whose stored sha256 matches it."""
    path.write_bytes(b"GSCK\x01" + hashlib.sha256(body).digest() + body)


def valid_body(tmp_path) -> bytes:
    path = tmp_path / "valid.ckpt"
    save_checkpoint(path, make_groups(), "abc")
    return path.read_bytes()[37:]


# bodies that match their hash but are cut short or overlong; None stands for
# a valid body followed by two extra bytes
BAD_BODIES = [b"", b"\x00", b"\x00\x00", b"\x00\x00\x04", b"\x00\x00\x01\x01\x00G", None]
BAD_BODY_IDS = ["empty", "cut-digest-length", "cut-group-count", "cut-group-name",
                "cut-entry-count", "trailing-bytes"]


def body_of(digest: bytes, groups) -> bytes:
    """A checkpoint body written field by field: ``groups`` is a list of
    (name, [(label, array), ...]) with names and labels as raw bytes."""
    def lp(raw):
        return len(raw).to_bytes(2, "little") + raw

    body = lp(digest) + bytes([len(groups)])
    for name, entries in groups:
        body += lp(name) + len(entries).to_bytes(4, "little")
        for label, arr in entries:
            body += lp(label) + tensor_to_bytes(arr)
    return body


def with_first_group(name: bytes, entries):
    """Groups named ``name``, then H, S and A, the last three empty."""
    return [(name, entries)] + [(n, []) for n in (b"H", b"S", b"A")]


# bodies that match their hash and are complete but break a naming rule; the
# offset is where the named string's bytes start in the file
W = np.zeros(2)
MISNAMED_BODIES = {
    "digest-not-utf8": (body_of(b"\xff", with_first_group(b"G", [])),
                        "config digest at byte 39 is not UTF-8"),
    "group-not-utf8": (body_of(b"", with_first_group(b"\xff", [])),
                       "group name at byte 42 is not UTF-8"),
    "label-not-utf8": (body_of(b"", with_first_group(b"G", [(b"\xc3", W)])),
                       "entry label at byte 49 is not UTF-8"),
    "duplicate-group": (body_of(b"", [(b"G", [])] + with_first_group(b"G", [])),
                        "duplicate group 'G' at byte 49"),
    "duplicate-label": (body_of(b"", with_first_group(b"G", [(b"w", W), (b"w", W)])),
                        "duplicate entry label 'w' in group 'G' at byte 79"),
}


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        groups = make_groups()
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, groups, "abc123")
        back, digest = load_checkpoint(path)
        assert digest == "abc123"
        for name, g in groups.items():
            assert [lbl for lbl, _ in back[name].entries] == [lbl for lbl, _ in g.entries]
            for (_, a), (_, b) in zip(g.entries, back[name].entries):
                assert np.array_equal(a, b)

    def test_tampered_payload_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_groups(), "aaaa")
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="hash mismatch|corrupted"):
            load_checkpoint(path)

    def test_missing_group_rejected(self, tmp_path):
        groups = make_groups()
        del groups["A"]
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, groups, "")
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("length", [4, 36])
    def test_truncated_header_rejected(self, tmp_path, length):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_groups(), "aaaa")
        path.write_bytes(path.read_bytes()[:length])
        with pytest.raises(ValueError, match=f"truncated checkpoint header: .* have {length}"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, make_groups(), "aaaa")
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("body", BAD_BODIES, ids=BAD_BODY_IDS)
    def test_hash_matching_bad_body_rejected(self, tmp_path, body):
        path = tmp_path / "x.ckpt"
        write_ckpt_body(path, valid_body(tmp_path) + b"xx" if body is None else body)
        with pytest.raises(ValueError, match="truncated|trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", MISNAMED_BODIES)
    def test_misnamed_body_names_field_and_offset(self, tmp_path, case):
        body, message = MISNAMED_BODIES[case]
        path = tmp_path / "x.ckpt"
        write_ckpt_body(path, body)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_checkpoint(path)

    def test_truncation_names_field_and_file_offset(self, tmp_path):
        path = tmp_path / "x.ckpt"
        write_ckpt_body(path, b"\x00\x00\x01\x01\x00G")
        with pytest.raises(ValueError, match="truncated entry count at byte 43: "
                                             "expected 4 bytes, have 0"):
            load_checkpoint(path)


def cut_and_overwritten(blob: bytes, value: int | None):
    """Every prefix of ``blob`` (value None), or every copy of it with one
    byte overwritten by ``value``."""
    if value is None:
        return [blob[:n] for n in range(len(blob))]
    return [blob[:i] + bytes([value]) + blob[i + 1:] for i in range(len(blob))]


class TestReaderFuzz:
    """Every damaged input either loads or raises ValueError."""

    @pytest.mark.parametrize("value", [None, 0x00, 0x7F, 0xFF], ids=["cut", "00", "7F", "FF"])
    def test_checkpoint_body(self, tmp_path, value):
        path = tmp_path / "fuzz.ckpt"
        bodies = cut_and_overwritten(valid_body(tmp_path), value)
        for body in bodies:
            write_ckpt_body(path, body)
            try:
                load_checkpoint(path)
            except ValueError:
                pass
        assert len(bodies) > 400

    @pytest.mark.parametrize("value", [None, 0x00, 0x7F, 0xFF], ids=["cut", "00", "7F", "FF"])
    def test_gstn_rank3(self, tmp_path, value):
        path = tmp_path / "fuzz.gstn"
        blobs = cut_and_overwritten(tensor_to_bytes(np.arange(24.0).reshape(2, 3, 4)), value)
        for blob in blobs:
            path.write_bytes(blob)
            try:
                load_tensor(path)
            except ValueError:
                pass
        assert len(blobs) == 7 + 12 + 192


class TestDatasetDir:
    def test_save_load_round_trip(self, tmp_path):
        ds = gen_task(seed=2, n=3, size=8)
        save_dataset(tmp_path / "d", ds)
        manifest = (tmp_path / "d" / "manifest.txt").read_text().splitlines()
        assert manifest == [f"img_{i:05d}.gstn msk_{i:05d}.gstn" for i in range(3)]
        back = load_dataset(tmp_path / "d")
        assert len(back) == 3
        for a, b in zip(ds.pairs, back.pairs):
            assert np.array_equal(a.mask, b.mask)
            assert np.array_equal(a.image, b.image)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_pgm_import(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        msk = (np.arange(12).reshape(3, 4) % 2 * 255).astype(np.uint8)
        (tmp_path / "img_00000.pgm").write_bytes(b"P5\n4 3\n255\n" + img.tobytes())
        (tmp_path / "msk_00000.pgm").write_bytes(b"P5\n# comment\n4 3\n255\n" + msk.tobytes())
        (tmp_path / "manifest.txt").write_text("img_00000.pgm msk_00000.pgm\n")
        ds = load_dataset(tmp_path)
        assert ds[0].image.shape == (1, 3, 4)
        np.testing.assert_allclose(ds[0].image[0], img / 255.0 * 2 - 1)
        np.testing.assert_array_equal(ds[0].mask[0], (msk >= 128).astype(float))

    def test_pgm_maxval_other_than_255_names_file(self, tmp_path):
        (tmp_path / "img_00000.pgm").write_bytes(b"P5\n4 3\n65535\n" + bytes(24))
        (tmp_path / "msk_00000.pgm").write_bytes(b"P5\n4 3\n255\n" + bytes(12))
        (tmp_path / "manifest.txt").write_text("img_00000.pgm msk_00000.pgm\n")
        with pytest.raises(ValueError, match="PGM maxval must be 255, got 65535: .*img_00000.pgm"):
            load_dataset(tmp_path)

    def test_pgm_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(p)

    @pytest.mark.parametrize("data", [b"P5\n4", b"P5\n4 3\n", b"P5\n4 3\n255",
                                      b"P5\n4 x\n255\n"],
                             ids=["width", "maxval", "end-byte", "non-numeric"])
    def test_pgm_header_cut_names_file(self, tmp_path, data):
        p = tmp_path / "cut.pgm"
        p.write_bytes(data)
        with pytest.raises(ValueError, match="PGM header: .*cut.pgm"):
            read_pgm(p)

    def test_pgm_short_pixels_names_file(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 3\n255\n" + bytes(8))
        with pytest.raises(ValueError, match="truncated PGM pixels of .*short.pgm at byte 11: "
                                             "expected 12 bytes, have 8"):
            read_pgm(p)

    @pytest.mark.parametrize("line", ["img_00001.gstn", "img_00001.gstn msk_00001.gstn extra"],
                             ids=["one-name", "three-names"])
    def test_bad_manifest_line_named(self, tmp_path, line):
        save_dataset(tmp_path, gen_task(seed=2, n=2, size=8))
        (tmp_path / "manifest.txt").write_text(f"img_00000.gstn msk_00000.gstn\n\n{line}\n")
        with pytest.raises(ValueError, match="manifest.txt line 3: expected 'image mask'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("differs", ["channels", "extent", "mask-extent"])
    def test_mixed_shapes_named(self, tmp_path, differs):
        ds = gen_task(seed=2, n=2, size=8)
        odd = ds.pairs[1]
        message = ".* differ from the first pair's"
        if differs == "channels":
            ds.pairs[1] = MaskImagePair(odd.mask, np.concatenate([odd.image, odd.image]))
        elif differs == "extent":
            small = gen_task(seed=3, n=1, size=8).pairs[0]
            ds.pairs[1] = MaskImagePair(small.mask[:, :4, :4], small.image[:, :4, :4])
        else:
            ds.pairs[1] = MaskImagePair(odd.mask[:, :4, :4], odd.image)
            message = re.escape("image (1, 8, 8) vs mask (1, 4, 4)")
        save_dataset(tmp_path, ds)
        with pytest.raises(ValueError, match="img_00001.gstn/msk_00001.gstn: " + message):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("shape", [(2, 8, 8), (8,), (1, 1, 8, 8)],
                             ids=["two-channels", "rank-1", "rank-4"])
    def test_mask_not_one_channel_named(self, tmp_path, shape):
        # the error names the file's own shape, not a promoted one
        ds = gen_task(seed=2, n=2, size=8)
        save_dataset(tmp_path, ds)
        save_tensor(tmp_path / "msk_00001.gstn", np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(f"msk_00001.gstn: mask has shape {shape}, "
                                                       f"expected (1, H, W)")):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("shape", [(8,), (1, 1, 8, 8)], ids=["rank-1", "rank-4"])
    def test_image_of_wrong_rank_named(self, tmp_path, shape):
        ds = gen_task(seed=2, n=2, size=8)
        save_dataset(tmp_path, ds)
        save_tensor(tmp_path / "img_00001.gstn", np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape(f"img_00001.gstn: image has shape {shape}, "
                                                       f"expected (C, H, W)")):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, index, value, allowed", [
        ("img_00001.gstn", 37, np.nan, "finite"),
        ("img_00001.gstn", 0, np.inf, "finite"),
        ("img_00001.gstn", 62, -np.inf, "finite"),
        ("msk_00001.gstn", 10, 0.5, "0 or 1"),
        ("msk_00001.gstn", 0, 2.0, "0 or 1"),
    ], ids=["image-nan", "image-inf", "image-minus-inf", "mask-half", "mask-two"])
    def test_bad_value_named_with_its_flat_index(self, tmp_path, name, index, value, allowed):
        # a second bad value further on: the error names the first
        save_dataset(tmp_path, gen_task(seed=2, n=2, size=8))
        grid = load_tensor(tmp_path / name).copy()
        grid.flat[index] = value
        grid.flat[index + 1] = -7.0 if allowed == "0 or 1" else np.nan
        save_tensor(tmp_path / name, grid)
        what = "image" if name.startswith("img") else "mask"
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: {what} value {value} at flat index {index} is not {allowed}")):
            load_dataset(tmp_path)

    def test_two_d_grids_are_one_channel(self, tmp_path):
        ds = gen_task(seed=2, n=2, size=8)
        save_dataset(tmp_path, ds)
        save_tensor(tmp_path / "img_00001.gstn", ds.pairs[1].image[0])
        save_tensor(tmp_path / "msk_00001.gstn", ds.pairs[1].mask[0])
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.images(), ds.images())
        np.testing.assert_array_equal(loaded.masks(), ds.masks())
