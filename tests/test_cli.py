import hashlib
import os
import re

import numpy as np
import pytest

from genseg import engine
from genseg.autodiff import ParamGroup
from genseg.cli import main, render_svg
from genseg.metrics import read_csv
from genseg.models import SegNet
from genseg.synthdata import (Dataset, MaskImagePair, gen_task, load_checkpoint, load_dataset,
                              save_checkpoint, save_dataset)


def write_config(path, data_dir, out_dir, **overrides):
    base = {
        "mode": "baseline", "seed": 0, "iters": 4, "batch": 0, "img_size": 8,
        "enc_cells": 1, "base_channels": 2, "eta_g": 0.002, "eta_h": 0.002,
        "eta_s": 0.2, "eta_a": 0.0001, "gamma": 1.0, "lambda_l1": 100.0,
        "direct_path": "false",
        "augment.rotate": "true", "augment.flip": "true", "augment.translate": "true",
        "data_dir": str(data_dir), "out_dir": str(out_dir),
    }
    base.update(overrides)
    lines = []
    for k, v in base.items():
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def dataset_dir(tmp_path):
    root = tmp_path / "data"
    for name, seed, n in (("train", 1, 6), ("val", 2, 2), ("test", 3, 4)):
        assert main(["gen-data", "--seed", str(seed), "--n", str(n), "--size", "8",
                     "--out", str(root / name)]) == 0
    return root


class TestGenData:
    def test_count_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--n", "5", "--size", "16", "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 5
        assert "wrote 5 pairs" in capsys.readouterr().out
        ds = load_dataset(out)
        assert ds[0].image.shape == (1, 16, 16)

    def test_rerun_same_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--seed", "7", "--n", "3", "--size", "8",
                         "--out", str(out)]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--size", "31", "power of two"),
        ("--n", "0", "n must be >= 1"),
        ("--difficulty", "-1", "difficulty must be >= 0"),
    ], ids=["size-31", "n-0", "difficulty-neg"])
    def test_bad_size_nonzero_exit(self, tmp_path, capsys, flag, value, message):
        args = ["gen-data", "--n", "2", "--size", "8", flag, value, "--out", str(tmp_path / "x")]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--n", "2", "--size", "8", "--out", str(out)]) == 0
        assert main(["gen-data", "--n", "2", "--size", "8", "--out", str(out)]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["gen-data", "--n", "2", "--size", "8", "--out", str(out), "--force"]) == 0


class TestTrain:
    def test_baseline_smoke_outputs(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "run"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out)
        assert main(["train", "--config", str(cfgp)]) == 0
        for name in ("metrics.csv", "best.ckpt", "final.ckpt", "resolved_config.txt"):
            assert (out / name).exists()
        groups, digest = load_checkpoint(out / "best.ckpt")
        assert set(groups) == {"G", "H", "S", "A"}
        assert len(digest) == 16
        rows = read_csv(out / "metrics.csv")
        assert any(r.split == "val" for r in rows)
        assert rows[-1].split == "test"

    @pytest.mark.parametrize("libs, status", [
        (None, "not applied (threadpoolctl is not installed)"),
        ([], "not applied (threadpoolctl finds no BLAS library)"),
        ([{"user_api": "blas"}, {"user_api": "openmp"}], "applied (1 thread in 1 BLAS library)"),
    ])
    def test_reports_blas_cap_at_start(self, tmp_path, dataset_dir, capsys, monkeypatch,
                                       libs, status):
        monkeypatch.setattr(engine, "threadpool_info", None if libs is None else lambda: libs)
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, tmp_path / "run", iters=1)
        assert main(["train", "--config", str(cfgp)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"BLAS thread cap: {status}")

    def test_determinism_byte_identical(self, tmp_path, dataset_dir):
        blobs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            cfgp = write_config(tmp_path / f"{tag}.cfg", dataset_dir, out,
                                mode="genseg", iters=3)
            assert main(["train", "--config", str(cfgp)]) == 0
            blobs.append(((out / "metrics.csv").read_bytes(),
                          (out / "best.ckpt").read_bytes(),
                          (out / "final.ckpt").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_unknown_config_key_named(self, tmp_path, dataset_dir, capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("mode = baseline\nwibble = 3\n")
        assert main(["train", "--config", str(cfgp)]) == 1
        assert "wibble" in capsys.readouterr().err

    def test_structural_override_named(self, tmp_path, dataset_dir, capsys):
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, tmp_path / "o")
        assert main(["train", "--config", str(cfgp), "--set", "base_channels=0"]) == 1
        assert "base_channels" in capsys.readouterr().err

    def test_set_override_and_mode_flag(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "o"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out)
        assert main(["train", "--config", str(cfgp), "--mode", "separate",
                     "--set", "iters=2"]) == 0
        text = (out / "resolved_config.txt").read_text()
        assert "mode = separate" in text and "iters = 2" in text

    def test_refuses_overwrite(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "o"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, iters=1)
        assert main(["train", "--config", str(cfgp)]) == 0
        assert main(["train", "--config", str(cfgp)]) == 1
        assert main(["train", "--config", str(cfgp), "--force"]) == 0

    def test_tensor_cut_inside_fixed_header(self, tmp_path, dataset_dir, capsys):
        img = dataset_dir / "train" / "img_00000.gstn"
        img.write_bytes(img.read_bytes()[:5])
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, tmp_path / "o")
        capsys.readouterr()
        assert main(["train", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert "error: truncated GSTN header at byte 4" in err

    def test_mixed_shape_dataset_named(self, tmp_path, dataset_dir, capsys):
        small = gen_task(seed=4, n=1, size=8).pairs[0]
        save_dataset(dataset_dir / "train", Dataset(
            load_dataset(dataset_dir / "train").pairs[:1]
            + [MaskImagePair(small.mask[:, :4, :4], small.image[:, :4, :4])]))
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, tmp_path / "o")
        capsys.readouterr()
        assert main(["train", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert "error: img_00001.gstn/msk_00001.gstn" in err and "first pair's" in err

    def test_flat_dataset_dir_is_split(self, tmp_path, capsys):
        flat = tmp_path / "flat"
        assert main(["gen-data", "--n", "10", "--size", "8", "--out", str(flat)]) == 0
        out = tmp_path / "o"
        cfgp = write_config(tmp_path / "c.cfg", flat, out, iters=1)
        assert main(["train", "--config", str(cfgp)]) == 0
        assert (out / "metrics.csv").exists()


class TestEval:
    def test_reproduces_best_val_metric(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "run"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, iters=5)
        assert main(["train", "--config", str(cfgp)]) == 0
        best_val = max(r.dice for r in read_csv(out / "metrics.csv") if r.split == "val")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(out / "best.ckpt"), "--data", str(out / "val")]) == 0
        line = capsys.readouterr().out.strip()
        printed = float(re.search(r"dice=([0-9.]+)", line).group(1))
        assert abs(printed - best_val) < 1e-9

    def test_empty_dataset_usage_error(self, tmp_path, dataset_dir):
        out = tmp_path / "run"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, iters=1)
        assert main(["train", "--config", str(cfgp)]) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.txt").write_text("")
        assert main(["eval", "--ckpt", str(out / "best.ckpt"), "--data", str(empty)]) == 1

    def test_extent_segmenter_cannot_round_trip(self, tmp_path, capsys):
        S = SegNet(depth=2, base_channels=2).init_params(0)
        groups = {name: ParamGroup(name, S.entries if name == "S" else [])
                  for name in ("G", "H", "S", "A")}
        save_checkpoint(tmp_path / "s.ckpt", groups)
        data = gen_task(seed=1, n=2, size=16)
        pairs = [MaskImagePair(p.mask[:, :10, :10], p.image[:, :10, :10]) for p in data]
        save_dataset(tmp_path / "d10", Dataset(pairs))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "s.ckpt"), "--data", str(tmp_path / "d10")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "10x10" in err

    def test_segmenter_layer_missing_from_checkpoint(self, tmp_path, capsys):
        groups = {name: ParamGroup(name, []) for name in ("G", "H", "S", "A")}
        save_checkpoint(tmp_path / "empty.ckpt", groups)
        save_dataset(tmp_path / "d8", gen_task(seed=1, n=2, size=8))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "empty.ckpt"),
                     "--data", str(tmp_path / "d8")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'down1.w'" in err

    def test_truncated_checkpoint_header(self, tmp_path, dataset_dir, capsys):
        (tmp_path / "short.ckpt").write_bytes(b"GSCK")
        assert main(["eval", "--ckpt", str(tmp_path / "short.ckpt"),
                     "--data", str(dataset_dir / "val")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated checkpoint header") and "have 4" in err

    @pytest.mark.parametrize("body", [b"", b"\x00", b"\x00\x00", b"\x00\x00\x04",
                                      b"\x00\x00\x01\x01\x00G", None],
                             ids=["empty", "cut-digest-length", "cut-group-count",
                                  "cut-group-name", "cut-entry-count", "trailing-bytes"])
    def test_hash_matching_bad_body(self, tmp_path, dataset_dir, capsys, body):
        # None: a valid body followed by two extra bytes
        path = tmp_path / "bad.ckpt"
        if body is None:
            groups = {name: ParamGroup(name, []) for name in ("G", "H", "S", "A")}
            save_checkpoint(path, groups)
            body = path.read_bytes()[37:] + b"xx"
        path.write_bytes(b"GSCK\x01" + hashlib.sha256(body).digest() + body)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir / "val")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated ") or err.startswith("error: trailing 2 bytes")

    def test_missing_checkpoint(self, tmp_path, dataset_dir):
        assert main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                     "--data", str(dataset_dir / "val")]) == 1


class TestGradcheckCommand:
    def test_level_grad_passes(self, capsys):
        assert main(["gradcheck", "--level", "grad", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_level_hvp_passes(self, capsys):
        assert main(["gradcheck", "--level", "hvp", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_level_hyper_passes(self, capsys):
        assert main(["gradcheck", "--level", "hyper", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "chain cosine" in out


class TestPlot:
    def csv(self, tmp_path, name, rows):
        p = tmp_path / name
        lines = ["iter,split,dice,jaccard,loss_seg,loss_g,loss_d"]
        lines += [f"{i},val,{d:.6f},{d/2:.6f},0.100000,0.200000,0.300000"
                  for i, d in rows]
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_single_csv_single_metric_polyline(self, tmp_path):
        p = self.csv(tmp_path, "a.csv", [(1, 0.5), (2, 0.6), (3, 0.7)])
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        points = re.search(r'points="([^"]+)"', svg).group(1)
        assert len(points.split()) == 3  # vertex count = row count

    def test_two_csvs_two_legend_entries(self, tmp_path):
        p1 = self.csv(tmp_path, "a.csv", [(1, 0.5), (2, 0.6)])
        p2 = self.csv(tmp_path, "b.csv", [(1, 0.4), (2, 0.5)])
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p1), str(p2), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert ">a<" in svg and ">b<" in svg

    def test_header_only_csv_no_data_text(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("iter,split,dice,jaccard,loss_seg,loss_g,loss_d\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--out", str(out)]) == 0
        assert "no data" in out.read_text()

    def test_multiple_fields(self, tmp_path):
        p = self.csv(tmp_path, "a.csv", [(1, 0.5), (2, 0.6)])
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--fields", "dice,jaccard",
                     "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 2

    def test_unknown_field_rejected(self, tmp_path, capsys):
        p = self.csv(tmp_path, "a.csv", [(1, 0.5)])
        assert main(["plot", "--metrics", str(p), "--fields", "auc",
                     "--out", str(tmp_path / "o.svg")]) == 1

    def test_refuses_overwrite(self, tmp_path):
        p = self.csv(tmp_path, "a.csv", [(1, 0.5)])
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--out", str(out)]) == 0
        assert main(["plot", "--metrics", str(p), "--out", str(out)]) == 1

    def test_render_svg_is_wellformed_xml(self):
        import xml.etree.ElementTree as ET
        svg = render_svg([("run", [1, 2, 3], [0.1, 0.5, 0.3])])
        ET.fromstring(svg)
        svg_empty = render_svg([])
        ET.fromstring(svg_empty)
