import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import genseg
from genseg import engine, synthdata
from genseg.autodiff import ParamGroup
from genseg.cli import main, render_svg
from genseg.metrics import CSV_HEADER, read_csv
from genseg.models import SegNet
from genseg.synthdata import (Dataset, MaskImagePair, gen_task, load_checkpoint, load_dataset,
                              save_checkpoint, save_dataset)


def write_config(path, data_dir, out_dir, **overrides):
    base = {
        "mode": "baseline", "seed": 0, "iters": 4, "img_size": 8,
        "enc_cells": 1, "base_channels": 2, "eta_g": 0.002, "eta_h": 0.002,
        "eta_s": 0.2, "eta_a": 0.0001, "gamma": 1.0, "lambda_l1": 100.0,
        "data_dir": str(data_dir), "out_dir": str(out_dir),
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def save_segmenter(path, S):
    """A checkpoint whose only parameters are the segmenter group ``S``."""
    save_checkpoint(path, {name: S if name == "S" else ParamGroup(name, [])
                           for name in ("G", "H", "S", "A")})


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
        ("--difficulty", "inf", "difficulty must be >= 0"),
        ("--difficulty", "nan", "difficulty must be >= 0"),
    ], ids=["size-31", "n-0", "difficulty-neg", "difficulty-inf", "difficulty-nan"])
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


    def test_out_file_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        calls = []
        monkeypatch.setattr(synthdata, "gen_task", lambda *args: calls.append(args))
        assert main(["gen-data", "--n", "3000", "--size", "32", "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls == []
        assert taken.read_text() == "a file\n"

    def test_out_under_file_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        calls = []
        monkeypatch.setattr(synthdata, "gen_task", lambda *args: calls.append(args))
        out = taken / "sub" / "data"
        assert main(["gen-data", "--n", "3000", "--size", "32", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == ["taken"]
        assert taken.read_text() == "a file\n"


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

    @pytest.mark.parametrize("mode", ["genseg", "separate"])
    def test_checkpoint_bytes_independent_of_blas_threads(self, tmp_path, mode):
        # 32 px with base_channels 8: G has 179377 entries, enough for a
        # threaded BLAS to split a reduction over it. Seed 1 is one where such
        # a split moved the finite-difference step of a norm taken by BLAS
        data = tmp_path / "data"
        for name, seed in (("train", 1), ("val", 2)):
            assert main(["gen-data", "--seed", str(seed), "--n", "4", "--size", "32",
                         "--out", str(data / name)]) == 0
        src = os.path.dirname(os.path.dirname(genseg.__file__))
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            cfgp = write_config(tmp_path / f"{threads}.cfg", data, out, mode=mode, seed=1,
                                iters=4, img_size=32, enc_cells=3, base_channels=8)
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "genseg.cli", "train", "--config", str(cfgp)],
                           env=env, check=True, capture_output=True)
            blobs.append((out / "final.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", engine.MODES)
    def test_zero_iterations_writes_initial_checkpoints(self, tmp_path, dataset_dir, mode,
                                                         capsys):
        # the benchmark's set-up probe: no iteration, no validation and no test
        # score, so both checkpoints hold the initial parameters and no best
        # validation dice is reported
        out = tmp_path / "run"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, mode=mode, iters=0)
        assert main(["train", "--config", str(cfgp)]) == 0
        assert "best_val_dice" not in capsys.readouterr().out
        assert (out / "metrics.csv").read_text() == CSV_HEADER + "\n"
        cfg = engine.parse_config(cfgp.read_text())
        train, val = (load_dataset(dataset_dir / name) for name in ("train", "val"))
        init = engine.Trainer(cfg, train, val).init_state().groups()

        def tensors(groups):
            return {k: [(lbl, arr.shape, arr.tobytes()) for lbl, arr in g.entries]
                    for k, g in groups.items()}

        for name in ("best.ckpt", "final.ckpt"):
            assert tensors(load_checkpoint(out / name)[0]) == tensors(init)

    def test_unknown_config_key_named(self, tmp_path, dataset_dir, capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("mode = baseline\nwibble = 3\n")
        assert main(["train", "--config", str(cfgp)]) == 1
        assert "wibble" in capsys.readouterr().err

    def test_key_set_twice_in_file_named_with_both_lines(self, tmp_path, dataset_dir, capsys):
        # a second value for a key is refused, not silently taken; --set still
        # overrides the file's one value
        out = tmp_path / "run"
        cfgp = tmp_path / "twice.cfg"
        cfgp.write_text("mode = baseline\niters = 1\n# comment\niters = 2\n")
        assert main(["train", "--config", str(cfgp), "--out", str(out)]) == 1
        assert "line 4: 'iters' already set on line 2" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(engine.ConfigError, match="line 2: 'seed' already set on line 1"):
            engine.parse_config("seed = 1\nseed = 1", {"seed": "3"})
        assert engine.parse_config("seed = 1", {"seed": "3"}).seed == 3

    @pytest.mark.parametrize("key, via_set", [("direct_path", False), ("augment.flip", False),
                                              ("augment.translate", True), ("batch", False),
                                              ("batch", True)],
                             ids=["direct_path", "augment.flip", "set-augment.translate", "batch",
                                  "set-batch"])
    def test_removed_key_rejected(self, tmp_path, dataset_dir, capsys, key, via_set):
        # no key selects the hypergradient, the augmentation kinds or the
        # minibatch: a config or --set that still names a removed one fails
        # before any run
        out = tmp_path / "o"
        if via_set:
            cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out)
            extra, where = ["--set", f"{key}=false"], "override: "
        else:
            cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, **{key: "false"})
            extra, where = [], ""
        assert main(["train", "--config", str(cfgp)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{where}unknown config key '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, edited, argv, message", [
        (None, None, ["--set", "foo"], "--set needs key=value, got 'foo'"),
        ("out_dir", "", [], "no output directory (set out_dir in the config or pass --out)"),
        ("data_dir", "", [], "no data directory (set data_dir in the config)"),
        ("iters", "iters 3\n", [], "line 3: expected 'key = value', got 'iters 3'"),
        ("eta_s", "eta_s = abc\n", [], "key 'eta_s': not a number: 'abc'"),
        (None, None, ["--set", "iters=1", "--set", "iters=2", "--set", "mode=baseline",
                      "--mode", "separate"],
         "config key 'iters' is set twice on the command line"),
        (None, None, ["--set", "mode=baseline", "--mode", "separate"],
         "config key 'mode' is set twice on the command line"),
        (None, None, ["--out", "p", "--set", "out_dir=q"],
         "config key 'out_dir' is set twice on the command line"),
    ], ids=["set-without-value", "no-out-dir", "no-data-dir", "line-without-equals",
            "value-not-a-number", "set-twice", "mode-flag-and-set", "out-flag-and-set"])
    def test_bad_config_is_one_error_line(self, tmp_path, dataset_dir, capsys, monkeypatch,
                                          line, edited, argv, message):
        # the config line of key ``line`` is replaced by ``edited``
        monkeypatch.chdir(tmp_path)
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, "o")
        if line is not None:
            cfgp.write_text(re.sub(rf"^{line} = .*\n", edited, cfgp.read_text(), flags=re.M))
        before = sorted(os.listdir(tmp_path))
        assert main(["train", "--config", str(cfgp)] + argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_out_path_that_would_not_read_back_rejected(self, tmp_path, dataset_dir, capsys,
                                                        monkeypatch):
        # the resolved config of --out 'run#1' would read back as out_dir = run
        monkeypatch.chdir(tmp_path)
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, "o")
        before = sorted(os.listdir(tmp_path))
        assert main(["train", "--config", str(cfgp), "--out", "run#1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out_dir must hold no '#'") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    def test_aborted_run_keeps_its_config(self, tmp_path, dataset_dir, capsys, monkeypatch):
        def abort(self):
            raise engine.TrainingAborted("generator loss became non-finite (nan) at iteration 1")

        monkeypatch.setattr(engine.Trainer, "train", abort)
        out = tmp_path / "o"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, mode="genseg")
        assert main(["train", "--config", str(cfgp), "--set", "iters=2"]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert os.listdir(out) == ["resolved_config.txt"]
        ran = engine.parse_config(cfgp.read_text(), {"iters": "2"})
        assert engine.parse_config((out / "resolved_config.txt").read_text()) == ran

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

    def test_out_path_that_is_a_file_fails_before_training(self, tmp_path, dataset_dir,
                                                           capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        trained = []
        monkeypatch.setattr(engine.Trainer, "train", lambda self: trained.append(1))
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, tmp_path / "o")
        capsys.readouterr()
        assert main(["train", "--config", str(cfgp), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert trained == []
        assert out.read_text() == "not a directory\n"

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

    @pytest.mark.parametrize("mode", ["genseg", "baseline"])
    def test_split_of_another_extent_fails_before_training(self, tmp_path, dataset_dir,
                                                           capsys, monkeypatch, mode):
        assert main(["gen-data", "--seed", "3", "--n", "4", "--size", "16",
                     "--out", str(dataset_dir / "test"), "--force"]) == 0
        steps = []
        monkeypatch.setattr(engine.Trainer, "train", lambda self: steps.append(1))
        out = tmp_path / "o"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out, mode=mode)
        capsys.readouterr()
        assert main(["train", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: test split pair 0: image shape (1, 16, 16) is not (1, 8, 8) "
                       "for img_size 8\n")
        assert steps == [] and not (out / "metrics.csv").exists()

    def test_two_channel_masks_named(self, tmp_path, dataset_dir, capsys):
        pairs = [MaskImagePair(np.concatenate([p.mask, p.mask]), p.image)
                 for p in load_dataset(dataset_dir / "train").pairs]
        save_dataset(dataset_dir / "train", Dataset(pairs))
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, tmp_path / "o")
        capsys.readouterr()
        assert main(["train", "--config", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "msk_00000.gstn" in err and "(2, 8, 8)" in err

    @pytest.mark.parametrize("name, value", [("img_00001.gstn", np.nan),
                                             ("msk_00001.gstn", 0.5)],
                             ids=["image-nan", "mask-half"])
    def test_bad_values_are_one_error_line_naming_the_file(self, tmp_path, dataset_dir,
                                                           capsys, name, value):
        # train refuses before it writes a metric, and eval before it scores
        path = dataset_dir / "val" / name
        grid = synthdata.load_tensor(path).copy()
        grid.flat[5] = value
        synthdata.save_tensor(path, grid)
        S = SegNet(base_channels=2).init_params(0)
        save_checkpoint(tmp_path / "s.ckpt", {g: S if g == "S" else ParamGroup(g, [])
                                              for g in ("G", "H", "S", "A")})
        out = tmp_path / "o"
        cfgp = write_config(tmp_path / "c.cfg", dataset_dir, out)
        for argv in (["train", "--config", str(cfgp)],
                     ["eval", "--ckpt", str(tmp_path / "s.ckpt"), "--data", str(path.parent)]):
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
        assert not (out / "metrics.csv").exists()

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
        save_segmenter(tmp_path / "s.ckpt", SegNet(base_channels=2).init_params(0))
        data = gen_task(seed=1, n=2, size=16)
        pairs = [MaskImagePair(p.mask[:, :10, :10], p.image[:, :10, :10]) for p in data]
        save_dataset(tmp_path / "d10", Dataset(pairs))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "s.ckpt"), "--data", str(tmp_path / "d10")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "10x10" in err

    def test_extent_multiple_of_two_to_the_depth_evaluates(self, tmp_path, capsys):
        # 12 halves to 6 then 3, and 3 doubles back to 6 then 12
        save_segmenter(tmp_path / "s.ckpt", SegNet(base_channels=2).init_params(0))
        data = gen_task(seed=1, n=2, size=16)
        pairs = [MaskImagePair(p.mask[:, :12, :12], p.image[:, :12, :12]) for p in data]
        save_dataset(tmp_path / "d12", Dataset(pairs))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "s.ckpt"),
                     "--data", str(tmp_path / "d12")]) == 0
        assert capsys.readouterr().out.endswith(" n=2\n")

    def test_channel_mismatch_names_both_counts(self, tmp_path, capsys):
        S = SegNet(img_channels=2, base_channels=2).init_params(0)
        save_segmenter(tmp_path / "c2.ckpt", S)
        save_dataset(tmp_path / "d8", gen_task(seed=1, n=2, size=8))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "c2.ckpt"),
                     "--data", str(tmp_path / "d8")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1-channel" in err and "takes 2" in err

    def test_bad_checkpoint_fails_before_reading_data(self, tmp_path, dataset_dir, monkeypatch,
                                                      capsys):
        save_segmenter(tmp_path / "empty.ckpt", ParamGroup("S", []))
        calls = []
        monkeypatch.setattr("genseg.cli.load_dataset",
                            lambda *a: calls.append(a) or load_dataset(*a))
        assert main(["eval", "--ckpt", str(tmp_path / "empty.ckpt"),
                     "--data", str(dataset_dir / "val")]) == 1
        assert calls == []
        assert "'down1.w'" in capsys.readouterr().err

    def test_segmenter_layer_missing_from_checkpoint(self, tmp_path, capsys):
        save_segmenter(tmp_path / "empty.ckpt", ParamGroup("S", []))
        save_dataset(tmp_path / "d8", gen_task(seed=1, n=2, size=8))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "empty.ckpt"),
                     "--data", str(tmp_path / "d8")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'down1.w'" in err

    def test_three_class_head_rejected(self, tmp_path, capsys):
        # a head with a third output would otherwise score argmax over two of them
        rng = np.random.default_rng(0)
        S = SegNet(base_channels=2).init_params(0)
        S = ParamGroup("S", [(lbl, rng.normal(size=(3, *arr.shape[1:]))
                              if lbl.startswith("head.") else arr) for lbl, arr in S.entries])
        save_segmenter(tmp_path / "c3.ckpt", S)
        save_dataset(tmp_path / "d8", gen_task(seed=1, n=2, size=8))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path / "c3.ckpt"),
                     "--data", str(tmp_path / "d8")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "'head.w'" in err

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

    def test_duplicate_group_named(self, tmp_path, dataset_dir, capsys):
        path = tmp_path / "dup.ckpt"
        save_checkpoint(path, {name: ParamGroup(name, []) for name in ("A", "G", "H", "S")})
        # the body lists its groups in name order: A, G, H, S; rename H to G
        body = path.read_bytes()[37:].replace(b"\x01\x00H", b"\x01\x00G")
        path.write_bytes(b"GSCK\x01" + hashlib.sha256(body).digest() + body)
        assert main(["eval", "--ckpt", str(path), "--data", str(dataset_dir / "val")]) == 1
        assert capsys.readouterr().err == "error: duplicate group 'G' at byte 56\n"

    def test_missing_checkpoint(self, tmp_path, dataset_dir):
        assert main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                     "--data", str(dataset_dir / "val")]) == 1


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "2", "--size", "8", "--out", "{file}"],
    ["eval", "--ckpt", "{dir}", "--data", "{data}/val"],
    ["plot", "--metrics", "{dir}", "--out", "{dir}/p.svg"],
    ["plot", "--metrics", "{csv}", "--out", "{dir}/nodir/p.svg"],
], ids=["gen-data-out-file", "eval-ckpt-dir", "plot-metrics-dir", "plot-out-no-dir"])
def test_unusable_path_is_one_error_line(tmp_path, dataset_dir, capsys, argv):
    # a path naming the wrong kind of file, or no parent directory
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    csv = tmp_path / "m.csv"
    csv.write_text("iter,split,dice,jaccard,loss_seg,loss_g,loss_d\n")
    paths = {"file": taken, "dir": tmp_path, "data": dataset_dir, "csv": csv}
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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

    def test_import_leaves_gradient_checks_out(self):
        # only gradcheck imports genseg.checks; train, eval, gen-data and
        # plot do not load it at start-up
        src = os.path.dirname(os.path.dirname(genseg.__file__))
        probe = "import sys, genseg.cli; print('genseg.checks' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                              check=True, capture_output=True, text=True)
        assert done.stdout == "False\n"


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

    @pytest.mark.parametrize("fields", [",", "", " , "])
    def test_empty_field_list_rejected(self, tmp_path, capsys, fields):
        p = self.csv(tmp_path, "a.csv", [(1, 0.5)])
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--fields", fields, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --fields names no field") and err.count("\n") == 1
        assert not out.exists()

    def test_file_stem_label_escaped(self, tmp_path):
        import xml.dom.minidom
        p = self.csv(tmp_path, "a&b<1>.csv", [(1, 0.5), (2, 0.6)])
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--out", str(out)]) == 0
        texts = xml.dom.minidom.parse(str(out)).getElementsByTagName("text")
        assert "a&b<1>" in [t.firstChild.data for t in texts]

    def test_unknown_field_lists_metric_columns(self, tmp_path, capsys):
        p = self.csv(tmp_path, "a.csv", [(1, 0.5)])
        assert main(["plot", "--metrics", str(p), "--fields", "dice,auc",
                     "--out", str(tmp_path / "o.svg")]) == 1
        assert ("unknown field 'auc' (choose from ['dice', 'jaccard', 'loss_d', 'loss_g', "
                "'loss_seg'])") in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("1,val,0.5,0.4", "line 2: expected 7 fields, got 4"),
        ("1,val,abc,0.4,0.1,0.2,0.3", "line 2: field 'dice': cannot read 'abc' as float"),
    ], ids=["short", "bad-number"])
    def test_malformed_row_named(self, tmp_path, capsys, row, message):
        p = tmp_path / "a.csv"
        p.write_text("iter,split,dice,jaccard,loss_seg,loss_g,loss_d\n" + row + "\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "--metrics", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"
        assert not out.exists()

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
