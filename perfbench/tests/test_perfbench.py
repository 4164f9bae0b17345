"""The benchmark's own checks, on a shrunken workload so they run in seconds.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import ORACLE_ITERS, WORKLOADS, Workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = Workload(name="tiny", why="test", mode="genseg", size=16, n_train=4, n_val=4, n_test=4,
                n_eval=8, iters=12)
EXACT_UNITS = ("count", "GFLOP", "MB")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and two traced runs of the same workload and seed."""
    out = {}
    for tag, trace in (("plain", False), ("traced1", True), ("traced2", True)):
        outcome, metrics = run.run_workload(TINY, 5, 0.0, trace, tmp_path_factory.mktemp(tag))
        out[tag] = (outcome, metrics)
    return out


def test_untraced_run_reports_every_end_to_end_metric(tiny_runs):
    outcome, metrics = tiny_runs["plain"]
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted == run.MIN_SETUPS + 2  # set-ups (probes and train), two evals
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for name in ("iter_ms_norm", "setup_s", "peak_rss_mb", "eval_ms_per_image_norm"):
        assert metrics[name] > 0
    # too few iterations to learn anything; the real workloads are sized so dice > 0
    assert 0 <= metrics["val_dice"] <= 1 and 0 <= metrics["test_dice"] <= 1


def test_traced_run_reports_every_per_layer_metric(tiny_runs):
    outcome, metrics = tiny_runs["traced1"]
    assert outcome.failed == 0, outcome.problems
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for it in ORACLE_ITERS:
        assert 0.0 < abs(metrics[f"engine.hypergrad_cos.it{it}"]) <= 1.0
    # stage times and the untraced gap add up to the traced iteration time
    stages = sum(metrics[f"engine.{s}.ms"] for s in run.STAGES)
    assert stages + metrics["engine.other.ms"] == pytest.approx(metrics["engine.iter.ms"])
    assert 0 <= metrics["engine.other.ms"] < 0.1 * metrics["engine.iter.ms"]


def test_traced_counts_repeat_exactly(tiny_runs):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, second = tiny_runs["traced1"][1], tiny_runs["traced2"][1]
    exact = [name for name, unit in units.items() if unit in EXACT_UNITS]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["autodiff.nodes_per_iter"] > 0


def test_repeated_runs_give_identical_outputs(tiny_runs):
    # metrics.csv bytes and final.ckpt parameters; tracing must not change them
    digests = {tag: outcome.info["digest"] for tag, (outcome, _) in tiny_runs.items()}
    assert len(set(digests.values())) == 1, digests


def test_failed_run_is_counted(monkeypatch, capsys):
    # no data written: train exits nonzero on the missing data directory
    monkeypatch.setattr(run, "make_data", lambda wl, seed, data_dir: None)
    rc = run.main(["--workload", "segment", "--seed", "1", "--seconds", "1", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "segment",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_workloads_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
