"""genseg benchmark: one workload, one seed, untraced or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {search32,segment} --seed N \
        --seconds S --trace {0,1}

The benchmark generates the workload's data from ``--seed`` with
``synthdata.gen_task``/``save_dataset``, then drives the program from
outside: every genseg command runs in a fresh Python process
(``perfbench/child.py``) that calls ``genseg.cli.main``. Untraced, it runs
set-up probes (``train`` with ``iters=0``) and ``genseg eval`` before
training, trains once with the workload's fixed iteration count, evaluates
the final checkpoint, and runs more probes, at least seven set-ups in all and
until ``--seconds`` of measuring have passed. Traced, it trains and evaluates
once with layer spans on. Every process's outputs are checked; a process that
exits nonzero or fails a check counts as failed.

Timings are normalized for the host's speed: each sample is divided by the
calibration loop timed right beside it and scaled to REF_CALIB_MS. The raw
wall times are printed too. See NOTES.md.

It prints one line per metric, then as its last line a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. It exits
0 only when every output was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread for every genseg process: runs are then bit-reproducible,
# and the load comes from one process
BLAS_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).with_name("child.py")
DEADLINE_S = 170.0   # every run ends within the 180 s the benchmark allows
MIN_SETUPS, MAX_SETUPS = 7, 15
# the calibration loop's time in the fastest state seen on the 2-core host the
# benchmark was defined on; timings are reported scaled to it
REF_CALIB_MS = 1.7
STAGES = ("stage1", "synth", "stage2", "stage3", "arch_step", "eval")
CELLS = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")


@dataclass
class Outcome:
    """What one run attempted, what failed, and what else it has to say."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    raw: dict[str, tuple[float, str]] = field(default_factory=dict)  # wall times, not normalized
    info: dict = field(default_factory=dict)

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


@dataclass
class Child:
    rc: int
    stdout: str
    stderr: str
    spawned: float        # wall clock just before the process started
    report: dict | None

    def problems(self) -> list[str]:
        if self.rc != 0:
            return [f"exit code {self.rc}: {self.stderr.strip()[-500:]}"]
        if self.report is None:
            return ["no report written"]
        return []


def host_calibration(samples: int = 50) -> float:
    """Median milliseconds of the calibration loop, timed before the run."""
    from perfbench.tracing import calibration_loop

    return 1e3 * statistics.median(calibration_loop() for _ in range(samples))


def normalized(value: float, calib_s: list[float]) -> float:
    """A time scaled to a host on which the calibration loop takes REF_CALIB_MS,
    given calibration samples taken beside it."""
    return value * REF_CALIB_MS / (1e3 * statistics.median(calib_s))


def normalized_each(times: list[float], calib_s: list[float]) -> list[float]:
    """Each time normalized by the calibration samples taken just before and
    just after it (``calib_s[i]`` and ``calib_s[i + 1]``)."""
    return [normalized(t, calib_s[i:i + 2]) for i, t in enumerate(times)]


def inrun_calib_ms(report: dict) -> float:
    """Median calibration sample taken inside a train process, between its
    iterations. Beside ``host.calib_ms`` it shows whether the program's own
    state moved the calibration."""
    return 1e3 * statistics.median(report["calib"])


def make_data(wl, seed: int, data_dir: Path):
    """train/val/test/eval splits of one seeded synthetic task."""
    from genseg import synthdata

    counts = {"train": wl.n_train, "val": wl.n_val, "test": wl.n_test, "eval": wl.n_eval}
    ds = synthdata.gen_task(seed, sum(counts.values()), wl.size)
    start = 0
    for name, n in counts.items():
        part = synthdata.Dataset(ds.pairs[start:start + n], split=name, provenance=ds.provenance)
        synthdata.save_dataset(data_dir / name, part)
        start += n


def spawn(cli_args: list[str], report: Path, deadline: float, trace: bool = False) -> Child:
    cmd = [sys.executable, str(CHILD), "--report", str(report),
           *(["--trace"] if trace else []), "--", *cli_args]
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env={**os.environ, **BLAS_CAP},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:  # the child is killed and reaped by run()
        return Child(-9, str(e.stdout or ""), f"timed out after {e.timeout:.0f} s", spawned, None)
    data = json.loads(report.read_text()) if report.exists() else None
    return Child(proc.returncode, proc.stdout, proc.stderr, spawned, data)


def train_config(path: Path, wl, seed: int, data_dir: Path, iters: int):
    path.write_text(f"mode = {wl.mode}\nseed = {seed}\niters = {iters}\n"
                    f"img_size = {wl.size}\ndata_dir = {data_dir}\n")


class RunFailed(Exception):
    """A genseg process failed its checks; the run stops there."""


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Outcome, dict]:
    """Run one workload in ``work``; returns the outcome and the metrics.

    Untraced, the set-up probes and the eval phase run both before and after
    training, so their medians span the whole run rather than one moment of
    a host whose speed drifts.
    """
    from perfbench import gate

    deadline = time.monotonic() + DEADLINE_S
    out = Outcome()
    calib_ms = host_calibration()
    data = work / "data"
    make_data(wl, seed, data)
    train_config(work / "train.cfg", wl, seed, data, wl.iters)
    train_config(work / "probe.cfg", wl, seed, data, 0)
    setups: list[float] = []       # raw set-up seconds
    setups_norm: list[float] = []  # the same, host-normalized
    chunks_norm: list[float] = []  # eval ms per image, one per chunk, host-normalized
    chunks: list[float] = []       # the same, raw

    def probe():
        k = len(setups)
        child = spawn(["train", "--config", str(work / "probe.cfg"),
                       "--out", str(work / f"probe{k}")], work / f"probe{k}.json", deadline)
        if not out.check(f"set-up probe {k}", child.problems()
                         or gate.check_checkpoints(work / f"probe{k}")):
            raise RunFailed
        add_setup(child)

    def add_setup(child: Child):
        setups.append(child.report["setup_end"] - child.spawned)
        setups_norm.append(normalized(setups[-1], child.report["setup_calib"]))

    def evaluate(ckpt: Path, tag: str) -> dict:
        child = spawn(["eval", "--ckpt", str(ckpt), "--data", str(data / "eval")],
                      work / f"{tag}.json", deadline, trace)
        if not out.check(tag, child.problems() or gate.check_eval(child.stdout, wl.n_eval)):
            raise RunFailed
        per_image = [1e3 * t / n for t, n in child.report["eval_chunks"]]
        chunks.extend(per_image)
        chunks_norm.extend(normalized_each(per_image, child.report["calib"]))
        return child.report

    try:
        t_measure = time.monotonic()
        if not trace:
            for _ in range(MIN_SETUPS // 2):
                probe()
            evaluate(work / "probe0" / "final.ckpt", "eval-untrained")

        run_dir = work / "train"
        train = spawn(["train", "--config", str(work / "train.cfg"), "--out", str(run_dir)],
                      work / "train.json", deadline, trace)
        problems, records = train.problems(), []
        if not problems:
            problems, records = gate.check_train(run_dir)
        if not out.check("train", problems):
            raise RunFailed
        add_setup(train)
        out.info["digest"] = gate.run_digest(run_dir)
        out.info["env"] = train.report["env"]
        ev = evaluate(run_dir / "final.ckpt", "eval")
        if trace:
            return out, layer_metrics(wl, train.report, ev, calib_ms)

        while len(setups) < MIN_SETUPS or (time.monotonic() - t_measure < seconds
                                           and len(setups) < MAX_SETUPS):
            probe()
    except RunFailed:
        return out, {}

    intervals = train.report["intervals"]
    out.raw = {"iter_ms_wall": (1e3 * statistics.median(intervals), "ms"),
               "setup_s_wall": (statistics.median(setups), "s"),
               "eval_ms_per_image_wall": (statistics.median(chunks), "ms")}
    out.info.update(samples=f"{len(intervals)} iterations, {len(chunks)} eval chunks, "
                            f"{len(setups)} set-ups", host_calib_ms=calib_ms,
                    calib_inrun_ms=inrun_calib_ms(train.report))
    val = [r.dice for r in records if r.split == "val"]
    test = [r.dice for r in records if r.split == "test"]
    return out, {
        "iter_ms_norm": 1e3 * statistics.median(normalized_each(intervals, train.report["calib"])),
        "setup_s": statistics.median(setups_norm),
        "peak_rss_mb": train.report["peak_rss_mb"],
        "val_dice": max(val),
        "test_dice": test[0],
        "eval_ms_per_image_norm": statistics.median(chunks_norm),
    }


def layer_metrics(wl, train: dict, ev: dict, calib_ms: float) -> dict:
    """Per-layer metrics from the traced train and eval processes."""
    from perfbench.workloads import ORACLE_ITERS

    layers, n = train["layers"], len(train["traced"])

    def per_iter(name, key="ms", scale=1.0):
        return layers.get(name, {}).get(key, 0.0) * scale / n

    intervals = train["intervals"]  # intervals[i - 1] is iteration i
    traced = [intervals[i - 1] for i in train["traced"]]
    untraced = [intervals[i - 1] for i in train["untraced"]]
    iter_ms = 1e3 * sum(traced) / n
    m = {"engine.iter.ms": iter_ms}
    for stage in STAGES:
        m[f"engine.{stage}.ms"] = per_iter(f"engine.{stage}")
    m["engine.other.ms"] = iter_ms - sum(m[f"engine.{s}.ms"] for s in STAGES)
    m["engine.stage3.share"] = m["engine.stage3.ms"] / iter_ms
    for it in ORACLE_ITERS:
        m[f"engine.hypergrad_cos.it{it}"] = train["hypergrad_cos"].get(str(it), 0.0)

    m["autodiff.nodes_per_iter"] = train["nodes"] / n
    m["autodiff.backward.calls_per_iter"] = per_iter("autodiff.backward", "calls")
    m["autodiff.backward.self_ms_per_iter"] = per_iter("autodiff.backward", "self_ms")
    m["autodiff.hvp.ms"] = per_iter("autodiff.hvp")
    m["autodiff.matmul.calls_per_iter"] = per_iter("autodiff.matmul", "calls")
    m["autodiff.matmul.ms_per_iter"] = per_iter("autodiff.matmul")
    m["autodiff.matmul.gflop_per_iter"] = per_iter("autodiff.matmul", "work", 1e-9)
    for prim in ("im2col", "col2im"):
        m[f"tensor.{prim}.calls_per_iter"] = per_iter(f"tensor.{prim}", "calls")
        m[f"tensor.{prim}.ms_per_iter"] = per_iter(f"tensor.{prim}")
        m[f"tensor.{prim}.mb_per_iter"] = per_iter(f"tensor.{prim}", "work", 1e-6)
    for net in ("gen", "disc", "seg"):
        m[f"models.{net}.forwards_per_iter"] = per_iter(f"models.{net}", "calls")
        m[f"models.{net}.forward_ms"] = per_iter(f"models.{net}")
    for cell in CELLS:
        m[f"models.cell.{cell}.forward_ms"] = per_iter(f"models.cell.{cell}")

    def ms(spans, name):
        return spans.get(name, {}).get("ms", 0.0)

    io, ev_layers = train["io"], ev["layers"]
    for name in ("load_dataset", "save_checkpoint"):
        m[f"synthdata.{name}.ms"] = ms(io, f"synthdata.{name}")
    m["synthdata.load_checkpoint.ms"] = ms(ev_layers, "synthdata.load_checkpoint")
    for name, span in (("seg.forward", "models.seg"), ("im2col", "tensor.im2col"),
                       ("col2im", "tensor.col2im"), ("matmul", "autodiff.matmul")):
        m[f"eval.{name}.ms_per_image"] = ms(ev_layers, span) / wl.n_eval
    m["host.calib_ms"] = calib_ms
    m["host.calib_inrun_ms"] = inrun_calib_ms(train)
    m["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


def main(argv=None) -> int:
    os.environ.update(BLAS_CAP)  # before this process first imports numpy
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description="genseg benchmark: one workload, one seed")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "genseg" / "cli.py").is_file():
        print(f"error: no genseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = unit_table()
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out, metrics = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, (value, unit) in out.raw.items():
        print(f"  {name:<36} {value:>14.6g} {unit}  (not normalized)")
    print(f"  {'failed_share':<36} {out.failed / out.attempted:>14.6g} "
          f"({out.failed} of {out.attempted} runs)")
    for key, value in out.info.items():
        print(f"  {key}: {value}")
    for problem in out.problems:
        print(f"  FAILED {problem}")
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def unit_table() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
