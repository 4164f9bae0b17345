"""Output-correctness checks for each genseg process the benchmark runs.

Each check returns a list of problems; an empty list means the outputs are
correct. Any problem counts the process as failed.
"""
from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

from genseg.metrics import read_csv
from genseg.synthdata import load_checkpoint, tensor_to_bytes

EVAL_LINE = re.compile(r"dice=(\S+) jaccard=(\S+) n=(\d+)")


def _unit_interval(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_checkpoints(out_dir: Path) -> list[str]:
    problems = []
    for name in ("best.ckpt", "final.ckpt"):
        try:
            load_checkpoint(out_dir / name)  # verifies the payload hash
        except (OSError, ValueError) as e:
            problems.append(f"{name} does not load: {e}")
    return problems


def check_train(out_dir: Path) -> tuple[list[str], list]:
    """metrics.csv parses, has val rows and one test row, with every dice and
    jaccard finite in [0, 1], and both checkpoints load with their hash
    verified. Returns (problems, records)."""
    try:
        records = read_csv(out_dir / "metrics.csv")
    except (OSError, ValueError) as e:
        return [f"metrics.csv does not parse: {e}"], []
    problems = [f"iteration {r.iteration} {r.split}: dice {r.dice} or jaccard {r.jaccard} "
                f"outside [0, 1]" for r in records
                if not (_unit_interval(r.dice) and _unit_interval(r.jaccard))]
    splits = [r.split for r in records]
    if "val" not in splits or splits.count("test") != 1:
        problems.append(f"metrics.csv needs val rows and one test row, has {splits}")
    return problems + check_checkpoints(out_dir), records


def check_eval(stdout: str, n_expected: int) -> list[str]:
    """``genseg eval`` reported dice and jaccard in [0, 1] over the whole eval set."""
    match = EVAL_LINE.search(stdout)
    if match is None:
        return [f"eval printed no result line: {stdout!r}"]
    dice, jac, n = float(match[1]), float(match[2]), int(match[3])
    problems = []
    if n != n_expected:
        problems.append(f"eval covered n={n}, expected {n_expected}")
    if not (_unit_interval(dice) and _unit_interval(jac)):
        problems.append(f"eval dice {dice} or jaccard {jac} outside [0, 1]")
    return problems


def run_digest(out_dir: Path) -> str:
    """Hash of metrics.csv bytes and the parameter tensors of final.ckpt.

    The checkpoint's config-digest field is left out: it hashes ``out_dir``,
    so it differs between identical runs written to different directories.
    """
    h = hashlib.sha256((out_dir / "metrics.csv").read_bytes())
    groups, _ = load_checkpoint(out_dir / "final.ckpt")
    for name in sorted(groups):
        for label, arr in groups[name].entries:
            h.update(f"{name}/{label}".encode())
            h.update(tensor_to_bytes(arr))
    return h.hexdigest()[:16]
