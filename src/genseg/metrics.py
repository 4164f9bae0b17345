"""Overlap metrics for binary segmentation and multi-seed aggregation."""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np


def overlap_scores(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dice 2|A∩B| / (|A|+|B|) and jaccard |A∩B| / |A∪B| of each image of two
    same-shaped batches (leading axis), from per-image sums taken over the
    whole batch at once; 1.0 where both masks are empty."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    shape = (len(pred), math.prod(pred.shape[1:]))
    pred, truth = pred.reshape(shape), truth.reshape(shape)
    inter = np.sum(pred * truth, axis=1)
    total = np.sum(pred, axis=1) + np.sum(truth, axis=1)
    union = total - inter
    d, j = np.ones(len(pred)), np.ones(len(pred))
    np.divide(2.0 * inter, total, out=d, where=total != 0.0)
    np.divide(inter, union, out=j, where=union != 0.0)
    return d, j


@dataclass
class EvalRecord:
    iteration: int
    split: str  # train | val | test
    dice: float
    jaccard: float
    loss_seg: float = 0.0
    loss_g: float = 0.0
    loss_d: float = 0.0


CSV_HEADER = "iter,split,dice,jaccard,loss_seg,loss_g,loss_d"


def records_to_csv(records) -> str:
    """CSV text: fixed header, 6 decimal places, line-feed terminated rows."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(f"{r.iteration},{r.split},{r.dice:.6f},{r.jaccard:.6f},"
                  f"{r.loss_seg:.6f},{r.loss_g:.6f},{r.loss_d:.6f}\n")
    return buf.getvalue()


def write_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(records_to_csv(records))


# the type of each CSV column, in header order
_CSV_TYPES = (int, str, float, float, float, float, float)


def read_csv(path) -> list[EvalRecord]:
    """Records from a metrics CSV; a malformed row raises a ``ValueError``
    naming the file, the line and, for an unreadable or non-finite value, the
    field. Training writes only finite values."""
    names = CSV_HEADER.split(",")
    out = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header: {header!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            values = line.strip().split(",")
            if len(values) != len(names):
                raise ValueError(f"{path}: line {lineno}: expected {len(names)} fields, "
                                 f"got {len(values)}")
            row = []
            for name, kind, raw in zip(names, _CSV_TYPES, values):
                try:
                    row.append(kind(raw))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: field '{name}': "
                                     f"cannot read {raw!r} as {kind.__name__}") from None
                if kind is float and not math.isfinite(row[-1]):
                    raise ValueError(f"{path}: line {lineno}: field '{name}': "
                                     f"{raw!r} is not finite")
            out.append(EvalRecord(*row))
    return out


def aggregate(per_seed_values) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1; zero for a single value)."""
    vals = np.asarray(list(per_seed_values), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("aggregate needs at least one value")
    mean = float(np.mean(vals))
    std = 0.0 if vals.size < 2 else float(np.std(vals, ddof=1))
    return mean, std
