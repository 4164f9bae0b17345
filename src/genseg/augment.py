"""Binary mask augmentation: quarter-turn rotations, flips, and integer
translations with zero fill, sampled in random sequences.

Only operations that keep masks exactly binary are offered, so no
interpolation or re-thresholding policy is needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sorted; random_sequence draws an index into it, so its order fixes every draw
KINDS = ("flip_h", "flip_v", "rotate90", "translate")
MAX_OPS = 3  # the longest sequence random_sequence draws


@dataclass(frozen=True)
class AugmentOp:
    kind: str
    turns: int = 1   # rotate90: quarter turns, 1..3
    dx: int = 0      # translate: shift along width, positive moves right
    dy: int = 0      # translate: shift along height, positive moves down

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown augment kind '{self.kind}'")
        if self.kind == "rotate90" and self.turns not in (1, 2, 3):
            raise ValueError(f"rotate90 turns must be 1..3, got {self.turns}")


def apply(op: AugmentOp, mask: np.ndarray) -> np.ndarray:
    """Transform a binary mask over its last two axes; shape is preserved.

    An odd number of quarter turns of a non-square mask would not preserve
    it, so that op raises ``ValueError``."""
    mask = np.asarray(mask, dtype=np.float64)
    h, w = mask.shape[-2], mask.shape[-1]
    if op.kind == "rotate90":
        if op.turns % 2 and h != w:
            raise ValueError(f"rotate90 by {op.turns} quarter turns would turn extent {h}x{w} "
                             f"into {w}x{h}")
        return np.ascontiguousarray(np.rot90(mask, k=op.turns, axes=(-2, -1)))
    if op.kind == "flip_h":
        return np.ascontiguousarray(mask[..., :, ::-1])
    if op.kind == "flip_v":
        return np.ascontiguousarray(mask[..., ::-1, :])
    if abs(op.dx) >= w or abs(op.dy) >= h:
        raise ValueError(f"translate ({op.dx},{op.dy}) out of range for extent {h}x{w}")
    out = np.zeros_like(mask)
    src_y = slice(max(0, -op.dy), h - max(0, op.dy))
    src_x = slice(max(0, -op.dx), w - max(0, op.dx))
    dst_y = slice(max(0, op.dy), h - max(0, -op.dy))
    dst_x = slice(max(0, op.dx), w - max(0, -op.dx))
    out[..., dst_y, dst_x] = mask[..., src_y, src_x]
    return out


def apply_sequence(ops, mask: np.ndarray) -> np.ndarray:
    for op in ops:
        mask = apply(op, mask)
    return mask


def random_sequence(rng: np.random.Generator, extent: int) -> list[AugmentOp]:
    """Sample 1..MAX_OPS ops uniformly (kind first, then parameters) from ``rng``.

    Kinds are drawn from all of ``KINDS``, indexed in its sorted order.
    Translation offsets are drawn uniformly from +-extent//4. Generators in
    the same state draw the same sequence.
    """
    length = int(rng.integers(1, MAX_OPS + 1))
    ops = []
    for _ in range(length):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        if kind == "rotate90":
            ops.append(AugmentOp("rotate90", turns=int(rng.integers(1, 4))))
        elif kind == "translate":
            lim = extent // 4
            ops.append(AugmentOp("translate",
                                 dx=int(rng.integers(-lim, lim + 1)),
                                 dy=int(rng.integers(-lim, lim + 1))))
        else:
            ops.append(AugmentOp(kind))
    return ops
