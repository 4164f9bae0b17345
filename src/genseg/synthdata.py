"""Deterministic synthetic segmentation tasks, dataset splits, and the
bit-exact GSTN tensor / checkpoint file formats.

A task example is a binary mask (random ellipses and rectangles) plus a
rendered image: textured foreground where the mask is set, a vertically
graded background elsewhere, and seeded Gaussian noise. The render is a
deterministic function of the mask given the noise draw, so a ground-truth
mask-to-image mapping exists for the generator to learn.
"""
from __future__ import annotations

import hashlib
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ParamGroup

GSTN_MAGIC = b"GSTN"
CKPT_MAGIC = b"GSCK"
CKPT_HEADER_LEN = 37  # magic, version byte, sha256 of the body

# render constants: foreground band 0.2..0.6 under a stripe pattern, background
# graded into the same band near the bottom so plain thresholding cannot solve
# the task and shape context carries information
FG_BASE = 0.4
FG_AMP = 0.2
FG_FREQ = 2.0 * np.pi / 8.0
BG_TOP = -0.7
BG_BOTTOM = 0.45
NOISE_SIGMA = 0.05

MASK_CHANNELS = 1  # every mask, the generator's input and the segmenter's target

# the values a pair may hold, as (description, elementwise test) rules that
# load_dataset applies to every file and Trainer to every in-memory pair
IMAGE_VALUES = ("finite", np.isfinite)
MASK_VALUES = ("0 or 1", lambda t: (t == 0) | (t == 1))


def check_values(t: np.ndarray, rule, where: str):
    """A ValueError naming ``where``, and the first value of ``t`` that fails ``rule``."""
    allowed, test = rule
    ok = test(t)
    if not ok.all():
        k = int(np.argmin(ok))  # the first False
        raise ValueError(f"{where} value {float(t.flat[k])} at flat index {k} is not {allowed}")


@dataclass
class MaskImagePair:
    mask: np.ndarray   # (MASK_CHANNELS, H, W), values in {0, 1}
    image: np.ndarray  # (C, H, W), values in [-1, 1]


@dataclass
class Dataset:
    pairs: list[MaskImagePair] = field(default_factory=list)
    split: str = ""
    provenance: str = ""

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, idx):
        return self.pairs[idx]

    def masks(self, indices=None) -> np.ndarray:
        idx = range(len(self.pairs)) if indices is None else indices
        return np.stack([self.pairs[i].mask for i in idx])

    def images(self, indices=None) -> np.ndarray:
        idx = range(len(self.pairs)) if indices is None else indices
        return np.stack([self.pairs[i].image for i in idx])


def _ellipse(size: int, rng: np.random.Generator) -> np.ndarray:
    cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
    ry = rng.uniform(size / 8, size / 3)
    rx = rng.uniform(size / 8, size / 3)
    yy, xx = np.mgrid[0:size, 0:size]
    return (((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0).astype(np.float64)


def _rectangle(size: int, rng: np.random.Generator) -> np.ndarray:
    side_min = max(2, size // 8)
    h = int(rng.integers(side_min, max(side_min + 1, size // 2)))
    w = int(rng.integers(side_min, max(side_min + 1, size // 2)))
    y0 = int(rng.integers(0, size - h))
    x0 = int(rng.integers(0, size - w))
    out = np.zeros((size, size), dtype=np.float64)
    out[y0:y0 + h, x0:x0 + w] = 1.0
    return out


def _random_mask(size: int, max_shapes: int, rng: np.random.Generator) -> np.ndarray:
    n_shapes = int(rng.integers(1, max_shapes + 1))
    mask = np.zeros((size, size), dtype=np.float64)
    for _ in range(n_shapes):
        shape = _ellipse(size, rng) if rng.integers(2) == 0 else _rectangle(size, rng)
        mask = np.maximum(mask, shape)
    return mask


def render_image(mask: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """Deterministic image for a binary (H, W) mask, optional additive noise."""
    mask = np.asarray(mask, dtype=np.float64)
    size_y, size_x = mask.shape
    yy, xx = np.mgrid[0:size_y, 0:size_x]
    fg = FG_BASE + FG_AMP * np.sin(FG_FREQ * (xx + yy))
    grade = BG_TOP + (BG_BOTTOM - BG_TOP) * (yy / max(1, size_y - 1))
    img = np.where(mask > 0.5, fg, grade)
    if noise is not None:
        img = img + noise
    return np.clip(img, -1.0, 1.0)


def gen_task(seed: int, n: int, size: int, difficulty: float = 1.0) -> Dataset:
    """n mask/image pairs at the given extent; reproducible from the seed.

    ``difficulty`` scales the noise sigma and the maximum shape count
    (1.0 gives sigma 0.05 and up to three shapes). Masks are resampled until
    the foreground fraction lands in [0.02, 0.6].
    """
    if size < 8 or size & (size - 1):
        raise ValueError(f"size must be a power of two >= 8, got {size}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= difficulty < math.inf:
        raise ValueError(f"difficulty must be >= 0 and finite, got {difficulty}")
    rng = np.random.default_rng(seed)
    sigma = NOISE_SIGMA * difficulty
    max_shapes = 1 + round(2 * difficulty)
    pairs = []
    for _ in range(n):
        while True:
            mask = _random_mask(size, max_shapes, rng)
            frac = mask.mean()
            if 0.02 <= frac <= 0.6:
                break
        noise = rng.normal(0.0, sigma, size=mask.shape) if sigma > 0 else None
        image = render_image(mask, noise)
        pairs.append(MaskImagePair(mask[None], image[None]))
    return Dataset(pairs, provenance=f"gen_task(seed={seed},n={n},size={size},difficulty={difficulty})")


def split(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then the first ``round(0.8 * n)`` pairs for train and
    the rest for val: the paper's 80/20 cut of a flat data directory."""
    perm = np.random.default_rng(seed).permutation(len(dataset))
    cut = round(0.8 * len(dataset))

    def part(idx, name):
        return Dataset([dataset.pairs[j] for j in idx], split=name, provenance=dataset.provenance)
    return part(perm[:cut], "train"), part(perm[cut:], "val")


# ---------------------------------------------------------------------------
# GSTN tensor format: magic 'GSTN', version 0x01, dtype byte 0x00 (float64
# little-endian), rank byte, rank x uint32-LE extents, row-major payload.
# Every field is read through _take, so a short blob fails with a ValueError
# naming the field and its byte offset; a .gstn file rejects trailing bytes.
# ---------------------------------------------------------------------------

def _take(buf, offset: int, n: int, what: str):
    """``n`` bytes of ``buf`` at ``offset`` and the offset after them."""
    if len(buf) - offset < n:
        raise ValueError(f"truncated {what} at byte {offset}: expected {n} bytes, "
                         f"have {len(buf) - offset}")
    return buf[offset:offset + n], offset + n


def _expect_end(buf, offset: int, what: str):
    if offset != len(buf):
        raise ValueError(f"trailing {len(buf) - offset} bytes after {what} at byte {offset}")


def tensor_to_bytes(t: np.ndarray) -> bytes:
    t = np.asarray(t, dtype="<f8")  # ascontiguousarray would promote rank 0 to rank 1
    if t.ndim > 255:
        raise ValueError("rank too large for GSTN")
    header = GSTN_MAGIC + bytes([1, 0, t.ndim])
    header += b"".join(struct.pack("<I", e) for e in t.shape)
    return header + t.tobytes(order="C")


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one GSTN blob at ``offset``; returns (tensor, next offset)."""
    buf, base = memoryview(buf), offset
    magic, offset = _take(buf, offset, 4, "GSTN magic")
    if magic != GSTN_MAGIC:
        raise ValueError(f"bad GSTN magic at byte {base}")
    (version, dtype, rank), offset = _take(buf, offset, 3, "GSTN header")
    if version != 1:
        raise ValueError(f"unsupported GSTN version {version} at byte {base + 4}")
    if dtype != 0:
        raise ValueError(f"unsupported GSTN dtype {dtype} at byte {base + 5}")
    extents, offset = _take(buf, offset, 4 * rank, "GSTN extents")
    shape = struct.unpack(f"<{rank}I", extents)
    payload, offset = _take(buf, offset, 8 * math.prod(shape), "GSTN payload")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64), offset


def save_tensor(path, t: np.ndarray):
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(t))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    t, end = tensor_from_bytes(buf)
    _expect_end(buf, end, "GSTN payload")
    return t


# ---------------------------------------------------------------------------
# checkpoint format: magic 'GSCK', version, sha256 of the remaining payload,
# length-prefixed config digest, then the four parameter groups as
# length-prefixed labels with embedded GSTN blobs. Past the 37-byte header
# every read is bounds-checked by _take at its file offset, and bytes left
# after the last group are rejected even when the hash matches. The config
# digest is returned as read, never compared.
# ---------------------------------------------------------------------------

def _lp_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _read_lp_str(buf, offset: int, what: str) -> tuple[str, int, int]:
    """A length-prefixed UTF-8 string, the file offset of its bytes, and the
    offset after them."""
    size, start = _take(buf, offset, 2, f"{what} length")
    raw, offset = _take(buf, start, int.from_bytes(size, "little"), what)
    try:
        return str(raw, "utf-8"), start, offset
    except UnicodeDecodeError:
        raise ValueError(f"{what} at byte {start} is not UTF-8") from None


def save_checkpoint(path, groups: dict[str, ParamGroup], config_digest: str = ""):
    """Persist parameter groups (expected keys G, H, S, A) plus a config digest."""
    body = _lp_str(config_digest)
    body += bytes([len(groups)])
    for name in sorted(groups):
        group = groups[name]
        body += _lp_str(name)
        body += struct.pack("<I", len(group.entries))
        for label, arr in group.entries:
            body += _lp_str(label) + tensor_to_bytes(arr)
    blob = CKPT_MAGIC + bytes([1]) + hashlib.sha256(body).digest() + body
    with open(path, "wb") as f:
        f.write(blob)


def load_checkpoint(path) -> tuple[dict[str, ParamGroup], str]:
    """Read groups and the stored config digest; tampering raises."""
    with open(path, "rb") as f:
        buf = memoryview(f.read())
    if buf[:4] != CKPT_MAGIC:
        raise ValueError("bad checkpoint magic at byte 0")
    if len(buf) < CKPT_HEADER_LEN:
        raise ValueError(f"truncated checkpoint header: expected {CKPT_HEADER_LEN} bytes, "
                         f"have {len(buf)}")
    if buf[4] != 1:
        raise ValueError(f"unsupported checkpoint version {buf[4]}")
    if hashlib.sha256(buf[CKPT_HEADER_LEN:]).digest() != buf[5:CKPT_HEADER_LEN]:
        raise ValueError("checkpoint payload hash mismatch (file corrupted)")
    digest, _, offset = _read_lp_str(buf, CKPT_HEADER_LEN, "config digest")
    (n_groups,), offset = _take(buf, offset, 1, "group count")
    groups: dict[str, ParamGroup] = {}
    for _ in range(n_groups):
        name, at, offset = _read_lp_str(buf, offset, "group name")
        if name in groups:
            raise ValueError(f"duplicate group {name!r} at byte {at}")
        count, offset = _take(buf, offset, 4, "entry count")
        entries: dict[str, np.ndarray] = {}
        for _ in range(int.from_bytes(count, "little")):
            label, at, offset = _read_lp_str(buf, offset, "entry label")
            if label in entries:
                raise ValueError(f"duplicate entry label {label!r} in group {name!r} at byte {at}")
            entries[label], offset = tensor_from_bytes(buf, offset)
        groups[name] = ParamGroup(name, list(entries.items()))
    _expect_end(buf, offset, "checkpoint body")
    missing = [r for r in ("G", "H", "S", "A") if r not in groups]
    if missing:
        raise ValueError(f"checkpoint missing parameter groups: {missing}")
    return groups, digest


# ---------------------------------------------------------------------------
# dataset directory layout: manifest.txt with one 'image mask' filename pair
# per line; GSTN tensors, or binary PGM (P5, maxval 255) for imports. Every
# mask has MASK_CHANNELS channels, and every pair the first pair's image and
# mask shapes. Loading checks the values too (IMAGE_VALUES, MASK_VALUES), which
# PGM inputs pass by construction: they are scaled and thresholded as they load.
# ---------------------------------------------------------------------------

# magic, width, height and maxval separated by whitespace or '#' comment
# lines, then the single whitespace byte that ends the header
_PGM_SEP = rb"(?:\s|#[^\n]*\n)+"
_PGM_HEADER = re.compile(rb"P5" + 3 * (_PGM_SEP + rb"(\d+)") + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5, maxval 255) as a (H, W) float array in [0, 255]."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] != b"P5":
        raise ValueError(f"not a binary PGM (P5) file: {path}")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"truncated or malformed PGM header: {path}")
    w, h, maxval = (int(g) for g in header.groups())
    if maxval != 255:
        raise ValueError(f"PGM maxval must be 255, got {maxval}: {path}")
    pixels, _ = _take(memoryview(data), header.end(), w * h, f"PGM pixels of {path}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).astype(np.float64)


def _load_grid(path, from_pgm, what: str, valid, channels: int | None = None) -> np.ndarray:
    """A (C, H, W) array from a GSTN file, or from a PGM through ``from_pgm``;
    a 2-d (H, W) grid is one channel. Any other rank, or a channel count other
    than ``channels`` when that is given, is a ValueError naming the file,
    ``what`` it holds and the shape it has on disk. So is a value that fails
    ``valid``, one of the value rules (:func:`check_values`)."""
    t = from_pgm(read_pgm(path)) if str(path).endswith(".pgm") else load_tensor(path)
    grid = t[None] if t.ndim == 2 else t
    if grid.ndim != 3 or (channels is not None and grid.shape[0] != channels):
        raise ValueError(f"{path}: {what} has shape {t.shape}, "
                         f"expected ({'C' if channels is None else channels}, H, W)")
    check_values(grid, valid, f"{path}: {what}")
    return grid


def save_dataset(dirpath, dataset: Dataset):
    import os
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for i, pair in enumerate(dataset.pairs):
        img_name, msk_name = f"img_{i:05d}.gstn", f"msk_{i:05d}.gstn"
        save_tensor(os.path.join(dirpath, img_name), pair.image)
        save_tensor(os.path.join(dirpath, msk_name), pair.mask)
        lines.append(f"{img_name} {msk_name}\n")
    with open(os.path.join(dirpath, "manifest.txt"), "w", encoding="utf-8") as f:
        f.writelines(lines)


def load_dataset(dirpath) -> Dataset:
    import os
    manifest = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no manifest.txt in {dirpath}")
    pairs = []
    with open(manifest, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            names = line.split()
            if not names:
                continue
            if len(names) != 2:
                raise ValueError(f"{manifest} line {lineno}: expected 'image mask', "
                                 f"got {len(names)} names")
            img_name, msk_name = names
            image = _load_grid(os.path.join(dirpath, img_name), lambda p: p / 255.0 * 2.0 - 1.0,
                               "image", IMAGE_VALUES)
            mask = _load_grid(os.path.join(dirpath, msk_name),
                              lambda p: (p >= 128.0).astype(np.float64), "mask",
                              MASK_VALUES, MASK_CHANNELS)
            if image.shape[1:] != mask.shape[1:]:
                raise ValueError(f"{img_name}/{msk_name}: image {image.shape} vs mask {mask.shape}")
            if pairs and (image.shape, mask.shape) != (pairs[0].image.shape, pairs[0].mask.shape):
                raise ValueError(f"{img_name}/{msk_name}: image {image.shape} and mask "
                                 f"{mask.shape} differ from the first pair's image "
                                 f"{pairs[0].image.shape} and mask {pairs[0].mask.shape}")
            pairs.append(MaskImagePair(mask, image))
    return Dataset(pairs, provenance=str(dirpath))
