"""The three networks: searchable mask-to-image generator, conditional patch
discriminator, and a small U-Net segmenter, plus discrete architecture
derivation from the learned mixture logits.

Parameters live in :class:`~genseg.autodiff.ParamGroup` objects (G, H, S, A).
Every network draws its weights and biases through one layer walk,
:func:`_layer_params` over its table of ``(name, spec, in_ch, out_ch)``
layers, in which a searchable cell is one row per candidate. Forward passes
take label-to-node bindings so the same code serves training, evaluation,
and second-order products.

Every network takes its inputs as given: ``engine.Trainer`` checks a run's
data once, and ``genseg eval`` checks its dataset against the checkpoint's
segmenter.
"""
from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ParamGroup
from .synthdata import MASK_CHANNELS
from .tensor import ConvSpec

# candidate pool per cell: kernel/stride/padding triples that all halve
# (or, transposed, double) even spatial extents
DOWN_CANDIDATES = (ConvSpec(4, 2, 1), ConvSpec(6, 2, 2), ConvSpec(8, 2, 3))
UP_CANDIDATES = tuple(replace(spec, transposed=True) for spec in DOWN_CANDIDATES)

# the fixed layers: stride-2 convolutions that halve (or, transposed, double)
# even extents, and the 1x1 heads
HALVE = ConvSpec(4, 2, 1)
DOUBLE = replace(HALVE, transposed=True)
HEAD = ConvSpec(1, 1, 0)
SEG_CLASSES, SEG_DEPTH = 2, 2  # the segmenter's logits per pixel, and its U-Net's scales


def _conv_params(rng: np.random.Generator, name: str, spec: ConvSpec,
                 in_ch: int, out_ch: int) -> list[tuple[str, np.ndarray]]:
    """``name.w`` uniform within the fan-in bound 1/sqrt(in_ch*k*k), and a zero ``name.b``."""
    s = 1.0 / np.sqrt(in_ch * spec.kernel ** 2)
    return [(f"{name}.w", rng.uniform(-s, s, size=spec.weight_shape(in_ch, out_ch))),
            (f"{name}.b", np.zeros(out_ch, dtype=np.float64))]


def _layer_params(name: str, layers, seed: int | np.random.SeedSequence) -> ParamGroup:
    """Group ``name`` of :func:`_conv_params` for each ``(name, spec, in_ch,
    out_ch)`` layer, in table order, all drawn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return ParamGroup(name, [entry for layer in layers for entry in _conv_params(rng, *layer)])


def _conv(params: dict[str, Node], layer: tuple[str, ConvSpec, int, int], x: Node,
          op=ad.conv2d) -> Node:
    """A fixed layer ``(name, spec, in_ch, out_ch)`` applied to ``x`` by
    ``op``: :func:`autodiff.conv2d`, or :func:`autodiff.conv2d_tanh` for a
    layer followed by tanh."""
    name, spec = layer[:2]
    return op(x, params[f"{name}.w"], params[f"{name}.b"], spec)


def _unet_channels(in_ch: int, base_channels: int, depth: int):
    """(in, out) channels of the ``depth`` encoder and decoder stages of a U-Net.

    The first encoder stage widens to ``base_channels`` and each later one
    doubles the width; every decoder stage after the first also takes the
    encoder output of its scale as a skip, and the last one ends at
    ``base_channels``.
    """
    widths = [in_ch] + [base_channels * 2 ** i for i in range(depth)]
    down = [(widths[i], widths[i + 1]) for i in range(depth)]
    up = [(widths[depth] if j == 1 else 2 * widths[depth - j + 1],
           widths[depth - j] if j < depth else base_channels) for j in range(1, depth + 1)]
    return down, up


def _unet(down, up, x: Node) -> Node:
    """The U-Net body: each of the ``down`` and then the ``up`` layers,
    followed by tanh. A layer is a callable ``layer(x, op)`` that applies
    its convolution by ``op``, here :func:`autodiff.conv2d_tanh`, so each
    layer and its tanh are one node. Every ``up`` layer after the first
    also takes the ``down`` output of its scale as a channel skip."""
    skips = []
    for layer in down:
        x = layer(x, ad.conv2d_tanh)
        skips.append(x)
    for j, layer in enumerate(up):
        if j:
            x = ad.concat([x, skips[-1 - j]])
        x = layer(x, ad.conv2d_tanh)
    return x


class SearchableCell:
    """K candidate convolutions mixed by softmax weights over per-cell logits.

    All pool candidates share the stride and embed exactly into the largest
    kernel (zero borders, offset = padding difference; :func:`autodiff.windows`
    refuses a pool whose kernels do not nest), so the mixture runs
    as a single convolution of the softmax-weighted kernel sum; this equals
    the weighted sum of per-candidate outputs because convolution is linear
    in its kernel. The weighted kernel sum is one :func:`autodiff.mixture`
    node, and so is the weighted bias sum.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, transposed: bool):
        self.name = name
        self.candidates = UP_CANDIDATES if transposed else DOWN_CANDIDATES
        big = max(self.candidates, key=lambda c: c.kernel)
        for c in self.candidates:
            if c.stride != big.stride:
                raise ValueError(f"candidate {c} does not embed into {big}")
        self.fused_spec = big
        # one layer-table row per candidate, as :func:`_layer_params` takes them
        self.layers = [(f"{name}.{c.name}", c, in_ch, out_ch) for c in self.candidates]
        self.weight_labels = [f"{row[0]}.w" for row in self.layers]
        self.bias_labels = [f"{row[0]}.b" for row in self.layers]
        # where each candidate's kernel, and its bias, sits in the fused one's
        self.kernel_windows = ad.windows(
            big.weight_shape(in_ch, out_ch),
            [(0, 0, big.padding - c.padding, big.padding - c.padding) for c in self.candidates],
            [c.weight_shape(in_ch, out_ch) for c in self.candidates])
        self.bias_windows = ad.windows((out_ch,), [(0,)] * len(self.candidates),
                                       [(out_ch,)] * len(self.candidates))

    def logit_label(self) -> str:
        return f"{self.name}.logits"

    def forward(self, params: dict[str, Node], logits: Node, x: Node, op=ad.conv2d) -> Node:
        """The mixed convolution of ``x`` by ``op``, as in :func:`_conv`."""
        weights = ad.softmax(logits)
        w_eff = ad.mixture(weights, [params[lbl] for lbl in self.weight_labels], self.kernel_windows)
        b_eff = ad.mixture(weights, [params[lbl] for lbl in self.bias_labels], self.bias_windows)
        return op(x, w_eff, b_eff, self.fused_spec)


class GeneratorNet:
    """Mask-to-image U-Net whose every scale change is a searchable cell.

    Encoder cells halve the spatial extent, decoder cells double it; encoder
    output i is concatenated onto the decoder input at the matching scale.
    A 1x1 head with tanh maps to image channels, so outputs lie in (-1, 1).
    """

    def __init__(self, img_channels: int = 1, enc_cells: int = 3, base_channels: int = 8):
        self.enc_cells = enc_cells
        down, up = _unet_channels(MASK_CHANNELS, base_channels, enc_cells)
        self.encoders = [SearchableCell(f"enc{i}", ci, co, transposed=False)
                         for i, (ci, co) in enumerate(down, start=1)]
        self.decoders = [SearchableCell(f"dec{j}", ci, co, transposed=True)
                         for j, (ci, co) in enumerate(up, start=1)]
        self.head = ("head", HEAD, base_channels, img_channels)

    def init_params(self, seed: int | np.random.SeedSequence) -> tuple[ParamGroup, ParamGroup]:
        cells = self.encoders + self.decoders
        layers = [row for cell in cells for row in cell.layers] + [self.head]
        a = [(cell.logit_label(), np.zeros(len(cell.candidates), dtype=np.float64))
             for cell in cells]
        return _layer_params("G", layers, seed), ParamGroup("A", a)

    def forward(self, g: dict[str, Node], a: dict[str, Node], mask: Node) -> Node:
        # looked up per call, so a wrapper put on SearchableCell.forward later still runs
        down, up = ([partial(cell.forward, g, a[cell.logit_label()]) for cell in cells]
                    for cells in (self.encoders, self.decoders))
        return _conv(g, self.head, _unet(down, up, mask), ad.conv2d_tanh)


class DiscriminatorNet:
    """Patch discriminator over channel-concatenated (mask, image) pairs.

    ``depth`` stride-2 convolutions followed by a 1x1 head produce a logit
    map; losses consume the logits directly, there is no final sigmoid.
    """

    def __init__(self, img_channels: int = 1, base_channels: int = 8, depth: int = 3):
        self.layers = []
        in_ch = MASK_CHANNELS + img_channels
        for i in range(depth):
            out_ch = base_channels * 2 ** i
            self.layers.append((f"d{i+1}", HALVE, in_ch, out_ch))
            in_ch = out_ch
        self.head = ("head", HEAD, in_ch, 1)

    def init_params(self, seed: int | np.random.SeedSequence) -> ParamGroup:
        return _layer_params("H", self.layers + [self.head], seed)

    def forward(self, h: dict[str, Node], mask: Node, image: Node) -> Node:
        x = ad.concat([mask, image])
        for layer in self.layers:
            x = _conv(h, layer, x, ad.conv2d_tanh)
        return _conv(h, self.head, x)


class SegNet:
    """Small fixed-architecture U-Net emitting per-pixel two-class logits."""

    def __init__(self, img_channels: int = 1, base_channels: int = 8):
        self.img_channels = img_channels
        down, up = _unet_channels(img_channels, base_channels, SEG_DEPTH)
        self.down = [(f"down{i}", HALVE, ci, co) for i, (ci, co) in enumerate(down, start=1)]
        self.up = [(f"up{j}", DOUBLE, ci, co) for j, (ci, co) in enumerate(up, start=1)]
        self.head = ("head", HEAD, base_channels, SEG_CLASSES)

    def init_params(self, seed: int | np.random.SeedSequence) -> ParamGroup:
        return _layer_params("S", self.down + self.up + [self.head], seed)

    @classmethod
    def from_params(cls, group: ParamGroup) -> "SegNet":
        """Rebuild from a saved parameter group, with ``down1.w``'s image channels
        and base width; a missing or misshapen layer parameter, such as a head
        without ``SEG_CLASSES`` outputs, is a ValueError naming its label."""
        shapes = {lbl: arr.shape for lbl, arr in group.entries}
        if len(shapes.get("down1.w", ())) != 4:
            raise ValueError("segmenter parameters lack a 4-d 'down1.w'")
        base_channels, img_channels = shapes["down1.w"][:2]
        net = cls(img_channels=img_channels, base_channels=base_channels)
        for label, arr in net.init_params(0).entries:
            if label not in shapes:
                raise ValueError(f"segmenter parameters lack '{label}'")
            if shapes[label] != arr.shape:
                raise ValueError(f"segmenter parameter '{label}' has shape {shapes[label]}, "
                                 f"expected {arr.shape}")
        return net

    def forward(self, s: dict[str, Node], image: Node) -> Node:
        down, up = ([partial(_conv, s, layer) for layer in layers] for layers in (self.down, self.up))
        return _conv(s, self.head, _unet(down, up, image))


def predict_mask(logits: np.ndarray) -> np.ndarray:
    """Binarize two-class logits by argmax over the class axis."""
    return (logits[:, 1:2] > logits[:, 0:1]).astype(np.float64)


def derive_architecture(arch: ParamGroup) -> dict[str, int]:
    """Per cell, the index of the highest-softmax candidate (ties: lowest index)."""
    out = {}
    for label, logits in arch.entries:
        out[label] = int(np.argmax(logits))
    return out
