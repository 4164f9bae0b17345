"""Trilevel training engine.

One iteration runs three coupled stages: a single descent step on the
generator and discriminator weights (adversarial objectives over real
mask/image pairs), a single descent step of the segmenter on synthetic plus
real pairs, and an architecture update whose gradient is chained backwards
through both one-step updates via mixed second-derivative products. Plain
one-step gradient updates are used for the inner variables on purpose: the
architecture chain differentiates exactly those steps. ``Trainer.search_step``
is the one place the three stages are sequenced.

The architecture reaches the validation loss two ways, through the generator
weights' stage-I update and as the architecture of the generator that renders
stage II's images; the hypergradient sums both. Each mixed second-derivative
product in it is a finite difference (``autodiff.default_eps`` sets the step).
The two segmentation products are one gradient, in the generator weights and
the architecture at once, of the central difference of two perturbed losses
that share the generator graph. The generator product is a forward one: one
gradient at the perturbed generator weights less the architecture gradient
that stage I's backward already took at the base point. The exact
double-backward product and ``hypergrad_fd_oracle`` serve only as judges.

Also provides the two reference modes: ``baseline`` (segmenter on real data
only) and ``separate`` (fit the generator first, freeze it, then fit the
segmenter on its outputs plus real data).
"""
from __future__ import annotations

import ctypes
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import augment as aug
from . import autodiff as ad
from . import metrics as met
from .autodiff import Node, ParamGroup, bind, constant
from .models import SEG_DEPTH, DiscriminatorNet, GeneratorNet, SegNet, predict_mask
from .synthdata import IMAGE_VALUES, MASK_CHANNELS, MASK_VALUES, Dataset, check_values

MODES = ("genseg", "separate", "baseline")

# config keys that say where files live, not what a run computes
_PATH_KEYS = ("data_dir", "out_dir")

# architecture optimizer settings (adaptive moments, decoupled decay)
ARCH_BETA1 = 0.5
ARCH_BETA2 = 0.999
ARCH_WEIGHT_DECAY = 1e-5
ARCH_EPS = 1e-8

# images per segmenter forward over a split, taped in stage III's validation
# gradient and tape-free in evaluate_segmenter, so _validate can score stage
# III's logits. Sizing rule: a chunk's largest temporary, up2's lowered input
# (17*18*2*16 doubles, about 78 KB per 32 px image: 1.25 MB at 16 images),
# must stay below training's own high-water, so scoring never sets the peak
EVAL_CHUNK = 16

ORACLE_STEP = 1e-4  # hypergrad_fd_oracle's central-difference step per architecture logit


class TrainingAborted(RuntimeError):
    """Raised when a loss or gradient turns non-finite mid-run."""


@dataclass
class TrainConfig:
    mode: str = "genseg"
    seed: int = 0
    iters: int = 5000
    img_size: int = 32
    enc_cells: int = 3
    base_channels: int = 8
    eta_g: float = 2e-3  # stage I generator step; eta_g * eta_s scales w in the hypergradient
    eta_h: float = 2e-3  # stage I discriminator step
    eta_s: float = 0.2  # stage II segmenter step; scales the whole hypergradient
    eta_a: float = 1e-4  # stage III architecture step (adaptive moments)
    gamma: float = 1.0  # weight of the real-data loss in stage II's objective
    lambda_l1: float = 100.0  # weight of the L1 term in stage I's generator loss
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got '{self.mode}'")
        for name in ("eta_g", "eta_h", "eta_s", "eta_a", "gamma", "lambda_l1"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name, least in (("seed", 0), ("iters", 0), ("enc_cells", 1), ("base_channels", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # each encoder cell and each segmenter down layer halves the extent
        size, depth = self.img_size, max(self.enc_cells, SEG_DEPTH)
        if size < 1 or size & (size - 1) or size.bit_length() - 1 < depth:
            raise ValueError(f"img_size must be a power of two >= 2**max(enc_cells, SEG_DEPTH) "
                             f"= {2 ** depth}, got {size}")
        # resolved_config_text must read back: parse_config cuts each line at
        # '#' and strips the value
        for name in _PATH_KEYS:
            path = getattr(self, name)
            if "#" in path or path != path.strip() or len(path.splitlines()) > 1:
                raise ValueError(f"{name} must hold no '#' or line break and no surrounding "
                                 f"whitespace, got {path!r}")


# config file keys in canonical order: the dataclass field names
CONFIG_KEYS = [f.name for f in fields(TrainConfig)]

_TYPES = {f.name: f.type for f in fields(TrainConfig)}


class ConfigError(ValueError):
    pass


def _coerce(key: str, raw: str):
    typ = _TYPES[key]
    if typ == "int":
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"key '{key}': not an integer: '{raw}'") from e
    if typ == "float":
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"key '{key}': not a number: '{raw}'") from e
    return raw


def parse_config(text: str, overrides: dict[str, str] | None = None) -> TrainConfig:
    """Parse ``key = value`` lines (``#`` comments); unknown or repeated keys are errors."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown config key '{key}'")
        if key in first_line:
            raise ConfigError(f"line {lineno}: '{key}' already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _coerce(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _TYPES:
            raise ConfigError(f"override: unknown config key '{key}'")
        values[key] = _coerce(key, str(raw))
    try:
        return TrainConfig(**values)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def resolved_config_text(cfg: TrainConfig, keys=CONFIG_KEYS) -> str:
    return "".join(f"{key} = {getattr(cfg, key)}\n" for key in keys)


def config_digest(cfg: TrainConfig) -> str:
    """16 hex characters identifying the run; paths are left out, so identical
    runs into different directories write identical checkpoints."""
    keys = [k for k in CONFIG_KEYS if k not in _PATH_KEYS]
    return hashlib.sha256(resolved_config_text(cfg, keys).encode("utf-8")).hexdigest()[:16]


# glibc's mallopt parameter number for M_TOP_PAD, and the pad Trainer.train asks for
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 256 << 20

try:  # looked up once: loading the C library builds ctypes objects that form cycles
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
except (OSError, TypeError, AttributeError):  # no C library to load, or no mallopt in it
    _mallopt = None


def retain_heap() -> bool:
    """Ask glibc's allocator to keep 256 MB of freed heap instead of handing
    it back to the system; True if it applied, False where there is no glibc
    ``mallopt``.

    What it buys is mostly chunked evaluation speed. On 2 cores with
    OpenBLAS 0.3.31, four alternating benchmark runs a side, the median
    ``eval_ms_per_image_norm`` was 0.199 ms with it against 0.307 without on
    ``segment``, and 0.206 against 0.314 on ``search32``. Training moved
    within noise (``iter_ms_norm`` 8.85 against 8.88 ms on ``segment``, 89.1
    against 89.7 on ``search32``), and peak RSS was the same."""
    return _mallopt is not None and _mallopt(_M_TOP_PAD, _HEAP_TOP_PAD) == 1


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits: Node, target: float) -> Node:
    """Mean binary cross-entropy of a logit map against a constant target."""
    if target == 1.0:
        return ad.mean_(ad.softplus(ad.neg(logits)))
    if target == 0.0:
        return ad.mean_(ad.softplus(logits))
    raise ValueError(f"target must be 0 or 1, got {target}")


def seg_cross_entropy(logits: Node, masks: np.ndarray) -> Node:
    """Mean pixel-wise two-class cross-entropy against binary masks.

    The log-sum-exp is taken from the two (N, 1, H, W) class planes, shifted
    by their gradient-free elementwise max. Each entry is the same float
    operation as a reduction along the length-2 class axis (the max of two
    values, then ``e0 + e1``), without numpy's per-pixel inner loop over
    that axis.

    One node whose only parent is ``logits``; on the tape it holds its
    scalar and no class plane. Its value comes from the numpy operations of
    the op chain ``mean_(sub(add(log(add(exp(sub(z0, top)), exp(sub(z1,
    top)))), top), add(mul(m, z1), mul(shift(neg(m), 1.0), z0))))`` over
    the slices ``z0``, ``z1`` of ``logits``, and equals it to the bit. Its
    rule rebuilds the two planes' exponentials from ``logits`` and builds
    the gradient that chain's rules would, from the same ops, so under
    ``backward(create_graph=True)`` it can be differentiated again. That
    gradient is the channel join (:func:`genseg.autodiff.concat`) of the two
    planes' gradients, the same values as the chain's sum of the two planes
    embedded in zeros, since neither plane is -0.0. It is one node, written
    to (H, N, W, C) memory, which the 1x1 head's backward reads in place:
    its input gradient's gather is a view, its kernel gradient takes each
    output row without a copy, and its bias gradient sums that memory in
    order, as every other layer's does.
    """
    m = np.asarray(masks, dtype=np.float64)
    v0, v1 = logits.value[:, 0:1], logits.value[:, 1:2]
    top = np.maximum(v0, v1)
    terms = np.log(np.exp(v0 - top) + np.exp(v1 - top)) + top - (m * v1 + (-m + 1.0) * v0)
    per_pixel = 1.0 / terms.size

    def grad(g: Node) -> Node:
        z0, z1 = ad.slice_axis(logits, 1, 0, 1), ad.slice_axis(logits, 1, 1, 2)
        top = constant(np.maximum(z0.value, z1.value))
        e0, e1 = ad.exp(ad.sub(z0, top)), ad.exp(ad.sub(z1, top))
        g_lse = ad.broadcast_to(ad.scale(g, per_pixel), z0.value.shape)
        g_e = ad.div(g_lse, ad.add(e0, e1))
        g_zt = ad.neg(g_lse)
        mask = constant(m)
        g0 = ad.add(ad.mul(g_e, e0), ad.mul(g_zt, ad.shift(ad.neg(mask), 1.0)))
        g1 = ad.add(ad.mul(g_e, e1), ad.mul(g_zt, mask))
        return ad.concat([g0, g1])

    return Node(np.sum(terms) * per_pixel, (logits,), lambda _, g: (lambda: grad(g),))


def l1_mean(a: Node, b: Node) -> Node:
    return ad.mean_(ad.absval(ad.sub(a, b)))


def _gd_step(group: ParamGroup, grad: np.ndarray, eta: float) -> ParamGroup:
    """``group`` moved by ``-eta`` times its flat gradient ``grad``, in one step
    over the group's buffer."""
    step = eta * grad
    return group.unflatten(np.subtract(group.flatten(), step, out=step))


def _check_loss(loss: Node, what: str, iteration: int):
    value = float(loss.value)
    if not math.isfinite(value):
        raise TrainingAborted(f"{what} became non-finite ({value}) at iteration {iteration}")


def _descend(group: ParamGroup, loss: Node, binding: dict[str, Node], eta: float,
             what: str, iteration: int, also=None):
    """One plain descent step of ``group`` on ``loss``, built on ``binding``;
    a non-finite loss or gradient aborts the run, naming ``what`` and the
    iteration.

    ``also``, a second binding, is differentiated in the same backward; then
    the result is the stepped group and the loss's flat gradient in
    ``also``'s leaves, which is not checked.
    """
    _check_loss(loss, what, iteration)
    grads = ad.backward(loss, [*binding.values(), *(also or {}).values()])
    grad = np.concatenate(grads[:len(binding)], axis=None)
    if not np.isfinite(grad).all():
        raise TrainingAborted(f"gradient of {what} became non-finite at iteration {iteration}")
    stepped = _gd_step(group, grad, eta)
    if also is None:
        return stepped
    return stepped, np.concatenate(grads[len(binding):], axis=None)


@dataclass
class TrainState:
    G: ParamGroup
    H: ParamGroup
    S: ParamGroup
    A: ParamGroup
    adam_m: np.ndarray
    adam_v: np.ndarray
    rng: np.random.Generator  # the loop's draws: batch indices and augmentations
    adam_t: int = 0
    iteration: int = 0
    best_metric: float = -1.0
    best_params: dict[str, ParamGroup] | None = None
    last_loss_seg: float = 0.0
    last_loss_g: float = 0.0
    last_loss_d: float = 0.0

    def groups(self) -> dict[str, ParamGroup]:
        return {"G": self.G, "H": self.H, "S": self.S, "A": self.A}


class Trainer:
    """Owns the networks, the configuration, and the per-iteration stages.

    Construction is the run's one data check; the networks and stages take its
    shapes and values as given. Every pair must hold a (C, ``img_size``,
    ``img_size``) image of finite values, C that of the first training image,
    and a (``MASK_CHANNELS``, ``img_size``, ``img_size``) mask of 0s and 1s."""

    def __init__(self, config: TrainConfig, train_ds: Dataset, val_ds: Dataset,
                 test_ds: Dataset | None = None):
        if len(train_ds) == 0:
            raise ValueError("training set must not be empty")
        if len(val_ds) == 0:
            raise ValueError("validation set must not be empty")
        self.config = config
        self.train_ds = train_ds
        self.val_ds = val_ds
        self.test_ds = test_ds
        img_channels, size = train_ds[0].image.shape[0], config.img_size
        rules = {"image": ((img_channels, size, size), IMAGE_VALUES),
                 "mask": ((MASK_CHANNELS, size, size), MASK_VALUES)}
        for split, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
            for i, pair in enumerate(ds.pairs if ds else ()):
                for what, (want, rule) in rules.items():
                    t, where = getattr(pair, what), f"{split} split pair {i}: {what}"
                    if t.shape != want:
                        raise ValueError(f"{where} shape {t.shape} is not {want} for img_size {size}")
                    check_values(t, rule, where)
        self.gen = GeneratorNet(img_channels=img_channels, enc_cells=config.enc_cells,
                                base_channels=config.base_channels)
        self.disc = DiscriminatorNet(img_channels=img_channels, base_channels=config.base_channels,
                                     depth=min(3, int(math.log2(size)) - 1))
        self.seg = SegNet(img_channels=img_channels, base_channels=config.base_channels)
        self.train_masks, self.train_images = train_ds.masks(), train_ds.images()
        self.val_masks, self.val_images = val_ds.masks(), val_ds.images()
        # what one iteration's passes hand on, by name, each written once and
        # popped once; train clears it at the end of every iteration
        #   "grad_a": stage I's generator-loss gradient in A, the base point of
        #     stage III's generator product
        #   "synth": synth_batch's graph (images node, G and A bindings), which
        #     stage III differentiates in G and in A
        #   "val_logits": stage III's validation logits, which the epoch
        #     validation scores in place of evaluation's
        self._kept: dict[str, object] = {}

    def init_state(self) -> TrainState:
        ss = np.random.SeedSequence(self.config.seed)
        gen_ss, disc_ss, seg_ss, loop_ss = ss.spawn(4)
        G, A = self.gen.init_params(gen_ss)
        H = self.disc.init_params(disc_ss)
        S = self.seg.init_params(seg_ss)
        return TrainState(G=G, H=H, S=S, A=A, adam_m=np.zeros(A.size),
                          adam_v=np.zeros(A.size), rng=np.random.default_rng(loop_ss))

    # -- stage I ------------------------------------------------------------

    def generator_loss(self, gb: dict[str, Node], ab: dict[str, Node], hb: dict[str, Node],
                       masks: Node, images: Node) -> tuple[Node, Node]:
        """Render ``masks``; return the loss stage I trains G on and stage III
        differentiates in (A, G), the discriminator's verdict on the fakes plus
        ``lambda_l1`` times their mean L1 distance to ``images``, and that
        verdict's logits. Stage III's forward difference subtracts stage I's
        gradient in A, so it is right only while both build this graph."""
        fake = self.gen.forward(gb, ab, masks)
        d_fake = self.disc.forward(hb, masks, fake)
        loss = ad.add(bce_with_logits(d_fake, 1.0),
                      ad.scale(l1_mean(fake, images), self.config.lambda_l1))
        return loss, d_fake

    def stage1_update(self, state: TrainState, masks: np.ndarray, images: np.ndarray):
        """One plain descent step on G (generator loss) and H (discriminator loss),
        both from the same graph at the old weights.

        In ``genseg`` mode the generator loss's backward also takes its
        gradient in A and writes it to ``_kept["grad_a"]``, the base point of
        stage III's generator product.
        """
        cfg, it = self.config, state.iteration
        gb, hb, ab = bind(state.G), bind(state.H), bind(state.A)
        m, i = constant(masks), constant(images)
        l_gen, d_fake = self.generator_loss(gb, ab, hb, m, i)
        # one discriminator pass on the fakes serves both losses: the H-gradient
        # of l_disc is taken by itself, so it never flows into G
        l_disc = ad.add(bce_with_logits(self.disc.forward(hb, m, i), 1.0),
                        bce_with_logits(d_fake, 0.0))
        # Trainer refuses non-finite real images, but a diverged discriminator
        # spoils both losses; checking l_disc before either backward names it
        _check_loss(l_disc, "discriminator loss", it)
        if cfg.mode == "genseg":
            state.G, self._kept["grad_a"] = _descend(state.G, l_gen, gb, cfg.eta_g,
                                                     "generator loss", it, ab)
        else:
            state.G = _descend(state.G, l_gen, gb, cfg.eta_g, "generator loss", it)
        state.H = _descend(state.H, l_disc, hb, cfg.eta_h, "discriminator loss", it)
        state.last_loss_g = float(l_gen.value)
        state.last_loss_d = float(l_disc.value)

    # -- stage II -----------------------------------------------------------

    def synth_batch(self, G: ParamGroup, A: ParamGroup, masks: np.ndarray,
                    ops_per_mask) -> tuple[np.ndarray, np.ndarray]:
        """Augment each real mask and render its image with the generator.

        Stage II trains on the rendered values. The forward binds G and A as
        leaves and is written to ``_kept["synth"]`` as (images node, G
        binding, A binding) for stage III, which differentiates it in both
        instead of running the generator again: in G for the chain through
        stage I's update, in A for the architecture's direct part in
        generation.
        """
        m_hats = np.stack([aug.apply_sequence(ops, m) for ops, m in zip(ops_per_mask, masks)])
        gb, ab = bind(G), bind(A)
        images = self.gen.forward(gb, ab, constant(m_hats))
        self._kept["synth"] = (images, gb, ab)
        return m_hats, images.value

    def stage2_objective(self, sb: dict[str, Node], synth_masks, synth_images: Node,
                         real_masks, real_images) -> Node:
        """Segmentation loss on synthetic data plus gamma times the real-data loss."""
        obj = seg_cross_entropy(self.seg.forward(sb, synth_images), synth_masks)
        real_loss = seg_cross_entropy(self.seg.forward(sb, constant(real_images)), real_masks)
        return ad.add(obj, ad.scale(real_loss, self.config.gamma))

    def stage2_update(self, state: TrainState, synth_masks: np.ndarray,
                      synth_images: np.ndarray, real_masks: np.ndarray,
                      real_images: np.ndarray):
        """One plain descent step of S on the combined segmentation objective."""
        sb = bind(state.S)
        obj = self.stage2_objective(sb, synth_masks, constant(synth_images),
                                    real_masks, real_images)
        state.S = _descend(state.S, obj, sb, self.config.eta_s, "segmentation objective",
                           state.iteration)
        state.last_loss_seg = float(obj.value)

    def _baseline_update(self, state: TrainState, real_masks, real_images):
        """One plain descent step of S on the real-data loss, weighted 1 whatever
        ``gamma`` is: it shares stage II's checked step, not its objective."""
        sb = bind(state.S)
        loss = seg_cross_entropy(self.seg.forward(sb, constant(real_images)), real_masks)
        state.S = _descend(state.S, loss, sb, self.config.eta_s, "segmentation loss",
                           state.iteration)
        state.last_loss_seg = float(loss.value)

    # -- stage III ----------------------------------------------------------

    def stage3_hypergrad(self, G_pre: ParamGroup, H_pre: ParamGroup, S_pre: ParamGroup,
                         state: TrainState, gan_masks: np.ndarray, gan_images: np.ndarray,
                         m_hats: np.ndarray, val_masks: np.ndarray,
                         val_images: np.ndarray) -> np.ndarray:
        """Validation-loss gradient with respect to the architecture logits,
        ``eta_g * eta_s * w - eta_s * d``.

        With v the validation-loss gradient at the updated segmenter, u and d
        are the mixed second derivatives of the synthetic segmentation loss in
        (generator weights, segmenter) and in (architecture, segmenter) times
        v, rendered at ``state.G`` and ``state.A``. w, the generator loss's in
        (architecture, generator weights) times u, carries u back through
        stage I's step. The result is exactly zero when the validation loss is
        stationary.

        u and d are one central difference (:meth:`_seg_hvp_fd`) of the graph
        that ``synth_batch`` wrote to ``_kept["synth"]``. w is a forward
        difference based at the generator-loss gradient in A that stage I
        wrote to ``_kept["grad_a"]``. Both are popped on entry, so stage III
        runs inside :meth:`search_step`, after this iteration's stage I and
        synth; called on its own it raises KeyError naming the missing entry.

        v is taken over the chunks of ``EVAL_CHUNK`` validation images that
        :func:`evaluate_segmenter` forwards, one taped forward and backward
        each, and each chunk's graph is freed before the next is built. The
        loss is a per-pixel mean, so v is the sum of the chunks' gradients,
        each weighted by its share of the images: the whole split's gradient
        up to summation order. A split of one chunk is one forward, weighted
        1. Writes the chunks' validation logits, concatenated, to
        ``_kept["val_logits"]`` for the epoch validation at ``state.S``; the
        synthetic graph is freed once u and d are taken.
        """
        cfg = self.config
        synth = self._kept.pop("synth")
        grad_a = self._kept.pop("grad_a")
        sb = bind(state.S)
        n = len(val_images)
        v, logits = None, []
        for start in range(0, n, EVAL_CHUNK):
            part = slice(start, start + EVAL_CHUNK)
            chunk = self.seg.forward(sb, constant(val_images[part]))
            grad = ad.flat_grad(seg_cross_entropy(chunk, val_masks[part]), sb)
            share = len(chunk.value) / n
            v = share * grad if v is None else v + share * grad
            logits.append(chunk.value)
            # this chunk's graph is spent: free it before the next chunk, or
            # the products below, build theirs
            del chunk
        self._kept["val_logits"] = np.concatenate(logits)
        if not np.any(v):
            return np.zeros(state.A.size)

        # only the synthetic term depends on the generator; the gamma
        # real-data term has no generator dependence and contributes zero
        u, direct = self._seg_hvp_fd(*synth, S_pre, v, m_hats)
        # free the synthetic graph now, before the generator product below
        # builds another
        del synth

        def gen_loss(a_binding, g_binding):
            return self.generator_loss(g_binding, a_binding, bind(H_pre),
                                       constant(gan_masks), constant(gan_images))[0]

        w = ad.mixed_hvp_fd(gen_loss, state.A, G_pre, u, grad_a)
        return -cfg.eta_s * direct + cfg.eta_g * cfg.eta_s * w

    def _seg_hvp_fd(self, images: Node, gb, ab, S_base: ParamGroup, v: np.ndarray,
                    m_hats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference mixed HVPs of the synthetic segmentation loss in
        G and in A, the bindings ``gb`` and ``ab`` that produced ``images``.

        The gradient of a difference is the difference of the gradients, so
        one backward of [L(S + eps v) - L(S - eps v)] / (2 eps) over G's
        leaves, then A's, gives both products. The two perturbed segmenter
        branches meet at ``images``, and the generator graph below it is
        walked once.
        """
        eps = ad.default_eps(v)
        s0 = S_base.flatten()

        def loss_at(svec):
            sb = bind(S_base.unflatten(svec))
            return seg_cross_entropy(self.seg.forward(sb, images), m_hats)

        diff = ad.sub(loss_at(s0 + eps * v), loss_at(s0 - eps * v))
        grads = ad.backward(ad.scale(diff, 1.0 / (2.0 * eps)), [*gb.values(), *ab.values()])
        return (np.concatenate(grads[:len(gb)], axis=None),
                np.concatenate(grads[len(gb):], axis=None))

    def outer_update_A(self, state: TrainState, hypergrad: np.ndarray):
        """Adaptive-moment step on the architecture logits with decoupled decay.

        A non-finite hypergradient aborts the run before the moments or the
        logits change."""
        if hypergrad.shape != (state.A.size,):
            raise ValueError(f"hypergrad shape {hypergrad.shape} != ({state.A.size},)")
        if not np.all(np.isfinite(hypergrad)):
            raise TrainingAborted("architecture hypergradient became non-finite at iteration "
                                  f"{state.iteration}")
        state.adam_t += 1
        t = state.adam_t
        state.adam_m = ARCH_BETA1 * state.adam_m + (1 - ARCH_BETA1) * hypergrad
        state.adam_v = ARCH_BETA2 * state.adam_v + (1 - ARCH_BETA2) * hypergrad ** 2
        m_hat = state.adam_m / (1 - ARCH_BETA1 ** t)
        v_hat = state.adam_v / (1 - ARCH_BETA2 ** t)
        flat = state.A.flatten()
        flat = flat - self.config.eta_a * (m_hat / (np.sqrt(v_hat) + ARCH_EPS)
                                           + ARCH_WEIGHT_DECAY * flat)
        state.A = state.A.unflatten(flat)

    def search_step(self, state: TrainState, masks: np.ndarray,
                    images: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Stages I, synth, II and III of one ``genseg`` iteration, validated on
        the whole split; returns the hypergradient and stage III's nine
        arguments, which :func:`hypergrad_fd_oracle` replays with ``state.A``
        in place of ``state``.

        The one place stage III runs: it pops the A-gradient stage I wrote to
        ``_kept`` and the graph synth wrote there, and writes its validation
        logits for :meth:`_validate`."""
        G_pre, H_pre, S_pre = state.G, state.H, state.S
        self.stage1_update(state, masks, images)
        ops = self._sample_ops(state.rng, len(masks))
        m_hats, synth_images = self.synth_batch(state.G, state.A, masks, ops)
        self.stage2_update(state, m_hats, synth_images, masks, images)
        args = (G_pre, H_pre, S_pre, state, masks, images, m_hats,
                self.val_masks, self.val_images)
        return self.stage3_hypergrad(*args), args

    # -- evaluation and the loop ---------------------------------------------

    def _record(self, state: TrainState, split: str, d: float, j: float) -> met.EvalRecord:
        return met.EvalRecord(state.iteration, split, d, j, state.last_loss_seg,
                              state.last_loss_g, state.last_loss_d)

    def train(self) -> tuple[list[met.EvalRecord], TrainState]:
        """Run the configured mode for ``iters`` iterations.

        A ``genseg`` iteration is :meth:`search_step`, the one place its stages
        are sequenced, then the architecture step. Validation runs after every
        epoch-equivalent (one pass over the training set). The parameters at
        the best validation, or the final ones if no validation ran, are kept
        as ``state.best_params``, and their segmenter is evaluated on the test
        split at the end. That snapshot holds the groups themselves, not
        copies: no stage writes a parameter array in place, each step builds
        new ones.

        No graph and no earlier iteration's parameters outlive their
        iteration: of :meth:`search_step`'s result the loop keeps only the
        hypergradient, not stage III's arguments, which hold the
        iteration's starting G, H and S. Each graph is freed as soon as it
        is dropped, many megabytes at a time, several times an iteration.
        :func:`retain_heap` keeps that memory in the process, which mostly
        speeds up evaluation (see there).
        """
        retain_heap()
        cfg = self.config
        state = self.init_state()
        n = len(self.train_ds)
        # the paper's low-data regime: up to 32 pairs the whole training set
        # is the minibatch; a larger set is drawn 16 pairs at a time
        batch = n if n <= 32 else 16
        ipe = math.ceil(n / batch)  # iterations per epoch-equivalent
        records: list[met.EvalRecord] = []
        sep_switch = cfg.iters // 2

        for it in range(1, cfg.iters + 1):
            state.iteration = it
            idx = np.arange(n) if batch == n else state.rng.choice(n, size=batch, replace=False)
            masks, images = self.train_masks[idx], self.train_images[idx]

            if cfg.mode == "baseline":
                self._baseline_update(state, masks, images)
            elif cfg.mode == "separate":
                if it <= sep_switch:
                    self.stage1_update(state, masks, images)
                else:
                    ops = self._sample_ops(state.rng, len(masks))
                    # no stage III differentiates the rendering: build no graph
                    with ad.no_tape():
                        m_hats, synth_images = self.synth_batch(state.G, state.A, masks, ops)
                    self.stage2_update(state, m_hats, synth_images, masks, images)
            else:
                # the hypergradient only: stage III's arguments would keep
                # this iteration's starting groups alive through the next
                self.outer_update_A(state, self.search_step(state, masks, images)[0])

            if it % ipe == 0:
                d, j = self._validate(state)
                records.append(self._record(state, "val", d, j))
                if d > state.best_metric:
                    state.best_metric = d
                    state.best_params = state.groups()
            # no graph outlives its iteration (stage III never runs in `separate`)
            self._kept.clear()

        if state.best_params is None:
            state.best_params = state.groups()
        if self.test_ds is not None and len(self.test_ds) and cfg.iters > 0:
            d, j = evaluate_segmenter(self.seg, state.best_params["S"], self.test_ds)
            records.append(self._record(state, "test", d, j))
        return records, state

    def _validate(self, state: TrainState) -> tuple[float, float]:
        """Validation dice and jaccard of ``state.S``.

        Scores the logits stage III's validation forwards left at this same
        S, so no second forward is spent. Those are taped forwards over
        :func:`evaluate_segmenter`'s chunks, so the recorded dice is to the bit
        what ``genseg eval`` of the checkpoint reads. Without them
        (``baseline``, ``separate``, or no stage III) the split is evaluated.
        """
        logits = self._kept.pop("val_logits", None)
        if logits is not None:
            dices, jacs = _scores(logits, self.val_masks)
            return float(np.mean(dices)), float(np.mean(jacs))
        return evaluate_segmenter(self.seg, state.S, self.val_ds)

    def _sample_ops(self, rng: np.random.Generator, count: int) -> list:
        return [aug.random_sequence(rng, self.config.img_size) for _ in range(count)]


def _scores(logits: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-image dice and jaccard of the argmax predictions of a logit batch."""
    return met.overlap_scores(predict_mask(logits), masks)


def evaluate_segmenter(seg: SegNet, S: ParamGroup, dataset: Dataset) -> tuple[float, float]:
    """Mean dice and jaccard of a segmenter's argmax predictions over a
    non-empty dataset.

    Each chunk of ``EVAL_CHUNK`` images is one forward under
    :func:`autodiff.no_tape`: no node keeps a parent, a rule or gathered
    patches, so each layer's arrays are freed as soon as the next layer has
    read them; the chunk is sized so that scoring does not set a run's peak
    memory. The scores equal those of taped forwards over the same chunks,
    stage III's validation forwards, to the bit, and over 64 images those of
    a single forward. Keeps freed heap (:func:`retain_heap`) like training.
    """
    retain_heap()
    sb = bind(S)
    dices, jacs = [], []
    for start in range(0, len(dataset), EVAL_CHUNK):
        idx = range(start, min(start + EVAL_CHUNK, len(dataset)))
        with ad.no_tape():
            logits = seg.forward(sb, constant(dataset.images(idx)))
        d, j = _scores(logits.value, dataset.masks(idx))
        dices.append(d)
        jacs.append(j)
    return float(np.mean(np.concatenate(dices))), float(np.mean(np.concatenate(jacs)))


# ---------------------------------------------------------------------------
# brute-force architecture-gradient oracle
# ---------------------------------------------------------------------------

def hypergrad_fd_oracle(trainer: Trainer, G: ParamGroup, H: ParamGroup, S: ParamGroup,
                        A: ParamGroup, gan_masks: np.ndarray, gan_images: np.ndarray,
                        m_hats: np.ndarray, val_masks: np.ndarray,
                        val_images: np.ndarray) -> np.ndarray:
    """Central differences (step ORACLE_STEP) of the full map: architecture to validation loss.

    Replays stage I and stage II from the given base parameters for each
    perturbed architecture and evaluates the validation loss at the resulting
    segmenter. The perturbed architecture enters both the generator loss of
    stage I and the generator that renders stage II's synthetic images, the
    two ways ``Trainer.stage3_hypergrad`` differentiates.
    """
    cfg = trainer.config

    def pipeline(avec: np.ndarray) -> float:
        A_pert = A.unflatten(avec)
        gb = bind(G)
        l_gen, _ = trainer.generator_loss(gb, bind(A_pert), bind(H), constant(gan_masks),
                                          constant(gan_images))
        G_prime = _gd_step(G, ad.flat_grad(l_gen, gb), cfg.eta_g)

        synth_images = trainer.gen.forward(bind(G_prime), bind(A_pert), constant(m_hats)).value
        sb = bind(S)
        obj = trainer.stage2_objective(sb, m_hats, constant(synth_images),
                                       gan_masks, gan_images)
        S_prime = _gd_step(S, ad.flat_grad(obj, sb), cfg.eta_s)

        sb2 = bind(S_prime)
        val_loss = seg_cross_entropy(trainer.seg.forward(sb2, constant(val_images)), val_masks)
        return float(val_loss.value)

    from .checks import fd_gradient  # here: checks imports this module
    return fd_gradient(pipeline, A.flatten(), ORACLE_STEP)
