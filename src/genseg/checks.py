"""Gradient verification routines behind the ``gradcheck`` command.

Three levels: per-op and per-network first-order checks against central
finite differences (``grad``), the finite-difference mixed Hessian-vector
product against its exact double-backward oracle (``hvp``), and the
architecture-gradient chain that training computes against brute-force
differencing of the training pipeline (``hyper``).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import engine as eng
from .autodiff import ParamGroup, bind, constant
from .synthdata import gen_task
from .tensor import ConvSpec, im2col

GRAD_TOL = 1e-5
HVP_COSINE_TOL = 0.999
HVP_RATIO_RANGE = (0.99, 1.01)
HYPER_COSINE_TOL = 0.99
HYPER_WARMUP = 20  # check_hypergrad's training iterations before the chain is scored


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def hypergrad_agreement(chain: np.ndarray, oracle: np.ndarray) -> float:
    """The chain's cosine to the pipeline oracle. Below the oracle's resolution,
    100 eps / ``ORACLE_STEP``, the oracle has no direction, and a chain scores
    1.0 if it is below it too, else 0.0."""
    floor = 100 * np.finfo(float).eps / eng.ORACLE_STEP
    if np.linalg.norm(oracle) >= floor:
        return cosine(chain, oracle)
    return 1.0 if np.linalg.norm(chain) < floor else 0.0


def fd_gradient(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


def rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-8)
    return float(np.max(np.abs(analytic - reference))) / scale


def _param_rel_error(loss_fn, group: ParamGroup) -> float:
    """Analytic vs finite-difference gradient over a flat parameter vector."""
    binding = bind(group)
    analytic = ad.flat_grad(loss_fn(binding), binding)

    def value(vec):
        b = bind(group.unflatten(vec))
        return float(loss_fn(b).value)

    numeric = fd_gradient(value, group.flatten())
    return rel_error(analytic, numeric)


def check_op_grads(seed: int = 0) -> dict[str, float]:
    """Max relative FD error for every differentiable primitive and composite."""
    rng = np.random.default_rng(seed)

    def x(shape, away_from_zero=False):
        v = rng.normal(0, 1, size=shape)
        if away_from_zero:
            v = np.sign(v) * (np.abs(v) + 0.2)
        return v

    other = constant(x((3, 4)))
    cases = {
        "add": lambda a: ad.add(a, other),
        "sub": lambda a: ad.sub(other, a),
        "mul": lambda a: ad.mul(a, other),
        "div": lambda a: ad.div(other, ad.shift(ad.mul(a, a), 0.5)),
        "neg": ad.neg,
        "sigmoid": ad.sigmoid,
        "exp": ad.exp,
        "softplus": ad.softplus,
        "abs": ad.absval,
        "softmax": ad.softmax,
        "reshape": lambda a: ad.reshape(a, (4, 3)),
        "transpose": lambda a: ad.transpose(a, (1, 0)),
        "concat": lambda a: ad.concat([ad.reshape(n, (1, 3, 2, 2)) for n in (a, other)]),
        "window": lambda a: ad.window(a, (slice(1, 3), slice(1, 3))),
        "embed": lambda a: ad.embed(a, (4, 5), (slice(1, 4), slice(0, 4))),
        "sum": lambda a: ad.sum_(a, axes=1, keepdims=True),
        "mean": ad.mean_,
        "broadcast": lambda a: ad.broadcast_to(ad.reshape(a, (3, 4, 1)), (3, 4, 5)),
    }
    out = {}
    for name, fn in cases.items():
        base = x((3, 4), away_from_zero=name == "abs")
        group = ParamGroup("G", [("x", base)])
        weight = None

        def loss(binding, fn=fn):
            nonlocal weight
            y = fn(binding["x"])
            if weight is None:
                weight = rng.normal(0, 1, size=y.value.shape)
            return ad.dot(y, constant(weight))

        out[name] = _param_rel_error(loss, group)

    # the segmentation loss, with logits wide enough that its max shift matters
    group = ParamGroup("G", [("z", rng.uniform(-30, 30, size=(2, 2, 3, 3)))])
    seg_masks = (np.arange(18).reshape(2, 1, 3, 3) % 3 == 0).astype(np.float64)
    out["seg_cross_entropy"] = _param_rel_error(
        lambda b: eng.seg_cross_entropy(b["z"], seg_masks), group)

    # matmul, both arguments
    group = ParamGroup("G", [("a", x((3, 4))), ("b", x((4, 2)))])
    w_mm = rng.normal(0, 1, size=(3, 2))
    out["matmul"] = _param_rel_error(
        lambda bi: ad.dot(ad.matmul(bi["a"], bi["b"]), constant(w_mm)), group)

    # convolutions: plain, strided, and transposed, including weight and bias,
    # at every spec the models run, each also followed by tanh as one node; at
    # 7x7, (7 + 2p - k) mod 2 != 0 for the strided specs, so the input
    # gradient comes back to a larger extent than the transposed
    # convolution's natural one
    for tag, spec, extent in (
        ("conv_421", ConvSpec(4, 2, 1), 6),
        ("conv_421_7x7", ConvSpec(4, 2, 1), 7),
        ("conv_622", ConvSpec(6, 2, 2), 6),
        ("conv_823", ConvSpec(8, 2, 3), 6),
        ("conv_823_7x7", ConvSpec(8, 2, 3), 7),
        ("conv_311", ConvSpec(3, 1, 1), 6),
        ("upconv_421", ConvSpec(4, 2, 1, transposed=True), 6),
        ("upconv_622", ConvSpec(6, 2, 2, transposed=True), 6),
        ("upconv_823", ConvSpec(8, 2, 3, transposed=True), 6),
        ("head_110", ConvSpec(1, 1, 0), 6),
    ):
        for op, name in ((ad.conv2d, tag), (ad.conv2d_tanh, f"{tag}_tanh")):
            group = ParamGroup("G", [("x", x((2, 3, extent, extent))),
                                     ("w", x(spec.weight_shape(3, 2)) * 0.3),
                                     ("b", x((2,)) * 0.3)])
            probe = {}

            def conv_loss(bi, spec=spec, op=op, probe=probe):
                y = op(bi["x"], bi["w"], bi["b"], spec)
                if "w" not in probe:
                    probe["w"] = np.random.default_rng(0).normal(0, 1, size=y.value.shape)
                return ad.dot(y, constant(probe["w"]))

            out[name] = _param_rel_error(conv_loss, group)

    # kernel gradients in both operands: ``a`` meets the convolution of ``b``
    # pixel by pixel, and at 7x7 the b-gradient crops past its natural extent
    for tag, spec, extent in (("kernel_grad_421", ConvSpec(4, 2, 1), 6),
                              ("kernel_grad_421_7x7", ConvSpec(4, 2, 1), 7),
                              ("kernel_grad_823_7x7", ConvSpec(8, 2, 3), 7)):
        k, s, p = spec.kernel, spec.stride, spec.padding
        o = spec.out_extent(extent)
        group = ParamGroup("G", [("a", x((2, 2, o, o))), ("b", x((2, 3, extent, extent)))])
        w_k = rng.normal(0, 1, size=(2, 3, k, k))

        def kg_loss(bi, k=k, s=s, p=p, w_k=w_k):
            cols = im2col(bi["b"].value, k, s, p)
            return ad.dot(ad._kernel_grad(bi["a"], bi["b"], cols, s, p), constant(w_k))

        out[tag] = _param_rel_error(kg_loss, group)

    # the searchable cells' mixture: the weights and every part, each part
    # embedded at its own offset, one of them unwidened
    shape, part_shapes = (2, 3, 4, 4), ((2, 3, 2, 2), (2, 3, 3, 2), (2, 3, 4, 4))
    where = ad.windows(shape, ((0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0)), part_shapes)
    group = ParamGroup("G", [("alpha", x((3,))),
                             *((f"p{k}", x(ps)) for k, ps in enumerate(part_shapes))])
    w_mix = rng.normal(0, 1, size=shape)
    out["mixture"] = _param_rel_error(
        lambda bi: ad.dot(ad.mixture(bi["alpha"], [bi["p0"], bi["p1"], bi["p2"]], where),
                          constant(w_mix)), group)
    # its adjoint in the weights, in the full array and in every part
    group = ParamGroup("G", [("a", x(shape)), *group.entries[1:]])
    w_dots = rng.normal(0, 1, size=3)
    out["window_dots"] = _param_rel_error(
        lambda bi: ad.dot(ad.window_dots(bi["a"], [bi["p0"], bi["p1"], bi["p2"]], where),
                          constant(w_dots)), group)

    # a bias gradient's sum over an NCHW view of (H, N, W, C) memory, the
    # layout of every conv2d_tanh output and of its gradient
    group = ParamGroup("G", [("x", x((3, 2, 4, 5)))])
    w_sum = rng.normal(0, 1, size=5)
    out["sum_channels_last"] = _param_rel_error(
        lambda bi: ad.dot(ad.sum_(ad.transpose(bi["x"], (1, 3, 0, 2)), axes=(0, 2, 3)),
                          constant(w_sum)), group)
    return out


def check_net_grads(seed: int = 0) -> dict[str, float]:
    """FD check of full-network parameter gradients on :func:`tiny_instance`'s networks."""
    rng = np.random.default_rng(seed)
    trainer = tiny_instance(seed)[0]
    gen, disc, seg = trainer.gen, trainer.disc, trainer.seg
    state = trainer.init_state()
    G, A, H, S = state.G, state.A, state.H, state.S
    masks = (rng.uniform(size=(2, 1, 8, 8)) < 0.3).astype(np.float64)
    images = rng.uniform(-0.9, 0.9, size=(2, 1, 8, 8))
    target = rng.normal(0, 1, size=(2, 1, 8, 8))

    ab = bind(A)
    out = {}

    def gen_loss(bi):
        y = gen.forward(bi, ab, constant(masks))
        return ad.mean_(ad.mul(ad.sub(y, constant(target)), ad.sub(y, constant(target))))

    out["generator"] = _param_rel_error(gen_loss, G)

    def arch_loss(bi):
        y = gen.forward(bind(G), bi, constant(masks))
        return ad.mean_(ad.mul(ad.sub(y, constant(target)), ad.sub(y, constant(target))))

    out["architecture"] = _param_rel_error(arch_loss, A)

    def disc_loss(bi):
        return eng.bce_with_logits(disc.forward(bi, constant(masks), constant(images)), 1.0)

    out["discriminator"] = _param_rel_error(disc_loss, H)

    def seg_loss(bi):
        return eng.seg_cross_entropy(seg.forward(bi, constant(images)), masks)

    out["segmenter"] = _param_rel_error(seg_loss, S)
    return out


# (first layer, second layer) of each check_hvp trial: two plain 3x3
# convolutions, a stride-2 convolution then a transposed one, and the reverse
HVP_SPECS = ((ConvSpec(3, 1, 1), ConvSpec(3, 1, 1)),
             (ConvSpec(4, 2, 1), ConvSpec(4, 2, 1, transposed=True)),
             (ConvSpec(4, 2, 1, transposed=True), ConvSpec(4, 2, 1)))


def check_hvp(seed: int = 0) -> tuple[float, float]:
    """Worst cosine and magnitude ratio of fd vs exact mixed HVPs, one net per HVP_SPECS pair."""
    cosines, ratios = [], []
    for t, (spec1, spec2) in enumerate(HVP_SPECS):
        rng = np.random.default_rng(seed + 17 * t)
        x = rng.normal(0, 1, size=(3, 2, 6, 6))
        y = rng.normal(0, 1, size=(3, 2, 6, 6))
        P = ParamGroup("G", [("w1", rng.normal(0, 0.5, size=spec1.weight_shape(2, 4))),
                             ("b1", rng.normal(0, 0.1, size=4))])
        Q = ParamGroup("S", [("w2", rng.normal(0, 0.5, size=spec2.weight_shape(4, 2))),
                             ("b2", rng.normal(0, 0.1, size=2))])

        def loss(pb, qb, spec1=spec1, spec2=spec2):
            hlayer = ad.conv2d_tanh(constant(x), pb["w1"], pb["b1"], spec1)
            out = ad.conv2d(hlayer, qb["w2"], qb["b2"], spec2)
            diff = ad.sub(out, constant(y))
            return ad.mean_(ad.mul(diff, diff))

        v = rng.normal(0, 1, size=Q.size)
        fd = ad.mixed_hvp_fd(loss, P, Q, v)
        exact = ad.mixed_hvp_exact(loss, P, Q, v)
        cosines.append(cosine(fd, exact))
        ratios.append(float(np.linalg.norm(fd) / np.linalg.norm(exact)))
    worst_ratio = ratios[int(np.argmax(np.abs(np.asarray(ratios) - 1.0)))]
    return min(cosines), worst_ratio


def tiny_instance(seed: int = 0):
    """An 8x8 single-cell training setup small enough for brute-force checks."""
    cfg = eng.TrainConfig(mode="genseg", seed=seed, iters=0, img_size=8, enc_cells=1,
                          base_channels=2)
    data = gen_task(seed=seed + 100, n=6, size=8)
    train = eng.Dataset(data.pairs[:4], split="train")
    val = eng.Dataset(data.pairs[4:], split="val")
    trainer = eng.Trainer(cfg, train, val)
    return trainer, train, val


def check_hypergrad(seed: int = 0) -> float:
    """:func:`hypergrad_agreement` of the training hypergradient chain and the
    pipeline oracle, after ``HYPER_WARMUP`` iterations of the tiny instance."""
    trainer, train, _ = tiny_instance(seed)
    trainer.config.iters = HYPER_WARMUP
    _, state = trainer.train()
    state.iteration = HYPER_WARMUP + 1
    chain, args = trainer.search_step(state, train.masks(), train.images())
    oracle = eng.hypergrad_fd_oracle(trainer, *args[:3], state.A, *args[4:])
    return hypergrad_agreement(chain, oracle)
