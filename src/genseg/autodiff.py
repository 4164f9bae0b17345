"""Reverse-mode automatic differentiation over the tensor ops.

The graph is the tape: every operation returns a :class:`Node` holding its
float64 value, its parent nodes, and a vector-Jacobian rule that gives one
lazy thunk per parent. ``backward`` calls the rule as ``vjp(node, g)``,
handing it its own node, so a rule that needs the output (``sigmoid``,
``exp``, :func:`conv2d_tanh`) reads it from that argument. No rule refers to
its own node, so no graph is a reference cycle, and a graph is freed as soon
as it becomes unreachable.

A node is always built after its parents, and nothing rebinds a node's
parents, so node ids, handed out in creation order, are a topological order.
Backward takes gradients in leaves only, nodes without a rule. It runs the
rules in reverse id order and only evaluates thunks on paths that reach a
requested leaf, so gradients into constants or unrequested parameters cost
nothing. Backward rules are themselves built from these ops. Under
``backward(create_graph=True)`` gradients are ordinary nodes, and a second
``backward`` through them yields exact second-order products. Every other
backward only needs gradient values, and runs its rules inside
:func:`no_tape`, the one switch for recording: there each op builds a node
with no parents and no vector-Jacobian rule, so no tape is kept and every
intermediate array is freed as soon as it is consumed. A forward-only
evaluation runs inside it too. In both kinds of backward, a node's gradient is
held by nothing but its rule and the rule's thunks, and a rule's thunks, with
the arrays their closures hold (a transposed convolution's gathered gradient
patches, say), are dropped as soon as the rule has run, before the next rule
allocates its own. Training uses the cheaper forward-difference mixed
Hessian-vector product (:func:`mixed_hvp_fd`, step from :func:`default_eps`),
whose base gradient the caller may already hold; the exact double-backward
product (:func:`mixed_hvp_exact`) is kept as its oracle.

Three nodes make up the convolution family: a convolution, a transposed
convolution and a kernel gradient, each an im2col gather (a width-unfolded
lowering of the input, not a full patch matrix) and one product stacked
over output rows (see :mod:`genseg.tensor`, which also adds a bias in the
product's own layout). The family is closed under differentiation: each
node's gradients are built from the other two, so second-order products
need no separate gather or scatter on the tape. A forward convolution on
the tape holds its input and kernel, not its gathered patches: the
kernel-gradient rule gathers them again, so a pass whose kernel gradient is
never taken gathers them once. Patches stay on the tape only where a
gradient rule under ``create_graph`` builds a kernel gradient and a
convolution that share one gather.

What a taped layer holds: every network layer that ends in tanh is one
:func:`conv2d_tanh` node, which holds its tanh output and links to the
convolution's input, kernel and bias; the convolution's own output is freed
once tanh has read it. In a value-only backward its rule scales the
incoming gradient by 1 - out**2 with one :func:`_dtanh` node, whose value
is the one new array of that pass, and lets the incoming gradient go before
the convolution's rule gathers the scaled gradient's patches. A searchable
cell's :func:`softmax` is one node, and its softmax-weighted sums of
candidate kernels and of candidate biases are one :func:`mixture` node
each, summed from the smallest nested kernel outward; the gradient a
mixture sends each part is one :func:`_weighted_window` node. Each of these
nodes stands for a chain of ops whose value it equals to the bit; its rule
builds the chain's gradients from ops, so it can be differentiated again.
A mixture's gradient in its weights is one :func:`window_dots` node, each
part's dot product with its window of the gradient. The two are each
other's adjoint, so, like the convolution family, the pair is closed under
differentiation; the weights' gradient sums over the parts' windows only,
and rounds differently from the chain's sums over the whole embedding.
Where each part sits is worked out once per layout (:func:`windows`), not
per call. A bias gradient sums a convolution's (H, N, W, C) memory in its
own order (:func:`genseg.tensor.channel_sums`), and a channel
:func:`concat` writes that memory too.

Parameters come in named groups (G, H, S and A), each an ordered list of
labelled arrays held in one buffer (:class:`ParamGroup`), so a descent
step over a whole group is one numpy call. :func:`bind` makes one leaf per
entry, keyed by label, in entry order, and every gradient call takes its
leaves from that binding, so ``backward(loss, list(binding.values()))`` and
:func:`flat_grad` line up with the group's entries and its flat buffer.
"""
from __future__ import annotations

import functools
import itertools
import math
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import tensor as T

_next_id = 0

# off only inside :func:`no_tape`
_recording = True


@contextmanager
def no_tape():
    """Build nodes without parents or backward rules while the block runs:
    values only, nothing kept for a gradient. Restores the previous state on
    exit, also when the block raises or is nested."""
    global _recording
    recording, _recording = _recording, False
    try:
        yield
    finally:
        _recording = recording


class Node:
    """One tape entry: value, parents, and lazy backward rules linking them."""

    __slots__ = ("value", "parents", "vjp", "id")

    def __init__(self, value, parents=(), vjp=None):
        global _next_id
        self.value = np.asarray(value, dtype=np.float64)
        if _recording:
            self.parents = parents
            # vjp(node, grad: Node) -> one thunk per parent; a rule is handed its
            # node and never holds it, so a graph is freed once unreachable
            self.vjp = vjp
        else:
            self.parents, self.vjp = (), None
        _next_id += 1
        self.id = _next_id  # greater than every parent's: see _toposort

    def __repr__(self):
        return f"Node(shape={self.value.shape}, id={self.id})"


def constant(x) -> Node:
    return Node(x)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def _unbroadcast(g: Node, shape) -> Node:
    """Reduce a gradient back to ``shape`` after numpy-style broadcasting."""
    if g.value.shape == tuple(shape):
        return g
    extra = g.value.ndim - len(shape)
    if extra:
        g = sum_(g, axes=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.value.shape[i] != 1)
    if axes:
        g = sum_(g, axes=axes, keepdims=True)
    return g


def add(a: Node, b: Node) -> Node:
    def vjp(_, g):
        return (lambda: _unbroadcast(g, a.value.shape),
                lambda: _unbroadcast(g, b.value.shape))

    return Node(a.value + b.value, (a, b), vjp)


def sub(a: Node, b: Node) -> Node:
    def vjp(_, g):
        return (lambda: _unbroadcast(g, a.value.shape),
                lambda: _unbroadcast(neg(g), b.value.shape))

    return Node(a.value - b.value, (a, b), vjp)


def mul(a: Node, b: Node) -> Node:
    def vjp(_, g):
        return (lambda: _unbroadcast(mul(g, b), a.value.shape),
                lambda: _unbroadcast(mul(g, a), b.value.shape))

    return Node(a.value * b.value, (a, b), vjp)


def div(a: Node, b: Node) -> Node:
    def vjp(_, g):
        return (lambda: _unbroadcast(div(g, b), a.value.shape),
                lambda: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.value.shape))

    return Node(a.value / b.value, (a, b), vjp)


def neg(a: Node) -> Node:
    return Node(-a.value, (a,), lambda _, g: (lambda: neg(g),))


def scale(a: Node, c: float) -> Node:
    return Node(a.value * c, (a,), lambda _, g: (lambda: scale(g, c),))


def shift(a: Node, c) -> Node:
    """Add a constant array or scalar (no gradient into the constant)."""
    return Node(a.value + c, (a,), lambda _, g: (lambda: _unbroadcast(g, a.value.shape),))


def sigmoid(a: Node) -> Node:
    return Node(T.sigmoid(a.value), (a,),
                lambda out, g: (lambda: mul(g, mul(out, shift(neg(out), 1.0))),))


def _dtanh(out: Node, g: Node) -> Node:
    """g * (1 - out**2): the gradient into tanh's input, from its output ``out``.

    One node for ``mul(g, shift(neg(mul(out, out)), 1.0))``, formed in one
    new array laid out as ``out``'s value: ``1.0 - t`` rounds exactly as
    ``-t + 1.0``, so its value equals those ops' to the bit. Its rule builds
    the gradients those ops' rules would, from the same products, so it can
    be differentiated again; the gradient into ``out`` adds the two equal
    products of ``mul(out, out)`` before, not after, the other gradients
    that reach ``out``.
    """
    d = out.value * out.value
    np.subtract(1.0, d, out=d)
    np.multiply(g.value, d, out=d)

    def vjp(_, gd):
        def d_out():
            half = mul(neg(mul(gd, g)), out)
            return add(half, half)

        return d_out, lambda: _dtanh(out, gd)

    return Node(d, (out, g), vjp)


def exp(a: Node) -> Node:
    return Node(np.exp(a.value), (a,), lambda out, g: (lambda: mul(g, out),))


def softplus(a: Node) -> Node:
    """log(1+exp(a)); derivative is sigmoid(a)."""
    return Node(T.softplus(a.value), (a,), lambda _, g: (lambda: mul(g, sigmoid(a)),))


def absval(a: Node) -> Node:
    sgn = np.sign(a.value)
    return Node(np.abs(a.value), (a,), lambda _, g: (lambda: mul(g, constant(sgn)),))


def sum_(a: Node, axes=None, keepdims: bool = False) -> Node:
    """Sum over ``axes``; over (0, 2, 3) of an NCHW value, a bias gradient,
    it sums in the value's memory order (:func:`genseg.tensor.channel_sums`)."""
    if axes == (0, 2, 3) and a.value.ndim == 4 and not keepdims:
        out = T.channel_sums(a.value)
    else:
        out = np.sum(a.value, axis=axes, keepdims=keepdims)
    shape = a.value.shape

    def vjp(_, g):
        # g with the summed axes kept, where it has dropped them
        kept = g if keepdims or axes is None else reshape(g, np.expand_dims(g.value, axes).shape)
        return (lambda: broadcast_to(kept, shape),)

    return Node(out, (a,), vjp)


def mean_(a: Node) -> Node:
    """Mean over every element, a scalar."""
    return scale(sum_(a), 1.0 / a.value.size)


def broadcast_to(a: Node, shape) -> Node:
    out = np.broadcast_to(a.value, shape)
    return Node(out, (a,), lambda _, g: (lambda: _unbroadcast(g, a.value.shape),))


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return Node(a.value.reshape(shape), (a,), lambda _, g: (lambda: reshape(g, old),))


def transpose(a: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    return Node(a.value.transpose(axes), (a,), lambda _, g: (lambda: transpose(g, inv),))


def matmul(a: Node, b: Node) -> Node:
    def vjp(_, g):
        return (lambda: matmul(g, transpose(b, (1, 0))),
                lambda: matmul(transpose(a, (1, 0)), g))

    return Node(a.value @ b.value, (a, b), vjp)


def concat(nodes: Sequence[Node], axis: int) -> Node:
    """Join along ``axis``. Joined along the channel axis, 4-d values are
    written to (H, N, W, C) memory, the layout a convolution writes and that
    the next one's gather reads in runs of channels, and the result is an
    NCHW view of it; otherwise the result is ``np.concatenate``'s."""
    sizes = [n.value.shape[axis] for n in nodes]
    if axis == 1 and nodes[0].value.ndim == 4:
        n, _, h, w = nodes[0].value.shape
        hnwc = np.empty((h, n, w, sum(sizes)), dtype=np.float64)
        out = hnwc.transpose(1, 3, 0, 2)
        start = 0
        for node, size in zip(nodes, sizes):
            out[:, start:start + size] = node.value
            start += size
    else:
        out = np.concatenate([n.value for n in nodes], axis=axis)
    offsets = list(itertools.accumulate(sizes, initial=0))

    def vjp(_, g):
        return tuple((lambda s=start, e=end: slice_axis(g, axis, s, e))
                     for start, end in zip(offsets, offsets[1:]))

    return Node(out, tuple(nodes), vjp)


def slice_axis(a: Node, axis: int, start: int, stop: int) -> Node:
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, stop)
    shape = a.value.shape
    return Node(a.value[tuple(idx)], (a,),
                lambda _, g: (lambda: pad_insert(g, shape, axis, start),))


def pad_insert(a: Node, shape, axis: int, start: int) -> Node:
    """Embed ``a`` into zeros of ``shape`` along ``axis`` (adjoint of slice)."""
    out = np.zeros(shape, dtype=np.float64)
    idx = [slice(None)] * len(shape)
    stop = start + a.value.shape[axis]
    idx[axis] = slice(start, stop)
    out[tuple(idx)] = a.value
    return Node(out, (a,), lambda _, g: (lambda: slice_axis(g, axis, start, stop),))


class Windows(NamedTuple):
    """Where each part of a :func:`mixture` sits in the whole, worked out once
    per layout by :func:`windows`."""

    shape: tuple[int, ...]  # the whole's
    regions: tuple  # per part, the index of its window in the whole
    narrowed: tuple  # per part, (axis, start, stop) of each axis its window narrows
    inner: tuple  # per part after the first, the index of the part before it within it


def windows(shape, starts, part_shapes) -> Windows:
    """The :class:`Windows` of parts of ``part_shapes`` whose first elements
    sit at ``starts`` in a whole of ``shape``. The parts must nest, as a
    searchable cell's kernels do: each part's window holds the one before
    it, and the last part is the whole."""
    shape = tuple(shape)
    regions = tuple(tuple(slice(s, s + n) for s, n in zip(start, part))
                    for start, part in zip(starts, part_shapes))
    narrowed = tuple(tuple((axis, r.start, r.stop) for axis, r in enumerate(region)
                           if r.stop - r.start != shape[axis]) for region in regions)
    pairs = list(zip(regions, regions[1:]))
    if narrowed[-1] or any(a.start < b.start or a.stop > b.stop
                           for inner, outer in pairs for a, b in zip(inner, outer)):
        raise ValueError(f"parts {tuple(part_shapes)} at {tuple(starts)} do not nest "
                         f"in a whole of {shape}")
    inner = tuple(tuple(slice(a.start - b.start, a.stop - b.start) for a, b in zip(i, o))
                  for i, o in pairs)
    return Windows(shape, regions, narrowed, inner)


def _window(a: Node, narrowed) -> Node:
    """``a``'s window: a :func:`slice_axis` per ``(axis, start, stop)`` it narrows."""
    for axis, start, stop in narrowed:
        a = slice_axis(a, axis, start, stop)
    return a


def _weighted_window(a: Node, weights: Node, k: int, where: Windows) -> Node:
    """``a``'s window ``where.regions[k]`` times ``weights[k]``: one node for
    ``mul(_window(a, where.narrowed[k]), slice_axis(weights, 0, k, k + 1))``,
    the gradient :func:`mixture` sends part k, whose value it equals to the
    bit. Its rule builds the gradients those ops' rules would, from the same
    ops, so it can be differentiated again."""
    narrowed = where.narrowed[k]

    def vjp(_, g):
        def d_a():
            d = mul(g, slice_axis(weights, 0, k, k + 1))
            shapes = [a.value.shape]  # the shape each slice of the window cuts
            for axis, start, stop in narrowed[:-1]:
                shapes.append(shapes[-1][:axis] + (stop - start,) + shapes[-1][axis + 1:])
            for (axis, start, _), shape in zip(reversed(narrowed), reversed(shapes)):
                d = pad_insert(d, shape, axis, start)
            return d

        return (d_a, lambda: pad_insert(_unbroadcast(mul(g, _window(a, narrowed)), (1,)),
                                        weights.value.shape, 0, k))

    return Node(a.value[where.regions[k]] * weights.value[k:k + 1], (a, weights), vjp)


def mixture(weights: Node, parts: Sequence[Node], where: Windows) -> Node:
    """Sum over k of ``weights[k]`` times ``parts[k]`` embedded into zeros of
    ``where.shape`` in its window ``where.regions[k]``, added up in part
    order.

    One node for what would otherwise be, per part, a slice of ``weights``, a
    :func:`pad_insert` per widened axis, a :func:`mul` and an :func:`add`.
    Its value and its gradients in the parts equal those ops' to the bit:
    a part's gradient is its window of the incoming gradient times its
    weight. The windows nest (:func:`windows`), so the value needs no zero
    canvas: each weighted part is added to the sum of the parts inside it,
    from the smallest outward, and a final ``+ 0.0`` turns -0.0 into the
    0.0 that adding onto a zero gives. Each element is then the same sum in
    the same order as the chain's. The weights' gradient is one
    :func:`window_dots` node, which sums each part's products over the
    part's own window rather than over the zero-embedded whole, so it rounds
    differently from those ops. The two nodes are each other's adjoint, so
    under
    ``backward(create_graph=True)`` the gradients can be differentiated again.
    """
    w = weights.value
    out = w[0:1] * parts[0].value
    for k, inner in enumerate(where.inner, start=1):
        term = w[k:k + 1] * parts[k].value
        term[inner] += out
        out = term
    out += 0.0

    def vjp(_, g):
        return (lambda: window_dots(g, parts, where),
                *(lambda k=k: _weighted_window(g, weights, k, where) for k in range(len(parts))))

    return Node(out, (weights, *parts), vjp)


def window_dots(a: Node, parts: Sequence[Node], where: Windows) -> Node:
    """(K,) vector whose entry k is the sum of ``parts[k]`` times ``a``'s
    window ``where.regions[k]``: the adjoint of :func:`mixture` in its
    weights, and the gradient :func:`mixture` sends them.

    Its gradient into ``a`` is :func:`mixture` of the incoming gradient and
    the parts; into part k, ``a``'s window times the gradient's entry k.
    """
    out = np.array([np.sum(a.value[region] * part.value)
                    for region, part in zip(where.regions, parts)])

    def vjp(_, g):
        return (lambda: mixture(g, parts, where),
                *(lambda k=k: _weighted_window(a, g, k, where) for k in range(len(parts))))

    return Node(out, (a, *parts), vjp)


def _conv(x: Node, w: Node, b: Node | None, stride: int, padding: int,
          cols: np.ndarray | None = None) -> Node:
    """Strided convolution with an (out, in, k, k) kernel and optional bias.

    Its input gradient is :func:`_conv_transpose`; its kernel gradient is
    :func:`_kernel_grad` of ``g`` against ``x``. The patch columns of ``x``
    are gathered for the product and dropped; the kernel-gradient rule
    gathers them again from ``x``'s value, which the node holds anyway, so
    a forward on the tape keeps no gathered patches. A caller that passes
    ``cols`` (``im2col(x)``) shares that one gather with the kernel gradient.
    """
    k = w.value.shape[2]

    def patches():
        return T.im2col(x.value, k, stride, padding) if cols is None else cols

    out = T.conv(patches(), w.value, None if b is None else b.value, stride)

    def vjp(_, g):
        return (lambda: _conv_transpose(g, w, None, stride, padding, x.value.shape[2:]),
                lambda: _kernel_grad(g, x, patches(), stride, padding),
                lambda: sum_(g, axes=(0, 2, 3)))

    return Node(out, (x, w) if b is None else (x, w, b), vjp)


def _conv_transpose(x: Node, w: Node, b: Node | None, stride: int, padding: int,
                    extent) -> Node:
    """Transposed convolution with an (in, out, k, k) kernel and optional
    bias, cropped to the spatial ``extent``.

    Its input gradient is :func:`_conv` of ``g``; its kernel gradient is
    :func:`_kernel_grad` of ``x`` against ``g``. Both share one gather of
    ``g``'s patch columns, taken by the first of their thunks to run, so a
    rule whose caller has let go of its own gradient gathers after that
    gradient is freed.
    """
    k = w.value.shape[2]
    out = T.conv_transpose(x.value, w.value, None if b is None else b.value, stride, padding,
                           extent)

    def vjp(_, g):
        g_cols = functools.cache(lambda: T.im2col(g.value, k, stride, padding))
        return (lambda: _conv(g, w, None, stride, padding, g_cols()),
                lambda: _kernel_grad(x, g, g_cols(), stride, padding),
                lambda: sum_(g, axes=(0, 2, 3)))

    return Node(out, (x, w) if b is None else (x, w, b), vjp)


def _kernel_grad(a: Node, b: Node, cols: np.ndarray, stride: int, padding: int) -> Node:
    """Kernel gradient (a's channels, b's channels, k, k) of the convolution
    of ``b`` whose output meets the NCHW node ``a`` pixel by pixel; ``cols``
    is ``im2col(b)``.

    With cotangent ``g``, <g, K> = <a, conv(b, g)>, so its gradients are
    :func:`_conv` of ``b`` (reusing ``cols``) and :func:`_conv_transpose`
    of ``a``, both with ``g`` as the kernel.
    """
    out = T.kernel_grad(a.value, cols, stride)

    def vjp(_, g):
        return (lambda: _conv(b, g, None, stride, padding, cols),
                lambda: _conv_transpose(a, g, None, stride, padding, b.value.shape[2:]))

    return Node(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def conv2d(x: Node, weight: Node, bias: Node, spec: T.ConvSpec) -> Node:
    """Differentiable convolution with bias; the weight has
    ``spec.weight_shape(in, out)`` and the bias one entry per output channel."""
    _, c, h, w = x.value.shape
    k = spec.kernel
    kind = "transposed conv2d" if spec.transposed else "conv2d"
    if weight.value.ndim != 4 or weight.value.shape[2:] != (k, k):
        raise ValueError(f"{kind}: weight {weight.value.shape} does not have spec {spec.name}'s "
                         f"{k}x{k} kernel")
    co = bias.value.size
    if bias.value.shape != (co,) or weight.value.shape != spec.weight_shape(c, co):
        raise ValueError(f"{kind}: weight {weight.value.shape}, bias {bias.value.shape} and {c} "
                         f"input channels disagree; spec {spec.name} takes a {co}-vector bias "
                         f"with weight {spec.weight_shape(c, co)}")
    extent = (spec.out_extent(h), spec.out_extent(w))
    if spec.transposed:
        return _conv_transpose(x, weight, bias, spec.stride, spec.padding, extent)
    return _conv(x, weight, bias, spec.stride, spec.padding)


def conv2d_tanh(x: Node, weight: Node, bias: Node, spec: T.ConvSpec) -> Node:
    """``tanh(conv2d(x, weight, bias, spec))`` as one node: :func:`conv2d`'s
    node, rebound in place. Its value becomes the tanh of the convolution's
    output, which is freed on assignment. Its rule forms the gradient at the
    convolution's output with one :func:`_dtanh` node and hands it to the
    convolution's rule at once, so the gradient handed in is not held while
    that rule's thunks run (see :func:`_run_rule`). Its value and gradients,
    first and second order, equal to the bit those of the convolution's node
    followed by a tanh node with rule ``_dtanh(out, g)``. There is no separate
    tanh op: every tanh in the networks ends a convolution."""
    node = conv2d(x, weight, bias, spec)
    node.value = np.tanh(node.value)
    rule = node.vjp
    if rule is not None:
        node.vjp = lambda out, g: rule(None, _dtanh(out, g))
    return node


def softmax(a: Node) -> Node:
    """Softmax over the last axis, shifted by its max as a gradient-free
    constant.

    One node for ``div(e, sum_(e, axes=-1, keepdims=True))`` with ``e =
    exp(sub(a, constant(top)))``, whose value it equals to the bit. Its rule
    builds the gradient those ops' rules would, from the same ops in the
    same order, on a node standing for ``e`` (value ``e``, parent ``a``,
    exp's rule), so it can be differentiated again; a second-order
    gradient in ``a`` then adds up its terms in another order than the
    chain's.
    """
    top = np.max(a.value, axis=-1, keepdims=True)
    e = np.exp(a.value - top)

    def vjp(_, g):
        def grad():
            # exp(sub(a, top)): exp's rule, and sub's hands a its gradient as is
            en = Node(e, (a,), lambda out, ge: (lambda: mul(ge, out),))
            s = sum_(en, axes=-1, keepdims=True)
            # div's rule, then sum_'s, then exp's
            g_e = div(g, s)
            g_s = _unbroadcast(neg(div(mul(g, en), mul(s, s))), s.value.shape)
            return mul(add(g_e, broadcast_to(g_s, e.shape)), en)

        return (grad,)

    return Node(e / np.sum(e, axis=-1, keepdims=True), (a,), vjp)


def dot(a: Node, b: Node) -> Node:
    """Scalar inner product of two same-shaped nodes."""
    return sum_(mul(a, b))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _toposort(root: Node, wrt: Sequence[Node]) -> dict[int, Node]:
    """The nodes that a gradient of ``root`` in the leaves ``wrt`` passes
    through, keyed by id in creation order: the requested leaves ``root``
    reaches, and each node with a needed parent. A node is built after its
    parents, which are never rebound, so one pass in id order sees every
    parent before its children."""
    reached, stack = {root.id: root}, [root]
    while stack:
        for p in stack.pop().parents:
            if p.id not in reached:
                reached[p.id] = p
                stack.append(p)
    wanted = {w.id for w in wrt}
    needed: dict[int, Node] = {}
    for i in sorted(reached):
        node = reached[i]
        if i in wanted or any(p.id in needed for p in node.parents):
            needed[i] = node
    return needed


def _run_rule(node: Node, needed: dict[int, Node], grads: dict[int, Node]):
    """Run ``node``'s rule on its gradient, taken out of ``grads``, adding
    each needed parent's share into ``grads``.

    The rule is the gradient's last holder: once it has returned its thunks,
    the gradient lives on only in what they close over. A rule that derives
    all it needs from it at once, as :func:`conv2d_tanh`'s does, lets it go
    before the thunks run. The thunks, with the arrays their closures hold,
    and the shares go when this returns, before the next rule allocates."""
    thunks = node.vjp(node, grads.pop(node.id))
    for parent, thunk in zip(node.parents, thunks):
        if parent.id in needed:
            pg = thunk()
            prev = grads.get(parent.id)
            grads[parent.id] = pg if prev is None else add(prev, pg)


def backward(loss: Node, wrt: Sequence[Node], create_graph: bool = False):
    """Accumulated gradients of a scalar loss with respect to leaf nodes.

    Every ``wrt`` node must be a leaf, a node without a backward rule.
    Returns one entry per ``wrt`` node: a :class:`Node` when
    ``create_graph``, else a float64 array. Leaves the loss does not depend
    on get zeros. The rules run in reverse creation order (:func:`_toposort`),
    pruned to paths that reach a requested leaf, and each consumes its node's
    gradient, so the leaves' gradients are all that is left at the end.

    Only ``create_graph=True`` builds a differentiable graph of the
    gradients. Otherwise the backward rules run under :func:`no_tape`, so
    every gradient node has no parents, and each intermediate gradient is
    dropped once its rule no longer needs it (:func:`_run_rule`): after the
    rule's last thunk, or, for a :func:`conv2d_tanh` node, as soon as the
    rule has scaled it, before the convolution's gradient patches are
    gathered. The arrays are freed during the pass, and the values are the
    same to the bit.
    """
    if loss.value.ndim != 0:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if any(w.vjp is not None for w in wrt):
        raise ValueError("backward takes gradients in leaves only, nodes without a rule")
    needed = _toposort(loss, wrt)
    grads: dict[int, Node] = {loss.id: constant(np.ones((), dtype=np.float64))}
    with nullcontext() if create_graph else no_tape():
        for node in reversed(needed.values()):
            if node.vjp is not None:
                _run_rule(node, needed, grads)

    out = [grads[w.id] if w.id in grads else constant(np.zeros_like(w.value)) for w in wrt]
    return out if create_graph else [g.value for g in out]


# ---------------------------------------------------------------------------
# parameter groups
# ---------------------------------------------------------------------------

class ParamGroup:
    """Named, ordered collection of parameter tensors (one of G, H, S, A).

    The group holds one read-only float64 buffer, its entries raveled and
    joined in entry order, and each entry is a view of its stretch of it. So
    :meth:`flatten` hands out the buffer itself, and a descent step, a
    finiteness check or :meth:`unflatten` is one numpy call over the whole
    group rather than one or two per entry.
    """

    def __init__(self, name: str, entries: Sequence[tuple[str, np.ndarray]] = ()):
        self.name = name
        entries = [(lbl, np.asarray(arr, dtype=np.float64)) for lbl, arr in entries]
        layout, off = [], 0
        for lbl, arr in entries:
            layout.append((lbl, arr.shape, off, off + arr.size))
            off += arr.size
        flat = np.concatenate([arr for _, arr in entries], axis=None) if entries else np.zeros(0)
        self._adopt(tuple(layout), flat)

    @property
    def entries(self) -> tuple[tuple[str, np.ndarray], ...]:
        return self._entries

    def _adopt(self, layout, flat: np.ndarray):
        """Take ``flat``, a fresh buffer that no one else writes, laid out as ``layout``."""
        flat.flags.writeable = False
        self._layout, self._flat = layout, flat
        self._entries = tuple([(lbl, flat[start:stop].reshape(shape))
                               for lbl, shape, start, stop in layout])

    @property
    def size(self) -> int:
        return self._flat.size

    def flatten(self) -> np.ndarray:
        """The group's buffer: every entry raveled, in entry order (read-only)."""
        return self._flat

    def unflatten(self, vec: np.ndarray) -> "ParamGroup":
        """A group of this one's name and entry layout whose buffer is ``vec``
        (a contiguous float64 copy if it is not one), made read-only: the
        caller hands it over and writes it no more."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"flat vector length {vec.shape} != ({self.size},)")
        group = ParamGroup.__new__(ParamGroup)
        group.name = self.name
        group._adopt(self._layout, vec)
        return group

    def __repr__(self):
        return f"ParamGroup({self.name!r}, {[lbl for lbl, _ in self.entries]})"


def bind(group: ParamGroup) -> dict[str, Node]:
    """Fresh leaf nodes for every entry, keyed by label, in entry order: the
    binding's values are the group's leaves, so a gradient taken over
    ``list(binding.values())`` lines up with ``group.entries``."""
    return {lbl: Node(arr) for lbl, arr in group.entries}


def flat_grad(loss: Node, binding: dict[str, Node]) -> np.ndarray:
    """The loss's gradient in the binding's leaves, raveled and concatenated
    in entry order."""
    return np.concatenate(backward(loss, list(binding.values())), axis=None)


def default_eps(v: np.ndarray) -> float:
    """Finite-difference step for a product with ``v``: the perturbation
    ``eps * v`` has norm 1e-6.

    The generator loss's L1 term is piecewise linear, and a step that crosses
    one of its kinks ruins the difference: against the pipeline oracle, a
    perturbation of norm 0.01 (the DARTS value) fails 9 of 10 seeds and 1e-5
    fails 1 of 150; 1e-6 fails none. A smaller step makes a crossing rarer but
    cannot rule one out; :func:`mixed_hvp_exact` takes no step. These rates
    were measured with central differences; the forward difference of
    :func:`mixed_hvp_fd` takes the same step.

    The norm is summed by numpy, not by a BLAS dot product, whose rounding
    depends on how many threads split it.
    """
    return 1e-6 / math.sqrt(float(np.sum(v * v)))


Binding = dict[str, Node]


def mixed_hvp_fd(loss_fn: Callable[[Binding, Binding], Node],
                 p_group: ParamGroup, q_group: ParamGroup, v: np.ndarray,
                 grad_p: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference estimate of the mixed second-derivative product.

    Computes [grad_P L(P, Q + eps v) - grad_P L(P, Q)] / eps, the product of
    the mixed Hessian block (rows P, columns Q) with ``v``, with ``eps`` from
    :func:`default_eps`. ``grad_p`` is the flat base gradient
    grad_P L(P, Q); it is computed when absent, so a caller whose own
    backward already took it saves one forward and one backward.
    ``loss_fn`` receives two bindings and returns the scalar loss node.
    A zero ``v`` short-circuits to zeros, the exact product.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (q_group.size,):
        raise ValueError(f"vector length {v.shape} != perturbed group size ({q_group.size},)")
    if not np.any(v):
        return np.zeros(p_group.size, dtype=np.float64)
    eps = default_eps(v)

    def grad_at(q):
        pb = bind(p_group)
        return flat_grad(loss_fn(pb, bind(q)), pb)

    if grad_p is None:
        grad_p = grad_at(q_group)
    return (grad_at(q_group.unflatten(q_group.flatten() + eps * v)) - grad_p) / eps


def mixed_hvp_exact(loss_fn: Callable[[Binding, Binding], Node],
                    p_group: ParamGroup, q_group: ParamGroup,
                    v: np.ndarray) -> np.ndarray:
    """Exact mixed Hessian-vector product by differentiating through backward.

    Feasible for small parameter counts; serves as the oracle for the
    finite-difference estimate.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (q_group.size,):
        raise ValueError(f"vector length {v.shape} != perturbed group size ({q_group.size},)")
    pb, qb = bind(p_group), bind(q_group)
    gq = backward(loss_fn(pb, qb), list(qb.values()), create_graph=True)
    s, off = None, 0
    for g in gq:
        vv = constant(v[off:off + g.value.size].reshape(g.value.shape))
        term = dot(g, vv)
        s = term if s is None else add(s, term)
        off += g.value.size
    return flat_grad(s, pb)
