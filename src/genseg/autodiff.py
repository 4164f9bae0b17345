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
cell's softmax-weighted sums of candidate kernels and of candidate biases
are one :func:`mixture` node each. Each of these nodes stands for a chain
of ops whose value it equals to the bit; its rule builds the chain's
gradients from ops, so it can be differentiated again.

Parameters come in named groups (G, H, S and A), each an ordered list of
labelled arrays (:class:`ParamGroup`). :func:`bind` makes one leaf per entry,
keyed by label, in entry order, and every gradient call takes its leaves from
that binding, so ``backward(loss, list(binding.values()))`` and
:func:`flat_grad` line up with the group's entries.
"""
from __future__ import annotations

import functools
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    out = np.concatenate([n.value for n in nodes], axis=axis)
    sizes = [n.value.shape[axis] for n in nodes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(_, g):
        return tuple(
            (lambda s=start, e=end: slice_axis(g, axis, int(s), int(e)))
            for start, end in zip(offsets[:-1], offsets[1:]))

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


def mixture(weights: Node, parts: Sequence[Node], shape, starts) -> Node:
    """Sum over k of ``weights[k]`` times ``parts[k]`` embedded into zeros of
    ``shape`` with its first element at index ``starts[k]``, added up in
    part order.

    One node for what would otherwise be, per part, a slice of ``weights``, a
    :func:`pad_insert` per widened axis, a :func:`mul` and an :func:`add`;
    its value and gradients equal those ops' to the bit. Its rule builds the
    gradients those ops' rules would, from the same ops, so under
    ``backward(create_graph=True)`` they can be differentiated again.
    """
    shape = tuple(shape)
    out = np.zeros(shape, dtype=np.float64)
    for k, (start, part) in enumerate(zip(starts, parts)):
        region = tuple(slice(s, s + n) for s, n in zip(start, part.value.shape))
        out[region] += weights.value[k:k + 1] * part.value

    def embed(k: int) -> Node:
        node = parts[k]
        for axis, start in enumerate(starts[k]):
            if node.value.shape[axis] != shape[axis]:
                node = pad_insert(node, (*shape[:axis + 1], *node.value.shape[axis + 1:]),
                                  axis, start)
        return node

    def d_part(g: Node, k: int) -> Node:
        gk = mul(g, slice_axis(weights, 0, k, k + 1))
        for axis, (start, n) in enumerate(zip(starts[k], parts[k].value.shape)):
            if n != shape[axis]:
                gk = slice_axis(gk, axis, start, start + n)
        return gk

    def vjp(_, g):
        return (lambda: concat([_unbroadcast(mul(g, embed(k)), (1,))
                                for k in range(len(parts))], 0),
                *(lambda k=k: d_part(g, k) for k in range(len(parts))))

    return Node(out, (weights, *parts), vjp)


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

    out = T.conv(x.value, w.value, None if b is None else b.value, stride, padding, patches())

    def vjp(_, g):
        return (lambda: _conv_transpose(g, w, None, stride, padding, x.value.shape[2:]),
                lambda: _kernel_grad(g, x, patches(), k, stride, padding),
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
                lambda: _kernel_grad(x, g, g_cols(), k, stride, padding),
                lambda: sum_(g, axes=(0, 2, 3)))

    return Node(out, (x, w) if b is None else (x, w, b), vjp)


def _kernel_grad(a: Node, b: Node, cols: np.ndarray, kernel: int, stride: int,
                 padding: int) -> Node:
    """Kernel gradient (a's channels, b's channels, k, k) of the convolution
    of ``b`` whose output meets the NCHW node ``a`` pixel by pixel; ``cols``
    is ``im2col(b)``.

    With cotangent ``g``, <g, K> = <a, conv(b, g)>, so its gradients are
    :func:`_conv` of ``b`` (reusing ``cols``) and :func:`_conv_transpose`
    of ``a``, both with ``g`` as the kernel.
    """
    out = T.kernel_grad(a.value, cols, kernel, stride)

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
    """Softmax over the last axis, shifted by its max as a gradient-free constant."""
    z = sub(a, constant(np.max(a.value, axis=-1, keepdims=True)))
    e = exp(z)
    return div(e, sum_(e, axes=-1, keepdims=True))


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

@dataclass
class ParamGroup:
    """Named, ordered collection of parameter tensors (one of G, H, S, A)."""

    name: str
    entries: list[tuple[str, np.ndarray]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(arr.size for _, arr in self.entries)

    def flatten(self) -> np.ndarray:
        return np.concatenate([np.ravel(arr) for _, arr in self.entries])

    def unflatten(self, vec: np.ndarray) -> "ParamGroup":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"flat vector length {vec.shape} != ({self.size},)")
        out, off = [], 0
        for lbl, arr in self.entries:
            out.append((lbl, vec[off:off + arr.size].reshape(arr.shape).copy()))
            off += arr.size
        return ParamGroup(self.name, out)


def bind(group: ParamGroup) -> dict[str, Node]:
    """Fresh leaf nodes for every entry, keyed by label, in entry order: the
    binding's values are the group's leaves, so a gradient taken over
    ``list(binding.values())`` lines up with ``group.entries``."""
    return {lbl: Node(arr) for lbl, arr in group.entries}


def flat_grad(loss: Node, binding: dict[str, Node]) -> np.ndarray:
    """The loss's gradient in the binding's leaves, raveled and concatenated
    in entry order."""
    gs = backward(loss, list(binding.values()))
    return np.concatenate([np.ravel(g) for g in gs])


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
