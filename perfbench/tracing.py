"""Timing hooks that the benchmark's child process puts around genseg.

Everything here wraps public genseg functions and classes from outside;
nothing under ``src/`` changes.

- :class:`IterationClock` stamps the boundaries of every training iteration
  (by watching ``TrainState.iteration`` assignments) together with the tape
  node counter and a :func:`calibration_loop` sample, and the moment set-up
  ends (``Trainer.init_state`` returns). It is the only hook on training in
  an untraced run.
- :class:`Tracer` keeps in-memory spans (name, start, end, parent) around
  the calls into each layer; :class:`Patches` switches its wrappers in and
  out. It is used only in the traced run.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np


@functools.cache
def _calibration_buffers() -> tuple[np.ndarray, ...]:
    """The calibration's inputs and outputs, allocated once per process."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) / 8.0
    vec = rng.standard_normal(1 << 15)   # 256 KB
    big = rng.standard_normal(1 << 19)   # 4 MB
    return (a, np.empty_like(a), np.empty_like(a), vec, np.empty_like(vec),
            big, np.empty_like(big))


def _calibration_work(a, m, prod, vec, out, big, big_out):
    np.copyto(m, a)
    for _ in range(20):
        np.matmul(m, a, out=prod)
        np.tanh(prod, out=m)
    acc = 0
    for i in range(3000):
        acc += i
    for _ in range(8):
        np.multiply(vec, 1.0001, out=out)
        np.tanh(out, out=out)
    float(out.sum())
    np.multiply(big, 1.0001, out=big_out)


def calibration_loop() -> float:
    """Seconds taken by a fixed numpy-plus-Python loop that uses no genseg code.

    It mixes small matrix products, a Python loop, elementwise passes over a
    256 KB vector and one pass over 8 MB, more than a core's L2, so that,
    timed right beside the program's own work, it slows down with the host as
    the program does, whether the host is short of cycles or of cache and
    memory bandwidth. It allocates nothing: every output is a preallocated
    buffer, so the program's allocator state cannot change its time. It runs
    the work once untimed and times the second pass, which finds the caches,
    the TLB and the branch predictors as its own first pass left them,
    whatever the program left there.
    """
    buffers = _calibration_buffers()
    _calibration_work(*buffers)
    t0 = time.perf_counter()
    _calibration_work(*buffers)
    return time.perf_counter() - t0


class IterationClock:
    def __init__(self, autodiff):
        self._autodiff = autodiff
        self.starts: list[float] = []  # iteration k+1 runs from starts[k] to ends[k]
        self.ends: list[float] = []
        self.nodes: list[int] = []     # tape node counter at each start
        self.calib: list[float] = []   # calibration-loop seconds, one per boundary
        self.excluded: dict[int, float] = {}       # iteration -> seconds spent in oracle checks
        self.excluded_nodes: dict[int, int] = {}   # iteration -> tape nodes the oracle created
        self.setup_end: float | None = None        # wall clock when init_state returned
        self.setup_calib: list[float] = []         # calibration samples taken right after
        self.listeners = []  # callables(iteration), run at each boundary, untimed

    def mark(self, iteration: int):
        """Iteration boundary: end the previous iteration, calibrate, start the next."""
        if self.starts:
            self.ends.append(time.perf_counter())
        self.calib.append(calibration_loop())
        for listener in self.listeners:
            listener(iteration)
        self.nodes.append(self._autodiff._next_id)
        self.starts.append(time.perf_counter())

    def exclude(self, iteration: int, seconds: float, nodes: int):
        self.excluded[iteration] = seconds
        self.excluded_nodes[iteration] = nodes

    def interval(self, iteration: int) -> float:
        """Wall seconds of one whole iteration, oracle checks taken out."""
        return (self.ends[iteration - 1] - self.starts[iteration - 1]
                - self.excluded.get(iteration, 0.0))

    def node_delta(self, iteration: int) -> int:
        """Tape nodes one iteration created, oracle checks taken out."""
        return (self.nodes[iteration] - self.nodes[iteration - 1]
                - self.excluded_nodes.get(iteration, 0))

    def install(self, engine):
        clock = self
        state_cls = engine.TrainState

        def setattr_hook(state, name, value):
            if name == "iteration" and value >= 1:
                clock.mark(value)
            object.__setattr__(state, name, value)

        state_cls.__setattr__ = setattr_hook
        init_state = engine.Trainer.init_state

        @functools.wraps(init_state)
        def timed_init_state(trainer):
            state = init_state(trainer)
            clock.setup_end = time.time()
            clock.setup_calib = [calibration_loop() for _ in range(5)]
            return state

        engine.Trainer.init_state = timed_init_state


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    iteration: int   # training iteration the span started in (0 outside the loop)
    work: float = 0.0  # computed from shapes: flops for matmul, bytes for im2col/col2im


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.iteration = 0

    def wrap(self, fn, name, work=None):
        """``fn`` recorded as a span; ``name`` may be a callable of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = tracer._open[-1] if tracer._open else -1
            span = Span(label, 0.0, 0.0, parent, tracer.iteration)
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if work is not None:
                span.work = work(args, out)
            return out

        return traced

    def summarize(self, iterations=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self milliseconds, summed work.

        ``iterations`` restricts the sum to spans started in those iterations.
        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(self.spans, child_time):
            if iterations is not None and span.iteration not in iterations:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0.0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["ms"] += 1e3 * duration
            entry["self_ms"] += 1e3 * (duration - covered)
            entry["work"] += span.work
        return out


# The traced run alternates blocks of TRACE_BLOCK iterations without and with
# layer spans, starting untraced. Comparing the two kinds of block gives the
# tracing overhead free of drift. The block is a multiple of every workload's
# validation period, so each block holds the same share of validation work.
TRACE_BLOCK = 4


def traced_iteration(iteration: int) -> bool:
    return ((iteration - 1) // TRACE_BLOCK) % 2 == 1


def whole_blocks(stamped: int) -> range:
    """Iterations with a measured length that lie in complete blocks.

    With ``stamped`` iteration starts, iterations 1..stamped-1 have an end.
    """
    return range(1, (stamped - 1) // TRACE_BLOCK * TRACE_BLOCK + 1)


class Patches:
    """Wrapped functions and methods that can be switched in and out."""

    def __init__(self):
        self.items = []  # (owner, attribute, original, wrapped)
        self.applied = False

    def function(self, modules, attr, wrap):
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(modules[0], attr)
        wrapped = wrap(original)
        self.items += [(m, attr, original, wrapped) for m in modules
                       if getattr(m, attr, None) is original]

    def method(self, cls, attr, wrap):
        original = getattr(cls, attr)
        self.items.append((cls, attr, original, wrap(original)))

    def apply(self, on: bool):
        for owner, attr, original, wrapped in self.items:
            setattr(owner, attr, wrapped if on else original)
        self.applied = on


def _matmul_flops(args, out):
    (m, k), n = args[0].value.shape, args[1].value.shape[1]
    return 2.0 * m * k * n


def _array_bytes(args, out):
    return 8.0 * (args[0].size + out.size)


def io_spans(tracer: Tracer, synthdata, cli) -> Patches:
    """Dataset and checkpoint I/O, which happen outside the training loop."""
    patches = Patches()
    for attr in ("load_dataset", "save_checkpoint", "load_checkpoint"):
        patches.function([synthdata, cli], attr,
                         lambda fn, attr=attr: tracer.wrap(fn, f"synthdata.{attr}"))
    return patches


def layer_spans(tracer: Tracer, engine, models, autodiff, tensor) -> Patches:
    """Spans around the engine stages, networks, autodiff and tensor primitives."""
    patches = Patches()
    stages = {"stage1_update": "engine.stage1", "synth_batch": "engine.synth",
              "stage2_update": "engine.stage2", "_baseline_update": "engine.stage2",
              "stage3_hypergrad": "engine.stage3", "outer_update_A": "engine.arch_step",
              "_seg_hvp_fd": "autodiff.hvp"}
    for attr, name in stages.items():
        patches.method(engine.Trainer, attr, lambda fn, name=name: tracer.wrap(fn, name))
    patches.function([engine], "evaluate_segmenter", lambda fn: tracer.wrap(fn, "engine.eval"))

    for cls, name in ((models.GeneratorNet, "models.gen"), (models.DiscriminatorNet, "models.disc"),
                      (models.SegNet, "models.seg")):
        patches.method(cls, "forward", lambda fn, name=name: tracer.wrap(fn, name))
    patches.method(models.SearchableCell, "forward",
                   lambda fn: tracer.wrap(fn, lambda args: f"models.cell.{args[0].name}"))

    patches.function([autodiff], "backward", lambda fn: tracer.wrap(fn, "autodiff.backward"))
    for attr in ("mixed_hvp_fd", "mixed_hvp_exact"):
        patches.function([autodiff], attr, lambda fn: tracer.wrap(fn, "autodiff.hvp"))
    patches.function([autodiff], "matmul",
                     lambda fn: tracer.wrap(fn, "autodiff.matmul", _matmul_flops))
    for attr in ("im2col", "col2im"):
        patches.function([tensor], attr,
                         lambda fn, attr=attr: tracer.wrap(fn, f"tensor.{attr}", _array_bytes))
    return patches


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(a @ b) / norm if norm > 0 else 0.0


def install_oracle(clock: IterationClock, engine, autodiff, iterations,
                   results: dict[int, float]):
    """At the given iterations, score stage III's output against the
    brute-force pipeline oracle, fed the same inputs. The oracle's time and
    tape nodes are taken out of the iteration it ran in; it runs only in
    untraced iterations, so no span covers it."""
    stage3 = engine.Trainer.stage3_hypergrad

    @functools.wraps(stage3)
    def checked(trainer, *args):
        hyper = stage3(trainer, *args)
        G_pre, H_pre, S_pre, state, masks, images, m_hats, val_masks, val_images = args
        if state.iteration in iterations:
            t0, n0 = time.perf_counter(), autodiff._next_id
            oracle = engine.hypergrad_fd_oracle(trainer, G_pre, H_pre, S_pre, state.A, masks,
                                                images, m_hats, val_masks, val_images)
            results[state.iteration] = cosine(hyper, oracle)
            clock.exclude(state.iteration, time.perf_counter() - t0, autodiff._next_id - n0)
        return hyper

    engine.Trainer.stage3_hypergrad = checked

