"""The benchmark's workloads: what each trains, on how much data, and why."""
from __future__ import annotations

from dataclasses import dataclass

from perfbench.tracing import TRACE_BLOCK, traced_iteration

# traced run: iterations at which stage III's hypergradient is scored against
# the brute-force oracle (about 5 s each at 32 px; never on `baseline`, which
# has no stage III)
ORACLE_ITERS = (1, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str          # genseg training mode
    size: int          # image extent in pixels
    n_train: int
    n_val: int
    n_test: int
    n_eval: int        # held-out pairs for the forward-only `genseg eval` phase
    iters: int         # fixed, so dice is a deterministic function of the seed

    def __post_init__(self):
        if self.iters <= max(2 * TRACE_BLOCK, *ORACLE_ITERS):
            raise ValueError(f"{self.name}: too few iterations for the traced run")
        if any(traced_iteration(it) for it in ORACLE_ITERS):
            raise ValueError("oracle checks must fall in untraced iterations")


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="search32",
        why="the paper's trilevel search at 32 px with full-batch validation every "
            "iteration; small arrays, so tape overhead, repeated forwards and the "
            "hypergradient path dominate",
        mode="genseg", size=32, n_train=8, n_val=32, n_test=64, n_eval=1024,
        iters=80),
    Workload(
        name="segment",
        why="segmenter-only baseline plus forward-only eval; bypasses generator, "
            "discriminator and stage III, so hypergradient changes should not move it",
        mode="baseline", size=32, n_train=64, n_val=16, n_test=64, n_eval=1024,
        iters=900),
)}
