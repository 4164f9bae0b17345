"""One benchmark process: runs a single genseg CLI command with timing hooks.

Usage: python3 perfbench/child.py --report OUT.json [--trace] -- <genseg cli arguments>

It calls the public entry point ``genseg.cli.main`` and writes what it
measured to ``--report`` as JSON. With ``--trace``, layer spans are on for
all of ``eval`` and for alternate blocks of training iterations (see
``tracing.TRACE_BLOCK``), so one traced process also measures the tracing
overhead, and stage III's hypergradient is scored against the brute-force
oracle at ``workloads.ORACLE_ITERS`` (where stage III runs).
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import ORACLE_ITERS  # noqa: E402


def blas_info() -> dict:
    """BLAS library, version and the thread count actually in effect."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from genseg import autodiff, cli, engine, models, synthdata, tensor

    clock = tracing.IterationClock(autodiff)
    clock.install(engine)
    is_eval = cli_args[:1] == ["eval"]
    hypergrad_cos: dict[int, float] = {}
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # a no-op where stage III does not run (`baseline`, `eval`)
        tracing.install_oracle(clock, engine, autodiff, set(ORACLE_ITERS), hypergrad_cos)
        tracing.io_spans(tracer, synthdata, cli).apply(True)
        layers = tracing.layer_spans(tracer, engine, models, autodiff, tensor)
        if is_eval:
            layers.apply(True)
        else:
            def on_iteration(iteration):
                tracer.iteration = iteration
                if tracing.traced_iteration(iteration) != layers.applied:
                    layers.apply(not layers.applied)

            clock.listeners.append(on_iteration)

    # eval: time each chunk, from one segmenter forward to the next or to the
    # end of the evaluation, with a calibration sample between chunks
    chunks: list[tuple[float, int]] = []  # (seconds, images)
    current: list = []                     # [start, images] of the chunk in progress

    def close_chunk():
        if current:
            chunks.append((time.perf_counter() - current[0], current[1]))
            current.clear()

    if is_eval:
        evaluate, forward = engine.evaluate_segmenter, models.SegNet.forward

        def stamped_forward(seg, params, image):
            close_chunk()
            clock.calib.append(tracing.calibration_loop())
            current[:] = [time.perf_counter(), image.value.shape[0]]
            return forward(seg, params, image)

        def timed_evaluate(*a, **kw):
            out = evaluate(*a, **kw)
            close_chunk()
            return out

        models.SegNet.forward = stamped_forward
        engine.evaluate_segmenter = timed_evaluate

    rc = cli.main(cli_args)

    n_iters = len(clock.starts)
    report = {
        "setup_end": clock.setup_end,
        "setup_calib": clock.setup_calib,
        "intervals": [clock.interval(i) for i in range(1, n_iters)],
        "eval_chunks": chunks,
        "calib": clock.calib,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": blas_info(),
        "hypergrad_cos": hypergrad_cos,
    }
    if tracer is not None:
        if is_eval:
            report["layers"] = tracer.summarize()
        else:
            whole = tracing.whole_blocks(n_iters)
            traced = [it for it in whole if tracing.traced_iteration(it)]
            report["traced"] = traced
            report["untraced"] = [it for it in whole if not tracing.traced_iteration(it)]
            report["layers"] = tracer.summarize(set(traced))
            report["io"] = {k: v for k, v in tracer.summarize().items()
                            if k.startswith("synthdata.")}
            report["nodes"] = sum(clock.node_delta(it) for it in traced)
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
