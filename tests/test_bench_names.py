"""The names the benchmark's tracing looks up in genseg still exist.

``perfbench/tracing.py`` wraps genseg functions and methods by name, so a
rename in ``src/`` would otherwise surface only as a failed or silently
zeroed traced benchmark run.
"""
import inspect
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from genseg import autodiff, cli, engine, models, synthdata, tensor  # noqa: E402
from genseg.checks import tiny_instance  # noqa: E402
from perfbench import tracing  # noqa: E402


def test_layer_and_io_spans_apply_and_remove():
    tracer = tracing.Tracer()
    patches = [tracing.layer_spans(tracer, engine, models, autodiff, tensor),
               tracing.io_spans(tracer, synthdata, cli)]
    items = [item for p in patches for item in p.items]
    # each checkpoint and dataset function is wrapped in synthdata and in cli,
    # which imports it by name
    assert len([owner for owner, *_ in items if owner is cli]) == 3
    try:
        for p in patches:
            p.apply(True)
        assert all(getattr(owner, attr) is wrapped for owner, attr, _, wrapped in items)
    finally:
        for p in patches:
            p.apply(False)
    assert all(getattr(owner, attr) is original for owner, attr, original, _ in items)


def test_stage3_takes_what_the_oracle_hook_unpacks():
    # tracing.install_oracle unpacks nine positional arguments after the trainer:
    # G_pre, H_pre, S_pre, state, masks, images, m_hats, val_masks, val_images
    params = list(inspect.signature(engine.Trainer.stage3_hypergrad).parameters.values())[1:]
    assert len(params) == 9
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


def test_oracle_takes_what_the_oracle_hook_passes():
    # tracing.install_oracle calls the oracle with ten positional arguments:
    # trainer, G_pre, H_pre, S_pre, state.A, masks, images, m_hats, val_masks,
    # val_images
    bound = inspect.signature(engine.hypergrad_fd_oracle).bind(*range(10))
    assert list(bound.arguments.values()) == list(range(10))


def test_one_genseg_iteration_runs_each_traced_product_once(monkeypatch):
    # the benchmark's autodiff.hvp span wraps these two by name; a product
    # computed inline elsewhere would silently drop out of autodiff.hvp.ms
    calls = []
    for owner, attr in ((autodiff, "mixed_hvp_fd"), (engine.Trainer, "_seg_hvp_fd")):
        def counted(*args, _real=getattr(owner, attr), _attr=attr):
            calls.append(_attr)
            return _real(*args)
        monkeypatch.setattr(owner, attr, counted)
    trainer, _, _ = tiny_instance(0)
    trainer.config.iters = 1
    trainer.train()
    assert sorted(calls) == ["_seg_hvp_fd", "mixed_hvp_fd"]


def test_cell_spans_carry_the_benchmark_cell_labels():
    # perfbench labels each cell's span from SearchableCell.name; BENCHMARK.json
    # reads them as models.cell.enc1 ... models.cell.dec3
    tracer = tracing.Tracer()
    patches = tracing.layer_spans(tracer, engine, models, autodiff, tensor)
    gen = models.GeneratorNet(base_channels=2)
    G, A = gen.init_params(0)
    mask = autodiff.constant(np.zeros((1, synthdata.MASK_CHANNELS, 8, 8)))
    patches.apply(True)
    try:
        gen.forward(autodiff.bind(G), autodiff.bind(A), mask)
    finally:
        patches.apply(False)
    cells = [span.name for span in tracer.spans if span.name.startswith("models.cell.")]
    assert cells == [f"models.cell.{side}{i}" for side in ("enc", "dec") for i in (1, 2, 3)]
