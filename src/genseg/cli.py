"""Command-line interface: dataset generation, training, evaluation,
gradient checking, and SVG loss/metric curves.

Commands never overwrite existing outputs unless ``--force`` is given, and
exit nonzero whenever their contract is not fully met. A bad input or an
unusable path is reported as one ``error:`` line, never a traceback.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import engine, metrics, synthdata
from .models import SEG_DEPTH, SegNet
from .synthdata import load_checkpoint, load_dataset, save_checkpoint, save_dataset

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT, TICKS = 640, 420, 5  # plot size in pixels, and ticks per axis


# ---------------------------------------------------------------------------
# SVG line plots (self-contained, no plotting dependency)
# ---------------------------------------------------------------------------

def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (TICKS - 1) for i in range(TICKS)]


def render_svg(series: list[tuple[str, list[float], list[float]]],
               y_label: str = "value") -> str:
    """One polyline per (label, xs, ys) series over iterations, with axes, ticks, and legend."""
    # imported here: the module pulls in urllib and ssl, about 30 ms and 7 MB
    # that every other command would pay at start-up
    from xml.sax.saxutils import escape
    ml, mr, mt, mb = 62, 18, 18, 46
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    nonempty = [s for s in series if len(s[1])]
    if not nonempty:
        out.append(f'<text x="{WIDTH / 2}" y="{HEIGHT / 2}" text-anchor="middle" '
                   f'font-size="16" fill="#666">no data</text>')
        out.append("</svg>")
        return "\n".join(out)

    all_x = [x for _, xs, _ in nonempty for x in xs]
    all_y = [y for _, _, ys in nonempty for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    out.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(t):.1f}" y1="{mt + ph}" x2="{px(t):.1f}" y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(t):.1f}" y="{mt + ph + 18}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{ml - 5}" y1="{py(t):.1f}" x2="{ml}" y2="{py(t):.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py(t):.1f}" text-anchor="end" dominant-baseline="middle">{t:.3g}</text>')
    out.append(f'<text x="{ml + pw / 2}" y="{HEIGHT - 8}" text-anchor="middle">iteration</text>')
    out.append(f'<text x="14" y="{mt + ph / 2}" text-anchor="middle" '
               f'transform="rotate(-90 14 {mt + ph / 2})">{y_label}</text>')

    for i, (label, xs, ys) in enumerate(nonempty):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
    lx, ly = ml + pw - 150, mt + 8
    for i, (label, _, _) in enumerate(nonempty):
        color = PALETTE[i % len(PALETTE)]
        y = ly + 16 * i
        out.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{y + 4}">{escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _refuse_overwrite(path: str, force: bool) -> bool:
    if os.path.exists(path) and not force:
        print(f"error: {path} exists; pass --force to overwrite", file=sys.stderr)
        return True
    return False


def cmd_gen_data(args) -> int:
    if _refuse_overwrite(os.path.join(args.out, "manifest.txt"), args.force):
        return 1
    # before generating, so an unusable output path costs no dataset; nothing is
    # made yet, so a rejected --size or --n leaves no directory behind
    anchor = os.path.abspath(args.out)
    while not os.path.exists(anchor):  # up to the nearest existing ancestor
        anchor = os.path.dirname(anchor)
    if not os.path.isdir(anchor):
        return _fail(f"cannot write {args.out}: {anchor} is not a directory")
    ds = synthdata.gen_task(args.seed, args.n, args.size, args.difficulty)
    save_dataset(args.out, ds)
    print(f"wrote {len(ds)} pairs ({args.size}x{args.size}, difficulty {args.difficulty}, "
          f"seed {args.seed}) to {args.out}")
    return 0


def _load_splits(data_dir: str, seed: int):
    sub = {name: os.path.join(data_dir, name) for name in ("train", "val", "test")}
    if os.path.exists(os.path.join(sub["train"], "manifest.txt")):
        train = load_dataset(sub["train"])
        val = load_dataset(sub["val"])
        test = load_dataset(sub["test"]) if os.path.exists(os.path.join(sub["test"], "manifest.txt")) else None
        return train, val, test
    full = load_dataset(data_dir)
    train, val = synthdata.split(full, seed)
    return train, val, None


def cmd_train(args) -> int:
    items = [(key, val) for key, val in (("mode", args.mode), ("out_dir", args.out)) if val]
    for item in args.set or []:
        if "=" not in item:
            return _fail(f"--set needs key=value, got '{item}'")
        items.append([part.strip() for part in item.split("=", 1)])
    overrides = {}  # one value per key, as in a config file
    for key, val in items:
        if key in overrides:
            return _fail(f"config key '{key}' is set twice on the command line")
        overrides[key] = val
    with open(args.config, encoding="utf-8") as f:
        cfg = engine.parse_config(f.read(), overrides)
    if not cfg.out_dir:
        return _fail("no output directory (set out_dir in the config or pass --out)")
    if not cfg.data_dir:
        return _fail("no data directory (set data_dir in the config)")
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    if _refuse_overwrite(metrics_path, args.force):
        return 1
    # before training, so an unusable output path costs no run, and an
    # aborted or killed run keeps the config it ran
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "resolved_config.txt"), "w", encoding="utf-8") as f:
        f.write(engine.resolved_config_text(cfg))
    train_ds, val_ds, test_ds = _load_splits(cfg.data_dir, cfg.seed)
    records, state = engine.Trainer(cfg, train_ds, val_ds, test_ds).train()
    digest = engine.config_digest(cfg)
    metrics.write_csv(records, metrics_path)
    save_checkpoint(os.path.join(cfg.out_dir, "best.ckpt"), state.best_params, digest)
    save_checkpoint(os.path.join(cfg.out_dir, "final.ckpt"), state.groups(), digest)
    save_dataset(os.path.join(cfg.out_dir, "val"), val_ds)
    summary = f"mode={cfg.mode} seed={cfg.seed}"
    # best_metric keeps its -1 start when no validation ran
    if any(r.split == "val" for r in records):
        summary += f" best_val_dice={state.best_metric:.6f}"
    test_rows = [r for r in records if r.split == "test"]
    if test_rows:
        summary += f" test_dice={test_rows[-1].dice:.6f}"
    print(summary)
    return 0


def cmd_eval(args) -> int:
    groups, _ = load_checkpoint(args.ckpt)
    seg = SegNet.from_params(groups["S"])
    ds = load_dataset(args.data)
    if len(ds) == 0:
        return _fail(f"dataset at {args.data} is empty")
    # load_dataset gives every pair the first pair's shape
    c, h, w = ds[0].image.shape
    if c != seg.img_channels:
        return _fail(f"dataset at {args.data} has {c}-channel images, "
                     f"the checkpoint's segmenter takes {seg.img_channels}")
    # each down layer halves the extent, and each skip must meet its up layer's output
    scale = 2 ** SEG_DEPTH
    if h < scale or h % scale or w < scale or w % scale:
        return _fail(f"image extent {h}x{w} is not a positive multiple of "
                     f"2**SEG_DEPTH = {scale} in both axes")
    d, j = engine.evaluate_segmenter(seg, groups["S"], ds)
    print(f"dice={d:.9f} jaccard={j:.9f} n={len(ds)}")
    return 0


def cmd_gradcheck(args) -> int:
    # imported here: only this command runs the gradient checks
    from . import checks
    ok = True
    if args.level == "grad":
        errs = checks.check_op_grads(args.seed)
        errs.update({f"net.{k}": v for k, v in checks.check_net_grads(args.seed).items()})
        worst = max(errs.values())
        for name, err in sorted(errs.items()):
            print(f"  {name}: max rel error {err:.3e}")
        ok = worst < checks.GRAD_TOL
        print(f"grad check: worst {worst:.3e} (tolerance {checks.GRAD_TOL:g}): "
              f"{'PASS' if ok else 'FAIL'}")
    elif args.level == "hvp":
        cos, ratio = checks.check_hvp(args.seed)
        ok = cos >= checks.HVP_COSINE_TOL and checks.HVP_RATIO_RANGE[0] <= ratio <= checks.HVP_RATIO_RANGE[1]
        print(f"hvp check: cosine {cos:.6f} (>= {checks.HVP_COSINE_TOL}), "
              f"magnitude ratio {ratio:.6f} (in {checks.HVP_RATIO_RANGE}): "
              f"{'PASS' if ok else 'FAIL'}")
    else:
        cos = checks.check_hypergrad(args.seed)
        ok = cos >= checks.HYPER_COSINE_TOL
        print(f"hypergradient check: chain cosine to pipeline oracle {cos:.6f} "
              f"(>= {checks.HYPER_COSINE_TOL}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_plot(args) -> int:
    if _refuse_overwrite(args.out, args.force):
        return 1
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    valid = metrics.CSV_HEADER.split(",")[2:]  # the columns after iter and split
    if not fields:
        return _fail(f"--fields names no field (choose from {sorted(valid)})")
    for f in fields:
        if f not in valid:
            return _fail(f"unknown field '{f}' (choose from {sorted(valid)})")
    series = []
    for path in args.metrics:
        records = metrics.read_csv(path)
        stem = os.path.splitext(os.path.basename(path))[0]
        xs = [float(r.iteration) for r in records]
        for f in fields:
            label = f"{stem}:{f}" if len(fields) > 1 else stem
            ys = [float(getattr(r, f)) for r in records]
            series.append((label, xs, ys))
    svg = render_svg(series, y_label=",".join(fields))
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(svg)
    print(f"wrote {args.out} ({sum(1 for s in series if s[1])} series)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="genseg",
                                description="generative data augmentation for segmentation, desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic mask/image dataset directory")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--difficulty", type=float, default=1.0)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="run a training mode from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--mode", choices=engine.MODES)
    t.add_argument("--out", help="output directory (overrides out_dir)")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    t.add_argument("--force", action="store_true")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("gradcheck", help="verify gradients against oracles")
    c.add_argument("--level", choices=("grad", "hvp", "hyper"), required=True,
                   help="grad: op and network gradients vs finite differences; "
                        "hvp: finite-difference mixed Hessian-vector product vs exact "
                        "double backward; hyper: the training hypergradient chain vs "
                        "brute-force differencing of the training pipeline")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_gradcheck)

    pl = sub.add_parser("plot", help="render metric curves from CSV files to SVG")
    pl.add_argument("--metrics", nargs="+", required=True)
    pl.add_argument("--fields", default="dice")
    pl.add_argument("--out", required=True)
    pl.add_argument("--force", action="store_true")
    pl.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, engine.TrainingAborted) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
