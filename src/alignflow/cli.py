"""Command-line entry points.

Subcommands: mas, train-toy, train-duration, eval-align, check-grad,
dump-attention. Training commands require --seed explicitly; every command
is deterministic given its flags, and no output file embeds timestamps, so
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import gradcheck
from .alignment import load_grid, mas_search, read_csv_matrix
from .corpus import load_corpus
from .duration import DurationDiscriminator, DurationGenerator, train_duration
from .harness import (
    DUR_HEADER_ADV,
    ConfigError,
    TrainConfig,
    eval_alignment,
    load_config,
    load_duration_corpus,
    load_model,
    train_toy,
    write_csv,
)
from .numerics import NON_NEGATIVE, AdamWConfig, NumericError, Rng, at_least, check


# flag (argparse dest) -> (test, wording); a flag that stands for a config key has its rule
FLAG_RULES = {"seed": TrainConfig.RULES["seed"], "lr": TrainConfig.RULES["duration_lr"],
              "hidden": TrainConfig.RULES["dur_hidden"], "z_dim": TrainConfig.RULES["z_dim"],
              "steps": TrainConfig.RULES["steps_duration"], "noise_scale": NON_NEGATIVE,
              "seeds": at_least(1), "tolerance": NON_NEGATIVE}


class FramesError(ValueError):
    """A ``dump-attention --input`` frame CSV is malformed or has the wrong
    number of channel rows; the message names the file and the row."""


def _cmd_mas(args) -> int:
    grid = load_grid(args.grid)
    rng = Rng(args.seed) if args.noise_scale > 0 else None
    align, best_q = mas_search(grid, noise_scale=args.noise_scale, rng=rng)
    print(",".join(str(int(d)) for d in align.durations))
    print(f"best_Q={best_q!r}")
    return 0


def _cmd_train_toy(args) -> int:
    config = load_config(args.config)
    config.seed = args.seed
    try:
        history, model = train_toy(config, out_dir=args.out)
    except ConfigError as e:  # the model cannot be built
        raise ConfigError(f"{args.config}: {e}") from None
    last = history["main"][-1] if history["main"] else {}
    print(f"wrote {args.out}")
    if last.get("eval_exact") is not None:
        print(f"final eval: exact_match={last['eval_exact']!r} mae={last['eval_mae']!r}")
    return 0


def _cmd_train_duration(args) -> int:
    corpus = load_duration_corpus(args.corpus)
    width = corpus[0].h_text.shape[2]
    cond = corpus[0].cond  # the corpus carries a condition on every batch or on none
    root = Rng(args.seed)
    gen = DurationGenerator(h_dim=width, z_dim=args.z_dim, hidden=args.hidden,
                            rng=root.child(0), cond_dim=None if cond is None else cond.size)
    disc = DurationDiscriminator(h_dim=width, hidden=args.hidden, rng=root.child(1))
    history = train_duration(
        gen, disc, corpus, args.steps,
        opt_cfg=AdamWConfig(lr=args.lr),
        rng=root.child(2),
    )
    write_csv(args.out, DUR_HEADER_ADV, history)
    if history:
        last = history[-1]
        print(
            f"step {last['step']}: loss_d={last['loss_d']!r} "
            f"loss_g_adv={last['loss_g_adv']!r} loss_g_mse={last['loss_g_mse']!r}"
        )
    return 0


def _cmd_eval_align(args) -> int:
    model = load_model(args.ckpt)
    corpus = load_corpus(args.corpus)
    for key in ("vocab", "channels", "speakers"):
        have, want = getattr(corpus.spec, key), getattr(model.config, key)
        if have != want:
            raise ValueError(f"{args.corpus}: spec.{key} is {have} but {args.ckpt} "
                             f"was trained with {key} = {want}")
    instances = {"train": corpus.train, "eval": corpus.eval,
                 "all": corpus.train + corpus.eval}[args.split]
    if not instances:
        raise ValueError(f"{args.corpus}: split {args.split!r} has no utterances")
    stats = eval_alignment(model, instances)
    print(f"exact_match={stats['exact_match']!r}")
    print(f"mae={stats['mae']!r}")
    return 0


def _cmd_check_grad(args) -> int:
    results = gradcheck.run(seed=args.seed, n_seeds=args.seeds)
    failed = False
    for name, err in results:
        status = "ok" if err <= args.tolerance else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{name:28s} max_rel_err={err:.3e}  {status}")
    return 1 if failed else 0


def _write_pgm(path, values: np.ndarray, band: int | None = None):
    """8-bit binary PGM with linear min-max scaling; optionally overlays the
    conv receptive-field band edges (|i-j| == band) at full intensity."""
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        img = np.round((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        img = np.zeros(values.shape, dtype=np.uint8)
    if band is not None:
        rows, cols = np.indices(img.shape)
        img[np.abs(rows - cols) == band] = 255
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())


def _cmd_dump_attention(args) -> int:
    import os

    model = load_model(args.ckpt)
    x = read_csv_matrix(args.input, FramesError, "input")
    if x.shape[0] != model.flows.channels:
        raise FramesError(
            f"{args.input}: input has {x.shape[0]} rows but the flow stack expects "
            f"{model.flows.channels} channels"
        )
    n_speakers = model.config.speakers
    if args.speaker is not None and not 0 <= args.speaker < n_speakers:
        raise ValueError(f"--speaker {args.speaker} is outside [0, {n_speakers})")
    cond = None
    if args.speaker is not None:
        _, cond = model.speaker_condition(args.speaker)
    os.makedirs(args.out, exist_ok=True)
    maps = model.flows.attention_maps(x, cond)
    for li, amap in enumerate(maps):
        csv_path = os.path.join(args.out, f"attention_layer{li}.csv")
        with open(csv_path, "w") as f:
            for row in amap:
                f.write(",".join(repr(float(v)) for v in row) + "\n")
        band = model.flows.layers[li].conv_receptive_field
        _write_pgm(os.path.join(args.out, f"attention_layer{li}.pgm"), amap, band)
    print(f"wrote {len(maps)} attention maps to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alignflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mas", help="run alignment search on a log-likelihood grid CSV")
    p.add_argument("--grid", required=True, help="CSV, row i = token, column j = frame")
    p.add_argument("--noise-scale", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mas)

    p = sub.add_parser("train-toy", help="end-to-end toy training run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("train-duration", help="adversarial duration training")
    p.add_argument("--corpus", required=True, help="duration corpus CSV")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="per-step loss CSV")
    p.add_argument("--lr", type=float, default=TrainConfig.duration_lr)
    p.add_argument("--hidden", type=int, default=TrainConfig.dur_hidden)
    p.add_argument("--z-dim", type=int, default=TrainConfig.z_dim)
    p.set_defaults(func=_cmd_train_duration)

    p = sub.add_parser("eval-align", help="alignment accuracy of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "eval", "all"], default="eval")
    p.set_defaults(func=_cmd_eval_align)

    p = sub.add_parser("check-grad", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_check_grad)

    p = sub.add_parser("dump-attention", help="per-layer flow attention maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True, help="CSV frame matrix, channels x time")
    p.add_argument("--out", required=True)
    p.add_argument("--speaker", type=int, default=None)
    p.set_defaults(func=_cmd_dump_attention)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad input file or flag value, or a run that hits a
    non-finite value, ends it with one line on stderr and exit code 2
    (argparse's code for a bad command line). numpy's floating-point warnings
    are off: every op checks its output and raises ``NumericError`` on what
    such a warning would report, so the error line is all that is printed."""
    args = build_parser().parse_args(argv)
    try:
        for dest, rule in FLAG_RULES.items():
            if hasattr(args, dest):
                check(rule, getattr(args, dest), "--" + dest.replace("_", "-"))
        with np.errstate(all="ignore"):
            return args.func(args)
    except (OSError, ValueError, NumericError) as e:
        print(f"alignflow {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
