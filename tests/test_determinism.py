"""Every CLI output is byte-identical across processes.

Each trial runs the table RUNS as fresh ``python -m alignflow.cli`` processes
in a fresh directory, with relative paths. Every file a trial leaves, captured
stdout included, must equal the hash-seed-0 trial's byte for byte; nothing is
listed by name, so a new output cannot escape the check. As a script,
``python tests/test_determinism.py PARENT_TREE CHANGE_TREE`` runs the table on
two source trees under hash seed 0, prints every output that differs and
exits 1 if any does, or 2 if it cannot run a command; for each differing
captured stdout it also prints a unified diff of its lines.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

TINY = ("steps_main = 20", "steps_duration = 6", "eval_every = 20", "n_train = 4", "n_eval = 2",
        "hidden_width = 16", "ff_width = 24", "dur_hidden = 8", "flow_hidden = 8")
CONFIGS = {
    "tiny": TINY,
    # the three ablation arms off, with a speaker that is not conditioned on
    "ablation": TINY + ("speakers = 2", "speaker_shift = 0.5", "transformer_block = false",
                        "duration_adversarial = false", "condition_speaker = false"),
    "spk3": TINY + ("speakers = 3", "speaker_shift = 0.5", "obs_noise = 0.05"),  # noise draws
    "heads4": TINY + ("n_heads = 4", "flow_depth = 3"),  # stacked q/k/v leaf at H != 2
    # past t = 168, where AdamW's first bias correction rounds to exactly 1.0
    "steps200": ("steps_main = 200",) + TINY[1:],
    # 40-80 tokens, up to 640 frames: long training and the J x J flow attention
    "long": ("steps_main = 2", "n_eval = 6", "seq_min = 40", "seq_max = 80", "dur_max = 8"),
}
FRAMES = "0.3,-1.2,0.8,0.1,-0.4,1.5,-0.9\n1.1,0.2,-0.6,0.7,-1.3,0.05,0.4\n"
DRAWS = {"long-frames.csv": (5, (2, 300)), "grid.csv": (3, (4, 12))}  # file -> (seed, shape)

# (stdout file, CLI args), in order: a row may read what an earlier row wrote
RUNS = [
    *((f"{c}.out", ["train-toy", "--config", f"{c}.cfg", "--out", c, "--seed", "13"])
      for c in CONFIGS),
    *((f"eval-{r}.out", ["eval-align", "--ckpt", f"{r}/checkpoint.bin",
                         "--corpus", f"{r}/corpus.json", "--split", "all"])
      for r in ("tiny", "long")),
    *((f"maps-{r}.out", ["dump-attention", "--ckpt", f"{r}/checkpoint.bin",
                         "--input", frames, "--out", f"maps-{r}"])
      for r, frames in (("tiny", "frames.csv"), ("long", "long-frames.csv"))),
    *((f"dur-{r}.out", ["train-duration", "--corpus", f"{r}/duration_corpus.csv",
                        "--steps", "20", "--seed", "5", "--out", f"dur-{r}.csv"])
      for r in ("tiny", "spk3")),
    ("mas.out", ["mas", "--grid", "grid.csv", "--noise-scale", "0.5", "--seed", "3"]),
    ("check-grad.out", ["check-grad", "--seeds", "2"]),
]
# conv1d and attention are BLAS matmuls, so the thread count must not move a bit either
TRIALS = {"hash0": {"PYTHONHASHSEED": "0"}, "hash12345": {"PYTHONHASHSEED": "12345"},
          "blas1": {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}}
# a library caller that loads numpy before alignflow, with no thread variable set
LIBRARY = "import sys, numpy; from alignflow import cli; sys.exit(cli.main(sys.argv[1:]))"
DIFF_LINES = 40  # shown of a differing stdout capture's unified diff


def _environment(tree: Path, trial: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(trial, PYTHONPATH=str(tree.resolve() / "src"))
    return env


def run_trial(tree: Path, workdir: Path, trial: dict) -> dict:
    """Write the inputs into the empty ``workdir``, run every row there on
    ``tree``'s sources in the ``trial``'s environment (without inherited thread
    settings), and return the files left as {relative path: bytes}."""
    for name, lines in CONFIGS.items():
        (workdir / f"{name}.cfg").write_text("\n".join(lines) + "\n")
    (workdir / "frames.csv").write_text(FRAMES)
    for name, (seed, shape) in DRAWS.items():
        np.savetxt(workdir / name, np.random.default_rng(seed).normal(size=shape), delimiter=",")
    env = _environment(tree, trial)
    for stdout, args in RUNS:
        with open(workdir / stdout, "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "alignflow.cli", *args], cwd=workdir,
                                  env=env, stdout=out, stderr=subprocess.PIPE, timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(f"alignflow {' '.join(args)} on {tree} exited "
                               f"{proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return {p.relative_to(workdir).as_posix(): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def differing(want: dict, got: dict) -> list:
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tree = Path(__file__).resolve().parent.parent
    return {name: run_trial(tree, tmp_path_factory.mktemp(name), trial)
            for name, trial in TRIALS.items()}


@pytest.mark.parametrize("trial", ["hash12345", "blas1"])
def test_every_output_matches_hash_seed_0(outputs, trial):
    assert differing(outputs["hash0"], outputs[trial]) == []


def test_a_library_caller_loading_numpy_first_matches_the_cli(outputs, tmp_path):
    """The ``long`` row's training run in a program that imports numpy before
    alignflow leaves the CLI row's checkpoint, byte for byte."""
    tree = Path(__file__).resolve().parent.parent
    (tmp_path / "long.cfg").write_text("\n".join(CONFIGS["long"]) + "\n")
    args = dict(RUNS)["long.out"]
    proc = subprocess.run([sys.executable, "-c", LIBRARY, *args], cwd=tmp_path,
                          env=_environment(tree, TRIALS["hash0"]), capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert (tmp_path / "long/checkpoint.bin").read_bytes() == outputs["hash0"][
        "long/checkpoint.bin"]


def test_every_subcommand_has_a_row():
    from alignflow import cli

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {args[0] for _, args in RUNS} == set(sub.choices)


def compare(parent: Path, change: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        want, got = (run_trial(tree, Path(tempfile.mkdtemp(dir=tmp)), TRIALS["hash0"])
                     for tree in (parent, change))
    names = differing(want, got)
    for name in names:
        print(f"differs: {name}")
        if name.endswith(".out"):  # captured stdout, which is text
            lines = list(difflib.unified_diff(
                *(d.get(name, b"").decode(errors="replace").splitlines() for d in (want, got)),
                f"parent/{name}", f"change/{name}", lineterm=""))
            print("\n".join(lines[:DIFF_LINES]))
            if len(lines) > DIFF_LINES:
                print(f"... {len(lines) - DIFF_LINES} more diff lines")
    print(f"{len(names)} of {len(want.keys() | got.keys())} outputs differ" if names
          else f"all {len(want)} outputs byte-identical")
    return 1 if names else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(f"usage: python {sys.argv[0]} PARENT_TREE CHANGE_TREE", file=sys.stderr)
        sys.exit(2)
    try:
        status = compare(Path(sys.argv[1]), Path(sys.argv[2]))
    except Exception as e:  # a command failed or timed out: no comparison was made
        print(f"could not compare: {e}", file=sys.stderr)
        status = 2
    sys.exit(status)
