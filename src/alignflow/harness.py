"""End-to-end toy training: encoder + flows + alignment search + duration GAN.

The full speech pipeline is deliberately replaced by a direct prior-likelihood
objective on synthetic latent frames: the flow transforms observed frames, the
encoder emits per-token priors, alignment search picks the best monotonic
match, and the loss is the negative aligned log-likelihood plus the flow's
log-determinant. Every mechanism under study stays in the loop while every
number stays objectively checkable against the corpus ground truth.

Training runs in two phases, a long main phase and a short separate duration
phase on frozen alignment targets, mirroring the big/small step-count split of
the full-scale recipe.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .alignment import NonFiniteGridError, log_prob_grid, mas_search, noise_scale_at, read_lines
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import CorpusSpec, Instance, ToyCorpus, generate_corpus, save_corpus
from .duration import DurationBatch, DurationDiscriminator, DurationGenerator, train_duration
from .encoder import SpeakerTable, TextEncoder
from .flows import FlowStack
from .numerics import AdamWConfig, NumericError, Rng, Tensor, at_least, check_fields


class ConfigError(ValueError):
    pass


class DurationCorpusError(ValueError):
    """A duration corpus CSV is malformed; the message names the file and the line."""


@dataclass
class TrainConfig:
    """Flat run configuration; every field maps to one key in the config file."""

    # run control
    seed: int = 0
    steps_main: int = 1500
    steps_duration: int = 400
    eval_every: int = 250
    # optimizer (main phase); the duration phase has its own learning rate
    lr: float = AdamWConfig.lr
    beta1: float = AdamWConfig.beta1
    beta2: float = AdamWConfig.beta2
    weight_decay: float = AdamWConfig.weight_decay
    eps: float = AdamWConfig.eps
    lr_decay: float = AdamWConfig.lr_decay
    duration_lr: float = 0.01
    # mechanism switches (the ablation arms)
    noise_anneal: bool = True
    transformer_block: bool = True
    duration_adversarial: bool = True
    condition_speaker: bool = True
    # model sizes
    hidden_width: int = 32
    n_blocks: int = 4
    n_heads: int = 2
    ff_width: int = 64
    flow_depth: int = 2
    flow_hidden: int = 16
    key_dim: int = 8
    z_dim: int = 2
    dur_hidden: int = 32
    speaker_dim: int = 8
    # corpus
    vocab: int = CorpusSpec.vocab
    channels: int = CorpusSpec.channels
    n_train: int = CorpusSpec.n_train
    n_eval: int = CorpusSpec.n_eval
    seq_min: int = CorpusSpec.seq_min
    seq_max: int = CorpusSpec.seq_max
    dur_min: int = CorpusSpec.dur_min
    dur_max: int = CorpusSpec.dur_max
    obs_noise: float = CorpusSpec.noise
    prototype_radius: float = CorpusSpec.prototype_radius
    speakers: int = CorpusSpec.speakers
    speaker_shift: float = CorpusSpec.speaker_shift

    # field -> (test, wording); the optimizer and corpus keys keep AdamWConfig's and CorpusSpec's.
    # A checkpoint stores the seed as a float64, which holds every integer up to 2**53 exactly.
    RULES = {
        "seed": (lambda v: 0 <= v <= 2**53, "in [0, 2**53]"), "z_dim": at_least(0),
        "flow_depth": at_least(2),
        **dict.fromkeys(("steps_main", "steps_duration", "eval_every", "hidden_width", "n_heads",
                         "ff_width", "flow_hidden", "key_dim", "dur_hidden", "speaker_dim"),
                        at_least(1)),
        **AdamWConfig.RULES, "duration_lr": AdamWConfig.RULES["lr"],
        **{name: rule for name, rule in CorpusSpec.RULES.items() if name != "noise"},
        "obs_noise": CorpusSpec.RULES["noise"],
    }

    def validate(self):
        """Raise ``ConfigError`` at the first key out of range or out of step with the others."""
        try:
            check_fields(self, self.RULES)
            self.corpus_spec().validate()  # seq_max >= seq_min, dur_max >= dur_min
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.channels % 2 != 0:
            raise ConfigError("channels must be even for the coupling split")
        if self.n_blocks <= TextEncoder.SPEAKER_BLOCK:
            raise ConfigError(f"n_blocks {self.n_blocks} must be > {TextEncoder.SPEAKER_BLOCK}")
        if self.hidden_width % self.n_heads != 0:
            raise ConfigError(f"n_heads {self.n_heads} does not divide hidden_width")

    def _derive(self, cls, **overrides):
        """A ``cls`` holding this config's fields of the same name, then ``overrides``."""
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(cls)
                  if f.name in _FIELD_TYPES}
        return cls(**{**shared, **overrides})

    def corpus_spec(self) -> CorpusSpec:
        return self._derive(CorpusSpec, noise=self.obs_noise)

    def optimizer(self, lr: float | None = None) -> AdamWConfig:
        return self._derive(AdamWConfig, lr=self.lr if lr is None else lr)


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v)


def save_config(config: TrainConfig, path):
    lines = [f"{name} = {_format_value(getattr(config, name))}" for name in _FIELD_TYPES]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> TrainConfig:
    """Parse the flat key=value UTF-8 format; unknown keys are rejected outright.
    Every error is a ``ConfigError`` whose message starts with the path."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(read_lines(path, ConfigError), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        ftype = _FIELD_TYPES[key]
        try:
            if ftype is bool:
                if text not in ("true", "false"):
                    raise ValueError("expected true/false")
                values[key] = text == "true"
            else:
                values[key] = ftype(text)
                if ftype is float and not math.isfinite(values[key]):
                    raise ValueError(f"{text!r} is not finite")
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
    config = TrainConfig(**values)
    try:
        config.validate()
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return config


class ToyModel(nm.Module):
    def __init__(self, encoder: TextEncoder, flows: FlowStack, dur_gen: DurationGenerator,
                 dur_disc: DurationDiscriminator | None, speakers: SpeakerTable | None,
                 config: TrainConfig):
        self.encoder = self.child("enc", encoder)
        self.flows = self.child("flow", flows)
        self.dur_gen = self.child("durg", dur_gen)
        self.dur_disc = self.child("durd", dur_disc)
        self.speakers = self.child("spk", speakers)
        self.config = config
        self._main_params = tuple(encoder.params() + flows.params()
                                  + (speakers.params() if speakers is not None else []))
        nm.pack_params(self._main_params)  # one buffer, so _encode_and_align can guard

    def main_params(self) -> list[Tensor]:
        """The encoder's, the flows' and the speaker table's parameters: every
        leaf of ``_instance_forward``."""
        return list(self._main_params)

    def speaker_condition(self, speaker_id: int) -> tuple[Tensor | None, Tensor | None]:
        """(embedding row for the encoder, projected vector for flows/durations)."""
        if self.speakers is None:
            return None, None
        row = self.speakers.lookup(speaker_id)
        if not self.config.condition_speaker:
            return row, None
        projected = nm.reshape(nm.reshape(row, (1, -1)) @ self.encoder.w_speaker, (-1,))
        return row, projected


def build_model(config: TrainConfig, rng: Rng) -> ToyModel:
    """The model ``config`` describes, its weights drawn from ``rng``. A config
    ``validate()`` refuses raises ``ConfigError``, so no model is built (and no
    checkpoint saved) that ``load_model`` would refuse."""
    config.validate()
    multi = config.speakers > 1
    cond_dim = config.hidden_width if (multi and config.condition_speaker) else None
    encoder = TextEncoder(
        vocab=config.vocab,
        width=config.hidden_width,
        out_channels=config.channels,
        n_blocks=config.n_blocks,
        n_heads=config.n_heads,
        ff_width=config.ff_width,
        speaker_dim=config.speaker_dim if multi else None,
        rng=rng.child(0),
    )
    flows = FlowStack(
        channels=config.channels,
        depth=config.flow_depth,
        hidden=config.flow_hidden,
        rng=rng.child(1),
        key_dim=config.key_dim,
        attention=config.transformer_block,
        cond_dim=cond_dim,
    )
    dur_gen = DurationGenerator(
        h_dim=config.hidden_width,
        z_dim=config.z_dim if config.duration_adversarial else 0,
        hidden=config.dur_hidden,
        rng=rng.child(2),
        cond_dim=cond_dim,
    )
    dur_disc = (
        DurationDiscriminator(config.hidden_width, config.dur_hidden, rng.child(3))
        if config.duration_adversarial
        else None
    )
    speakers = SpeakerTable(config.speakers, config.speaker_dim, rng.child(4)) if multi else None
    return ToyModel(encoder, flows, dur_gen, dur_disc, speakers, config)


def _instance_forward(model: ToyModel, inst: Instance):
    """Tape-connected (h_text, mu, sigma, u, logdet, cond) for one instance."""
    speaker_row, cond = model.speaker_condition(inst.speaker)
    h, mu, sigma = model.encoder.encode(inst.tokens, speaker_row)
    u, logdet = model.flows.forward(Tensor(inst.frames.T), cond)
    return h, mu, sigma, u, logdet, cond


def _encode_and_align(model: ToyModel, inst: Instance) -> tuple[Tensor, np.ndarray, Tensor | None]:
    """Encoder output, noise-free alignment-search durations and the projected
    speaker condition (or None) from one forward pass, recording no tape. The
    forward runs guarded by floating-point flags (``nm.run_guarded``) when the
    main parameters share one buffer, as those of every built, loaded or
    trained ``ToyModel`` do; a parameter rebound since, or a model that is not
    a ``ToyModel`` (no known leaves), runs scanned."""
    def forward():
        with nm.no_grad():
            return _instance_forward(model, inst)

    h, mu, sigma, u, _, cond = nm.run_guarded(forward, getattr(model, "_main_params", None),
                                              (inst.frames,))
    grid = log_prob_grid(u.data.T, mu.data, sigma.data)
    align, _ = mas_search(grid, noise_scale=0.0)
    return h, align.durations, cond


def predict_durations(model: ToyModel, inst: Instance) -> np.ndarray:
    """Alignment-search durations for one instance, exploration noise off."""
    return _encode_and_align(model, inst)[1]


def eval_alignment(model, instances) -> dict[str, float]:
    """Token-level exact-match rate and mean absolute duration error."""
    if not instances:
        raise ValueError("eval_alignment needs at least one instance, got none")
    exact = 0
    abs_err = 0.0
    total = 0
    for inst in instances:
        pred = predict_durations(model, inst)
        exact += int((pred == inst.durations).sum())
        abs_err += float(np.abs(pred - inst.durations).sum())
        total += inst.durations.size
    return {"exact_match": exact / total, "mae": abs_err / total}


def duration_targets(model: ToyModel, instances) -> list[DurationBatch]:
    """Frozen log-duration targets from noise-free alignment search, each batch
    carrying its instance's speaker condition."""
    batches = []
    for inst in instances:
        h, pred, cond = _encode_and_align(model, inst)
        batches.append(
            DurationBatch(
                h_text=h.data[None, :, :].copy(),
                d=np.log(pred.astype(np.float64))[None, :],
                mask=np.ones((1, pred.size), dtype=bool),
                cond=None if cond is None else cond.data,
            )
        )
    return batches


def _loss_backward(mu, sigma, u, logdet, frame_tokens) -> Tensor:
    """The training loss, its backward done; its inputs are a forward's outputs,
    finite once made, so it guards with no leaf to scan."""
    loss = nm.aligned_nll(mu, sigma, u, logdet, frame_tokens)
    loss.backward()
    return loss


def train_toy(config: TrainConfig, corpus: ToyCorpus | None = None,
              out_dir=None) -> tuple[dict, ToyModel]:
    """Run both phases; returns ({"main": [...], "duration": [...]}, model).
    A config that fails ``validate()``, or whose model cannot be built or is
    too large to allocate, raises ``ConfigError`` before any corpus is drawn.

    With an out_dir, also writes corpus.json, per-phase metrics CSVs, the
    duration-target corpus, and checkpoint.bin (format in docs/).
    """
    # a child seeds from (seed, tag) alone, so build_model's rng.child(k) draws as root.child(k)
    root = Rng(config.seed)
    try:
        model = build_model(config, root.child(3))
    except (ValueError, MemoryError) as e:
        raise ConfigError(f"config does not build a model: {e}") from None
    if corpus is None:
        corpus = generate_corpus(config.corpus_spec(), root.child(1))
    noise_rng = root.child(2)
    dur_rng = root.child(4)

    opt = nm.AdamW(model.main_params(), config.optimizer())
    n_train = len(corpus.train)
    main_rows: list[dict] = []
    # the forward, then the loss and its backward, each run guarded by
    # floating-point flags (nm.run_guarded); the grid, the noisy search and
    # the optimizer step run between and after them, as they draw or write
    for step in range(config.steps_main):
        inst = corpus.train[step % n_train]
        opt.set_epoch(step // n_train)
        scale = noise_scale_at(step) if config.noise_anneal else 0.0
        try:
            _, mu, sigma, u, logdet, _ = nm.run_guarded(
                lambda: _instance_forward(model, inst), model._main_params, (inst.frames,))
            grid = log_prob_grid(u.data.T, mu.data, sigma.data)
            align, _ = mas_search(grid, scale, noise_rng)
            frame_tokens = align.frame_tokens()
            opt.zero_grad()
            loss = nm.run_guarded(lambda: _loss_backward(mu, sigma, u, logdet, frame_tokens))
            opt.step()
        except (NumericError, NonFiniteGridError) as e:  # finite statistics can overflow the grid
            raise NumericError(f"main phase diverged at step {step}: {e}") from e
        row = {"step": step, "loss": loss.item(), "noise_scale": scale,
               "eval_exact": None, "eval_mae": None}
        if corpus.eval and ((step + 1) % config.eval_every == 0
                            or step + 1 == config.steps_main):
            stats = eval_alignment(model, corpus.eval)
            row["eval_exact"] = stats["exact_match"]
            row["eval_mae"] = stats["mae"]
        main_rows.append(row)

    targets = duration_targets(model, corpus.train)
    dur_rows = train_duration(
        model.dur_gen,
        model.dur_disc,
        targets,
        config.steps_duration,
        opt_cfg=config.optimizer(lr=config.duration_lr),
        rng=dur_rng,
    )

    history = {"main": main_rows, "duration": dur_rows}
    if out_dir is not None:
        _write_outputs(out_dir, config, corpus, model, history, targets)
    return history, model


# ---------------------------------------------------------------------------
# serialization of runs
# ---------------------------------------------------------------------------

MAIN_HEADER = ["step", "loss", "noise_scale", "eval_exact", "eval_mae"]
DUR_HEADER_ADV = ["step", "loss_d", "loss_g_adv", "loss_g_mse"]
DUR_HEADER_DET = ["step", "loss_g_mse"]


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header: list[str], rows: list[dict]):
    lines = [",".join(header)]
    lines += [",".join(_fmt_cell(row.get(k)) for k in header) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_duration_corpus(path, batches: list[DurationBatch]):
    """CSV with one row per valid token: instance, position, log_duration,
    h0..h{H-1} and, when the batches carry a speaker condition, its K values
    c0..c{K-1} on every row of the instance. Raises ``ValueError`` unless
    every batch carries a condition of one size or none does."""
    width = batches[0].h_text.shape[2]
    sizes = {None if batch.cond is None else batch.cond.size for batch in batches}
    if len(sizes) > 1:
        raise ValueError("duration corpus: every batch needs a condition of one size, or none")
    header = ["instance", "position", "log_duration"] + [f"h{i}" for i in range(width)]
    header += [f"c{i}" for i in range(sizes.pop() or 0)]
    lines = [",".join(header)]
    instances = ((inst, batch.cond) for batch in batches for inst in batch.instances())
    for idx, ((h, d), cond) in enumerate(instances):
        tail = "" if cond is None else "," + ",".join(repr(float(x)) for x in cond)
        for pos, (d_pos, h_pos) in enumerate(zip(d, h)):
            cells = [str(idx), str(pos), repr(float(d_pos))]
            cells += [repr(float(x)) for x in h_pos]
            lines.append(",".join(cells) + tail)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _duration_cell(path, lineno: int, column: str, cell: str, kind: type):
    """One CSV cell as ``kind`` (int or float); a float must be finite."""
    try:
        value = kind(cell)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DurationCorpusError(f"{path}:{lineno}: {column} {cell!r} is not {what}") from None
    if kind is float and not math.isfinite(value):
        raise DurationCorpusError(f"{path}:{lineno}: {column} {cell!r} is not finite")
    return value


def load_duration_corpus(path) -> list[DurationBatch]:
    """Inverse of ``save_duration_corpus``; raises ``DurationCorpusError``.
    The rows of one instance must carry the same condition."""
    lines = read_lines(path, DurationCorpusError)
    header = (lines[0] if lines else "").strip().split(",")
    if header[:3] != ["instance", "position", "log_duration"]:
        raise DurationCorpusError(f"{path}: not a duration corpus (header {header[:3]})")
    names = header[3:]  # h0..h{H-1}, then c0..c{K-1} if there is a condition
    k = len(names) - names.index("c0") if "c0" in names else 0
    if names[len(names) - k:] != [f"c{i}" for i in range(k)]:
        raise DurationCorpusError(f"{path}: the columns from c0 on are not c0..c{k - 1}")
    n_h = len(names) - k
    if n_h < 1 or names[:n_h] != [f"h{i}" for i in range(n_h)]:
        raise DurationCorpusError(
            f"{path}: the feature columns must be h0..h{{H-1}} with H >= 1, got {names[:n_h]}")
    kinds = [int, int] + [float] * (len(header) - 2)
    per_inst: dict[int, list[tuple[int, float, np.ndarray]]] = {}
    conds: dict[int, list[float]] = {}
    for lineno, raw in enumerate(lines[1:], 2):
        cells = raw.strip().split(",")
        if len(cells) != len(header):
            raise DurationCorpusError(
                f"{path}:{lineno}: row width {len(cells)} != header {len(header)}")
        inst, pos, d, *rest = (_duration_cell(path, lineno, *col)
                               for col in zip(header, cells, kinds))
        cond = conds.setdefault(inst, rest[n_h:])
        if rest[n_h:] != cond:
            raise DurationCorpusError(
                f"{path}:{lineno}: instance {inst} has another condition than its first row")
        per_inst.setdefault(inst, []).append((pos, d, np.array(rest[:n_h])))
    if not per_inst:
        raise DurationCorpusError(f"{path}: duration corpus has a header but no rows")
    batches = []
    for inst in sorted(per_inst):
        rows = sorted(per_inst[inst], key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(len(rows))):
            raise DurationCorpusError(
                f"{path}: instance {inst} positions are not 0..{len(rows) - 1}")
        h = np.stack([r[2] for r in rows])
        d = np.array([r[1] for r in rows])
        try:
            batches.append(DurationBatch(h_text=h[None], d=d[None],
                                         mask=np.ones((1, len(rows)), bool),
                                         cond=np.array(conds[inst]) if k else None))
        except ValueError as e:
            raise DurationCorpusError(f"{path}: instance {inst}: {e}") from None
    return batches


def save_model(path, model: ToyModel):
    entries: dict[str, np.ndarray] = {}
    for name, tensor in model.named_params():
        entries[f"param.{name}"] = tensor.data
    for name in _FIELD_TYPES:
        entries[f"cfg.{name}"] = np.asarray(float(getattr(model.config, name)))
    save_checkpoint(path, entries)


def load_model(path) -> ToyModel:
    entries = load_checkpoint(path)
    kwargs = {}
    for name, ftype in _FIELD_TYPES.items():
        key = f"cfg.{name}"
        if key not in entries:
            raise CheckpointError(f"{path}: missing config entry {key}")
        if entries[key].size != 1:
            raise CheckpointError(f"{path}: {key} has shape {entries[key].shape}, "
                                  f"expected one value")
        raw = float(entries[key].reshape(()))
        if ftype is bool and raw not in (0.0, 1.0):
            raise CheckpointError(f"{path}: {key} = {raw!r} is not a bool (0 or 1)")
        if ftype is int and not raw.is_integer():
            raise CheckpointError(f"{path}: {key} = {raw!r} is not an integer")
        kwargs[name] = ftype(raw)
    config = TrainConfig(**kwargs)
    try:
        config.validate()
    except ValueError as e:
        raise CheckpointError(f"{path}: cfg entries are not a valid config: {e}") from None
    stored = sum(arr.size for key, arr in entries.items() if key.startswith("param."))
    try:  # a model with more values than the file is never built, however large
        with nm.param_budget(stored):
            model = build_model(config, Rng(config.seed).child(3))
    except (ValueError, MemoryError) as e:
        raise CheckpointError(f"{path}: cfg entries do not build a model: {e}") from None
    named = model.named_params()
    known = {f"cfg.{name}" for name in _FIELD_TYPES}
    known.update(f"param.{name}" for name, _ in named)
    unknown = sorted(set(entries) - known)
    if unknown:
        raise CheckpointError(f"{path}: entries not in this model: "
                              f"{', '.join(map(repr, unknown))}")  # a name may hold a newline
    for name, tensor in named:
        key = f"param.{name}"
        if key not in entries:
            raise CheckpointError(f"{path}: missing parameter {key}")
        arr = entries[key]
        if arr.shape != tensor.shape:
            raise CheckpointError(f"{path}: {key} has shape {arr.shape}, expected {tensor.shape}")
        if not np.isfinite(arr).all():  # save_model never writes one: training stops first
            raise CheckpointError(f"{path}: {key} holds a non-finite value")
        tensor.data[...] = arr
    return model


def _write_outputs(out_dir, config, corpus, model, history, targets):
    import os

    os.makedirs(out_dir, exist_ok=True)
    save_config(config, os.path.join(out_dir, "config.txt"))
    save_corpus(corpus, os.path.join(out_dir, "corpus.json"))
    write_csv(os.path.join(out_dir, "main_metrics.csv"), MAIN_HEADER, history["main"])
    dur_header = DUR_HEADER_ADV if config.duration_adversarial else DUR_HEADER_DET
    write_csv(os.path.join(out_dir, "duration_metrics.csv"), dur_header, history["duration"])
    save_duration_corpus(os.path.join(out_dir, "duration_corpus.csv"), targets)
    save_model(os.path.join(out_dir, "checkpoint.bin"), model)
