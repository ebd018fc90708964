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
from .alignment import LOG_2PI, log_prob_grid, mas_search, noise_scale_at
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import CorpusSpec, Instance, ToyCorpus, generate_corpus, save_corpus
from .duration import DurationBatch, DurationDiscriminator, DurationGenerator, train_duration
from .encoder import SpeakerTable, TextEncoder
from .flows import FlowStack
from .numerics import AdamWConfig, NumericError, Rng, Tensor


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
    vocab: int = 3
    channels: int = 2
    n_train: int = 16
    n_eval: int = 8
    seq_min: int = 3
    seq_max: int = 6
    dur_min: int = 2
    dur_max: int = 5
    obs_noise: float = 0.0
    prototype_radius: float = 0.8
    speakers: int = 1
    speaker_shift: float = 0.0

    def validate(self):
        if self.steps_main <= 0 or self.steps_duration <= 0:
            raise ConfigError("step counts must be > 0")
        if self.eval_every <= 0:
            raise ConfigError("eval_every must be > 0")
        if self.channels % 2 != 0:
            raise ConfigError("channels must be even for the coupling split")
        if self.n_blocks <= TextEncoder.SPEAKER_BLOCK:
            raise ConfigError(f"n_blocks {self.n_blocks} must be > {TextEncoder.SPEAKER_BLOCK}")
        for name in ("hidden_width", "ff_width", "flow_hidden", "dur_hidden", "key_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_heads < 1 or self.hidden_width % self.n_heads != 0:
            raise ConfigError(f"n_heads {self.n_heads} does not divide hidden_width")
        self.corpus_spec().validate()

    def corpus_spec(self) -> CorpusSpec:
        return CorpusSpec(
            vocab=self.vocab,
            channels=self.channels,
            n_train=self.n_train,
            n_eval=self.n_eval,
            seq_min=self.seq_min,
            seq_max=self.seq_max,
            dur_min=self.dur_min,
            dur_max=self.dur_max,
            noise=self.obs_noise,
            prototype_radius=self.prototype_radius,
            speakers=self.speakers,
            speaker_shift=self.speaker_shift,
        )

    def optimizer(self, lr: float | None = None) -> AdamWConfig:
        names = [f.name for f in dataclasses.fields(AdamWConfig)]
        cfg = AdamWConfig(**{name: getattr(self, name) for name in names})
        return cfg if lr is None else dataclasses.replace(cfg, lr=lr)


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v)


def save_config(config: TrainConfig, path):
    lines = [
        f"{f.name} = {_format_value(getattr(config, f.name))}"
        for f in dataclasses.fields(TrainConfig)
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path) -> TrainConfig:
    """Parse the flat key=value format; unknown keys are rejected outright."""
    values: dict[str, object] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {e}") from e
    config = TrainConfig(**values)
    config.validate()
    return config


@dataclass
class ToyModel:
    encoder: TextEncoder
    flows: FlowStack
    dur_gen: DurationGenerator
    dur_disc: DurationDiscriminator | None
    speakers: SpeakerTable | None
    config: TrainConfig

    def named_params(self) -> list[tuple[str, Tensor]]:
        parts = [("enc", self.encoder), ("flow", self.flows), ("durg", self.dur_gen),
                 ("durd", self.dur_disc), ("spk", self.speakers)]
        return [(f"{prefix}.{n}", t) for prefix, module in parts if module is not None
                for n, t in module.named_params()]

    def main_params(self) -> list[Tensor]:
        out = self.encoder.params() + self.flows.params()
        if self.speakers is not None:
            out += self.speakers.params()
        return out

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
        attn_gain=1.0 if config.transformer_block else 0.0,
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


def _aligned_nll(mu: Tensor, sigma: Tensor, u: Tensor, logdet: Tensor,
                 frame_tokens: np.ndarray) -> Tensor:
    """Negative log-density of the frames under the aligned prior, per element."""
    u_t = u.T  # (J, C)
    mu_f = nm.take_rows(mu, frame_tokens)
    sig_f = nm.take_rows(sigma, frame_tokens)
    diff = u_t - mu_f
    terms = nm.log(sig_f) + 0.5 * LOG_2PI + (diff * diff) / (2.0 * sig_f * sig_f)
    total = nm.summation(terms) - logdet
    return total * (1.0 / u_t.size)


def _encode_and_align(model: ToyModel, inst: Instance) -> tuple[Tensor, np.ndarray]:
    """Encoder output and noise-free alignment-search durations from one forward
    pass, recording no tape."""
    with nm.no_grad():
        h, mu, sigma, u, _, _ = _instance_forward(model, inst)
    grid = log_prob_grid(u.data.T, mu.data, sigma.data)
    align, _ = mas_search(grid, noise_scale=0.0)
    return h, align.durations


def predict_durations(model: ToyModel, inst: Instance) -> np.ndarray:
    """Alignment-search durations for one instance, exploration noise off."""
    return _encode_and_align(model, inst)[1]


def eval_alignment(model, instances) -> dict[str, float]:
    """Token-level exact-match rate and mean absolute duration error."""
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
    """Frozen log-duration targets from noise-free alignment search."""
    batches = []
    for inst in instances:
        h, pred = _encode_and_align(model, inst)
        batches.append(
            DurationBatch(
                h_text=h.data[None, :, :].copy(),
                d=np.log(pred.astype(np.float64))[None, :],
                mask=np.ones((1, pred.size), dtype=bool),
            )
        )
    return batches


def train_toy(config: TrainConfig, corpus: ToyCorpus | None = None,
              out_dir=None) -> tuple[dict, ToyModel]:
    """Run both phases; returns ({"main": [...], "duration": [...]}, model).

    With an out_dir, also writes corpus.json, per-phase metrics CSVs, the
    duration-target corpus, and checkpoint.bin (format in docs/).
    """
    root = Rng(config.seed)
    if corpus is None:
        corpus = generate_corpus(config.corpus_spec(), root.child(1))
    noise_rng = root.child(2)
    model = build_model(config, root.child(3))
    dur_rng = root.child(4)

    opt = config.optimizer().build(model.main_params())
    n_train = len(corpus.train)
    main_rows: list[dict] = []
    for step in range(config.steps_main):
        inst = corpus.train[step % n_train]
        opt.set_epoch(step // n_train)
        scale = noise_scale_at(step) if config.noise_anneal else 0.0
        try:
            _, mu, sigma, u, logdet, _ = _instance_forward(model, inst)
            grid = log_prob_grid(u.data.T, mu.data, sigma.data)
            align, _ = mas_search(grid, scale, noise_rng)
            loss = _aligned_nll(mu, sigma, u, logdet, align.frame_tokens())
            opt.zero_grad()
            loss.backward()
            opt.step()
        except NumericError as e:
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
    conds = None
    if model.speakers is not None and config.condition_speaker:
        # duration training runs on frozen targets; detach the conditions too
        conds = [model.speaker_condition(i.speaker)[1].detach() for i in corpus.train]
    dur_rows = train_duration(
        model.dur_gen,
        model.dur_disc,
        targets,
        config.steps_duration,
        opt_cfg=config.optimizer(lr=config.duration_lr),
        rng=dur_rng,
        cond=conds,
        adversarial=config.duration_adversarial,
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
    """CSV with one row per valid token: instance, position, log_duration, h0..hN."""
    width = batches[0].h_text.shape[2]
    header = ["instance", "position", "log_duration"] + [f"h{i}" for i in range(width)]
    lines = [",".join(header)]
    idx = 0
    for batch in batches:
        for b in range(batch.batch_size):
            n = batch.valid_len(b)
            for pos in range(n):
                cells = [str(idx), str(pos), repr(float(batch.d[b, pos]))]
                cells += [repr(float(x)) for x in batch.h_text[b, pos]]
                lines.append(",".join(cells))
            idx += 1
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
    """Inverse of ``save_duration_corpus``; raises ``DurationCorpusError``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["instance", "position", "log_duration"]:
            raise DurationCorpusError(f"{path}: not a duration corpus (header {header[:3]})")
        kinds = [int, int] + [float] * (len(header) - 2)
        per_inst: dict[int, list[tuple[int, float, np.ndarray]]] = {}
        for lineno, raw in enumerate(fh, 2):
            cells = raw.strip().split(",")
            if len(cells) != len(header):
                raise DurationCorpusError(
                    f"{path}:{lineno}: row width {len(cells)} != header {len(header)}")
            inst, pos, d, *h = (_duration_cell(path, lineno, *col)
                                for col in zip(header, cells, kinds))
            per_inst.setdefault(inst, []).append((pos, d, np.array(h)))
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
            batches.append(
                DurationBatch(h_text=h[None], d=d[None], mask=np.ones((1, len(rows)), bool))
            )
        except ValueError as e:
            raise DurationCorpusError(f"{path}: instance {inst}: {e}") from None
    return batches


def save_model(path, model: ToyModel):
    entries: dict[str, np.ndarray] = {}
    for name, tensor in model.named_params():
        entries[f"param.{name}"] = tensor.data
    for f in dataclasses.fields(TrainConfig):
        v = getattr(model.config, f.name)
        entries[f"cfg.{f.name}"] = np.asarray(float(v))
    save_checkpoint(path, entries)


def load_model(path) -> ToyModel:
    entries = load_checkpoint(path)
    kwargs = {}
    for f in dataclasses.fields(TrainConfig):
        key = f"cfg.{f.name}"
        if key not in entries:
            raise CheckpointError(f"{path}: missing config entry {key}")
        raw = float(entries[key].reshape(()))
        ftype = _FIELD_TYPES[f.name]
        kwargs[f.name] = ftype(raw) if ftype is not bool else bool(raw)
    config = TrainConfig(**kwargs)
    model = build_model(config, Rng(config.seed).child(3))
    named = model.named_params()
    known = {f"cfg.{f.name}" for f in dataclasses.fields(TrainConfig)}
    known.update(f"param.{name}" for name, _ in named)
    unknown = sorted(set(entries) - known)
    if unknown:
        raise CheckpointError(f"{path}: entries not in this model: {', '.join(unknown)}")
    for name, tensor in named:
        key = f"param.{name}"
        if key not in entries:
            raise CheckpointError(f"{path}: missing parameter {key}")
        arr = entries[key]
        if arr.shape != tensor.shape:
            raise CheckpointError(f"{path}: {key} has shape {arr.shape}, expected {tensor.shape}")
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
