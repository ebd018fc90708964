"""Synthetic corpora with known ground-truth alignments.

Each vocabulary token owns a prototype frame vector; an instance is a token
sequence, per-token durations drawn uniformly from [dur_min, dur_max], and a
frame matrix built by repeating prototypes (plus optional Gaussian
observation noise). Because the true alignment is known by
construction, alignment search and the end-to-end trainer can be scored
objectively instead of by listening tests.

Prototypes sit on a circle in the first two channels, so tokens are
separated by construction; in multi-speaker mode each speaker adds a fixed
offset to every prototype. Adjacent repeated tokens are resampled away:
identical neighbouring prototypes make the optimal alignment non-unique,
which would put a floor on exact-match scores through no fault of a model.

Draw order. Every corpus byte is pinned by the order in which one instance
draws from the generator: its length; its tokens, in order, each one redrawn
while it repeats the token before it; its durations; its speaker (only with
more than one speaker); its observation noise (only when ``noise`` > 0).
``_sample_instance`` draws the tokens in rounds, each of as many ids as are
still missing, keeping an id unless it equals the last one kept, and the
durations in one call. A batch consumes the stream exactly as that many
scalar draws do (see ``Rng.integers``) and no round draws past the last id
kept, so the corpus is the one a scalar draw per id gives, bit for bit.
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from .numerics import FINITE, NON_NEGATIVE, Rng, at_least, check_fields


@dataclass
class CorpusSpec:
    vocab: int = 3
    channels: int = 2
    n_train: int = 16
    n_eval: int = 8
    seq_min: int = 3
    seq_max: int = 6
    dur_min: int = 2
    dur_max: int = 5
    noise: float = 0.0
    prototype_radius: float = 0.8
    speakers: int = 1
    speaker_shift: float = 0.0

    # field -> (test, wording); seq_max and dur_max are checked against the minimums
    RULES = {"vocab": at_least(2), "channels": at_least(2), "n_train": at_least(1),
             "n_eval": at_least(0), "seq_min": at_least(1), "dur_min": at_least(1),
             "noise": NON_NEGATIVE, "prototype_radius": FINITE, "speakers": at_least(1),
             "speaker_shift": FINITE}

    def validate(self):
        check_fields(self, self.RULES)
        if self.seq_max < self.seq_min:
            raise ValueError(f"bad sequence length range ({self.seq_min}, {self.seq_max})")
        if self.dur_max < self.dur_min:
            raise ValueError(
                f"bad duration range (dur_min={self.dur_min}, dur_max={self.dur_max})")


@dataclass
class Instance:
    tokens: np.ndarray  # (I,) int ids
    durations: np.ndarray  # (I,) ground-truth frames per token
    frames: np.ndarray  # (J, C), J = sum(durations)
    speaker: int = 0

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.durations = np.asarray(self.durations, dtype=np.int64)
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if int(self.durations.sum()) != self.frames.shape[0]:
            raise ValueError(
                f"durations sum to {self.durations.sum()} but there are "
                f"{self.frames.shape[0]} frames"
            )


@dataclass
class ToyCorpus:
    spec: CorpusSpec
    prototypes: np.ndarray  # (V, C)
    speaker_offsets: np.ndarray  # (S, C)
    train: list[Instance] = field(default_factory=list)
    eval: list[Instance] = field(default_factory=list)


def token_prototypes(vocab: int, channels: int, radius: float) -> np.ndarray:
    """Evenly spread prototype vectors on a circle in the first two channels."""
    protos = np.zeros((vocab, channels))
    angles = 2.0 * math.pi * np.arange(vocab) / vocab
    protos[:, 0] = radius * np.cos(angles)
    protos[:, 1] = radius * np.sin(angles)
    return protos


def _speaker_offsets(speakers: int, channels: int, shift: float) -> np.ndarray:
    offsets = np.zeros((speakers, channels))
    if speakers == 1 or shift == 0.0:
        return offsets
    angles = 2.0 * math.pi * (np.arange(speakers) + 0.5) / speakers
    offsets[:, 0] = shift * np.cos(angles)
    offsets[:, 1] = shift * np.sin(angles)
    offsets[0] = 0.0
    return offsets


def _sample_instance(spec: CorpusSpec, protos: np.ndarray, offsets: np.ndarray,
                     rng: Rng) -> Instance:
    length = rng.integers(spec.seq_min, spec.seq_max + 1)
    tokens: list[int] = []
    while len(tokens) < length:  # each round draws only the tokens still missing
        for t in rng.integers(0, spec.vocab, length - len(tokens)).tolist():
            if not tokens or t != tokens[-1]:  # adjacent repeats make ties
                tokens.append(t)
    durations = rng.integers(spec.dur_min, spec.dur_max + 1, length)
    speaker = rng.integers(0, spec.speakers) if spec.speakers > 1 else 0
    frames = np.repeat(protos[tokens], durations, axis=0) + offsets[speaker]
    if spec.noise > 0:
        frames = frames + spec.noise * rng.normal(frames.shape)
    return Instance(tokens=tokens, durations=durations, frames=frames, speaker=speaker)


def generate_corpus(spec: CorpusSpec, rng: Rng) -> ToyCorpus:
    """Deterministic given (spec, rng seed): same seed, same corpus, bit for bit."""
    spec.validate()
    protos = token_prototypes(spec.vocab, spec.channels, spec.prototype_radius)
    offsets = _speaker_offsets(spec.speakers, spec.channels, spec.speaker_shift)
    train = [_sample_instance(spec, protos, offsets, rng) for _ in range(spec.n_train)]
    held = [_sample_instance(spec, protos, offsets, rng) for _ in range(spec.n_eval)]
    return ToyCorpus(spec=spec, prototypes=protos, speaker_offsets=offsets,
                     train=train, eval=held)


# --- on-disk form: plain JSON, so files are diffable and byte-stable --------


def _instance_to_dict(inst: Instance) -> dict:
    return {
        "tokens": inst.tokens.tolist(),
        "durations": inst.durations.tolist(),
        "frames": inst.frames.tolist(),
        "speaker": inst.speaker,
    }


def save_corpus(corpus: ToyCorpus, path):
    payload = {
        "spec": asdict(corpus.spec),
        "prototypes": corpus.prototypes.tolist(),
        "speaker_offsets": corpus.speaker_offsets.tolist(),
        "train": [_instance_to_dict(i) for i in corpus.train],
        "eval": [_instance_to_dict(i) for i in corpus.eval],
    }
    with open(path, "w") as f:
        json.dump(payload, f, separators=(",", ":"), sort_keys=True)


class CorpusError(ValueError):
    """A corpus file is malformed; the message names the file and the field."""


_SPEC_TYPES = typing.get_type_hints(CorpusSpec)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A JSON number float64 can hold: any float, or an int up to the largest float."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _field(path, obj: dict, where: str, key: str, check=None, kind: str = ""):
    if key not in obj:
        raise CorpusError(f"{path}: {where} has no {key!r} field")
    value = obj[key]
    if check is not None and not check(value):
        raise CorpusError(f"{path}: {where}.{key} must be {kind}, got {value!r:.60}")
    return value


def _object(path, obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}: {where} must be a JSON object")
    return obj


def _matrix(path, rows, where: str, width: int) -> np.ndarray:
    """A list of equal-width lists of finite numbers -> (n, width) float64."""
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and len(r) == width and all(map(_is_number, r)) for r in rows
    ):
        raise CorpusError(f"{path}: {where} must be rows of {width} numbers ({width} channels)")
    arr = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    if not np.isfinite(arr).all():
        raise CorpusError(f"{path}: {where} holds a non-finite value")
    return arr


def _load_spec(path, sd) -> CorpusSpec:
    sd = _object(path, sd, "spec")
    unknown = sorted(set(sd) - set(_SPEC_TYPES))
    if unknown:
        raise CorpusError(f"{path}: spec has unknown fields {', '.join(unknown)}")
    finite = (lambda v: _is_number(v) and math.isfinite(v))
    values = {}
    for name, kind in _SPEC_TYPES.items():
        if kind is int:
            values[name] = _field(path, sd, "spec", name, _is_int, "an integer")
        else:
            values[name] = float(_field(path, sd, "spec", name, finite, "a finite number"))
    spec = CorpusSpec(**values)
    try:
        spec.validate()
    except ValueError as e:
        raise CorpusError(f"{path}: spec: {e}") from e
    return spec


def _load_instance(path, d, where: str, spec: CorpusSpec) -> Instance:
    d = _object(path, d, where)
    ints = (lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_int, v)))
    tokens = _field(path, d, where, "tokens", ints, "a non-empty list of integers")
    durations = _field(path, d, where, "durations", ints, "a non-empty list of integers")
    speaker = _field(path, d, where, "speaker", _is_int, "an integer")
    frames = _matrix(path, _field(path, d, where, "frames"), f"{where}.frames", spec.channels)
    bad = [t for t in tokens if not 0 <= t < spec.vocab]
    if bad:
        raise CorpusError(f"{path}: {where}.tokens: id {bad[0]} outside [0, {spec.vocab})")
    if len(durations) != len(tokens) or min(durations) < 1:
        raise CorpusError(f"{path}: {where}.durations must be one integer >= 1 per token")
    if not 0 <= speaker < spec.speakers:
        raise CorpusError(f"{path}: {where}.speaker: {speaker} outside [0, {spec.speakers})")
    if sum(durations) != len(frames):
        raise CorpusError(f"{path}: {where}: durations sum to {sum(durations)} but there "
                          f"are {len(frames)} frames")
    return Instance(tokens=tokens, durations=durations, frames=frames, speaker=speaker)


def load_corpus(path) -> ToyCorpus:
    """Read a ``save_corpus`` file; any malformed field raises ``CorpusError``."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except UnicodeDecodeError as e:
        raise CorpusError(f"{path}: not UTF-8 text ({e.reason})") from None
    except (ValueError, RecursionError) as e:  # a JSONDecodeError, too many digits, too deep
        raise CorpusError(f"{path}: not valid JSON: {e}") from None
    top = "the top level"
    payload = _object(path, payload, top)
    spec = _load_spec(path, _field(path, payload, top, "spec"))
    lists = {}
    for split in ("train", "eval"):
        items = _field(path, payload, top, split, lambda v: isinstance(v, list),
                       "a list of instances")
        lists[split] = [_load_instance(path, d, f"{split}[{i}]", spec)
                        for i, d in enumerate(items)]
    for key, rows in (("prototypes", spec.vocab), ("speaker_offsets", spec.speakers)):
        arr = _matrix(path, _field(path, payload, top, key), key, spec.channels)
        if len(arr) != rows:
            raise CorpusError(f"{path}: {key} has {len(arr)} rows, expected {rows}")
        lists[key] = arr
    return ToyCorpus(spec=spec, **lists)
