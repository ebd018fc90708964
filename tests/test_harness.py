import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import tempfile
import typing

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignflow import cli, gradcheck
from alignflow import numerics as nm
from alignflow.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from alignflow.corpus import (
    CorpusError,
    CorpusSpec,
    Instance,
    generate_corpus,
    load_corpus,
    save_corpus,
    token_prototypes,
)
from alignflow.duration import DurationBatch
from alignflow.encoder import TextEncoder
from alignflow.harness import (
    ConfigError,
    DurationCorpusError,
    TrainConfig,
    build_model,
    duration_targets,
    eval_alignment,
    predict_durations,
    load_config,
    load_duration_corpus,
    load_model,
    save_config,
    save_duration_corpus,
    save_model,
    train_toy,
)
from alignflow.numerics import AdamWConfig, Rng, Tensor, check_grad


class TestCorpus:
    def test_noiseless_frames_are_prototypes(self):
        spec = CorpusSpec(vocab=2, channels=2, n_train=4, n_eval=0, seq_min=2,
                          seq_max=2, dur_min=3, dur_max=3, noise=0.0)
        corpus = generate_corpus(spec, Rng(1))
        for inst in corpus.train:
            assert inst.durations.sum() == inst.frames.shape[0]
            j = 0
            for tok, dur in zip(inst.tokens, inst.durations):
                assert dur == 3
                for _ in range(dur):
                    npt.assert_array_equal(inst.frames[j], corpus.prototypes[tok])
                    j += 1

    def test_same_seed_bit_identical(self):
        spec = CorpusSpec(noise=0.05)
        a = generate_corpus(spec, Rng(42))
        b = generate_corpus(spec, Rng(42))
        for x, y in zip(a.train + a.eval, b.train + b.eval):
            npt.assert_array_equal(x.tokens, y.tokens)
            npt.assert_array_equal(x.durations, y.durations)
            npt.assert_array_equal(x.frames, y.frames)

    def test_duration_histogram_matches_law(self):
        lo, hi = 2, 5
        spec = CorpusSpec(vocab=3, n_train=2400, n_eval=0, seq_min=4, seq_max=4,
                          dur_min=lo, dur_max=hi)
        corpus = generate_corpus(spec, Rng(7))
        draws = np.concatenate([inst.durations for inst in corpus.train])
        n = draws.size
        assert n >= 9000
        p = 1.0 / (hi - lo + 1)
        for value in range(lo, hi + 1):
            count = int((draws == value).sum())
            bound = 3 * math.sqrt(n * p * (1 - p))
            assert abs(count - n * p) <= bound, f"duration {value}: {count} vs {n * p}"

    def test_no_adjacent_repeats(self):
        corpus = generate_corpus(CorpusSpec(n_train=50, seq_min=5, seq_max=8), Rng(3))
        for inst in corpus.train:
            assert (np.diff(inst.tokens) != 0).all()

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(CorpusSpec(seq_min=0), Rng(0))
        with pytest.raises(ValueError):
            generate_corpus(CorpusSpec(vocab=1), Rng(0))
        with pytest.raises(ValueError, match="^dur_min must be >= 1, got 0$"):
            generate_corpus(CorpusSpec(dur_min=0), Rng(0))
        with pytest.raises(ValueError, match="dur_max=1"):
            generate_corpus(CorpusSpec(dur_min=2, dur_max=1), Rng(0))
        with pytest.raises(ValueError, match="channels must be >= 2, got 1"):
            generate_corpus(CorpusSpec(channels=1), Rng(0))

    @pytest.mark.parametrize("field, value, message", [
        ("prototype_radius", math.nan, "prototype_radius must be finite, got nan"),
        ("prototype_radius", -math.inf, "prototype_radius must be finite, got -inf"),
        ("speaker_shift", math.inf, "speaker_shift must be finite, got inf"),
        ("noise", math.nan, "noise must be finite and >= 0, got nan"),
        ("noise", math.inf, "noise must be finite and >= 0, got inf"),
        ("noise", -0.5, "noise must be finite and >= 0, got -0.5"),
        ("n_eval", -1, "n_eval must be >= 0, got -1"),
    ])
    def test_non_finite_floats_rejected(self, field, value, message):
        spec = CorpusSpec(speakers=2, **{field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_corpus(spec, Rng(0))

    def test_prototypes_are_separated(self):
        protos = token_prototypes(5, 3, 0.8)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(protos[i] - protos[j]) > 0.5

    def test_multispeaker_offsets(self):
        spec = CorpusSpec(speakers=3, speaker_shift=0.5, n_train=30, noise=0.0)
        corpus = generate_corpus(spec, Rng(9))
        speakers = {inst.speaker for inst in corpus.train}
        assert speakers == {0, 1, 2}
        for inst in corpus.train:
            expect = corpus.prototypes[inst.tokens[0]] + corpus.speaker_offsets[inst.speaker]
            npt.assert_array_equal(inst.frames[0], expect)

    def test_corpus_json_roundtrip(self, tmp_path):
        corpus = generate_corpus(CorpusSpec(noise=0.1, speakers=2, speaker_shift=0.3), Rng(11))
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.spec == corpus.spec
        npt.assert_array_equal(loaded.prototypes, corpus.prototypes)
        for a, b in zip(corpus.train + corpus.eval, loaded.train + loaded.eval):
            npt.assert_array_equal(a.frames, b.frames)
            npt.assert_array_equal(a.tokens, b.tokens)
            assert a.speaker == b.speaker

    def test_saved_spec_keys_are_the_spec_fields(self, tmp_path):
        spec = CorpusSpec()
        path = tmp_path / "corpus.json"
        save_corpus(generate_corpus(spec, Rng(12)), path)
        saved = json.loads(path.read_text())["spec"]
        assert set(saved) == {f.name for f in dataclasses.fields(CorpusSpec)}
        assert load_corpus(path).spec == spec


def _edit(key_path, value):
    """Corpus-payload edit: set (or, for value None, delete) the entry at key_path."""
    def apply(payload):
        *parents, last = key_path
        for key in parents:
            payload = payload[key]
        if value is None:
            del payload[last]
        else:
            payload[last] = value
    return apply


class TestLoadCorpus:
    """Every malformed field raises ``CorpusError`` naming the file and the field."""

    @pytest.fixture
    def corpus_payload(self, tmp_path):
        corpus = generate_corpus(CorpusSpec(n_train=3, n_eval=2, speakers=2,
                                            speaker_shift=0.3), Rng(12))
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("edit, field", [
        (_edit(["spec", "vocab"], None), "vocab"),
        (_edit(["spec", "vocab"], "3"), "spec.vocab"),
        (_edit(["spec", "noise"], True), "spec.noise"),
        (_edit(["spec", "vocab"], -1), "vocab"),
        (_edit(["spec", "seq_max"], 1), "sequence length"),
        (_edit(["spec", "colour"], 1), "colour"),
        (_edit(["spec", "duration_laws"], [[1, 2], [2, 3], [1, 4]]),
         "spec has unknown fields duration_laws"),
        (_edit(["spec", "channels"], 1), "spec: channels must be >= 2, got 1"),
        (_edit(["spec", "dur_min"], 6), "spec: bad duration range (dur_min=6, dur_max=5)"),
        (_edit(["train"], None), "'train'"),
        (_edit(["eval"], {}), "eval"),
        (_edit(["prototypes"], [[0.0, 0.0]]), "prototypes"),
        (_edit(["speaker_offsets", 0], [0.0]), "speaker_offsets"),
        (_edit(["train", 1, "tokens"], None), "train[1]"),
        (_edit(["train", 1, "tokens", 0], 3), "train[1].tokens"),
        (_edit(["train", 1, "tokens", 0], -1), "train[1].tokens"),
        (_edit(["train", 1, "tokens", 0], 1.0), "train[1].tokens"),
        (_edit(["eval", 0, "tokens"], []), "eval[0].tokens"),
        (_edit(["eval", 0, "frames", 2], [0.1]), "eval[0].frames"),
        (_edit(["eval", 0, "frames", 2], [0.1, 0.2, 0.3]), "eval[0].frames"),
        (_edit(["eval", 0, "frames", 2, 1], "x"), "eval[0].frames"),
        (_edit(["eval", 0, "frames"], None), "eval[0]"),
        (_edit(["train", 0, "speaker"], 2), "train[0].speaker"),
        (_edit(["train", 0, "speaker"], -1), "train[0].speaker"),
        (_edit(["train", 0, "durations", 0], 0), "train[0].durations"),
        (_edit(["train", 0, "durations", 0], 99), "durations sum"),
    ])
    def test_bad_field_raises_corpus_error(self, tmp_path, corpus_payload, edit, field):
        edit(corpus_payload)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(corpus_payload))
        with pytest.raises(CorpusError) as info:
            load_corpus(path)
        assert str(info.value).startswith(f"{path}: ")
        assert field in str(info.value)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("text", ["{", "[]", '{"spec": 3}'])
    def test_not_a_corpus_raises_corpus_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(CorpusError, match="bad.json"):
            load_corpus(path)

    def test_integral_floats_load(self, tmp_path, corpus_payload):
        corpus_payload["spec"]["noise"] = 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_payload))
        assert load_corpus(path).spec.noise == 0.0


_FINITE = st.floats(-1e6, 1e6)


@st.composite
def corpus_specs(draw, seq_max=7):
    """Small valid specs, no instance longer than ``seq_max`` (>= 4) tokens;
    the float fields anywhere in a wide finite range."""
    seq_min, dur_min = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return CorpusSpec(vocab=draw(st.integers(2, 5)), channels=draw(st.integers(2, 4)),
                      n_train=draw(st.integers(1, 3)), n_eval=draw(st.integers(0, 2)),
                      seq_min=seq_min, seq_max=seq_min + draw(st.integers(0, seq_max - 4)),
                      dur_min=dur_min, dur_max=dur_min + draw(st.integers(0, 3)),
                      noise=draw(st.floats(0.0, 1e3)), prototype_radius=draw(_FINITE),
                      speakers=draw(st.integers(1, 3)), speaker_shift=draw(_FINITE))


def saved_corpus_text(spec: CorpusSpec, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.json")
        save_corpus(generate_corpus(spec, Rng(seed)), path)
        with open(path) as fh:
            return fh.read()


_SEEDS = st.integers(0, 2**32)
_NOT_UTF8 = [*range(0x80, 0xC2), *range(0xF5, 0x100)]


@st.composite
def corrupted_corpus(draw):
    """A saved valid corpus made invalid one way: cut anywhere, a byte that is
    not UTF-8, a required field dropped or of the wrong type, an unknown spec
    field, a spec or frame value that is not finite or too large for a float,
    or a token or speaker outside its range."""
    text = saved_corpus_text(draw(corpus_specs()), draw(_SEEDS))
    kind = draw(st.sampled_from(["truncated", "not UTF-8", "missing", "wrong type",
                                 "unknown field", "not finite", "too large", "out of range"]))
    if kind == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    if kind == "not UTF-8":
        data = text.encode()
        k = draw(st.integers(0, len(data)))
        return data[:k] + bytes([draw(st.sampled_from(_NOT_UTF8))]) + data[k:]
    payload = json.loads(text)
    inst = draw(st.sampled_from(payload["train"] + payload["eval"]))
    if kind in ("missing", "wrong type"):
        obj = draw(st.sampled_from([payload, payload["spec"], inst]))
        key = draw(st.sampled_from(sorted(obj)))
        if kind == "missing":
            del obj[key]
        else:
            obj[key] = "x"
    elif kind == "unknown field":
        payload["spec"][draw(st.sampled_from(["duration_laws", "colour", "law"]))] = [[1, 2]]
    elif kind in ("not finite", "too large"):
        bad = (draw(st.sampled_from([math.nan, math.inf, -math.inf])) if kind == "not finite"
               else draw(st.sampled_from([10**309, -(10**400)])))
        if draw(st.booleans()):
            payload["spec"][draw(st.sampled_from(["noise", "prototype_radius",
                                                  "speaker_shift"]))] = bad
        else:
            row = draw(st.sampled_from(inst["frames"]))
            row[draw(st.integers(0, len(row) - 1))] = bad
    elif draw(st.booleans()):
        inst["speaker"] = payload["spec"]["speakers"]
    else:
        inst["tokens"][draw(st.integers(0, len(inst["tokens"]) - 1))] = payload["spec"]["vocab"]
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_model(path, build_model(tiny_config(), Rng(0)))
    return path


def sample_instance_reference(spec: CorpusSpec, protos, offsets, rng: Rng) -> Instance:
    """The corpus sampler as one scalar draw per token and per duration, each
    token redrawn while it repeats the one before it: the stream every corpus
    byte is pinned to."""
    length = rng.integers(spec.seq_min, spec.seq_max + 1)
    tokens = np.empty(length, dtype=np.int64)
    for i in range(length):
        t = rng.integers(0, spec.vocab)
        while i > 0 and t == tokens[i - 1]:
            t = rng.integers(0, spec.vocab)
        tokens[i] = t
    durations = np.array([rng.integers(spec.dur_min, spec.dur_max + 1) for _ in tokens],
                         dtype=np.int64)
    speaker = rng.integers(0, spec.speakers) if spec.speakers > 1 else 0
    frames = np.repeat(protos[tokens], durations, axis=0) + offsets[speaker]
    if spec.noise > 0:
        frames = frames + spec.noise * rng.normal(frames.shape)
    return Instance(tokens=tokens, durations=durations, frames=frames, speaker=speaker)


class TestCorpusFuzz:
    @settings(max_examples=50, deadline=None)
    @given(corpus_specs(seq_max=80), _SEEDS)
    def test_sampler_draws_the_reference_stream(self, spec, seed):
        rng, ref_rng = Rng(seed), Rng(seed)
        corpus = generate_corpus(spec, rng)
        for inst in corpus.train + corpus.eval:
            want = sample_instance_reference(spec, corpus.prototypes, corpus.speaker_offsets,
                                             ref_rng)
            assert inst.tokens.tobytes() == want.tokens.tobytes()
            assert inst.durations.tobytes() == want.durations.tobytes()
            assert inst.frames.tobytes() == want.frames.tobytes()
            assert inst.speaker == want.speaker
        assert rng._gen.bit_generator.state == ref_rng._gen.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(corpus_specs(), _SEEDS)
    def test_roundtrip(self, spec, seed):
        corpus = generate_corpus(spec, Rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            save_corpus(corpus, path)
            loaded = load_corpus(path)
            save_corpus(loaded, again)
            with open(path, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
        assert loaded.spec == spec
        assert loaded.prototypes.tobytes() == corpus.prototypes.tobytes()
        assert loaded.speaker_offsets.tobytes() == corpus.speaker_offsets.tobytes()
        for want, got in zip(corpus.train + corpus.eval, loaded.train + loaded.eval,
                             strict=True):
            assert got.tokens.tobytes() == want.tokens.tobytes()
            assert got.durations.tobytes() == want.durations.tobytes()
            assert got.frames.tobytes() == want.frames.tobytes()
            assert got.speaker == want.speaker

    @settings(max_examples=50, deadline=None)
    @given(corrupted_corpus())
    def test_corrupted_file_is_one_error_naming_the_file(self, small_ckpt, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.json")
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(CorpusError) as info:
                load_corpus(path)
            assert str(info.value).startswith(f"{path}: ")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["eval-align", "--ckpt", str(small_ckpt), "--corpus", path])
            assert code == 2
            assert err.getvalue() == f"alignflow eval-align: {info.value}\n"

    @settings(max_examples=50, deadline=None)
    @given(corpus_specs(), _SEEDS, st.data())
    def test_any_byte_edit_loads_or_raises_corpus_error(self, spec, seed, data):
        text = saved_corpus_text(spec, seed).encode()
        k = data.draw(st.integers(0, len(text) - 1))
        mutated = text[:k] + bytes([data.draw(st.integers(0, 255))]) + text[k + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "wb") as fh:
                fh.write(mutated)
            try:
                load_corpus(path)
            except CorpusError as e:
                assert str(e).startswith(f"{path}: ")


_ANY_FLOAT = st.floats()  # padding is never read, so it may hold anything
_FINITE_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_LOG_DURATION = st.floats(0.0, 1e300)


@st.composite
def duration_batches(draw, conditioned=False):
    """1-3 padded batches of 1-3 instances each, prefix masks, one feature width;
    valid cells any finite value (log-durations >= 0), padding any float.
    ``conditioned`` gives each batch a condition of 1-3 finite values."""
    width = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3)) if conditioned else 0
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.integers(1, 4))
        lengths = draw(st.lists(st.integers(1, tokens), min_size=1, max_size=3))
        mask = np.arange(tokens) < np.array(lengths)[:, None]
        h = [[[draw(_FINITE_FLOAT if valid else _ANY_FLOAT) for _ in range(width)]
              for valid in row] for row in mask]
        d = [[draw(_LOG_DURATION if valid else _ANY_FLOAT) for valid in row] for row in mask]
        cond = np.array([draw(_FINITE_FLOAT) for _ in range(k)]) if k else None
        batches.append(DurationBatch(h_text=np.array(h), d=np.array(d), mask=mask, cond=cond))
    return batches


def saved_duration_text(batches) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dur.csv")
        save_duration_corpus(path, batches)
        with open(path) as fh:
            return fh.read()


@st.composite
def corrupted_duration_corpus(draw):
    """A saved valid duration corpus made invalid one way: a byte that is not
    UTF-8, a wrong header, a row of another width, a cell that is not a number
    (not an integer in the first two columns) or not finite, or a gap in one
    instance's positions."""
    lines = saved_duration_text(draw(duration_batches())).splitlines()
    kind = draw(st.sampled_from(["not UTF-8", "header", "width", "cell", "gap"]))
    if kind == "not UTF-8":
        data = "\n".join(lines).encode()
        k = draw(st.integers(0, len(data)))
        return data[:k] + bytes([draw(st.sampled_from(_NOT_UTF8))]) + data[k:] + b"\n"
    if kind == "header":
        header = lines[0].split(",")
        header[draw(st.integers(0, 2))] = draw(st.sampled_from(["", "x", "h0", "instances"]))
        lines[0] = ",".join(header)
    else:
        row = draw(st.integers(1, len(lines) - 1))
        cells = lines[row].split(",")
        if kind == "width":
            if draw(st.booleans()):
                cells.append(draw(st.sampled_from(["", "0.5"])))
            else:
                del cells[draw(st.integers(0, len(cells) - 1))]
        elif kind == "cell":
            col = draw(st.integers(0, len(cells) - 1))
            bad = ["", "x", "0x1", "nan", "inf", "-inf", "1e999"]
            cells[col] = draw(st.sampled_from(bad + (["1.5", "1e3"] if col < 2 else [])))
        else:  # any other position breaks the instance's run 0..n-1
            cells[1] = str(draw(st.integers(-3, 8).filter(lambda p: p != int(cells[1]))))
        lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


class TestDurationCorpusFuzz:
    @settings(max_examples=50, deadline=None)
    @given(duration_batches())
    def test_roundtrip(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dur.csv")
            save_duration_corpus(path, batches)
            loaded = load_duration_corpus(path)
        want = [inst for batch in batches for inst in batch.instances()]
        assert all(batch.mask.shape[0] == 1 and batch.cond is None for batch in loaded)
        for (h_want, d_want), (h_got, d_got) in zip(
                want, [batch.instances()[0] for batch in loaded], strict=True):
            assert h_got.tobytes() == h_want.tobytes()
            assert d_got.tobytes() == d_want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(duration_batches(conditioned=True))
    def test_roundtrip_with_a_condition(self, batches):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dur.csv")
            save_duration_corpus(path, batches)
            loaded = load_duration_corpus(path)
        want = [(inst, batch.cond) for batch in batches for inst in batch.instances()]
        for ((h_want, d_want), c_want), batch in zip(want, loaded, strict=True):
            (h_got, d_got), = batch.instances()
            assert h_got.tobytes() == h_want.tobytes()
            assert d_got.tobytes() == d_want.tobytes()
            assert batch.cond.tobytes() == c_want.tobytes()

    def test_roundtrip_of_a_three_speaker_run(self, tmp_path):
        cfg = tiny_config(speakers=3, speaker_shift=0.5)
        corpus = generate_corpus(cfg.corpus_spec(), Rng(36))
        targets = duration_targets(build_model(cfg, Rng(37)), corpus.train)
        path = tmp_path / "duration_corpus.csv"
        save_duration_corpus(path, targets)
        header = path.read_text().splitlines()[0].split(",")
        assert header[-17:] == ["h15"] + [f"c{i}" for i in range(16)]
        loaded = load_duration_corpus(path)
        assert len({b.cond.tobytes() for b in loaded}) > 1
        for want, got in zip(targets, loaded, strict=True):
            for a, b in ((want.h_text, got.h_text), (want.d, got.d), (want.cond, got.cond)):
                assert a.tobytes() == b.tobytes()
        unconditioned = [dataclasses.replace(b, cond=None) for b in targets]
        plain = tmp_path / "plain.csv"
        save_duration_corpus(plain, unconditioned)
        kept = [",".join(line.split(",")[:-16]) for line in path.read_text().splitlines()]
        assert plain.read_text() == "\n".join(kept) + "\n"

    def test_condition_errors_name_the_file_and_line(self, tmp_path):
        batches = [DurationBatch(np.ones((1, 2, 1)), np.zeros((1, 2)), np.ones((1, 2), bool),
                                 cond=np.array([0.5, -1.0]))]
        path = str(tmp_path / "dur.csv")
        lines = saved_duration_text(batches).splitlines()
        assert lines[0] == "instance,position,log_duration,h0,c0,c1"
        for row, bad, message in ((2, "0,1,0.0,1.0,0.5,x", "c1 'x' is not a number"),
                                  (2, "0,1,0.0,1.0,0.5,-2.0", "instance 0 has another condition"),
                                  (1, "0,0,0.0,1.0,inf,-1.0", "c0 'inf' is not finite"),
                                  (0, "instance,position,log_duration,h0,c0,c2",
                                   "the columns from c0 on are not c0..c1"),
                                  (0, "instance,position,log_duration,x,y",
                                   "the feature columns must be h0..h{H-1} with H >= 1, "
                                   "got ['x', 'y']"),
                                  (0, "instance,position,log_duration",
                                   "the feature columns must be h0..h{H-1} with H >= 1, "
                                   "got []")):
            edited = lines.copy()
            edited[row] = bad
            assert not self.assert_one_error_naming_the_file(
                path, ("\n".join(edited) + "\n").encode())
            where = f"{path}:{row + 1}: " if row else f"{path}: "
            with pytest.raises(DurationCorpusError, match="^" + re.escape(where + message)):
                load_duration_corpus(path)
        with pytest.raises(ValueError, match="a condition of one size"):
            save_duration_corpus(path, batches + [dataclasses.replace(batches[0], cond=None)])

    @staticmethod
    def assert_one_error_naming_the_file(path, data: bytes):
        """``data`` loads, or raises DurationCorpusError naming ``path``, and then
        train-duration exits 2 with that error as its one stderr line."""
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_duration_corpus(path)
        except DurationCorpusError as e:
            assert str(e).startswith(f"{path}:")
            out, err = path + ".losses.csv", io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["train-duration", "--corpus", path, "--steps", "1",
                                 "--seed", "0", "--out", out])
            assert code == 2
            assert err.getvalue() == f"alignflow train-duration: {e}\n"
            assert not os.path.exists(out)
            return False
        return True

    @settings(max_examples=50, deadline=None)
    @given(corrupted_duration_corpus())
    def test_corrupted_file_is_one_error_naming_the_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            assert not self.assert_one_error_naming_the_file(os.path.join(tmp, "bad.csv"), data)

    @settings(max_examples=50, deadline=None)
    @given(duration_batches(), st.data())
    def test_any_byte_edit_loads_or_raises_duration_corpus_error(self, batches, data):
        text = saved_duration_text(batches).encode()
        k = data.draw(st.integers(0, len(text) - 1))
        mutated = text[:k] + bytes([data.draw(st.integers(0, 255))]) + text[k + 1:]
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_one_error_naming_the_file(os.path.join(tmp, "dur.csv"), mutated)


class TestMainPhaseGradientOracle:
    """The composed main-phase loss (speaker table -> encoder -> conditioned flows
    -> aligned NLL, alignment held fixed) against central differences."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composed_loss_gradients(self, seed):
        checks = [c for c in gradcheck.suite(Rng(seed)) if c[0].startswith("main.")]
        assert [name for name, _, _ in checks] == [
            "main.spk.speakers.table",
            "main.enc.block2.head1.wq",
            "main.flow.layer1.attn.wq",
        ]
        for name, f, probe in checks:
            analytic = Tensor(probe.data.copy(), requires_grad=True)
            f(analytic).backward()
            assert np.abs(analytic.grad).max() > 1e-3, f"{name}: gradient is all but zero"
            assert check_grad(f, probe) <= 1e-4, name


class TestDurationPhaseGradientOracle:
    """The composed duration-phase losses (critic loss; speaker-conditioned
    adversarial + MSE generator loss with the critic frozen) against central
    differences."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_composed_loss_gradients(self, seed):
        checks = [c for c in gradcheck.suite(Rng(seed)) if c[0].startswith("duration.")]
        assert [name for name, _, _ in checks] == [
            "duration.loss_d.disc.conv1_w",
            "duration.loss_g.gen.conv1_w",
        ]
        for name, f, probe in checks:
            analytic = Tensor(probe.data.copy(), requires_grad=True)
            with nm.frozen(getattr(f, "frozen", ())):
                f(analytic).backward()
                assert check_grad(f, probe) <= 1e-4, name
            assert np.abs(analytic.grad).max() > 1e-3, f"{name}: gradient is all but zero"

    def test_frozen_critic_takes_no_gradient(self):
        (_, f, probe), = [c for c in gradcheck.suite(Rng(0))
                          if c[0] == "duration.loss_g.gen.conv1_w"]
        critic = f.frozen
        assert len(critic) == 6  # conv1, conv2 and head, weight and bias each
        with nm.frozen(critic):
            f(Tensor(probe.data.copy(), requires_grad=True)).backward()
        assert all(p.grad is None for p in critic)
        f(Tensor(probe.data.copy(), requires_grad=True)).backward()  # the loss reaches it
        assert all(p.grad is not None and p.grad.any() for p in critic)


class TestConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = TrainConfig(seed=123, steps_main=777, lr=3.5e-4, noise_anneal=False,
                          obs_noise=0.017, lr_decay=0.999 ** (1 / 8))
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nbogus_key = 2\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("steps_main = many\n")
        with pytest.raises(ConfigError, match="steps_main"):
            load_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# a comment\n\nseed = 5  # trailing\nsteps_main = 10\n"
                        "steps_duration = 5\n")
        assert load_config(path).seed == 5

    def test_nonpositive_steps_rejected(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text("steps_main = 0\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(path))}: steps_main must be >= 1, got 0$"):
            load_config(path)

    @pytest.mark.parametrize("line, key", [("n_blocks = 2", "n_blocks"),
                                           ("n_heads = 3", "n_heads")])
    def test_unbuildable_encoder_rejected_at_load(self, tmp_path, line, key):
        path = tmp_path / "enc.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("key", ["hidden_width", "ff_width", "flow_hidden", "dur_hidden",
                                     "key_dim", "speaker_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_model_sizes_rejected_at_load(self, tmp_path, key, value):
        path = tmp_path / "size.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: {key} must be >= 1, got {value}"

    def test_seed_must_fit_a_float64_exactly(self, tmp_path):
        """A checkpoint stores the seed as a float64, so a seed above 2**53
        would load back rounded (2**60 + 1 as 2**60): the rule refuses it."""
        TrainConfig(seed=2**53).validate()
        with pytest.raises(ValueError) as info:
            TrainConfig(seed=2**53 + 1).validate()
        assert str(info.value) == "seed must be in [0, 2**53], got 9007199254740993"
        path = tmp_path / "seed.cfg"
        path.write_text(f"seed = {2**60 + 1}\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: seed must be in [0, 2**53], got {2**60 + 1}"
        model = tmp_path / "model.bin"
        save_model(model, build_model(tiny_config(seed=2**53), Rng(0)))
        assert load_model(model).config.seed == 2**53

    @pytest.mark.parametrize("value", [1, 0])
    def test_single_coupling_layer_rejected_at_load(self, tmp_path, value):
        path = tmp_path / "flow.cfg"
        path.write_text(f"flow_depth = {value}\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: flow_depth must be >= 2, got {value}"

    def test_settings_map_onto_adamw_config_corpus_spec_and_cli(self):
        assert TrainConfig().optimizer() == AdamWConfig()
        cfg = TrainConfig(lr=1e-3, beta2=0.9)
        assert cfg.optimizer(lr=0.01) == AdamWConfig(lr=0.01, beta2=0.9)
        assert TrainConfig().corpus_spec() == CorpusSpec()
        off = dict(vocab=5, channels=4, n_train=3, n_eval=2, seq_min=2, seq_max=9, dur_min=1,
                   dur_max=7, obs_noise=0.25, prototype_radius=1.5, speakers=3,
                   speaker_shift=0.5)
        spec_names = {"noise" if key == "obs_noise" else key: key for key in off}
        assert set(spec_names) == {f.name for f in dataclasses.fields(CorpusSpec)}
        spec = TrainConfig(**off).corpus_spec()
        for spec_name, key in spec_names.items():
            assert getattr(TrainConfig(), key) != off[key]
            assert getattr(spec, spec_name) == off[key]
        args = cli.build_parser().parse_args(
            ["train-duration", "--corpus", "c.csv", "--steps", "1", "--seed", "0", "--out", "o"])
        assert (args.lr, args.hidden, args.z_dim) == (
            TrainConfig.duration_lr, TrainConfig.dur_hidden, TrainConfig.z_dim)

    def test_readme_config_table_matches_the_rules(self):
        """README's config table lists every key once, and the `valid` cell of
        each key with a range rule is that rule's wording."""
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                  encoding="utf-8") as fh:
            section = fh.read().split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                key, _, valid, _ = line.removeprefix("| ").split(" | ")
                assert key.strip("`") not in rows, f"{key} is listed twice"
                rows[key.strip("`")] = valid
        fields = typing.get_type_hints(TrainConfig)
        assert sorted(rows) == sorted(fields)
        for key, (_, want) in TrainConfig.RULES.items():
            assert rows[key] == f"`{want}`", key
        unruled = {key for key, kind in fields.items() if kind is not bool} - set(TrainConfig.RULES)
        assert unruled == {"n_blocks", "seq_max", "dur_max"}


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_FLOAT_RANGES = {"lr": _POSITIVE, "duration_lr": _POSITIVE, "eps": _POSITIVE,
                 "lr_decay": _POSITIVE, "beta1": _UNIT, "beta2": _UNIT,
                 "weight_decay": _NON_NEGATIVE, "obs_noise": _NON_NEGATIVE}


@st.composite
def valid_configs(draw):
    """Every field drawn over its valid range: sizes up to 10**6, floats anywhere
    in range (subnormals and the extremes included)."""
    values = {}
    for name, ftype in typing.get_type_hints(TrainConfig).items():
        if ftype is bool:
            values[name] = draw(st.booleans())
        elif ftype is float:
            values[name] = draw(_FLOAT_RANGES.get(name, st.floats(allow_nan=False,
                                                                   allow_infinity=False)))
        else:
            values[name] = draw(st.integers(1, 10**6))
    # the sizes that constrain each other; validate() visits every token of the vocab
    values["seed"] = draw(st.integers(0, 2**53))
    values["vocab"] = draw(st.integers(2, 64))
    values["hidden_width"] *= values["n_heads"]
    values["channels"] *= 2
    values["n_blocks"] += TextEncoder.SPEAKER_BLOCK
    values["flow_depth"] += 1
    values["seq_max"] += values["seq_min"]
    values["dur_max"] += values["dur_min"]
    return TrainConfig(**values)


def save_config_lines(config: TrainConfig) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        save_config(config, path)
        with open(path) as fh:
            return fh.read().splitlines()


@st.composite
def corrupted_config_lines(draw):
    """A saved valid config with one line corrupted: the file cut inside a line
    before its value, an unknown key, a duplicate key, a value that is not a
    number, or a float value that is not finite."""
    lines = save_config_lines(draw(valid_configs()))
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["truncated", "unknown", "duplicate", "not a number",
                                 "not finite"]))
    if kind == "truncated":
        return lines[:i] + [lines[i][:draw(st.integers(1, lines[i].index("=") + 1))]]
    if kind == "unknown":
        key = draw(st.from_regex(r"[a-z][a-z_]{0,15}", fullmatch=True).filter(
            lambda k: k not in typing.get_type_hints(TrainConfig)))
        return lines[:i] + [f"{key} = 1"] + lines[i:]
    if kind == "duplicate":
        return lines[:i] + [draw(st.sampled_from(lines))] + lines[i:]
    key = lines[i].split(" = ")[0]
    if kind == "not a number":
        text = draw(st.text(alphabet="xyzq?!$%", min_size=1, max_size=8))
    else:
        key = draw(st.sampled_from(sorted(_FLOAT_RANGES) + ["prototype_radius",
                                                            "speaker_shift"]))
        text = draw(st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999"]))
        i = next(j for j, line in enumerate(lines) if line.startswith(f"{key} = "))
    return lines[:i] + [f"{key} = {text}"] + lines[i + 1:]


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(valid_configs())
    def test_roundtrip(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            save_config(config, path)
            assert load_config(path) == config

    @settings(max_examples=50, deadline=None)
    @given(corrupted_config_lines())
    def test_corrupted_line_is_one_error_naming_the_file(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.cfg")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            with pytest.raises(ConfigError) as info:
                load_config(path)
            assert str(info.value).startswith(f"{path}:")
            out, err = os.path.join(tmp, "run"), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["train-toy", "--config", path, "--out", out, "--seed", "0"])
            assert code == 2
            assert err.getvalue() == f"alignflow train-toy: {info.value}\n"
            assert not os.path.exists(out)


def tiny_config(**kw):
    args = dict(seed=5, steps_main=40, steps_duration=10, eval_every=20,
                n_train=6, n_eval=3, hidden_width=16, ff_width=24,
                dur_hidden=8, flow_hidden=8)
    args.update(kw)
    return TrainConfig(**args)


class TestTrainToy:
    @pytest.mark.parametrize("overrides, message", [
        ({"seed": 2**60}, f"seed must be in [0, 2**53], got {2**60}"),
        ({"steps_main": 0, "steps_duration": 0}, "steps_main must be >= 1, got 0"),
        ({"seq_min": 5, "seq_max": 3}, "bad sequence length range (5, 3)"),
    ])
    def test_invalid_config_refused_before_anything_is_written(self, tmp_path, overrides,
                                                               message):
        cfg = tiny_config(**overrides)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_model(cfg, Rng(0))  # so save_model never writes what load_model refuses
        with pytest.raises(ConfigError, match=f"^config does not build a model: "
                                              f"{re.escape(message)}$"):
            train_toy(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_histories_have_expected_shape(self):
        history, model = train_toy(tiny_config())
        assert [r["step"] for r in history["main"]] == list(range(40))
        assert len(history["duration"]) == 10
        evals = [r for r in history["main"] if r["eval_exact"] is not None]
        assert len(evals) == 2  # steps 20 and 40
        # losses are never asserted monotone (stochastic), only finite
        for row in history["main"]:
            assert math.isfinite(row["loss"])
        for row in history["duration"]:
            assert all(math.isfinite(v) for k, v in row.items() if k != "step")

    def test_same_seed_bit_identical_metrics(self, tmp_path):
        cfg = tiny_config()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        train_toy(cfg, out_dir=out1)
        train_toy(cfg, out_dir=out2)
        for name in ("main_metrics.csv", "duration_metrics.csv", "checkpoint.bin",
                     "corpus.json", "config.txt", "duration_corpus.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_noise_scale_column_follows_schedule(self):
        history, _ = train_toy(tiny_config())
        for row in history["main"]:
            assert row["noise_scale"] == max(0.0, 0.01 - 2e-6 * row["step"])


class TestEvalAlignment:
    def test_oracle_parameters_align_perfectly(self):
        spec = CorpusSpec(vocab=3, channels=2, n_train=6, n_eval=6, noise=0.0)
        corpus = generate_corpus(spec, Rng(21))

        class OracleEncoder:
            def encode(self, tokens, speaker=None, mask=None):
                mu = Tensor(corpus.prototypes[np.asarray(tokens)])
                sigma = Tensor(np.ones_like(mu.data))
                return Tensor(np.zeros((len(tokens), 4))), mu, sigma

        class IdentityFlows:
            def forward(self, x, cond=None):
                return x, Tensor(0.0)

        class OracleModel:
            encoder = OracleEncoder()
            flows = IdentityFlows()
            speakers = None

            def speaker_condition(self, sid):
                return None, None

        stats = eval_alignment(OracleModel(), corpus.eval)
        assert stats["exact_match"] == 1.0
        assert stats["mae"] == 0.0

    def test_untrained_model_reports_rates(self):
        cfg = tiny_config()
        corpus = generate_corpus(cfg.corpus_spec(), Rng(22))
        model = build_model(cfg, Rng(23))
        stats = eval_alignment(model, corpus.eval)
        assert 0.0 <= stats["exact_match"] <= 1.0
        assert stats["mae"] >= 0.0

    def test_no_instances_raises_value_error(self):
        model = build_model(tiny_config(), Rng(23))
        with pytest.raises(ValueError, match="at least one instance"):
            eval_alignment(model, [])


class TestCheckpoint:
    def test_save_load_roundtrip_bitexact_eval(self, tmp_path):
        cfg = tiny_config(steps_main=30)
        history, model = train_toy(cfg)
        corpus = generate_corpus(cfg.corpus_spec(), Rng(cfg.seed).child(1))
        before = eval_alignment(model, corpus.eval)
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = load_model(path)
        for (na, a), (nb, b) in zip(model.named_params(), loaded.named_params()):
            assert na == nb
            npt.assert_array_equal(a.data, b.data)
        after = eval_alignment(loaded, corpus.eval)
        assert before == after

    def test_every_truncation_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "small.bin"
        entries = {"a.scalar": np.float64(2.5), "b.matrix": np.arange(6.0).reshape(2, 3),
                   "c.vector": np.array([-1.0, 0.5])}
        save_checkpoint(path, entries)
        blob = path.read_bytes()
        loaded = load_checkpoint(path)
        for name, value in entries.items():
            npt.assert_array_equal(loaded[name], value)
        cut = tmp_path / "cut.bin"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CheckpointError, match="cut.bin"):
                load_checkpoint(cut)

    def test_truncation_message_names_the_entry(self, tmp_path):
        path = tmp_path / "small.bin"
        save_checkpoint(path, {"only": np.ones((2, 2))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CheckpointError, match=r"entry 0 \('only'\) values"):
            load_checkpoint(path)
        path.write_bytes(blob[:10])
        with pytest.raises(CheckpointError, match="entry count"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", ["param.enc.block0.head0.wx", "cfg.batch_size"])
    def test_unknown_entry_rejected(self, tmp_path, extra):
        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        entries[extra] = np.zeros(2)
        save_checkpoint(path, entries)
        with pytest.raises(CheckpointError, match=extra):
            load_model(path)

    def test_unknown_entry_name_is_quoted_on_one_line(self, tmp_path):
        """A one-byte edit can put a newline into an entry name; the message
        still names the file on one line."""
        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        entries["param.\nflow"] = np.zeros(2)
        save_checkpoint(path, entries)
        with pytest.raises(CheckpointError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: entries not in this model: 'param.\\nflow'"

    @pytest.mark.parametrize("key, value, message", [
        ("cfg.steps_main", np.inf, r"cfg.steps_main = inf is not an integer"),
        ("cfg.steps_main", -np.inf, r"cfg.steps_main = -inf is not an integer"),
        ("cfg.n_heads", np.nan, r"cfg.n_heads = nan is not an integer"),
        ("cfg.hidden_width", 2.5, r"cfg.hidden_width = 2.5 is not an integer"),
        ("cfg.noise_anneal", 0.5, r"cfg.noise_anneal = 0.5 is not a bool \(0 or 1\)"),
        ("cfg.transformer_block", 2.0, r"cfg.transformer_block = 2.0 is not a bool"),
        ("cfg.channels", 3.0, r"not a valid config: channels must be even"),
        ("cfg.steps_duration", 0.0, r"not a valid config: steps_duration must be >= 1, got 0$"),
        ("cfg.n_heads", 3.0, r"not a valid config: n_heads 3 does not divide hidden_width"),
        ("cfg.seed", -1.0, r"not a valid config: seed must be in \[0, 2\*\*53\], got -1$"),
        ("cfg.seed", 2.0**60, r"seed must be in \[0, 2\*\*53\], got 1152921504606846976$"),
        ("cfg.lr", np.nan, r"not a valid config: lr must be finite and > 0, got nan$"),
        ("cfg.duration_lr", 0.0, r"duration_lr must be finite and > 0, got 0.0$"),
        ("cfg.eps", -1e-9, r"eps must be finite and > 0, got -1e-09$"),
        ("cfg.lr_decay", np.inf, r"lr_decay must be finite and > 0, got inf$"),
        ("cfg.beta1", 5.0, r"beta1 must be in \[0, 1\), got 5.0$"),
        ("cfg.beta2", 1.0, r"beta2 must be in \[0, 1\), got 1.0$"),
        ("cfg.weight_decay", -0.01, r"weight_decay must be finite and >= 0, got -0.01$"),
        ("cfg.obs_noise", np.nan, r"obs_noise must be finite and >= 0, got nan$"),
        ("cfg.prototype_radius", np.inf, r"prototype_radius must be finite, got inf$"),
        ("cfg.speaker_shift", -np.inf, r"speaker_shift must be finite, got -inf$"),
        ("cfg.z_dim", -1.0, r"not a valid config: z_dim must be >= 0, got -1$"),
        ("cfg.speaker_dim", 0.0, r"not a valid config: speaker_dim must be >= 1, got 0$"),
        ("cfg.flow_depth", 1.0, r"not a valid config: flow_depth must be >= 2, got 1$"),
        ("cfg.hidden_width", 2.0**60, r"cfg entries do not build a model: array is too big"),
    ])
    def test_bad_config_entry_raises_checkpoint_error(self, tmp_path, key, value, message):
        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        entries[key] = np.float64(value)
        save_checkpoint(path, entries)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: .*{message}"):
            load_model(path)

    def test_integral_config_entries_load(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        entries["cfg.steps_main"] = np.float64(7.0)
        entries["cfg.noise_anneal"] = np.float64(0.0)
        save_checkpoint(path, entries)
        config = load_model(path).config
        assert config.steps_main == 7 and type(config.steps_main) is int
        assert config.noise_anneal is False

    @pytest.mark.parametrize("dims, message", [
        ((0,) * 99, r"rank 99 and dims \(0, 0, .*maximum supported dimension"),
        ((257, 2576980480, 2576980480, 2576980480, 0),
         r"rank 5 and dims \(257, 2576980480, 2576980480, 2576980480, 0\), which numpy "
         r"cannot hold: cannot reshape"),
    ])
    def test_dims_numpy_cannot_hold_raise_checkpoint_error(self, tmp_path, dims, message):
        path = tmp_path / "rank.bin"
        path.write_bytes(MAGIC + struct.pack("<I", 1) + raw_entry("param.x", dims))
        with pytest.raises(CheckpointError,
                           match=rf"^{re.escape(str(path))}: entry 0 \('param.x'\) has {message}"):
            load_checkpoint(path)

    def test_repeated_entry_name_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "twice.bin"
        values = struct.pack("<d", 1.0), struct.pack("<d", 2.0)
        path.write_bytes(MAGIC + struct.pack("<I", 2)
                         + b"".join(raw_entry("param.x", (1,), v) for v in values))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: entry 1 "
                                                  r"\('param.x'\) repeats the name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.array([7.0, 7.0]), np.zeros(0), np.ones((1, 2))])
    def test_config_entry_that_is_not_one_value(self, tmp_path, value):
        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        entries["cfg.seed"] = value
        save_checkpoint(path, entries)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: cfg.seed has shape "
                                                  rf"{re.escape(str(value.shape))}, expected one "
                                                  rf"value$"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        entries["param.enc.embedding"][1, 0] = value
        save_checkpoint(path, entries)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: "
                                                  r"param.enc.embedding holds a non-finite value$"):
            load_model(path)

    def test_config_larger_than_the_file_is_refused_before_it_is_built(self, tmp_path):
        """A flipped exponent bit takes cfg.hidden_width from 16 to 4096, a
        model of about 2.1 GB; it is refused having drawn at most the file's
        few thousand values."""
        import tracemalloc

        path = tmp_path / "model.bin"
        save_model(path, build_model(tiny_config(), Rng(0)))
        entries = load_checkpoint(path)
        stored = sum(a.size for k, a in entries.items() if k.startswith("param."))
        entries["cfg.hidden_width"] = np.float64(4096.0)
        save_checkpoint(path, entries)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: cfg entries do "
                                                      rf"not build a model: its parameters need "
                                                      rf"more than {stored} values$"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**23, peak

    def test_header_only_duration_corpus_rejected(self, tmp_path):
        path = tmp_path / "dur.csv"
        path.write_text("instance,position,log_duration,h0,h1\n")
        with pytest.raises(ValueError, match="dur.csv: .*no rows"):
            load_duration_corpus(path)

    @pytest.mark.parametrize("line, col, value, message", [
        (2, 0, "x", r":2: instance 'x' is not an integer"),
        (3, 1, "1.5", r":3: position '1.5' is not an integer"),
        (2, 4, "abc", r":2: h1 'abc' is not a number"),
        (4, 5, "nan", r":4: h2 'nan' is not finite"),
        (2, 2, "inf", r":2: log_duration 'inf' is not finite"),
        (3, 1, "0", r": instance 0 positions are not 0\.\.2"),
        (2, 2, "-1.0", r": instance 0: valid log-durations must be >= 0"),
    ])
    def test_bad_duration_cell_names_file_line_and_column(self, tmp_path, line, col, value,
                                                          message):
        lines = ["instance,position,log_duration,h0,h1,h2", "0,0,0.0,0.1,0.2,0.3",
                 "0,1,0.5,0.4,0.5,0.6", "0,2,1.0,0.7,0.8,0.9", "1,0,0.0,1.0,1.1,1.2"]
        cells = lines[line - 1].split(",")
        cells[col] = value
        lines[line - 1] = ",".join(cells)
        path = tmp_path / "dur.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DurationCorpusError, match="^" + re.escape(str(path)) + message):
            load_duration_corpus(path)

    def test_duration_corpus_roundtrip(self, tmp_path):
        cfg = tiny_config()
        corpus = generate_corpus(cfg.corpus_spec(), Rng(cfg.seed).child(1))
        model = build_model(cfg, Rng(cfg.seed).child(3))
        targets = duration_targets(model, corpus.train)
        path = tmp_path / "dur.csv"
        save_duration_corpus(path, targets)
        loaded = load_duration_corpus(path)
        assert len(loaded) == len(targets)
        for a, b in zip(targets, loaded):
            npt.assert_array_equal(a.h_text, b.h_text)
            npt.assert_array_equal(a.d, b.d)


def raw_entry(name: str, dims: tuple, values: bytes = b"") -> bytes:
    """One checkpoint entry as written bytes, with any rank and dims."""
    raw = name.encode()
    return (struct.pack("<H", len(raw)) + raw + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
            + values)


def metadata_offsets(blob: bytes) -> list[int]:
    """The offsets of every byte of a checkpoint that is not a value: the
    magic, the count, and each entry's name length, name, rank and dims."""
    offsets, off = list(range(12)), 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (nlen,) = struct.unpack_from("<H", blob, off)
        rank = blob[off + 2 + nlen]
        head = 2 + nlen + 1 + 4 * rank
        dims = struct.unpack_from(f"<{rank}I", blob, off + head - 4 * rank)
        offsets += range(off, off + head)
        off += head + 8 * math.prod(dims)
    return offsets


@st.composite
def small_models(draw):
    """A small model over drawn sizes, switches and speaker counts (stacked
    q/k/v leaves of 1, 2 or 4 heads), every parameter drawn away from its
    initial value."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    sizes = {name: draw(st.integers(1, 3)) for name in ("ff_width", "flow_hidden", "key_dim",
                                                         "dur_hidden", "speaker_dim")}
    config = TrainConfig(
        seed=draw(st.integers(0, 2**53)), n_heads=n_heads,
        hidden_width=n_heads * draw(st.integers(1, 3)), n_blocks=draw(st.integers(3, 4)),
        flow_depth=draw(st.integers(2, 3)), z_dim=draw(st.integers(0, 2)),
        speakers=draw(st.integers(1, 3)), vocab=draw(st.integers(2, 5)),
        channels=2 * draw(st.integers(1, 2)),
        **{name: draw(st.booleans()) for name in ("transformer_block", "duration_adversarial",
                                                  "condition_speaker")},
        **sizes)
    model = build_model(config, Rng(draw(_SEEDS)))
    rng = Rng(draw(_SEEDS))
    for p in model.params():
        p.data[...] = rng.normal(p.shape)
    return model


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small 3-speaker checkpoint, its bytes and their metadata offsets, and
    a matching corpus and frame file for the CLI."""
    root = tmp_path_factory.mktemp("fuzz")
    config = TrainConfig(**SMALL_SIZES, speakers=3, n_train=1, n_eval=1)
    save_model(root / "model.bin", build_model(config, Rng(0)))
    save_corpus(generate_corpus(config.corpus_spec(), Rng(1)), root / "corpus.json")
    np.savetxt(root / "frames.csv", Rng(2).normal((2, 6)), delimiter=",")
    blob = (root / "model.bin").read_bytes()
    return root, blob, metadata_offsets(blob)


def _edited(data, blob: bytes, offsets: list[int]) -> bytes:
    """``blob`` with one drawn byte, a metadata byte or any, set to a drawn value."""
    k = data.draw(st.sampled_from(offsets) | st.integers(0, len(blob) - 1))
    return blob[:k] + bytes([data.draw(st.integers(0, 255))]) + blob[k + 1:]


class TestCheckpointFuzz:
    """``load_model`` over drawn models and one-byte edits: a round trip is
    byte for byte, and a bad file is one ``CheckpointError`` naming it."""

    @settings(max_examples=50, deadline=None)
    @given(small_models())
    def test_roundtrip_byte_for_byte(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = os.path.join(tmp, "a.bin"), os.path.join(tmp, "b.bin")
            save_model(path, model)
            loaded = load_model(path)
            save_model(again, loaded)
            with open(path, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
        assert ([(n, t.data.tobytes()) for n, t in loaded.named_params()]
                == [(n, t.data.tobytes()) for n, t in model.named_params()])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_byte_edit_loads_or_raises_checkpoint_error(self, fuzz_inputs, data):
        root, blob, offsets = fuzz_inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edited.bin")
            with open(path, "wb") as fh:
                fh.write(_edited(data, blob, offsets))
            try:
                load_model(path)
            except CheckpointError as e:
                assert str(e).startswith(f"{path}: ") and "\n" not in str(e)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["eval-align", "dump-attention"]))
    def test_cli_exits_2_with_one_line_naming_the_file(self, fuzz_inputs, data, command):
        root, blob, offsets = fuzz_inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edited.bin")
            with open(path, "wb") as fh:
                fh.write(_edited(data, blob, offsets))
            try:
                load_model(path)
                error = None
            except CheckpointError as e:
                error = e
            args = (["--corpus", str(root / "corpus.json")] if command == "eval-align" else
                    ["--input", str(root / "frames.csv"), "--out", os.path.join(tmp, "maps")])
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--ckpt", path, *args])
        if error is None:  # loaded: the run may still stop on a value that overflows
            assert code in (0, 2) and err.getvalue().count("\n") == code // 2
        else:
            assert code == 2 and err.getvalue() == f"alignflow {command}: {error}\n"


SMALL_SIZES = dict(n_blocks=3, n_heads=2, hidden_width=8, ff_width=8, flow_depth=2,
                   flow_hidden=4, key_dim=2, dur_hidden=4, speaker_dim=2)

# Checkpoint entry names are a file format: these lists must never change by accident.
NAMES_3_SPEAKERS_ADVERSARIAL = [
    "enc.embedding", "enc.block0.head0.wq", "enc.block0.head0.wk", "enc.block0.head0.wv",
    "enc.block0.head1.wq", "enc.block0.head1.wk", "enc.block0.head1.wv", "enc.block0.wo",
    "enc.block0.ffn.w1", "enc.block0.ffn.b1", "enc.block0.ffn.w2", "enc.block0.ffn.b2",
    "enc.block1.head0.wq", "enc.block1.head0.wk", "enc.block1.head0.wv",
    "enc.block1.head1.wq", "enc.block1.head1.wk", "enc.block1.head1.wv", "enc.block1.wo",
    "enc.block1.ffn.w1", "enc.block1.ffn.b1", "enc.block1.ffn.w2", "enc.block1.ffn.b2",
    "enc.block2.head0.wq", "enc.block2.head0.wk", "enc.block2.head0.wv",
    "enc.block2.head1.wq", "enc.block2.head1.wk", "enc.block2.head1.wv", "enc.block2.wo",
    "enc.block2.ffn.w1", "enc.block2.ffn.b1", "enc.block2.ffn.w2", "enc.block2.ffn.b2",
    "enc.speaker_proj", "enc.mu.w", "enc.mu.b", "enc.logsigma.w", "enc.logsigma.b",
    "flow.layer0.attn.wq", "flow.layer0.attn.wk", "flow.layer0.attn.wv",
    "flow.layer0.attn.wo", "flow.layer0.conv1.w", "flow.layer0.conv1.b",
    "flow.layer0.conv2.w", "flow.layer0.conv2.b", "flow.layer0.cond.w",
    "flow.layer1.attn.wq", "flow.layer1.attn.wk", "flow.layer1.attn.wv",
    "flow.layer1.attn.wo", "flow.layer1.conv1.w", "flow.layer1.conv1.b",
    "flow.layer1.conv2.w", "flow.layer1.conv2.b", "flow.layer1.cond.w", "durg.gen.conv1.w",
    "durg.gen.conv1.b", "durg.gen.conv2.w", "durg.gen.conv2.b", "durg.gen.head.w",
    "durg.gen.head.b", "durg.gen.cond.w", "durd.disc.conv1.w", "durd.disc.conv1.b",
    "durd.disc.conv2.w", "durd.disc.conv2.b", "durd.disc.head.w", "durd.disc.head.b",
    "spk.speakers.table",
]

NAMES_1_SPEAKER_DETERMINISTIC = [
    "enc.embedding", "enc.block0.head0.wq", "enc.block0.head0.wk", "enc.block0.head0.wv",
    "enc.block0.head1.wq", "enc.block0.head1.wk", "enc.block0.head1.wv", "enc.block0.wo",
    "enc.block0.ffn.w1", "enc.block0.ffn.b1", "enc.block0.ffn.w2", "enc.block0.ffn.b2",
    "enc.block1.head0.wq", "enc.block1.head0.wk", "enc.block1.head0.wv",
    "enc.block1.head1.wq", "enc.block1.head1.wk", "enc.block1.head1.wv", "enc.block1.wo",
    "enc.block1.ffn.w1", "enc.block1.ffn.b1", "enc.block1.ffn.w2", "enc.block1.ffn.b2",
    "enc.block2.head0.wq", "enc.block2.head0.wk", "enc.block2.head0.wv",
    "enc.block2.head1.wq", "enc.block2.head1.wk", "enc.block2.head1.wv", "enc.block2.wo",
    "enc.block2.ffn.w1", "enc.block2.ffn.b1", "enc.block2.ffn.w2", "enc.block2.ffn.b2",
    "enc.mu.w", "enc.mu.b", "enc.logsigma.w", "enc.logsigma.b", "flow.layer0.attn.wq",
    "flow.layer0.attn.wk", "flow.layer0.attn.wv", "flow.layer0.attn.wo",
    "flow.layer0.conv1.w", "flow.layer0.conv1.b", "flow.layer0.conv2.w",
    "flow.layer0.conv2.b", "flow.layer1.attn.wq", "flow.layer1.attn.wk",
    "flow.layer1.attn.wv", "flow.layer1.attn.wo", "flow.layer1.conv1.w",
    "flow.layer1.conv1.b", "flow.layer1.conv2.w", "flow.layer1.conv2.b", "durg.gen.conv1.w",
    "durg.gen.conv1.b", "durg.gen.conv2.w", "durg.gen.conv2.b", "durg.gen.head.w",
    "durg.gen.head.b",
]


class TestParamNames:
    @pytest.mark.parametrize("overrides, expected", [
        (dict(speakers=3), NAMES_3_SPEAKERS_ADVERSARIAL),
        (dict(speakers=1, duration_adversarial=False), NAMES_1_SPEAKER_DETERMINISTIC),
    ])
    def test_checkpoint_names_and_main_params(self, overrides, expected):
        model = build_model(TrainConfig(**SMALL_SIZES, **overrides), Rng(0))
        named = model.named_params()
        assert [n for n, _ in named] == expected
        # each main leaf owns one entry, or all the q/k/v entries of one attention block
        owned = [[n for n, t in named if np.shares_memory(t.data, p.data)]
                 for p in model.main_params()]
        assert sum(owned, []) == [n for n in expected if n.startswith(("enc.", "flow.", "spk."))]
        qkv = ("wq", "wk", "wv")
        assert [o for o in owned if len(o) > 1] == (
            [[f"enc.block{b}.head{h}.{w}" for h in range(2) for w in qkv] for b in range(3)]
            + [[f"flow.layer{li}.attn.{w}" for w in qkv] for li in range(2)])


class TestStackedAttentionLeaf:
    """Each attention block trains one (3H, D, d) leaf; its checkpoint entries
    are views of that leaf's rows."""

    def test_entries_view_rows_drawn_per_head(self):
        cfg = TrainConfig(**{**SMALL_SIZES, "n_heads": 4})  # width 8: four heads of 2
        model = build_model(cfg, Rng(5))
        named = dict(model.named_params())
        block, layer = model.encoder.blocks[1], model.flows.layers[0]
        enc_rng = Rng(5).child(0).child(1)  # build_model -> encoder -> block 1
        for h in range(4):
            k = 1.0 / np.sqrt(8)
            want = enc_rng.child(h).uniform(-k, k, (3, 8, 2))  # wq, wk, wv of head h
            for j, w in enumerate(("wq", "wk", "wv")):
                entry = named[f"enc.block1.head{h}.{w}"].data
                assert np.shares_memory(entry, block.wqkv.data)
                assert entry.tobytes() == block.wqkv.data[4 * j + h].tobytes()
                assert entry.tobytes() == want[j].tobytes()
        for j, w in enumerate(("wq", "wk", "wv")):
            assert named[f"flow.layer0.attn.{w}"].data.tobytes() == layer.wqkv.data[j].tobytes()

    def test_write_through_entries_reaches_the_optimizer_buffer(self):
        model = build_model(TrainConfig(**SMALL_SIZES), Rng(6))
        opt = nm.AdamW(model.main_params())  # rebinds every leaf to its flat buffer
        block = model.encoder.blocks[0]
        for name, tensor in model.named_params():  # as load_model writes
            if name == "enc.block0.head1.wk":
                tensor.data[...] = 7.0
        assert (block.wqkv.data[2 + 1] == 7.0).all()
        assert np.shares_memory(block.wqkv.data, opt._flat)
        assert np.count_nonzero(opt._flat == 7.0) == 8 * 4
        for p in opt.params:
            p.grad = np.ones(p.shape)
        opt.step()  # no leaf was rebound
        entry = dict(model.named_params())["enc.block0.head1.wk"]
        assert entry.data.tobytes() == block.wqkv.data[3].tobytes()
        assert (entry.data != 7.0).all()  # the view reads the updated leaf

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = TrainConfig(**SMALL_SIZES, speakers=3, steps_main=3, steps_duration=2,
                          n_train=3, n_eval=0)
        _, model = train_toy(cfg)
        save_model(tmp_path / "a.bin", model)
        save_model(tmp_path / "b.bin", load_model(tmp_path / "a.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestDurationTargets:
    def test_one_encoder_pass_per_instance(self, monkeypatch):
        from alignflow.encoder import TextEncoder

        cfg = tiny_config()
        corpus = generate_corpus(cfg.corpus_spec(), Rng(cfg.seed).child(1))
        model = build_model(cfg, Rng(cfg.seed).child(3))
        calls = []
        encode = TextEncoder.encode

        def counting_encode(self, *args, **kwargs):
            calls.append(1)
            return encode(self, *args, **kwargs)

        monkeypatch.setattr(TextEncoder, "encode", counting_encode)
        targets = duration_targets(model, corpus.train)
        assert len(calls) == len(corpus.train)
        for inst, batch in zip(corpus.train, targets):
            npt.assert_array_equal(batch.d[0], np.log(predict_durations(model, inst)))

    def test_batches_carry_the_taped_speaker_condition(self):
        cfg = tiny_config(speakers=3, speaker_shift=0.5)
        corpus = generate_corpus(cfg.corpus_spec(), Rng(36))
        model = build_model(cfg, Rng(37))
        targets = duration_targets(model, corpus.train)
        assert len({i.speaker for i in corpus.train}) > 1
        for inst, batch in zip(corpus.train, targets, strict=True):
            taped = model.speaker_condition(inst.speaker)[1]
            assert taped._vjp is not None  # recorded, unlike the batch's copy
            assert isinstance(batch.cond, np.ndarray)
            assert batch.cond.tobytes() == taped.data.tobytes()

    @pytest.mark.parametrize("overrides", [{}, dict(speakers=3, speaker_shift=0.5,
                                                    condition_speaker=False)])
    def test_no_condition_without_a_conditioned_speaker(self, overrides):
        cfg = tiny_config(**overrides)
        corpus = generate_corpus(cfg.corpus_spec(), Rng(38))
        model = build_model(cfg, Rng(39))
        assert all(b.cond is None for b in duration_targets(model, corpus.train))


class TestDurationOnHarnessTargets:
    def test_long_run_cuts_mse_fivefold(self):
        from alignflow.duration import train_duration
        from alignflow.numerics import AdamWConfig

        cfg = TrainConfig(seed=11)
        root = Rng(cfg.seed)
        corpus = generate_corpus(cfg.corpus_spec(), root.child(1))
        model = build_model(cfg, root.child(3))
        targets = duration_targets(model, corpus.train)
        history = train_duration(
            model.dur_gen, model.dur_disc, targets, 2000,
            opt_cfg=AdamWConfig(lr=0.003), rng=root.child(4),
        )
        first = history[0]["loss_g_mse"]
        last = history[-1]["loss_g_mse"]
        assert last * 5 < first, f"{first:.4f} -> {last:.4f}"


class TestAblations:
    def test_noise_off_forces_zero_scale(self):
        history, _ = train_toy(tiny_config(noise_anneal=False))
        assert all(row["noise_scale"] == 0.0 for row in history["main"])

    def test_transformer_off_zeroes_attention_path(self):
        cfg = tiny_config(transformer_block=False, steps_main=5, steps_duration=2)
        _, model = train_toy(cfg)
        assert not any(layer.attention for layer in model.flows.layers)
        rng = Rng(99)
        x = Tensor(rng.normal((cfg.channels, 6)))
        y1, ld1 = model.flows.forward(x)
        for layer in model.flows.layers:
            for p in (layer.wqkv, layer.wo):
                p.data[:] = rng.normal(p.shape) * 10.0
        y2, ld2 = model.flows.forward(x)
        npt.assert_array_equal(y1.data, y2.data)
        assert ld1.item() == ld2.item()

    def test_adversarial_off_is_mse_only(self):
        cfg = tiny_config(duration_adversarial=False)
        history, model = train_toy(cfg)
        assert model.dur_disc is None
        assert model.dur_gen.z_dim == 0
        assert all(set(row) == {"step", "loss_g_mse"} for row in history["duration"])


class TestMultiSpeaker:
    def test_multispeaker_run_trains(self):
        cfg = tiny_config(speakers=2, speaker_shift=0.5, steps_main=30,
                          steps_duration=5)
        history, model = train_toy(cfg)
        assert model.speakers is not None
        assert model.speakers.table.grad is None or True  # smoke: completed
        assert len(history["main"]) == 30

    def test_condition_toggle_controls_flow_conditioning(self):
        on = tiny_config(speakers=2, speaker_shift=0.5, condition_speaker=True)
        off = tiny_config(speakers=2, speaker_shift=0.5, condition_speaker=False)
        m_on = build_model(on, Rng(1))
        m_off = build_model(off, Rng(1))
        assert m_on.flows.layers[0].wc is not None
        assert m_off.flows.layers[0].wc is None
        assert m_on.dur_gen.tower.wc is not None
        assert m_off.dur_gen.tower.wc is None


class TestTapeBudget:
    """Tape nodes per training step on the acceptance-7 model (the default
    sizes), counted per op. A change that adds nodes fails here with a diff."""

    # the embedding and its position add, four encoder_block nodes and the two
    # heads; per coupling layer a conditioner, its output and its log-det; the
    # flip between the layers, the log-det sum and the loss
    MAIN = {"add": 2, "affine_coupling": 2, "aligned_nll": 1, "coupling_conditioner": 2,
            "encoder_block": 4, "getitem": 1, "linear": 1, "scale_head": 1, "sum_rows": 2,
            "take_rows": 1}
    # five conv_tower runs (two generator, three critic), the three losses and
    # the generator's adversarial + mse sum
    DURATION = {"add": 1, "adv_loss_d": 1, "adv_loss_g": 1, "conv_tower": 5, "mse_loss": 1}

    def test_nodes_per_main_and_duration_step(self, monkeypatch):
        from alignflow import harness

        counts: dict[str, int] = {}
        phases: dict[str, dict[str, int]] = {}
        fused_parents, leaves = {}, []
        make, step, train_duration = nm._make, nm.AdamW.step, harness.train_duration

        def counting_make(data, parents, vjp, op):
            counts[op] = counts.get(op, 0) + 1
            if op in ("encoder_block", "coupling_conditioner", "affine_coupling"):
                fused_parents.setdefault(op, set()).add(len(parents))
            return make(data, parents, vjp, op)

        def first_step(opt):  # the first optimizer step ends main step 0
            if "main" not in phases:
                phases["main"] = dict(counts)
                leaves.extend(p.grad is not None for p in opt.params)
            return step(opt)

        def one_duration_step(*args, **kwargs):
            counts.clear()
            out = train_duration(*args, **kwargs)
            phases["duration"] = dict(counts)
            return out

        monkeypatch.setattr(nm, "_make", counting_make)
        monkeypatch.setattr(nm.AdamW, "step", first_step)
        monkeypatch.setattr(harness, "train_duration", one_duration_step)
        train_toy(TrainConfig(seed=7, steps_main=1, steps_duration=1, n_eval=0))
        assert phases == {"main": self.MAIN, "duration": self.DURATION}
        assert sum(self.MAIN.values()) == 17 and sum(self.DURATION.values()) == 9
        # an encoder block takes x, one stacked q/k/v leaf, wo and the net's four
        # leaves; a conditioner x, two convs and the flow's q/k/v and wo; a layer
        # output x and the conditioner's rows: 41 leaf cotangents, not 65
        assert fused_parents == {"encoder_block": {7}, "coupling_conditioner": {7},
                                 "affine_coupling": {2}}
        assert len(leaves) == 41 and all(leaves)

    def test_nodes_per_predict_durations_call(self, monkeypatch):
        """One eval-align utterance on the acceptance-7 model: the main step's
        forward without the loss node."""
        cfg = TrainConfig(seed=7)
        inst = generate_corpus(cfg.corpus_spec(), Rng(7).child(1)).eval[0]
        model = build_model(cfg, Rng(7).child(3))
        counts: dict[str, int] = {}
        make = nm._make

        def counting_make(data, parents, vjp, op):
            counts[op] = counts.get(op, 0) + 1
            return make(data, parents, vjp, op)

        monkeypatch.setattr(nm, "_make", counting_make)
        predict_durations(model, inst)
        assert counts == {op: n for op, n in self.MAIN.items() if op != "aligned_nll"}
        assert sum(counts.values()) == 16


class TestFiniteScans:
    """``np.isfinite`` scans per step on the acceptance-7 config. Guarded by
    floating-point flags (``nm.run_guarded``), a step scans only its leaves,
    and the search its grid; with the guard off (BLAS not at one thread) every
    op scans its output, as before the guard."""

    @staticmethod
    def _counting(monkeypatch, guard: bool) -> list:
        """Patch ``np.isfinite`` to count into the returned list, and keep the
        guard off unless ``guard``."""
        scans, isfinite = [], np.isfinite

        def counting(a, *args, **kwargs):
            scans.append(np.shape(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        if not guard:
            monkeypatch.setattr(nm, "blas_threads", lambda: 2)
        return scans

    @pytest.mark.parametrize("guard, main, duration", [(True, 3, 7), (False, 50, 24)])
    def test_scans_per_main_and_duration_step(self, monkeypatch, guard, main, duration):
        """A main step: the flat buffer, the frames and the grid. A duration
        step: the critic update's leaves (the two optimizers' buffers, the
        features, the targets and the noise), then the generator update's
        new ones (the critic's buffer, which ``opt_d.step`` wrote, and the
        new noise)."""
        from alignflow import harness

        step, train_duration, run_guarded = nm.AdamW.step, harness.train_duration, nm.run_guarded
        scans = self._counting(monkeypatch, guard)
        counts, started = {}, []

        def first_region(*args, **kwargs):  # main step 0 starts at its forward
            if not started:
                started.append(scans.clear())
            return run_guarded(*args, **kwargs)

        def first_step(opt):  # the first optimizer step ends main step 0
            counts.setdefault("main", len(scans))
            return step(opt)

        def one_duration_step(*args, **kwargs):
            scans.clear()
            out = train_duration(*args, **kwargs)
            counts["duration"] = len(scans)
            return out

        monkeypatch.setattr(nm, "run_guarded", first_region)
        monkeypatch.setattr(nm.AdamW, "step", first_step)
        monkeypatch.setattr(harness, "train_duration", one_duration_step)
        train_toy(TrainConfig(seed=7, steps_main=1, steps_duration=1, n_eval=0))
        assert counts == {"main": main, "duration": duration}

    def test_scans_per_predict_durations_call(self, monkeypatch, tmp_path):
        """On a trained, a freshly built or a loaded model (its main parameters
        share one buffer): the buffer, the frames and the grid; with the guard
        off every op scans."""
        cfg = TrainConfig(seed=7, steps_main=2, steps_duration=1, n_eval=1)
        inst = generate_corpus(cfg.corpus_spec(), Rng(7).child(1)).eval[0]
        _, trained = train_toy(cfg)
        fresh = build_model(cfg, Rng(7).child(3))
        save_model(tmp_path / "m.bin", fresh)
        loaded = load_model(tmp_path / "m.bin")
        counts = {}
        for guard in (True, False):
            with monkeypatch.context() as patch:
                scans = self._counting(patch, guard)
                for name, model in (("trained", trained), ("fresh", fresh), ("loaded", loaded)):
                    scans.clear()
                    predict_durations(model, inst)
                    counts[name, guard] = len(scans)
        assert counts == {("trained", True): 3, ("fresh", True): 3, ("loaded", True): 3,
                          ("trained", False): 48, ("fresh", False): 48, ("loaded", False): 48}

    def test_built_and_loaded_main_params_share_one_buffer(self, tmp_path):
        """Each model's main parameters view one buffer of their own, holding
        exactly their values; ``AdamW`` packs them into its own buffer and the
        model's is freed."""
        import gc
        import weakref

        cfg = tiny_config(speakers=2, speaker_shift=0.5)
        built = build_model(cfg, Rng(3))
        save_model(tmp_path / "m.bin", built)
        loaded = load_model(tmp_path / "m.bin")
        bases = []
        for model in (built, loaded):
            params = model.main_params()
            base = params[0].data.base
            assert all(p.data.base is base for p in params)
            assert base.size == sum(p.size for p in params)
            assert base.tobytes() == b"".join(p.data.tobytes() for p in params)
            assert all(p.data.base is not base
                       for p in model.dur_gen.params() + model.dur_disc.params())
            bases.append(base)
        assert bases[0] is not bases[1]
        assert bases[0].tobytes() == bases[1].tobytes()
        freed = weakref.ref(bases[1])
        del base, bases  # only the loaded model's parameters view its buffer now
        opt = nm.AdamW(loaded.main_params())
        gc.collect()
        assert freed() is None
        assert all(p.data.base is opt._flat for p in loaded.main_params())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_loaded_model_with_an_inf_parameter_raises_the_scanned_error(self, monkeypatch,
                                                                           tmp_path):
        cfg = tiny_config(steps_main=2, steps_duration=1)
        _, model = train_toy(cfg)
        save_model(tmp_path / "m.bin", model)
        loaded = load_model(tmp_path / "m.bin")
        loaded.flows.layers[1].conv1_w.data[0, 0, 0] = np.inf  # in place: the buffer holds it
        inst = generate_corpus(cfg.corpus_spec(), Rng(34)).train[0]
        want = "^coupling_conditioner produced a non-finite value$"
        with pytest.raises(nm.NumericError, match=want):
            predict_durations(loaded, inst)
        monkeypatch.setattr(nm, "blas_threads", lambda: 2)
        with pytest.raises(nm.NumericError, match=want):
            predict_durations(loaded, inst)

    def test_a_rebound_parameter_falls_back_to_the_scans(self, monkeypatch):
        """A parameter rebound to an array of its own leaves the buffer: every
        op scans, and the durations are the guarded run's."""
        cfg = TrainConfig(seed=7, steps_main=2, steps_duration=1, n_eval=1)
        inst = generate_corpus(cfg.corpus_spec(), Rng(7).child(1)).eval[0]
        model = build_model(cfg, Rng(7).child(3))
        scans = self._counting(monkeypatch, True)
        guarded = predict_durations(model, inst)
        assert len(scans) == 3
        p = model.encoder.blocks[2].wo
        p.data = p.data.copy()
        scans.clear()
        rebound = predict_durations(model, inst)
        assert len(scans) == 48
        assert rebound.tobytes() == guarded.tobytes()

    @staticmethod
    def _run(monkeypatch, guard: bool, cfg):
        """train_toy's (history, parameter bytes) or its ``NumericError``
        message, with the guard on or off."""
        with monkeypatch.context() as patch:
            if not guard:
                patch.setattr(nm, "blas_threads", lambda: 2)
            try:
                history, model = train_toy(cfg)
            except nm.NumericError as e:
                return str(e)
        return history, [p.data.tobytes() for p in model.params()]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("overrides", [
        {}, dict(speakers=2, speaker_shift=0.5),
        dict(lr=1e4),  # the main phase diverges
        dict(duration_lr=1e30), dict(duration_lr=1e3)])  # the duration phase diverges
    def test_training_is_the_same_guarded_or_scanned(self, monkeypatch, overrides):
        cfg = tiny_config(steps_main=12, steps_duration=30, n_train=3, n_eval=1, **overrides)
        guarded = self._run(monkeypatch, True, cfg)
        assert guarded == self._run(monkeypatch, False, cfg)
        if overrides.get("lr") or overrides.get("duration_lr", 0) > 1:
            assert "diverged at step" in guarded

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_grid_names_the_phase_and_the_step(self, monkeypatch):
        """Finite statistics whose log-likelihood grid overflows (lr = 1e30)
        end the main phase as a NumericError does, guarded or scanned."""
        cfg = TrainConfig(seed=3, n_train=4, hidden_width=16, ff_width=24, flow_hidden=8,
                          dur_hidden=8, lr=1e30)
        want = "main phase diverged at step 1: grid has non-finite entries"
        assert self._run(monkeypatch, True, cfg) == self._run(monkeypatch, False, cfg) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where, want", [
        ("param", "coupling_conditioner produced a non-finite value"),
        ("frames", "coupling_conditioner produced a non-finite q, k or v")])
    def test_a_non_finite_leaf_raises_the_scanned_error(self, monkeypatch, where, want):
        """A poisoned parameter of a trained model, or a poisoned frame, takes
        the scanned path: the same error as with the guard off."""
        cfg = tiny_config(steps_main=2, steps_duration=1)
        _, model = train_toy(cfg)
        inst = generate_corpus(cfg.corpus_spec(), Rng(34)).train[0]
        if where == "param":
            model.flows.layers[1].conv1_w.data[0, 0, 0] = np.inf
        else:
            inst.frames[0, 0] = np.nan
        with pytest.raises(nm.NumericError, match=f"^{want}$"):
            predict_durations(model, inst)
        monkeypatch.setattr(nm, "blas_threads", lambda: 2)
        with pytest.raises(nm.NumericError, match=f"^{want}$"):
            predict_durations(model, inst)


def long_instance(frames: int, seed: int = 0):
    """An utterance of ``frames`` frames at 4 frames per token (the last token
    takes the rest), on the default 2 channels."""
    from alignflow.corpus import Instance

    rng = Rng(seed)
    n = frames // 4
    durations = np.full(n, 4)
    durations[-1] += frames - 4 * n
    return Instance(tokens=rng.integers(0, 3, n), durations=durations,
                    frames=rng.normal((frames, 2)))


class TestTapeFreeInference:
    """The alignment-inference path records no tape, and its outputs equal the
    taped forward's bit for bit."""

    @pytest.mark.parametrize("overrides", [{}, dict(speakers=2, speaker_shift=0.5)])
    def test_predict_durations_equals_the_taped_forward(self, overrides):
        from alignflow import harness

        cfg = tiny_config(**overrides)
        corpus = generate_corpus(cfg.corpus_spec(), Rng(31))
        model = build_model(cfg, Rng(32))
        for inst in corpus.train + corpus.eval:
            h, mu, sigma, u, _, cond = harness._instance_forward(model, inst)
            assert mu._vjp is not None and u._vjp is not None  # recorded
            grid = harness.log_prob_grid(u.data.T, mu.data, sigma.data)
            want = harness.mas_search(grid, noise_scale=0.0)[0].durations
            h_free, got, cond_free = harness._encode_and_align(model, inst)
            assert h_free._parents == () and h_free._vjp is None
            assert h_free.data.tobytes() == h.data.tobytes()
            assert (cond_free is None) == (cond is None)
            if cond is not None:
                assert cond_free._vjp is None and cond_free.data.tobytes() == cond.data.tobytes()
            assert got.tobytes() == want.tobytes()
            assert predict_durations(model, inst).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_poisoned_parameter_still_raises(self):
        cfg = tiny_config()
        model = build_model(cfg, Rng(33))
        inst = generate_corpus(cfg.corpus_spec(), Rng(34)).train[0]
        model.flows.layers[1].conv1_w.data[0, 0, 0] = np.inf
        with pytest.raises(nm.NumericError):
            predict_durations(model, inst)

    @pytest.mark.parametrize("frames", [189, 300, 434])
    def test_peak_memory_below_two_attention_maps(self, frames):
        """tracemalloc's peak over one predict_durations stays below 2 x J^2 x 8
        bytes, J frames: about one J x J map at a time. Recording the tape
        and a four-temporary softmax held 5.9-8.3 maps at these sizes."""
        import tracemalloc

        model = build_model(TrainConfig(seed=1), Rng(35))
        inst = long_instance(frames)
        predict_durations(model, inst)  # warm: first-call set-up is not per utterance
        tracemalloc.start()
        try:
            predict_durations(model, inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * frames * frames * 8, peak / (frames * frames * 8)
