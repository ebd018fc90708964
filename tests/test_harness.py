import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from alignflow import gradcheck
from alignflow import numerics as nm
from alignflow.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from alignflow.corpus import (
    CorpusError,
    CorpusSpec,
    generate_corpus,
    load_corpus,
    save_corpus,
    token_prototypes,
)
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
                          seq_max=2, noise=0.0, duration_laws=[(2, 2), (3, 3)])
        corpus = generate_corpus(spec, Rng(1))
        for inst in corpus.train:
            assert inst.durations.sum() == inst.frames.shape[0]
            j = 0
            for tok, dur in zip(inst.tokens, inst.durations):
                assert dur == (2 if tok == 0 else 3)
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
        with pytest.raises(ValueError):
            generate_corpus(CorpusSpec(duration_laws=[(0, 2)] * 3), Rng(0))

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
        (_edit(["spec", "duration_laws"], [[1, 2]]), "spec.duration_laws"),
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
        with pytest.raises(ConfigError, match="step counts"):
            load_config(path)

    @pytest.mark.parametrize("line, key", [("n_blocks = 2", "n_blocks"),
                                           ("n_heads = 3", "n_heads")])
    def test_unbuildable_encoder_rejected_at_load(self, tmp_path, line, key):
        path = tmp_path / "enc.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("key", ["hidden_width", "ff_width", "flow_hidden", "dur_hidden",
                                     "key_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_model_sizes_rejected_at_load(self, tmp_path, key, value):
        path = tmp_path / "size.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got {value}$"):
            load_config(path)

    def test_optimizer_defaults_come_from_adamw_config(self):
        assert TrainConfig().optimizer() == AdamWConfig()
        cfg = TrainConfig(lr=1e-3, beta2=0.9)
        assert cfg.optimizer(lr=0.01) == AdamWConfig(lr=0.01, beta2=0.9)


def tiny_config(**kw):
    args = dict(seed=5, steps_main=40, steps_duration=10, eval_every=20,
                n_train=6, n_eval=3, hidden_width=16, ff_width=24,
                dur_hidden=8, flow_hidden=8)
    args.update(kw)
    return TrainConfig(**args)


class TestTrainToy:
    def test_zero_steps_leaves_params_untouched(self):
        cfg = tiny_config(steps_main=0, steps_duration=0)
        history, model = train_toy(cfg)
        assert history["main"] == [] and history["duration"] == []
        fresh = build_model(cfg, Rng(cfg.seed).child(3))
        for (na, a), (nb, b) in zip(model.named_params(), fresh.named_params()):
            assert na == nb
            npt.assert_array_equal(a.data, b.data)

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
        name_of = {id(t): n for n, t in named}
        assert len(name_of) == len(named)
        main = [name_of[id(p)] for p in model.main_params()]
        assert main == [n for n in expected if n.startswith(("enc.", "flow.", "spk."))]


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
        assert all(layer.attn_gain == 0.0 for layer in model.flows.layers)
        rng = Rng(99)
        x = Tensor(rng.normal((cfg.channels, 6)))
        y1, ld1 = model.flows.forward(x)
        for layer in model.flows.layers:
            for p in (layer.wq, layer.wk, layer.wv, layer.wo):
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

    MAIN = {"add": 9, "add_layer_norm": 8, "attention": 6, "clamp": 3, "concat": 2,
            "conv1d": 4, "div": 1, "exp": 3, "getitem": 9, "linear": 10, "log": 1,
            "matmul": 6, "mul": 8, "relu": 6, "sub": 2, "sum": 3, "take_rows": 3,
            "transpose": 5}
    DURATION = {"add": 2, "concat": 5, "conv1d": 15, "getitem": 5, "mul": 4, "pow": 3,
                "relu": 10, "reshape": 3, "sub": 3, "sum": 3, "transpose": 5}

    def test_nodes_per_main_and_duration_step(self, monkeypatch):
        from alignflow import harness

        counts: dict[str, int] = {}
        phases: dict[str, dict[str, int]] = {}
        make, step, train_duration = nm._make, nm.AdamW.step, harness.train_duration

        def counting_make(data, parents, vjp, op):
            counts[op] = counts.get(op, 0) + 1
            return make(data, parents, vjp, op)

        def first_step(opt):  # the first optimizer step ends main step 0
            phases.setdefault("main", dict(counts))
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
        assert sum(self.MAIN.values()) == 89 and sum(self.DURATION.values()) == 58


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
            h, mu, sigma, u, _, _ = harness._instance_forward(model, inst)
            assert mu._vjp is not None and u._vjp is not None  # recorded
            grid = harness.log_prob_grid(u.data.T, mu.data, sigma.data)
            want = harness.mas_search(grid, noise_scale=0.0)[0].durations
            h_free, got = harness._encode_and_align(model, inst)
            assert h_free._parents == () and h_free._vjp is None
            assert h_free.data.tobytes() == h.data.tobytes()
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
