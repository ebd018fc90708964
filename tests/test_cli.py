import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from alignflow import harness
from alignflow.cli import main
from alignflow.harness import (
    TrainConfig,
    build_model,
    duration_targets,
    save_config,
    save_duration_corpus,
    save_model,
)
from alignflow.corpus import CorpusSpec, generate_corpus, save_corpus
from alignflow.duration import DurationDiscriminator, DurationGenerator, train_duration
from alignflow.numerics import AdamWConfig, Rng


@pytest.fixture
def grid_csv(tmp_path):
    rng = Rng(1)
    path = tmp_path / "grid.csv"
    P = rng.normal((3, 6))
    np.savetxt(path, P, delimiter=",")
    return path


@pytest.fixture
def run_config(tmp_path):
    cfg = TrainConfig(seed=3, steps_main=25, steps_duration=8, eval_every=25,
                      n_train=5, n_eval=2, hidden_width=16, ff_width=24,
                      dur_hidden=8, flow_hidden=8)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    return path


def invoke(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestMas:
    def test_durations_and_best_q_on_stdout(self, capsys, grid_csv):
        code, out = invoke(capsys, "mas", "--grid", grid_csv)
        assert code == 0
        lines = out.strip().split("\n")
        durations = [int(x) for x in lines[0].split(",")]
        assert len(durations) == 3 and sum(durations) == 6
        assert lines[1].startswith("best_Q=")

    def test_repeat_is_bit_identical(self, capsys, grid_csv):
        _, out1 = invoke(capsys, "mas", "--grid", grid_csv, "--noise-scale", "0.5",
                         "--seed", "11")
        _, out2 = invoke(capsys, "mas", "--grid", grid_csv, "--noise-scale", "0.5",
                         "--seed", "11")
        assert out1 == out2

    def test_single_row_grid(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("0.1,0.5,-0.2\n")
        code, out = invoke(capsys, "mas", "--grid", path)
        assert out.split("\n")[0] == "3"


class TestTrainToy:
    def test_writes_all_outputs(self, capsys, run_config, tmp_path):
        out_dir = tmp_path / "run"
        code, out = invoke(capsys, "train-toy", "--config", run_config,
                           "--out", out_dir, "--seed", "3")
        assert code == 0
        for name in ("config.txt", "corpus.json", "main_metrics.csv",
                     "duration_metrics.csv", "duration_corpus.csv", "checkpoint.bin"):
            assert (out_dir / name).exists(), name

    def test_determinism_across_invocations(self, capsys, run_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _, out1 = invoke(capsys, "train-toy", "--config", run_config, "--out", a,
                         "--seed", "9")
        _, out2 = invoke(capsys, "train-toy", "--config", run_config, "--out", b,
                         "--seed", "9")
        for name in ("main_metrics.csv", "duration_metrics.csv", "checkpoint.bin",
                     "corpus.json", "duration_corpus.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert out1.replace(str(a), "") == out2.replace(str(b), "")

    def test_seed_flag_overrides_config(self, capsys, run_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke(capsys, "train-toy", "--config", run_config, "--out", a, "--seed", "1")
        invoke(capsys, "train-toy", "--config", run_config, "--out", b, "--seed", "2")
        assert (a / "corpus.json").read_bytes() != (b / "corpus.json").read_bytes()

    def test_no_held_out_set_reports_no_eval(self, capsys, tmp_path):
        cfg = TrainConfig(seed=3, steps_main=6, steps_duration=2, eval_every=3,
                          n_train=4, n_eval=0, hidden_width=16, ff_width=24,
                          dur_hidden=8, flow_hidden=8)
        save_config(cfg, tmp_path / "run.cfg")
        code, out = invoke(capsys, "train-toy", "--config", tmp_path / "run.cfg",
                           "--out", tmp_path / "run", "--seed", "3")
        assert code == 0
        assert "final eval" not in out
        rows = (tmp_path / "run" / "main_metrics.csv").read_text().splitlines()
        assert rows[0].endswith(",eval_exact,eval_mae") and len(rows) == 7
        assert all(row.endswith(",,") for row in rows[1:])


class TestTrainDuration:
    @pytest.fixture
    def duration_corpus(self, tmp_path):
        cfg = TrainConfig(n_train=4, hidden_width=16, ff_width=24, flow_hidden=8)
        corpus = generate_corpus(cfg.corpus_spec(), Rng(2))
        model = build_model(cfg, Rng(3))
        path = tmp_path / "durations.csv"
        save_duration_corpus(path, duration_targets(model, corpus.train))
        return path

    def test_writes_loss_csv(self, capsys, duration_corpus, tmp_path):
        out = tmp_path / "losses.csv"
        code, _ = invoke(capsys, "train-duration", "--corpus", duration_corpus,
                         "--steps", "12", "--seed", "4", "--out", out)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,loss_d,loss_g_adv,loss_g_mse"
        assert len(lines) == 13

    def test_determinism(self, capsys, duration_corpus, tmp_path):
        o1, o2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        invoke(capsys, "train-duration", "--corpus", duration_corpus, "--steps", "10",
               "--seed", "6", "--out", o1)
        invoke(capsys, "train-duration", "--corpus", duration_corpus, "--steps", "10",
               "--seed", "6", "--out", o2)
        assert o1.read_bytes() == o2.read_bytes()

    def test_conditioned_corpus_trains_a_conditioned_generator(self, capsys, tmp_path):
        cfg = TrainConfig(n_train=4, hidden_width=16, ff_width=24, flow_hidden=8,
                          speakers=3, speaker_shift=0.5)
        targets = duration_targets(build_model(cfg, Rng(3)),
                                   generate_corpus(cfg.corpus_spec(), Rng(2)).train)
        path, out = tmp_path / "durations.csv", tmp_path / "losses.csv"
        save_duration_corpus(path, targets)
        code, _ = invoke(capsys, "train-duration", "--corpus", path, "--steps", "6",
                         "--seed", "4", "--out", out, "--hidden", "8")
        assert code == 0
        root = Rng(4)
        gen = DurationGenerator(h_dim=16, z_dim=TrainConfig.z_dim, hidden=8, rng=root.child(0),
                                cond_dim=16)
        disc = DurationDiscriminator(h_dim=16, hidden=8, rng=root.child(1))
        history = train_duration(gen, disc, targets, 6,
                                 opt_cfg=AdamWConfig(lr=TrainConfig.duration_lr),
                                 rng=root.child(2))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [[float(c) for c in row[1:]] for row in rows] == [
            [r["loss_d"], r["loss_g_adv"], r["loss_g_mse"]] for r in history]


class TestEvalAlign:
    def test_reports_rates(self, capsys, run_config, tmp_path):
        out_dir = tmp_path / "run"
        invoke(capsys, "train-toy", "--config", run_config, "--out", out_dir,
               "--seed", "3")
        code, out = invoke(capsys, "eval-align", "--ckpt", out_dir / "checkpoint.bin",
                           "--corpus", out_dir / "corpus.json")
        assert code == 0
        assert out.startswith("exact_match=")
        assert "mae=" in out

    def test_empty_split_exits_2_naming_the_corpus_and_split(self, capsys, tmp_path):
        cfg = TrainConfig(seed=3, steps_main=2, steps_duration=2, eval_every=2,
                          n_train=3, n_eval=0, hidden_width=16, ff_width=24,
                          dur_hidden=8, flow_hidden=8)
        save_config(cfg, tmp_path / "run.cfg")
        run = tmp_path / "run"
        invoke(capsys, "train-toy", "--config", tmp_path / "run.cfg", "--out", run,
               "--seed", "3")
        corpus = run / "corpus.json"
        code = main(["eval-align", "--ckpt", str(run / "checkpoint.bin"), "--corpus",
                     str(corpus), "--split", "eval"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"alignflow eval-align: {corpus}: split 'eval' has no utterances\n"
        code, out = invoke(capsys, "eval-align", "--ckpt", run / "checkpoint.bin",
                           "--corpus", corpus, "--split", "train")
        assert code == 0 and out.startswith("exact_match=")


class TestCheckGrad:
    def test_single_seed_passes(self, capsys):
        code, out = invoke(capsys, "check-grad", "--seed", "0", "--seeds", "1")
        assert code == 0
        assert "FAIL" not in out
        assert "coupling.input" in out


class TestDumpAttention:
    def test_writes_csv_and_pgm(self, capsys, run_config, tmp_path):
        out_dir = tmp_path / "run"
        invoke(capsys, "train-toy", "--config", run_config, "--out", out_dir,
               "--seed", "3")
        frames = tmp_path / "frames.csv"
        rng = Rng(5)
        np.savetxt(frames, rng.normal((2, 7)), delimiter=",")
        maps_dir = tmp_path / "maps"
        code, _ = invoke(capsys, "dump-attention", "--ckpt", out_dir / "checkpoint.bin",
                         "--input", frames, "--out", maps_dir)
        assert code == 0
        for li in range(2):
            csv = maps_dir / f"attention_layer{li}.csv"
            pgm = maps_dir / f"attention_layer{li}.pgm"
            assert csv.exists() and pgm.exists()
            rows = np.loadtxt(csv, delimiter=",").reshape(7, 7)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
            header = pgm.read_bytes()[:15]
            assert header.startswith(b"P5\n7 7\n255\n")

    def test_determinism(self, capsys, run_config, tmp_path):
        out_dir = tmp_path / "run"
        invoke(capsys, "train-toy", "--config", run_config, "--out", out_dir,
               "--seed", "3")
        frames = tmp_path / "frames.csv"
        np.savetxt(frames, Rng(5).normal((2, 5)), delimiter=",")
        d1, d2 = tmp_path / "m1", tmp_path / "m2"
        invoke(capsys, "dump-attention", "--ckpt", out_dir / "checkpoint.bin",
               "--input", frames, "--out", d1)
        invoke(capsys, "dump-attention", "--ckpt", out_dir / "checkpoint.bin",
               "--input", frames, "--out", d2)
        for li in range(2):
            for suffix in ("csv", "pgm"):
                name = f"attention_layer{li}.{suffix}"
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestLoaderErrors:
    """A bad input file ends the command with one line on stderr and exit code 2."""

    def invoke_err(self, capsys, *argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err

    def test_missing_checkpoint(self, capsys, tmp_path):
        code, err = self.invoke_err(capsys, "eval-align", "--ckpt", tmp_path / "missing.bin",
                                    "--corpus", tmp_path / "corpus.json")
        assert code == 2
        assert err.startswith("alignflow eval-align: ") and "missing.bin" in err
        assert err.count("\n") == 1

    def test_header_only_duration_corpus(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("instance,position,log_duration,h0,h1\n")
        code, err = self.invoke_err(capsys, "train-duration", "--corpus", path, "--steps", "2",
                                    "--seed", "0", "--out", tmp_path / "l.csv")
        assert code == 2
        assert err.startswith("alignflow train-duration: ") and "empty.csv" in err
        assert err.count("\n") == 1

    def test_config_without_speaker_block(self, capsys, tmp_path):
        path = tmp_path / "two.cfg"
        path.write_text("n_blocks = 2\n")
        code, err = self.invoke_err(capsys, "train-toy", "--config", path,
                                    "--out", tmp_path / "run", "--seed", "0")
        assert code == 2
        assert err.startswith("alignflow train-toy: ") and "n_blocks" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_config_with_zero_hidden_width(self, capsys, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text("hidden_width = 0\nsteps_main = 3\nsteps_duration = 2\n")
        code, err = self.invoke_err(capsys, "train-toy", "--config", path,
                                    "--out", tmp_path / "run", "--seed", "0")
        assert code == 2
        assert err == f"alignflow train-toy: {path}: hidden_width must be >= 1, got 0\n"
        assert not (tmp_path / "run").exists()

    def test_config_that_cannot_build_a_model_names_the_file(self, capsys, tmp_path):
        # passes validate(), but numpy refuses the embedding's size before allocating
        path = tmp_path / "huge.cfg"
        path.write_text("hidden_width = 1152921504606846976\nn_heads = 1\n")
        code, err = self.invoke_err(capsys, "train-toy", "--config", path,
                                    "--out", tmp_path / "run", "--seed", "0")
        assert code == 2
        assert err.startswith(f"alignflow train-toy: {path}: config does not build a model: ")
        assert "array is too big" in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("col, value, message", [
        (0, "x", ":2: instance 'x' is not an integer"),
        (1, "0.5", ":2: position '0.5' is not an integer"),
        (3, "one", ":2: h0 'one' is not a number"),
        (4, "nan", ":2: h1 'nan' is not finite"),
    ])
    def test_bad_duration_corpus_cell(self, capsys, tmp_path, col, value, message):
        cells = ["0", "0", "0.5", "0.1", "0.2"]
        cells[col] = value
        path = tmp_path / "dur.csv"
        path.write_text("instance,position,log_duration,h0,h1\n" + ",".join(cells) + "\n")
        code, err = self.invoke_err(capsys, "train-duration", "--corpus", path, "--steps", "2",
                                    "--seed", "0", "--out", tmp_path / "l.csv")
        assert code == 2
        assert err == f"alignflow train-duration: {path}{message}\n"
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("header, names", [
        ("instance,position,log_duration,x,y", "['x', 'y']"),
        ("instance,position,log_duration", "[]"),
    ])
    def test_bad_duration_corpus_header(self, capsys, tmp_path, header, names):
        path = tmp_path / "dur.csv"
        path.write_text(header + "\n0,0,0.5,0.1,0.2\n")
        code, err = self.invoke_err(capsys, "train-duration", "--corpus", path, "--steps", "2",
                                    "--seed", "0", "--out", tmp_path / "l.csv")
        assert code == 2
        assert err == (f"alignflow train-duration: {path}: the feature columns must be "
                       f"h0..h{{H-1}} with H >= 1, got {names}\n")
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("", ": grid has no rows"),
        ("1,2,3\n4,5\n", ":2: grid row 1 has 2 cells, row 0 has 3"),
        ("1,2\n3,x\n", ":2: grid row 1, column 1: 'x' is not a number"),
        ("1,nan\n", ":1: grid row 0, column 1: 'nan' is not finite"),
    ])
    def test_bad_mas_grid(self, capsys, tmp_path, text, message):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.invoke_err(capsys, "mas", "--grid", path)
        assert code == 2
        assert err == f"alignflow mas: {path}{message}\n"

    @pytest.mark.parametrize("noise", [[], ["--noise-scale", "0.5"]])
    def test_overflowing_mas_grid(self, capsys, tmp_path, noise):
        path = tmp_path / "grid.csv"
        path.write_text("1e308,-1e308,1e308\n-1e308,1e308,-1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.invoke_err(capsys, "mas", "--grid", path, *noise)
        best_q = "nan" if noise else "inf"
        assert code == 2
        assert err == f"alignflow mas: alignment search overflowed: best_Q = {best_q}\n"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-0.5"])
    def test_noise_scale_out_of_range(self, capsys, grid_csv, value):
        code, err = self.invoke_err(capsys, "mas", "--grid", grid_csv, "--noise-scale", value)
        assert code == 2
        assert err == ("alignflow mas: --noise-scale must be finite and >= 0, "
                       f"got {float(value)!r}\n")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_train_duration_lr_out_of_range(self, capsys, tmp_path, value):
        path = tmp_path / "dur.csv"
        path.write_text("instance,position,log_duration,h0\n0,0,0.5,0.1\n")
        code, err = self.invoke_err(capsys, "train-duration", "--corpus", path, "--steps", "2",
                                    "--seed", "0", "--out", tmp_path / "l.csv", "--lr", value)
        assert code == 2
        assert err == (f"alignflow train-duration: --lr must be finite and > 0, "
                       f"got {float(value)!r}\n")
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train-duration", "--hidden", "0", "--hidden must be >= 1, got 0"),
        ("train-duration", "--z-dim", "-1", "--z-dim must be >= 0, got -1"),
        ("train-duration", "--steps", "0", "--steps must be >= 1, got 0"),
        ("train-duration", "--seed", "-1", "--seed must be >= 0, got -1"),
        ("train-toy", "--seed", "-1", "--seed must be >= 0, got -1"),
        ("mas", "--seed", "-1", "--seed must be >= 0, got -1"),
        ("check-grad", "--seeds", "0", "--seeds must be >= 1, got 0"),
        ("check-grad", "--tolerance", "nan", "--tolerance must be finite and >= 0, got nan"),
    ])
    def test_flag_out_of_range(self, capsys, tmp_path, command, flag, value, message):
        corpus, config, grid, out = (tmp_path / name
                                     for name in ("dur.csv", "run.cfg", "grid.csv", "out"))
        corpus.write_text("instance,position,log_duration,h0\n0,0,0.5,0.1\n")
        config.write_text("steps_main = 2\nsteps_duration = 1\n")
        grid.write_text("1,2\n3,4\n")
        argv = {"train-duration": ["--corpus", corpus, "--steps", "2", "--seed", "0",
                                   "--out", out],
                "train-toy": ["--config", config, "--seed", "0", "--out", out],
                "mas": ["--grid", grid, "--noise-scale", "0.5"],
                "check-grad": ["--seeds", "1"]}[command]
        code, err = self.invoke_err(capsys, command, *argv, flag, value)
        assert code == 2
        assert err == f"alignflow {command}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("z_dim = -1\n", "z_dim must be >= 0, got -1"),
        ("speakers = 2\nspeaker_dim = 0\n", "speaker_dim must be >= 1, got 0"),
    ])
    def test_train_toy_setting_out_of_range(self, capsys, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text("steps_main = 2\nsteps_duration = 1\n" + text)
        code, err = self.invoke_err(capsys, "train-toy", "--config", path,
                                    "--out", tmp_path / "run", "--seed", "0")
        assert code == 2
        assert err == f"alignflow train-toy: {path}: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.fixture
    def speaker_ckpt(self, tmp_path):
        cfg = TrainConfig(seed=4, speakers=3, hidden_width=16, ff_width=24,
                          dur_hidden=8, flow_hidden=8)
        path = tmp_path / "spk.bin"
        save_model(path, build_model(cfg, Rng(cfg.seed).child(3)))
        return path

    @pytest.mark.parametrize("command, flag, text", [
        pytest.param("mas", "--grid", b"0.5,-1\n2,\xff4\n", id="mas"),
        pytest.param("train-toy", "--config", b"seed = 1\n# caf\xe9\n", id="train-toy"),
        pytest.param("train-duration", "--corpus",
                     b"instance,position,log_duration,h0\n0,0,0.5,\x80\n", id="train-duration"),
        pytest.param("eval-align", "--corpus", b'{"spec": "\xc0\xaf"}', id="eval-align"),
        pytest.param("dump-attention", "--input", b"0.3,-1.2\n\xfe1.1,0.2\n",
                     id="dump-attention"),
    ])
    def test_non_utf8_input_is_one_line_naming_the_file(self, capsys, tmp_path, speaker_ckpt,
                                                        command, flag, text):
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        out = tmp_path / "out"
        rest = {"mas": [], "train-toy": ["--out", out, "--seed", "0"],
                "train-duration": ["--steps", "2", "--seed", "0", "--out", out],
                "eval-align": ["--ckpt", speaker_ckpt],
                "dump-attention": ["--ckpt", speaker_ckpt, "--out", out]}[command]
        code, err = self.invoke_err(capsys, command, flag, path, *rest)
        assert code == 2
        assert err.startswith(f"alignflow {command}: {path}: not UTF-8 text (")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_dump_attention_channel_mismatch(self, capsys, tmp_path, speaker_ckpt):
        frames = tmp_path / "frames.csv"
        np.savetxt(frames, Rng(5).normal((3, 6)), delimiter=",")
        code, err = self.invoke_err(capsys, "dump-attention", "--ckpt", speaker_ckpt,
                                    "--input", frames, "--out", tmp_path / "maps")
        assert code == 2
        assert err.startswith("alignflow dump-attention: ") and "frames.csv" in err
        assert "3 rows" in err and "2 channels" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("text, message", [
        ("0.3,-1.2\n1.1,nan\n", ":2: input row 1, column 1: 'nan' is not finite"),
        ("0.3,-1.2\n1.1\n", ":2: input row 1 has 1 cells, row 0 has 2"),
        ("# no rows\n", ": input has no rows"),
        ("0.3\n-1.2\n1.1\n", ": input has 3 rows but the flow stack expects 2 channels"),
    ])
    def test_dump_attention_bad_input(self, capsys, tmp_path, speaker_ckpt, text, message):
        frames = tmp_path / "frames.csv"
        frames.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.invoke_err(capsys, "dump-attention", "--ckpt", speaker_ckpt,
                                        "--input", frames, "--out", tmp_path / "maps")
        assert code == 2
        assert err == f"alignflow dump-attention: {frames}{message}\n"
        assert not (tmp_path / "maps").exists()

    def test_dump_attention_one_column_input_is_one_frame(self, capsys, tmp_path,
                                                          speaker_ckpt):
        frames = tmp_path / "frames.csv"
        frames.write_text("0.3\n-1.2\n")
        code = main(["dump-attention", "--ckpt", str(speaker_ckpt), "--input", str(frames),
                     "--out", str(tmp_path / "maps")])
        assert code == 0, capsys.readouterr().err
        # 2 channels x 1 frame: each layer's map is 1 x 1, one row of one cell
        rows = (tmp_path / "maps" / "attention_layer0.csv").read_text().splitlines()
        assert len(rows) == 1 and float(rows[0]) == 1.0

    @pytest.mark.parametrize("speaker", ["3", "-1"])
    def test_dump_attention_speaker_out_of_range(self, capsys, tmp_path, speaker_ckpt,
                                                 speaker):
        frames = tmp_path / "frames.csv"
        np.savetxt(frames, Rng(5).normal((2, 6)), delimiter=",")
        code, err = self.invoke_err(capsys, "dump-attention", "--ckpt", speaker_ckpt,
                                    "--input", frames, "--out", tmp_path / "maps",
                                    "--speaker", speaker)
        assert code == 2
        assert err == f"alignflow dump-attention: --speaker {speaker} is outside [0, 3)\n"
        assert not (tmp_path / "maps").exists()

    def test_dump_attention_non_finite_score(self, capsys, tmp_path, speaker_ckpt):
        # finite frames whose attention scores overflow: the NumericError ends
        # the command with one line, like a bad input file, and numpy warns of
        # nothing on the way
        frames = tmp_path / "frames.csv"
        frames.write_text("1e200,0.5,-0.3\n0.2,0.1,0.4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = self.invoke_err(capsys, "dump-attention", "--ckpt", speaker_ckpt,
                                        "--input", frames, "--out", tmp_path / "maps")
        assert code == 2
        assert err == "alignflow dump-attention: attention produced a non-finite score\n"

    def test_non_finite_score_writes_one_stderr_line_in_a_fresh_process(self, tmp_path,
                                                                         speaker_ckpt):
        # a fresh interpreter prints numpy's warnings by default, with their
        # source line, so this sees what a user at a terminal sees
        frames = tmp_path / "frames.csv"
        frames.write_text("1e200,0.5,-0.3\n0.2,0.1,0.4\n")
        proc = subprocess.run(
            [sys.executable, "-m", "alignflow.cli", "dump-attention", "--ckpt",
             str(speaker_ckpt), "--input", str(frames), "--out", str(tmp_path / "maps")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "alignflow dump-attention: attention produced a non-finite score\n"


    @pytest.mark.parametrize("spec, field", [
        (dict(vocab=4), "spec.vocab is 4"),
        (dict(channels=4), "spec.channels is 4"),
        (dict(speakers=2), "spec.speakers is 2"),
    ])
    def test_eval_align_corpus_checkpoint_mismatch(self, capsys, tmp_path, speaker_ckpt,
                                                   spec, field):
        path = tmp_path / "corpus.json"
        save_corpus(generate_corpus(CorpusSpec(**{"speakers": 3, **spec}), Rng(6)), path)
        code, err = self.invoke_err(capsys, "eval-align", "--ckpt", speaker_ckpt,
                                    "--corpus", path)
        assert code == 2
        assert err.startswith(f"alignflow eval-align: {path}: {field} but ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value, message", [
        ("cfg.steps_main", np.inf, "cfg.steps_main = inf is not an integer"),
        ("cfg.steps_main", np.nan, "cfg.steps_main = nan is not an integer"),
        ("cfg.key_dim", 2.5, "cfg.key_dim = 2.5 is not an integer"),
        ("cfg.condition_speaker", 0.25, "cfg.condition_speaker = 0.25 is not a bool (0 or 1)"),
        ("cfg.channels", 3.0, "cfg entries are not a valid config: channels must be even "
                              "for the coupling split"),
        ("cfg.seed", -1.0, "cfg entries are not a valid config: seed must be >= 0, got -1"),
        ("cfg.lr", np.nan, "cfg entries are not a valid config: lr must be finite and > 0, "
                           "got nan"),
        ("cfg.beta1", 5.0, "cfg entries are not a valid config: beta1 must be in [0, 1), "
                           "got 5.0"),
        ("cfg.obs_noise", np.nan, "cfg entries are not a valid config: obs_noise must be "
                                  "finite and >= 0, got nan"),
        ("cfg.hidden_width", 2.0**60, "cfg entries do not build a model: array is too big; "
                                      "`arr.size * arr.dtype.itemsize` is larger than the "
                                      "maximum possible size."),
    ])
    @pytest.mark.parametrize("command", ["dump-attention", "eval-align"])
    def test_bad_config_entry_in_checkpoint(self, capsys, tmp_path, speaker_ckpt, key, value,
                                            message, command):
        from alignflow.checkpoint import load_checkpoint, save_checkpoint

        entries = load_checkpoint(speaker_ckpt)
        entries[key] = np.float64(value)
        save_checkpoint(speaker_ckpt, entries)
        frames = tmp_path / "frames.csv"
        np.savetxt(frames, Rng(5).normal((2, 6)), delimiter=",")
        args = (["--input", frames, "--out", tmp_path / "maps"] if command == "dump-attention"
                else ["--corpus", tmp_path / "corpus.json"])
        code, err = self.invoke_err(capsys, command, "--ckpt", speaker_ckpt, *args)
        assert code == 2
        assert err == f"alignflow {command}: {speaker_ckpt}: {message}\n"

    @pytest.mark.parametrize("command", ["train-toy", "eval-align", "dump-attention"])
    def test_model_too_large_to_allocate(self, capsys, tmp_path, monkeypatch, speaker_ckpt,
                                         command):
        # numpy's "Unable to allocate" error is a MemoryError; the real allocation is never
        # attempted, since under memory overcommit it could succeed and then be written
        def build_model(config, rng):
            raise MemoryError("Unable to allocate 48.0 TiB")

        monkeypatch.setattr(harness, "build_model", build_model)
        if command == "train-toy":
            path, reason = tmp_path / "run.cfg", "config does not build a model"
            path.write_text("steps_main = 1\n")
            args = ["--config", path, "--out", tmp_path / "run", "--seed", "0"]
        else:
            path, reason = speaker_ckpt, "cfg entries do not build a model"
            args = ["--ckpt", path, *(["--corpus", tmp_path / "corpus.json"]
                                      if command == "eval-align" else
                                      ["--input", tmp_path / "f.csv", "--out", tmp_path / "maps"])]
        code, err = self.invoke_err(capsys, command, *args)
        assert code == 2
        assert err == f"alignflow {command}: {path}: {reason}: Unable to allocate 48.0 TiB\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "maps").exists()

    def test_infinite_config_entry_one_line_in_a_fresh_process(self, tmp_path, speaker_ckpt):
        from alignflow.checkpoint import load_checkpoint, save_checkpoint

        entries = load_checkpoint(speaker_ckpt)
        entries["cfg.steps_main"] = np.float64(np.inf)
        save_checkpoint(speaker_ckpt, entries)
        frames = tmp_path / "frames.csv"
        np.savetxt(frames, Rng(5).normal((2, 6)), delimiter=",")
        proc = subprocess.run(
            [sys.executable, "-m", "alignflow.cli", "dump-attention", "--ckpt",
             str(speaker_ckpt), "--input", str(frames), "--out", str(tmp_path / "maps")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == (f"alignflow dump-attention: {speaker_ckpt}: "
                               f"cfg.steps_main = inf is not an integer\n")

    def test_eval_align_token_outside_vocab(self, capsys, tmp_path, speaker_ckpt):
        path = tmp_path / "corpus.json"
        save_corpus(generate_corpus(CorpusSpec(speakers=3), Rng(6)), path)
        payload = json.loads(path.read_text())
        payload["eval"][0]["tokens"][0] = 3
        path.write_text(json.dumps(payload))
        code, err = self.invoke_err(capsys, "eval-align", "--ckpt", speaker_ckpt,
                                    "--corpus", path)
        assert code == 2
        assert err == f"alignflow eval-align: {path}: eval[0].tokens: id 3 outside [0, 3)\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        rng = Rng(1)
        path = tmp_path / "grid.csv"
        np.savetxt(path, rng.normal((2, 4)), delimiter=",")
        proc = subprocess.run(
            [sys.executable, "-m", "alignflow.cli", "mas", "--grid", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "best_Q=" in proc.stdout
