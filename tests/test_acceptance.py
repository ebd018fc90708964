"""Acceptance suite: the nine exit criteria, one test each.

Each test prints one `ACCEPTANCE n <name>: PASS/FAIL` line (visible with
`pytest -s` or in captured output). Tolerances are pinned here and nowhere
else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt

from alignflow import gradcheck
from alignflow import numerics as nm
from alignflow.alignment import (
    alignment_score,
    brute_force_align,
    log_prob_grid,
    mas_search,
    noise_scale_at,
)
from alignflow.cli import main as cli_main
from alignflow.duration import (
    DurationBatch,
    DurationDiscriminator,
    DurationGenerator,
    adv_loss_d,
    mse_loss,
    train_duration,
)
from alignflow.flows import CouplingLayer, FlowStack
from alignflow.harness import TrainConfig, eval_alignment, save_config, train_toy
from alignflow.corpus import generate_corpus
from alignflow.numerics import AdamWConfig, Rng, Tensor


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_1_mas_oracle_equivalence():
    with criterion(1, "MAS oracle equivalence"):
        rng = Rng(1001)
        start = time.monotonic()
        for _ in range(200):
            i = rng.integers(1, 7)
            j = rng.integers(i, 11)
            c = rng.integers(1, 4)
            z = rng.normal((j, c))
            mu = rng.normal((i, c))
            sigma = np.exp(rng.normal((i, c)) * 0.3)
            grid = log_prob_grid(z, mu, sigma)
            a_dp, _ = mas_search(grid, noise_scale=0.0)
            a_bf, _ = brute_force_align(grid)
            s_dp = alignment_score(grid, a_dp)
            s_bf = alignment_score(grid, a_bf)
            assert s_dp == s_bf or abs(s_dp - s_bf) <= 1e-10
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_2_noise_schedule_exactness():
    with criterion(2, "noise schedule exactness"):
        for s in (0, 1, 999, 1000, 4999, 5000, 10**6):
            assert noise_scale_at(s) == max(0.0, 0.01 - 2e-6 * s)
        assert noise_scale_at(0) == 0.01
        assert noise_scale_at(5000) == 0.0


def test_3_gradient_oracle():
    with criterion(3, "gradient oracle over ops and modules"):
        start = time.monotonic()
        results = gradcheck.run(seed=0, n_seeds=20)
        elapsed = time.monotonic() - start
        names = {name for name, _ in results}
        for required in ("add", "mul", "matmul.lhs", "conv1d.input", "tanh",
                         "sigmoid", "exp", "log", "relu", "softmax", "layer_norm",
                         "mean", "sum", "mse", "duration_gen.h", "duration_disc.h",
                         "coupling.input", "encoder_block.input"):
            assert required in names, f"missing check: {required}"
        for name, err in results:
            assert err <= 1e-4, f"{name}: {err:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_4_flow_bijectivity_and_logdet():
    with criterion(4, "flow bijectivity and log-determinant"):
        for case in range(100):
            rng = Rng(4000 + case)
            channels = 2 * rng.integers(1, 4)
            t_len = rng.integers(1, 7)
            depth = rng.integers(2, 4)
            stack = FlowStack(channels, depth, 6, rng, key_dim=4, head_init="small")
            x = Tensor(rng.normal((channels, t_len)))
            z, _ = stack.forward(x)
            back = stack.inverse(z)
            assert np.abs(back.data - x.data).max() <= 1e-8

        for channels, t_len, seed in [(2, 3, 1), (2, 4, 2), (4, 2, 3)]:
            layer = CouplingLayer(channels, 5, Rng(seed), key_dim=4, head_init="small")
            x0 = Rng(seed + 50).normal((channels, t_len))
            n = x0.size
            J = np.zeros((n, n))
            h = 1e-6
            flat = x0.reshape(-1)
            for col in range(n):
                e = np.zeros(n)
                e[col] = h
                yp, _ = layer.forward(Tensor((flat + e).reshape(x0.shape)))
                ym, _ = layer.forward(Tensor((flat - e).reshape(x0.shape)))
                J[:, col] = (yp.data - ym.data).reshape(-1) / (2 * h)
            sign, numeric = np.linalg.slogdet(J)
            assert sign > 0
            _, analytic = layer.forward(Tensor(x0))
            assert abs(analytic.item() - numeric) <= 1e-4


def test_5_loss_identities():
    with criterion(5, "adversarial and MSE loss identities"):
        rng = Rng(5001)
        n = 4
        h = rng.normal((1, n, 3))
        d = np.abs(rng.normal((1, n))) + 0.2
        mask = np.ones((1, n), bool)
        d_hat = [Tensor(d[0] + 1.0)]

        class ConstDisc:
            def __init__(self, real, fake):
                self.real, self.fake = real, fake

            def forward(self, hh, dd):
                is_real = np.array_equal(nm.ensure_tensor(dd).data, d[0])
                return Tensor(np.full(n, self.real if is_real else self.fake))

        assert adv_loss_d(ConstDisc(1.0, 0.0), d, d_hat, h, mask).item() == 0.0
        npt.assert_allclose(adv_loss_d(ConstDisc(0.5, 0.5), d, d_hat, h, mask).item(), 0.5)
        npt.assert_allclose(mse_loss(d_hat, d, mask).item(), 1.0)


def test_6_duration_training_convergence():
    with criterion(6, "duration GAN convergence with gradient isolation"):
        rng = Rng(5)
        batches = []
        for _ in range(4):
            h = rng.normal((1, 5, 8))
            d = np.full((1, 5), math.log(4.0))
            batches.append(DurationBatch(h_text=h, d=d, mask=np.ones((1, 5), bool)))
        gen = DurationGenerator(h_dim=8, z_dim=2, hidden=16, rng=rng.child(1))
        disc = DurationDiscriminator(h_dim=8, hidden=16, rng=rng.child(2))
        history = train_duration(
            gen, disc, batches, 500,
            opt_cfg=AdamWConfig(lr=0.003),
            rng=rng.child(3),
            verify_isolation=True,  # asserts zero cross-grads at every step
        )
        final = history[-1]["loss_g_mse"]
        assert final <= 1e-2, f"final mse {final:.4f}"


E2E_CONFIG = TrainConfig(
    seed=7,
    steps_main=1500,
    steps_duration=300,
    eval_every=250,
    obs_noise=0.0,
    n_train=16,
    n_eval=8,
)


def test_7_end_to_end_toy_run():
    with criterion(7, "end-to-end toy run accuracy"):
        assert E2E_CONFIG.steps_main <= 3000 and E2E_CONFIG.steps_duration <= 1000
        start = time.monotonic()
        history, model = train_toy(E2E_CONFIG)
        corpus = generate_corpus(E2E_CONFIG.corpus_spec(), Rng(E2E_CONFIG.seed).child(1))
        stats = eval_alignment(model, corpus.eval)
        elapsed = time.monotonic() - start
        assert stats["exact_match"] >= 0.95, f"exact match {stats['exact_match']:.3f}"
        assert stats["mae"] <= 0.2, f"mae {stats['mae']:.3f}"
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_8_ablation_arms():
    with criterion(8, "ablation arms runnable and verifiably bypassed"):
        base = dict(seed=11, steps_main=30, steps_duration=8, eval_every=30,
                    n_train=5, n_eval=2, hidden_width=16, ff_width=24,
                    dur_hidden=8, flow_hidden=8)

        history, _ = train_toy(TrainConfig(**base, noise_anneal=False))
        assert all(row["noise_scale"] == 0.0 for row in history["main"])

        rng = Rng(80)
        _, model = train_toy(TrainConfig(**base, transformer_block=False))
        x = Tensor(rng.normal((model.flows.channels, 5)))
        y1, ld1 = model.flows.forward(x)
        for layer in model.flows.layers:
            assert not layer.attention
            for p in (layer.wqkv, layer.wo):
                p.data[:] = rng.normal(p.shape) * 20.0
        y2, ld2 = model.flows.forward(x)
        npt.assert_array_equal(y1.data, y2.data)
        assert ld1.item() == ld2.item()

        history, model = train_toy(TrainConfig(**base, duration_adversarial=False))
        assert model.dur_disc is None
        assert model.dur_gen.z_dim == 0
        assert all(set(row) == {"step", "loss_g_mse"} for row in history["duration"])


def test_9_command_determinism(tmp_path, capsys):
    with criterion(9, "command determinism"):
        def run(*argv):
            code = cli_main([str(a) for a in argv])
            assert code == 0
            return capsys.readouterr().out

        rng = Rng(90)
        grid = tmp_path / "grid.csv"
        np.savetxt(grid, rng.normal((3, 7)), delimiter=",")
        assert run("mas", "--grid", grid, "--noise-scale", "0.3", "--seed", "4") == \
            run("mas", "--grid", grid, "--noise-scale", "0.3", "--seed", "4")

        cfg_path = tmp_path / "run.cfg"
        save_config(TrainConfig(steps_main=20, steps_duration=6, eval_every=20,
                                n_train=4, n_eval=2, hidden_width=16, ff_width=24,
                                dur_hidden=8, flow_hidden=8), cfg_path)
        a, b = tmp_path / "a", tmp_path / "b"
        out_a = run("train-toy", "--config", cfg_path, "--out", a, "--seed", "13")
        out_b = run("train-toy", "--config", cfg_path, "--out", b, "--seed", "13")
        assert out_a.replace(str(a), "") == out_b.replace(str(b), "")
        for name in ("config.txt", "corpus.json", "main_metrics.csv",
                     "duration_metrics.csv", "duration_corpus.csv", "checkpoint.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        dur1, dur2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        run("train-duration", "--corpus", a / "duration_corpus.csv", "--steps", "8",
            "--seed", "2", "--out", dur1)
        run("train-duration", "--corpus", a / "duration_corpus.csv", "--steps", "8",
            "--seed", "2", "--out", dur2)
        assert dur1.read_bytes() == dur2.read_bytes()

        assert run("eval-align", "--ckpt", a / "checkpoint.bin",
                   "--corpus", a / "corpus.json") == \
            run("eval-align", "--ckpt", a / "checkpoint.bin",
                "--corpus", a / "corpus.json")

        assert run("check-grad", "--seeds", "1") == run("check-grad", "--seeds", "1")

        frames = tmp_path / "frames.csv"
        np.savetxt(frames, rng.normal((2, 6)), delimiter=",")
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        run("dump-attention", "--ckpt", a / "checkpoint.bin", "--input", frames,
            "--out", m1)
        run("dump-attention", "--ckpt", a / "checkpoint.bin", "--input", frames,
            "--out", m2)
        for li in range(2):
            for suffix in ("csv", "pgm"):
                name = f"attention_layer{li}.{suffix}"
                assert (m1 / name).read_bytes() == (m2 / name).read_bytes()
