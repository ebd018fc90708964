import math

import numpy as np
import numpy.testing as npt
import pytest

from alignflow import numerics as nm
from alignflow.duration import (
    DurationBatch,
    DurationDiscriminator,
    DurationGenerator,
    adv_loss_d,
    adv_loss_g,
    generate,
    mse_loss,
    train_duration,
)
from alignflow.numerics import AdamWConfig, NumericError, Rng, Tensor


class ConstantDisc:
    """Stub critic scoring every token with a fixed value per input identity."""

    def __init__(self, value_for_real, value_for_fake, real_d):
        self.real = value_for_real
        self.fake = value_for_fake
        self.real_d = np.asarray(real_d, dtype=np.float64)

    def forward(self, h, d):
        d = nm.ensure_tensor(d)
        n = d.shape[0]
        is_real = d.data.shape == self.real_d.shape and np.array_equal(d.data, self.real_d)
        return Tensor(np.full(n, self.real if is_real else self.fake))


def small_batch(seed=0, n=4, width=6, cond=None):
    rng = Rng(seed)
    h = rng.normal((1, n, width))
    d = np.abs(rng.normal((1, n))) + 0.2
    return DurationBatch(h_text=h, d=d, mask=np.ones((1, n), bool), cond=cond)


class TestDurationBatch:
    def test_non_prefix_mask_rejected(self):
        with pytest.raises(ValueError, match="prefix"):
            DurationBatch(
                h_text=np.zeros((1, 3, 2)),
                d=np.zeros((1, 3)),
                mask=np.array([[True, False, True]]),
            )

    def test_negative_log_duration_rejected(self):
        with pytest.raises(ValueError, match=">= 1 frame"):
            DurationBatch(
                h_text=np.zeros((1, 2, 2)),
                d=np.array([[0.5, -0.1]]),
                mask=np.ones((1, 2), bool),
            )

    def test_instances_are_views_of_the_valid_prefixes(self):
        rng = Rng(49)
        h, d = rng.normal((2, 4, 3)), rng.uniform(0.0, 1.0, (2, 4))
        batch = DurationBatch(h_text=h, d=d, mask=np.arange(4) < np.array([[4], [2]]))
        got = batch.instances()
        assert [(hb.shape, db.shape) for hb, db in got] == [((4, 3), (4,)), ((2, 3), (2,))]
        for b, (hb, db) in enumerate(got):
            n = db.shape[0]
            assert hb.tobytes() == h[b, :n].tobytes() and db.tobytes() == d[b, :n].tobytes()
            assert np.shares_memory(hb, batch.h_text) and np.shares_memory(db, batch.d)
        assert batch.cond is None


class TestGenerator:
    def test_zero_head_outputs_zero(self):
        gen = DurationGenerator(h_dim=5, z_dim=2, hidden=4, rng=Rng(1))
        gen.tower.head_w.data[:] = 0.0
        gen.tower.head_b.data[:] = 0.0
        out = gen.forward(Rng(2).normal((6, 5)), Rng(3).normal((6, 2)))
        npt.assert_array_equal(out.data, np.zeros(6))

    def test_deterministic_under_fixed_inputs(self):
        gen = DurationGenerator(h_dim=5, z_dim=2, hidden=4, rng=Rng(4))
        h = Rng(5).normal((3, 5))
        z = Rng(6).normal((3, 2))
        npt.assert_array_equal(gen.forward(h, z).data, gen.forward(h, z).data)

    def test_noise_makes_output_stochastic(self):
        gen = DurationGenerator(h_dim=5, z_dim=2, hidden=4, rng=Rng(7))
        h = Rng(8).normal((3, 5))
        z1 = Rng(9).normal((3, 2))
        z2 = z1.copy()
        z2[1, 0] += 0.5
        d1 = gen.forward(h, z1).data
        d2 = gen.forward(h, z2).data
        assert np.any(d1 != d2)

    def test_output_length_matches_tokens(self):
        gen = DurationGenerator(h_dim=5, z_dim=2, hidden=4, rng=Rng(10))
        for n in (1, 2, 7):
            out = gen.forward(Rng(n).normal((n, 5)), Rng(n + 50).normal((n, 2)))
            assert out.shape == (n,)

    def test_deterministic_variant_takes_no_noise(self):
        gen = DurationGenerator(h_dim=5, z_dim=0, hidden=4, rng=Rng(11))
        out = gen.forward(Rng(12).normal((3, 5)))
        assert out.shape == (3,)


class TestLossIdentities:
    def test_perfect_discriminator_gives_zero(self):
        batch = small_batch()
        d_hat = [Tensor(batch.d[0] + 1.0)]
        disc = ConstantDisc(1.0, 0.0, batch.d[0])
        loss = adv_loss_d(disc, batch, d_hat)
        assert loss.item() == 0.0

    def test_constant_half_discriminator(self):
        batch = small_batch()
        d_hat = [Tensor(batch.d[0] + 1.0)]
        disc = ConstantDisc(0.5, 0.5, batch.d[0])
        loss = adv_loss_d(disc, batch, d_hat)
        npt.assert_allclose(loss.item(), 0.5)

    def test_worst_case_discriminator(self):
        batch = small_batch()
        d_hat = [Tensor(batch.d[0] + 1.0)]
        disc = ConstantDisc(0.0, 1.0, batch.d[0])
        loss = adv_loss_d(disc, batch, d_hat)
        npt.assert_allclose(loss.item(), 2.0)

    def test_generator_loss_cases(self):
        batch = small_batch()
        d_hat = [Tensor(batch.d[0] + 1.0)]
        for score, want in [(1.0, 0.0), (0.0, 1.0), (0.25, 0.5625)]:
            disc = ConstantDisc(score, score, batch.d[0])
            loss = adv_loss_g(disc, batch, d_hat)
            npt.assert_allclose(loss.item(), want)

    def test_lsgan_constant_fixed_point(self):
        # with D constant at c the critic loss is (c-1)^2 + c^2, minimized at 1/2
        batch = small_batch()
        d_hat = [Tensor(batch.d[0] + 1.0)]
        grid = np.linspace(0, 1, 101)
        losses = []
        for c in grid:
            disc = ConstantDisc(c, c, batch.d[0])
            losses.append(adv_loss_d(disc, batch, d_hat).item())
        npt.assert_allclose(losses, (grid - 1) ** 2 + grid**2, atol=1e-12)
        assert grid[int(np.argmin(losses))] == 0.5

    def test_one_prediction_per_instance(self):
        batch = small_batch()
        disc = ConstantDisc(0.5, 0.5, batch.d[0])
        for d_hat in ([], [Tensor(batch.d[0])] * 2):
            for loss in (lambda: adv_loss_d(disc, batch, d_hat),
                         lambda: adv_loss_g(disc, batch, d_hat),
                         lambda: mse_loss(batch, d_hat)):
                with pytest.raises(ValueError, match="zip"):
                    loss()

    def test_mse_cases(self):
        d = np.array([[0.3, 1.1, 0.8]])
        batch = DurationBatch(h_text=np.zeros((1, 3, 2)), d=d, mask=np.ones((1, 3), bool))
        assert mse_loss(batch, [Tensor(d[0])]).item() == 0.0
        npt.assert_allclose(mse_loss(batch, [Tensor(d[0] + 1.0)]).item(), 1.0)
        ones = DurationBatch(h_text=np.zeros((1, 2, 2)), d=np.array([[1.0, 1.0]]),
                             mask=np.ones((1, 2), bool))
        hand = mse_loss(ones, [Tensor([0.0, 2.0])])
        npt.assert_allclose(hand.item(), 1.0)


class TestTimeStepWise:
    def test_one_score_per_token(self):
        disc = DurationDiscriminator(h_dim=5, hidden=6, rng=Rng(20))
        for n in (1, 3, 8):
            scores = disc.forward(Rng(n).normal((n, 5)), Tensor(np.abs(Rng(n + 9).normal(n))))
            assert scores.shape == (n,)

    def test_local_receptive_field(self):
        rng = Rng(21)
        disc = DurationDiscriminator(h_dim=4, hidden=6, rng=rng)
        n = 11
        h = rng.normal((n, 4))
        d = np.abs(rng.normal(n)) + 0.5
        base = disc.forward(h, Tensor(d.copy())).data
        p = 5
        d2 = d.copy()
        d2[p] += 1.0
        bumped = disc.forward(h, Tensor(d2)).data
        changed = np.nonzero(base != bumped)[0]
        assert changed.size > 0
        assert np.abs(changed - p).max() <= disc.receptive_field

    def test_loss_changes_with_one_duration(self):
        rng = Rng(22)
        disc = DurationDiscriminator(h_dim=4, hidden=6, rng=rng)
        h = rng.normal((1, 6, 4))
        d = np.abs(rng.normal((1, 6))) + 0.5
        mask = np.ones((1, 6), bool)
        d_hat = [Tensor(np.abs(rng.normal(6)) + 0.5)]
        before = adv_loss_d(disc, DurationBatch(h, d, mask), d_hat).item()
        d_perturbed = d.copy()
        d_perturbed[0, 2] += 0.7
        after = adv_loss_d(disc, DurationBatch(h, d_perturbed, mask), d_hat).item()
        assert before != after


class TestMasking:
    def test_padding_leaves_losses_unchanged(self):
        rng = Rng(23)
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=6, rng=rng.child(0))
        disc = DurationDiscriminator(h_dim=4, hidden=6, rng=rng.child(1))
        n = 5
        h = rng.normal((1, n, 4))
        d = np.abs(rng.normal((1, n))) + 0.3
        z = rng.normal((1, n, 2))
        mask = np.ones((1, n), bool)
        batch = DurationBatch(h_text=h, d=d, mask=mask)

        pad = 3
        h_pad = np.concatenate([h, 1e6 * np.ones((1, pad, 4))], axis=1)
        d_pad = np.concatenate([d, np.full((1, pad), 7.0)], axis=1)
        z_pad = np.concatenate([z, rng.normal((1, pad, 2))], axis=1)
        mask_pad = np.concatenate([mask, np.zeros((1, pad), bool)], axis=1)
        padded = DurationBatch(h_text=h_pad, d=d_pad, mask=mask_pad)

        dh1 = generate(gen, batch.h_text, z, batch.mask)
        dh2 = generate(gen, padded.h_text, z_pad, padded.mask)
        npt.assert_array_equal(dh1[0].data, dh2[0].data)

        for fn in (
            lambda b, dh: adv_loss_d(disc, b, dh),
            lambda b, dh: adv_loss_g(disc, b, dh),
            lambda b, dh: mse_loss(b, dh),
        ):
            assert abs(fn(batch, dh1).item() - fn(padded, dh2).item()) <= 1e-12


class TestGradientIsolation:
    def setup_method(self):
        rng = Rng(24)
        self.gen = DurationGenerator(h_dim=4, z_dim=2, hidden=6, rng=rng.child(0))
        self.disc = DurationDiscriminator(h_dim=4, hidden=6, rng=rng.child(1))
        self.batch = small_batch(seed=25, width=4)
        self.z = Rng(26).normal((1, 4, 2))

    def test_critic_loss_never_moves_generator(self):
        d_hat = generate(self.gen, self.batch.h_text, self.z, self.batch.mask)
        loss = adv_loss_d(self.disc, self.batch, d_hat)
        loss.backward()
        for p in self.gen.params():
            assert p.grad is None
        assert any(p.grad is not None for p in self.disc.params())

    def test_generator_loss_with_frozen_critic(self):
        d_hat = generate(self.gen, self.batch.h_text, self.z, self.batch.mask)
        loss = adv_loss_g(self.disc, self.batch, d_hat)
        loss = loss + mse_loss(self.batch, d_hat)
        with nm.frozen(self.disc.params()):
            loss.backward()
        for p in self.disc.params():
            assert p.grad is None
        assert any(p.grad is not None for p in self.gen.params())


class TestTraining:
    def test_zero_steps_empty_history(self):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(27))
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(28))
        hist = train_duration(gen, disc, [small_batch(29, width=4)], 0, rng=Rng(30))
        assert hist == []

    def test_constant_corpus_convergence(self):
        rng = Rng(31)
        batches = []
        for _ in range(4):
            h = rng.normal((1, 5, 8))
            d = np.full((1, 5), math.log(4.0))
            batches.append(DurationBatch(h_text=h, d=d, mask=np.ones((1, 5), bool)))
        gen = DurationGenerator(h_dim=8, z_dim=2, hidden=16, rng=rng.child(1))
        disc = DurationDiscriminator(h_dim=8, hidden=16, rng=rng.child(2))
        hist = train_duration(
            gen, disc, batches, 500,
            opt_cfg=AdamWConfig(lr=0.003),
            rng=rng.child(3),
            verify_isolation=True,
        )
        assert hist[-1]["loss_g_mse"] <= 1e-2

    def test_divergence_aborts_with_step_index(self):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(32))
        gen.tower.conv1_w.data[:] = 1e200
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(33))
        with pytest.raises(NumericError, match="step 0"):
            train_duration(gen, disc, [small_batch(34, width=4)], 3, rng=Rng(35))

    def test_deterministic_arm_has_no_adversarial_losses(self):
        gen = DurationGenerator(h_dim=4, z_dim=0, hidden=4, rng=Rng(36))
        hist = train_duration(gen, None, [small_batch(37, width=4)], 5)
        assert all(set(row) == {"step", "loss_g_mse"} for row in hist)

    def test_history_is_per_step(self):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(38))
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(39))
        hist = train_duration(gen, disc, [small_batch(40, width=4)], 7, rng=Rng(41))
        assert [row["step"] for row in hist] == list(range(7))
        for row in hist:
            assert set(row) == {"step", "loss_d", "loss_g_adv", "loss_g_mse"}

    def test_conditions_align_with_the_corpus(self):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(42), cond_dim=3)
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(43))
        corpus = [small_batch(44, width=4, cond=Rng(46).normal(3)),
                  small_batch(45, width=4, cond=Rng(47).normal(3))]
        hist = train_duration(gen, disc, corpus, 4, rng=Rng(48))
        assert [row["step"] for row in hist] == list(range(4))

    @staticmethod
    def conditioned_history(conds, steps=3):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(50), cond_dim=3)
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(51))
        corpus = [small_batch(52, width=4, cond=c) for c in conds]
        return train_duration(gen, disc, corpus, steps, rng=Rng(53))

    def test_each_step_reads_its_own_batch_condition(self):
        losses = ("loss_d", "loss_g_adv", "loss_g_mse")
        c1, c2 = Rng(54).normal(3), Rng(55).normal(3)
        one = self.conditioned_history([c1])
        assert one == self.conditioned_history([c1.copy()])
        # the critic and the generator update both see the condition
        other = self.conditioned_history([c2])
        assert all(one[0][k] != other[0][k] for k in losses)
        # the same features under two conditions: step 0 trains on c1 in both
        # runs; step 1's batch carries c2 in one run only
        same, mixed = self.conditioned_history([c1, c1]), self.conditioned_history([c1, c2])
        assert same[0] == mixed[0]
        assert all(same[1][k] != mixed[1][k] for k in losses)
