import math
import re

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
from alignflow.numerics import AdamW, AdamWConfig, NumericError, Rng, ShapeError, Tensor


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


def _masked_mean_reference(per_token_terms):
    total = None
    count = 0
    for t in per_token_terms:
        count += t.size
        s = nm.summation(t)
        total = s if total is None else total + s
    return total * (1.0 / count)


def adv_loss_d_reference(disc, batch, d_hat):
    """The critic loss as the chain of small ops that ``adv_loss_d`` fuses."""
    terms = []
    for (h, d), fake_d in zip(batch.instances(), d_hat, strict=True):
        real = disc.forward(h, d)
        fake = disc.forward(h, fake_d.detach())
        terms.append((real - 1.0) ** 2 + fake**2)
    return _masked_mean_reference(terms)


def adv_loss_g_reference(disc, batch, d_hat):
    """The generator's adversarial loss as the chain that ``adv_loss_g`` fuses."""
    terms = []
    for (h, _), fake_d in zip(batch.instances(), d_hat, strict=True):
        fake = disc.forward(h, fake_d)
        terms.append((fake - 1.0) ** 2)
    return _masked_mean_reference(terms)


def mse_loss_reference(batch, d_hat):
    """The duration mse as the chain that ``mse_loss`` fuses."""
    terms = []
    for (_, d), pred in zip(batch.instances(), d_hat, strict=True):
        diff = pred - d
        terms.append(diff * diff)
    return _masked_mean_reference(terms)


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

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one instance"):
            DurationBatch(h_text=np.zeros((0, 3, 2)), d=np.zeros((0, 3)),
                          mask=np.zeros((0, 3), bool))

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target, writer, step", [
        ("gen", "gen", 2), ("critic", "gen", 2),  # between two steps
        ("critic", "critic", 1)])  # between the critic's and the generator's update
    def test_an_inf_written_into_a_parameter_raises_the_scanned_error(self, monkeypatch,
                                                                      target, writer, step):
        """An inf written in place into a generator or a critic parameter
        after an optimizer step ends training with the message of a run with
        the guard off (every op scanned)."""
        def run(guard: bool) -> str:
            gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(56))
            disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(57))
            owner = {"gen": gen, "critic": disc}
            adamw_step = AdamW.step

            def poisoning(opt):  # after the writer's second step
                adamw_step(opt)
                if opt.t == 2 and opt.params[0] is owner[writer].params()[0]:
                    p = owner[target].params()[0]
                    p.data[(0,) * p.data.ndim] = np.inf

            with monkeypatch.context() as patch:
                patch.setattr(AdamW, "step", poisoning)
                if not guard:
                    patch.setattr(nm, "blas_threads", lambda: 2)
                with pytest.raises(NumericError) as err:
                    train_duration(gen, disc, [small_batch(58, width=4)], 5, rng=Rng(59))
            return str(err.value)

        guarded = run(True)
        assert guarded == run(False)
        assert guarded.startswith(f"duration training diverged at step {step}: ")

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


def prefix_batch(lengths, seed, width=4, cond=None):
    """A padded batch of ``len(lengths)`` instances, instance b holding
    ``lengths[b]`` valid tokens."""
    rng = Rng(seed)
    b, i = len(lengths), max(lengths)
    return DurationBatch(h_text=rng.normal((b, i, width)),
                         d=np.abs(rng.normal((b, i))) + 0.2,
                         mask=np.arange(i) < np.array(lengths)[:, None], cond=cond)


class LeafDisc:
    """Stub critic whose k-th score is ``scores[k]`` as a fresh leaf, taking a
    gradient when ``takes_grad[k]``, so a loss's cotangents land in ``made``'s
    grads."""

    def __init__(self, scores, takes_grad):
        self.scores, self.takes_grad, self.made = scores, takes_grad, []

    def forward(self, h, d):
        k = len(self.made)
        self.made.append(Tensor(self.scores[k].copy(), requires_grad=self.takes_grad[k]))
        return self.made[-1]


LENGTHS = ([4], [4, 2], [5, 1, 3], [11, 9])  # 8+ values are summed pairwise


def _grad_bytes(tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


class TestFusedLossesMatchTheChains:
    """Each loss is one node whose value and cotangents equal, byte for byte,
    the chain it replaced (kept above as the ``*_reference`` functions), and
    which raises ``NumericError`` exactly where that chain raised."""

    @staticmethod
    def run_both(run):
        """``run(fused)`` builds a loss on fresh inputs and returns (loss,
        tensors whose grads to compare); both variants' values and grads,
        after ``(loss * c).backward()`` for a few cotangent scales c."""
        out = []
        for fused in (True, False):
            rows = []
            for c in (1.0, -0.0, -3.0):
                loss, tensors = run(fused)
                rows.append(loss.data.tobytes())
                (loss * c).backward()
                rows.append(_grad_bytes(tensors))
            out.append(rows)
        return out

    @staticmethod
    def assert_same_or_both_raise(run):
        outcomes = []
        for fused in (True, False):
            try:
                loss, tensors = run(fused)
                loss.backward()
                outcomes.append((loss.data.tobytes(), _grad_bytes(tensors)))
            except NumericError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @staticmethod
    def leaf_cases(lengths, calls, seed, value=None):
        """Scores per critic call: normal draws, or ``value`` where given."""
        rng = Rng(seed)
        scores = []
        for k in range(calls):
            n = lengths[k * len(lengths) // calls]
            scores.append(rng.normal(n) if value is None else value(k, n))
        return scores

    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("pattern", ["all", "fake_only", "real_only", "none"])
    def test_critic_loss_on_leaf_scores(self, lengths, pattern):
        batch = prefix_batch(lengths, seed=60)
        d_hat = [Tensor(np.abs(Rng(61 + b).normal(n))) for b, n in enumerate(lengths)]
        scores = self.leaf_cases(lengths, 2 * len(lengths), seed=62)
        takes = {"all": [True, True], "fake_only": [False, True], "real_only": [True, False],
                 "none": [False, False]}[pattern] * len(lengths)

        def run(fused):
            disc = LeafDisc(scores, takes)
            loss = (adv_loss_d if fused else adv_loss_d_reference)(disc, batch, d_hat)
            return loss, disc.made + d_hat

        fused, chain = self.run_both(run)
        assert fused == chain
        loss, _ = run(True)
        if pattern == "none":
            assert loss._vjp is None and not loss.requires_grad
        else:  # the node's VJP itself gives None to a score that takes no gradient
            assert [g is None for g in loss._vjp(np.ones(()))] == [not t for t in takes]

    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("pattern", ["all", "first_only", "none"])
    def test_generator_losses_on_leaf_scores_and_predictions(self, lengths, pattern):
        batch = prefix_batch(lengths, seed=63)
        scores = self.leaf_cases(lengths, len(lengths), seed=64)
        preds = [np.abs(Rng(65 + b).normal(n)) for b, n in enumerate(lengths)]
        takes = [pattern == "all" or (pattern == "first_only" and b == 0)
                 for b in range(len(lengths))]

        def run(fused):
            disc = LeafDisc(scores, takes)
            d_hat = [Tensor(p.copy(), requires_grad=t) for p, t in zip(preds, takes)]
            adv = (adv_loss_g if fused else adv_loss_g_reference)(disc, batch, d_hat)
            mse = (mse_loss if fused else mse_loss_reference)(batch, d_hat)
            return adv + mse, disc.made + d_hat

        fused, chain = self.run_both(run)
        assert fused == chain

    def test_zero_and_signed_zero_terms(self):
        # real scores exactly 1, fake scores of either sign of zero, and
        # predictions equal to the targets, -0.0 against a target of +0.0
        lengths = [3, 2]
        batch = DurationBatch(h_text=np.zeros((2, 3, 2)),
                              d=np.array([[0.0, 0.5, 0.0], [0.0, 1.5, 9.0]]),
                              mask=np.arange(3) < np.array([[3], [2]]))
        zeros = [np.array([1.0, -0.0, 0.0]), np.array([-0.0, 1.0, 0.0]),
                 np.array([1.0, 1.0]), np.array([0.0, -0.0])]
        preds = [np.array([-0.0, 0.5, 0.0]), np.array([-0.0, 1.5])]

        def run_d(fused):
            disc = LeafDisc(zeros, [True] * 4)
            loss = (adv_loss_d if fused else adv_loss_d_reference)(
                disc, batch, [Tensor(p) for p in preds])
            return loss, disc.made

        def run_g(fused):
            disc = LeafDisc([zeros[0], zeros[2]], [True] * 2)
            d_hat = [Tensor(p.copy(), requires_grad=True) for p in preds]
            adv = (adv_loss_g if fused else adv_loss_g_reference)(disc, batch, d_hat)
            mse = (mse_loss if fused else mse_loss_reference)(batch, d_hat)
            return adv + mse, disc.made + d_hat

        for run in (run_d, run_g):
            fused, chain = self.run_both(run)
            assert fused == chain
        assert mse_loss(batch, [Tensor(p) for p in preds]).item() == 0.0
        loss, leaves = run_g(True)
        loss.backward()
        for pred in leaves[-2:]:  # all zero, and -0.0 where the difference was -0.0
            assert (pred.grad == 0.0).all() and np.signbit(pred.grad[0])

    def test_subnormal_terms_keep_the_chains_rounding(self):
        # over two tokens a term's cotangent is half a subnormal fake score or
        # prediction, which rounds, so scaling before or after the doubling
        # would move the last bit
        batch = DurationBatch(h_text=np.zeros((2, 1, 2)), d=np.zeros((2, 1)),
                              mask=np.ones((2, 1), bool))
        tiny = [np.array([3 * 5e-324]), np.array([5e-324])]
        scores = [np.array([1.0]), tiny[0], np.array([1.0]), tiny[1]]

        def run_d(fused):
            disc = LeafDisc(scores, [True] * 4)
            loss = (adv_loss_d if fused else adv_loss_d_reference)(
                disc, batch, [Tensor(t) for t in tiny])
            return loss, disc.made

        def run_g(fused):
            d_hat = [Tensor(t.copy(), requires_grad=True) for t in tiny]
            return (mse_loss if fused else mse_loss_reference)(batch, d_hat), d_hat

        for run in (run_d, run_g):
            fused, chain = self.run_both(run)
            assert fused == chain
        _, d_hat = run_g(True)
        mse_loss(batch, d_hat).backward()
        assert d_hat[0].grad[0] == 4 * 5e-324  # 0.5 * 3m rounds to 2m, then doubled

    @pytest.mark.parametrize("value", [1e150, 1.3e154, 1e155, 1e200])
    @pytest.mark.parametrize("loss_fn", ["d", "g", "mse"])
    @pytest.mark.parametrize("lengths", [[1, 1], [3, 2]])
    def test_overflow_raises_where_the_chain_raised(self, value, loss_fn, lengths):
        # 1.3e154 squared is finite, but two such squares overflow the critic's
        # per-token term, an instance's sum or the sum over one-token instances
        batch = prefix_batch(lengths, seed=66)
        big = self.leaf_cases(lengths, 4, seed=0, value=lambda k, n: np.full(n, value))

        def run(fused):
            if loss_fn == "mse":
                d_hat = [Tensor(s.copy(), requires_grad=True) for s in big[::2]]
                return (mse_loss if fused else mse_loss_reference)(batch, d_hat), d_hat
            d_hat = [Tensor(np.ones(n)) for n in lengths]
            disc = LeafDisc(big if loss_fn == "d" else big[::2], [True] * 4)
            fn = {"d": (adv_loss_d, adv_loss_d_reference),
                  "g": (adv_loss_g, adv_loss_g_reference)}[loss_fn][0 if fused else 1]
            return fn(disc, batch, d_hat), disc.made

        with np.errstate(over="ignore"):  # the chain's adds and sums warn as they overflow
            outcome = self.assert_same_or_both_raise(run)
        assert (outcome == "raised") == (value >= 1.3e154)

    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("setup", ["plain", "frozen_critic", "detached_fake"])
    def test_towers_and_losses_give_the_chains_grads(self, lengths, setup):
        """Through the real towers: both losses of a step, every parameter's
        and the condition's gradient, with the critic frozen around the
        backward or the generator's output detached."""
        def run(fused):
            rng = Rng(70)
            gen = DurationGenerator(h_dim=4, z_dim=2, hidden=5, rng=rng.child(0), cond_dim=3)
            disc = DurationDiscriminator(h_dim=4, hidden=5, rng=rng.child(1))
            cond = Tensor(rng.normal(3), requires_grad=True)
            batch = prefix_batch(lengths, seed=71)
            z = rng.normal((len(lengths), max(lengths), 2))
            losses = (adv_loss_d, adv_loss_g, mse_loss) if fused else (
                adv_loss_d_reference, adv_loss_g_reference, mse_loss_reference)
            d_hat = generate(gen, batch.h_text, z, batch.mask, cond)
            loss_d = losses[0](disc, batch, d_hat)
            if setup == "detached_fake":
                d_hat = [t.detach() for t in d_hat]
            loss_g = losses[1](disc, batch, d_hat) + losses[2](batch, d_hat)
            params = gen.params() + disc.params() + [cond]
            with nm.frozen(disc.params() if setup == "frozen_critic" else []):
                loss_d.backward()
                got = [loss_d.data.tobytes(), _grad_bytes(params)]
                for p in params:
                    p.zero_grad()
                loss_g.backward()
            return [*got, loss_g.data.tobytes(), _grad_bytes(params)]

        fused, chain = run(True), run(False)
        assert fused == chain
        assert any(g is not None for g in fused[1] + fused[3])


def train_duration_reference(gen, disc, corpus, steps, opt_cfg, rng, verify_isolation):
    """``train_duration`` on the reference chains, its critic's fakes generated
    on the tape."""
    critic = disc.params() if disc is not None else []
    opt_g = AdamW(gen.params(), opt_cfg)
    opt_d = AdamW(critic, opt_cfg) if disc is not None else None
    opts = [opt for opt in (opt_g, opt_d) if opt is not None]

    def noise(batch):
        return rng.normal((*batch.mask.shape, gen.z_dim)) if gen.z_dim else None

    history = []
    for step in range(steps):
        batch = corpus[step % len(corpus)]
        for opt in opts:
            opt.set_epoch(step // len(corpus))
        row = {"step": step}
        if disc is not None:
            d_hat = generate(gen, batch.h_text, noise(batch), batch.mask, batch.cond)
            loss_d = adv_loss_d_reference(disc, batch, d_hat)
            for opt in opts:
                opt.zero_grad()
            loss_d.backward()
            assert not verify_isolation or all(p.grad is None for p in gen.params())
            opt_d.step()
            row["loss_d"] = loss_d.item()
        d_hat = generate(gen, batch.h_text, noise(batch), batch.mask, batch.cond)
        if disc is not None:
            loss_adv = adv_loss_g_reference(disc, batch, d_hat)
            row["loss_g_adv"] = loss_adv.item()
        loss_mse = mse_loss_reference(batch, d_hat)
        loss_g = loss_mse if disc is None else loss_adv + loss_mse
        for opt in opts:
            opt.zero_grad()
        with nm.frozen(critic):
            loss_g.backward()
        opt_g.step()
        row["loss_g_mse"] = loss_mse.item()
        history.append(row)
    return history


class TestTrainingMatchesTheReferenceLoop:
    @pytest.mark.parametrize("adversarial", [True, False])
    def test_fifty_steps_byte_equal(self, adversarial):
        cond = Rng(80).normal(3)
        corpus = [prefix_batch([5, 2], 81, cond=cond), prefix_batch([3], 82, cond=cond),
                  prefix_batch([4, 4, 1], 83, cond=cond)]

        def run(loop, **kwargs):
            gen = DurationGenerator(h_dim=4, z_dim=2, hidden=5, rng=Rng(84), cond_dim=3)
            disc = DurationDiscriminator(h_dim=4, hidden=5, rng=Rng(85)) if adversarial else None
            hist = loop(gen, disc, corpus, 50, opt_cfg=AdamWConfig(lr=0.01), rng=Rng(86),
                        verify_isolation=True)
            params = gen.params() + (disc.params() if disc is not None else [])
            return hist, [p.data.tobytes() for p in params]

        fused, chain = run(train_duration), run(train_duration_reference)
        assert len(fused[0]) == 50 and fused == chain

    def test_one_step_builds_nine_nodes_the_critics_fakes_untaped(self, monkeypatch):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(87))
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(88))
        made, make = [], nm._make

        def recording_make(data, parents, vjp, op):
            out = make(data, parents, vjp, op)
            made.append((op, out._vjp is not None))
            return out

        monkeypatch.setattr(nm, "_make", recording_make)
        train_duration(gen, disc, [small_batch(89, width=4)], 1, rng=Rng(90))
        assert made == [("conv_tower", False), ("conv_tower", True), ("conv_tower", True),
                        ("adv_loss_d", True), ("conv_tower", True), ("conv_tower", True),
                        ("adv_loss_g", True), ("mse_loss", True), ("add", True)]


class TestInputChecks:
    def test_empty_corpus_raises_before_any_work(self):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(90))
        disc = DurationDiscriminator(h_dim=4, hidden=4, rng=Rng(91))
        before = [p.data.copy() for p in gen.params() + disc.params()]
        for steps in (0, 1, 5):
            with pytest.raises(ValueError, match="empty corpus"):
                train_duration(gen, disc, [], steps, rng=Rng(92))
            with pytest.raises(ValueError, match="empty corpus"):
                train_duration(gen, None, [], steps, rng=Rng(92))
        for p, b in zip(gen.params() + disc.params(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_mask_must_fit_the_features(self):
        gen = DurationGenerator(h_dim=4, z_dim=0, hidden=4, rng=Rng(93))
        h = Rng(94).normal((1, 3, 4))
        for mask in (np.ones((1, 4), bool), np.ones((2, 3), bool), np.ones(3, bool)):
            with pytest.raises(ShapeError, match=re.escape(f"mask {mask.shape}")):
                generate(gen, h, None, mask)
        with pytest.raises(ShapeError, match=r"\(3, 4\)"):
            generate(gen, h[0], None, np.ones((1, 3), bool))
        for mask, want in (([[True, False, True]], "prefix-form"),
                           ([[False, False, False]], "at least one valid token")):
            with pytest.raises(ValueError, match=want):
                generate(gen, h, None, mask)
        assert [t.shape for t in generate(gen, h, None, np.ones((1, 3), bool))] == [(3,)]

    def test_noise_must_fit_the_features(self):
        gen = DurationGenerator(h_dim=4, z_dim=2, hidden=4, rng=Rng(95))
        h, mask = Rng(96).normal((2, 3, 4)), np.arange(3) < np.array([[3], [1]])
        for z, got in ((None, "None"), (np.zeros((2, 3)), r"\(2, 3\)"),
                       (np.zeros((1, 3, 2)), r"\(1, 3, 2\)"), (np.zeros((2, 4, 2)), r"\(2, 4, 2\)")):
            with pytest.raises(ShapeError, match=rf"must be \(2, 3, 2\) .* got {got}"):
                generate(gen, h, z, mask)
        assert [t.shape for t in generate(gen, h, np.zeros((2, 3, 2)), mask)] == [(3,), (1,)]

    def test_prediction_must_have_one_value_per_token(self):
        batch = prefix_batch([3, 2], seed=97)
        with pytest.raises(ShapeError, match=r"prediction \(1,\) must be \(2,\)"):
            mse_loss(batch, [Tensor(np.zeros(3)), Tensor(np.zeros(1))])
