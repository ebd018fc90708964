"""The skip contract of every fused op, as a property test.

A VJP may compute a cotangent for a parent that takes none, because the
backward walk drops it; it must never skip one that a parent takes. So for
every subset of an op's parents made constant (at build time), frozen (at
backward time, under ``nm.frozen``) or half of each, the gradient of each
parent that still takes one equals the all-trainable run byte for byte, and
every constant or frozen leaf ends the walk with ``grad`` None.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alignflow import numerics as nm
from alignflow.duration import DurationBatch, adv_loss_d, adv_loss_g, mse_loss
from alignflow.numerics import Rng, Tensor


def _grads(f, arrays, g, constant=(), frozen=()):
    """Each parent's gradient bytes (None where it has none) after
    ``summation(f(*leaves) * g).backward()``, the leaves at ``constant``
    built without a gradient and those at ``frozen`` frozen for the walk."""
    leaves = [None if a is None else Tensor(a.copy(), requires_grad=i not in constant)
              for i, a in enumerate(arrays)]
    out = f(*leaves)
    with nm.frozen([leaves[i] for i in frozen]):
        nm.summation(out * g).backward()
    return [None if t is None or t.grad is None else t.grad.tobytes() for t in leaves]


def _check_every_subset(f, arrays, g):
    live = [i for i, a in enumerate(arrays) if a is not None]
    want = _grads(f, arrays, g)
    assert [want[i] is not None for i in live] == [True] * len(live)
    for r in range(1, len(live) + 1):
        for subset in itertools.combinations(live, r):
            expected = [None if i in subset else w for i, w in enumerate(want)]
            for constant, frozen in {(subset, ()), ((), subset), (subset[::2], subset[1::2])}:
                assert _grads(f, arrays, g, constant, frozen) == expected, (constant, frozen)


def _normal(rng, *shapes):
    return [None if s is None else rng.normal(s) for s in shapes]


def _batch(rng, lengths, width=2):
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    return DurationBatch(h_text=rng.normal((len(lengths), mask.shape[1], width)),
                         d=rng.uniform(0.0, 2.0, mask.shape), mask=mask)


class _ScoreDisc:
    """A critic stand-in whose calls return the next of the given scores."""

    def __init__(self, scores):
        self._scores = iter(scores)

    def forward(self, h, d):
        return next(self._scores)


SIDES = st.integers(1, 4)
SEEDS = st.integers(0, 2**16)


class TestSkipContract:
    @settings(max_examples=10, deadline=None)
    @given(SIDES, SIDES, SIDES, SEEDS)
    def test_linear_and_scale_head(self, n, d, m, seed):
        rng = Rng(seed)
        arrays = _normal(rng, (n, d), (d, m), (m,))
        g = rng.normal((n, m))
        _check_every_subset(nm.linear, arrays, g)
        _check_every_subset(nm.scale_head, arrays, g)

    @settings(max_examples=10, deadline=None)
    @given(SIDES, SIDES, st.integers(1, 5), st.integers(1, 6), st.booleans(), SEEDS)
    def test_conv1d(self, cin, cout, k, length, biased, seed):
        rng = Rng(seed)
        arrays = _normal(rng, (cin, length), (cout, cin, k), (cout,) if biased else None)
        _check_every_subset(lambda x, w, b=None: nm.conv1d(x, w, b), arrays,
                            rng.normal((cout, length)))

    @settings(max_examples=5, deadline=None)
    @given(SIDES, st.integers(1, 2), SIDES, SEEDS)
    def test_encoder_block(self, length, n_heads, ff, seed):
        rng = Rng(seed)
        width = 2 * n_heads
        arrays = _normal(rng, (length, width), (3 * n_heads, width, 2), (width, width),
                         (width, ff), (ff,), (ff, width), (width,))
        _check_every_subset(lambda *t: nm.encoder_block(*t, n_heads, 0.5), arrays,
                            rng.normal((length, width)))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 3), SIDES, SEEDS)
    def test_affine_coupling_and_sum_rows(self, h, length, seed):
        rng = Rng(seed)
        arrays = _normal(rng, (2 * h, length), (3 * h, length))
        _check_every_subset(nm.affine_coupling, arrays, rng.normal((2 * h, length)))
        _check_every_subset(lambda a: nm.sum_rows(a, h), arrays[1:], rng.normal(()))

    @settings(max_examples=4, deadline=None)
    @given(st.integers(1, 2), SIDES, st.integers(1, 3), st.sampled_from([0, 2]),
           st.sampled_from([0, 2]), SEEDS)
    def test_coupling_conditioner(self, h, length, hidden, key_dim, cond_dim, seed):
        rng = Rng(seed)
        arrays = _normal(rng, (2 * h, length), (hidden, h, 3), (hidden,), (2 * h, hidden, 3),
                         (2 * h,), (3, h, key_dim) if key_dim else None,
                         (key_dim, h) if key_dim else None,
                         (hidden, cond_dim) if cond_dim else None,
                         (cond_dim,) if cond_dim else None)

        def conditioner(x, w1, b1, w2, b2, wqkv, wo, wc, cond):
            return nm.coupling_conditioner(x, w1, b1, w2, b2, wqkv, wo, 0.5, wc, cond)

        _check_every_subset(conditioner, arrays, rng.normal((3 * h, length)))

    @settings(max_examples=4, deadline=None)
    @given(SIDES, st.integers(1, 3), st.sampled_from([0, -1, 2]), st.integers(1, 3),
           st.sampled_from([0, 2]), SEEDS)
    def test_conv_tower(self, length, h, extra, hidden, cond_dim, seed):
        """``extra`` is 0 (none), -1 (durations, (I,)) or Z (noise, (I, Z))."""
        rng = Rng(seed)
        cin = h + (1 if extra == -1 else extra)
        arrays = _normal(rng, (length, h),
                         None if extra == 0 else (length,) if extra == -1 else (length, extra),
                         (hidden, cin, 3), (hidden,), (hidden, hidden, 3), (hidden,),
                         (1, hidden, 1), (1,), (hidden, cond_dim) if cond_dim else None,
                         (cond_dim,) if cond_dim else None)
        _check_every_subset(nm.conv_tower, arrays, rng.normal(length))

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(1, 2), SEEDS)
    def test_aligned_nll(self, durations, channels, seed):
        rng = Rng(seed)
        n = len(durations)
        frame_tokens = np.repeat(np.arange(n), durations)
        arrays = [rng.normal((n, channels)), rng.uniform(0.3, 2.0, (n, channels)),
                  rng.normal((channels, frame_tokens.size)), rng.normal(())]
        _check_every_subset(lambda *t: nm.aligned_nll(*t, frame_tokens), arrays,
                            rng.normal(()))

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=2), SEEDS)
    def test_duration_losses(self, lengths, seed):
        rng = Rng(seed)
        batch = _batch(rng, lengths)
        d_hat = [Tensor(rng.uniform(0.0, 2.0, n)) for n in lengths]
        scores = [rng.normal(n) for n in lengths for _ in range(2)]  # real, fake per instance
        g = rng.normal(())
        _check_every_subset(lambda *s: adv_loss_d(_ScoreDisc(s), batch, d_hat), scores, g)
        _check_every_subset(lambda *s: adv_loss_g(_ScoreDisc(s), batch, d_hat), scores[1::2],
                            g)
        _check_every_subset(lambda *p: mse_loss(batch, p), scores[::2], g)
