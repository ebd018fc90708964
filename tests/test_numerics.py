import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from alignflow import numerics as nm
from alignflow.numerics import (
    AdamW,
    AdamWConfig,
    NumericError,
    Rng,
    ShapeError,
    Tensor,
    check_grad,
)


def conv1d_oracle(x, w):
    """Direct sliding-window convolution, written independently of the op."""
    cin, length = x.shape
    cout, _, k = w.shape
    pl = (k - 1) // 2
    padded = np.zeros((cin, length + k - 1))
    padded[:, pl : pl + length] = x
    out = np.zeros((cout, length))
    for o in range(cout):
        for t in range(length):
            acc = 0.0
            for c in range(cin):
                for kk in range(k):
                    acc += w[o, c, kk] * padded[c, t + kk]
            out[o, t] = acc
    return out


def conv1d_oracle_vjp(x, w, g):
    """(x cotangent, w cotangent) of ``conv1d_oracle`` for output cotangent
    ``g``, by the same scalar loops."""
    cin, length = x.shape
    cout, _, k = w.shape
    pl = (k - 1) // 2
    padded = np.zeros((cin, length + k - 1))
    padded[:, pl : pl + length] = x
    gxp, gw = np.zeros_like(padded), np.zeros_like(w)
    for o in range(cout):
        for t in range(length):
            for c in range(cin):
                for kk in range(k):
                    gxp[c, t + kk] += w[o, c, kk] * g[o, t]
                    gw[o, c, kk] += g[o, t] * padded[c, t + kk]
    return gxp[:, pl : pl + length], gw


def attention_reference(x, heads, scale, bias=None):
    """Multi-head self-attention as the chain of scalar tape ops it replaces."""
    parts = []
    for wq, wk, wv in heads:
        q = x @ wq
        k = x @ wk
        v = x @ wv
        scores = (q @ k.T) * scale
        if bias is not None:
            scores = scores + bias
        parts.append(nm.softmax(scores, axis=1) @ v)
    return nm.concat(parts, axis=1)


def attention_four_buffers(x, ws, n_heads, scale, bias, g):
    """The fused attention op's forward and VJP as written before its softmax
    went in place, with four (H, T, T) temporaries each way: (output, x
    cotangent, weight cotangents in the op's all-wq, all-wk, all-wv order)
    for output cotangent ``g``. The op must match it byte for byte."""
    n, length = n_heads, x.shape[0]
    w = np.array(ws)
    d = w.shape[2]
    qkv = np.matmul(x, w)
    q, k, v = qkv[:n], qkv[n : 2 * n], qkv[2 * n :]
    scores = np.matmul(q, np.ascontiguousarray(k.transpose(0, 2, 1)))
    scores *= scale
    if bias is not None:
        scores += bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(att, v).transpose(1, 0, 2).reshape(length, n * d)
    gh = g.reshape(length, n, d).transpose(1, 0, 2)
    g_att = np.matmul(gh, v.transpose(0, 2, 1))
    g_qkv = np.empty_like(qkv)
    np.matmul(att.transpose(0, 2, 1), gh, out=g_qkv[2 * n :])
    g_s = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True))
    g_s *= scale
    np.matmul(g_s, k, out=g_qkv[:n])
    np.matmul(g_s.transpose(0, 2, 1), q, out=g_qkv[n : 2 * n])
    g_w = np.matmul(x.T, g_qkv)
    g_x = g_qkv.transpose(1, 0, 2).reshape(length, -1) @ w.transpose(1, 0, 2).reshape(
        w.shape[1], -1).T
    return [out, g_x, *g_w]


_conv1d = nm.conv1d  # the op itself, for a reference that outlives a monkeypatch


def conv1d_reference(x, w, b=None):
    """Bias-fused ``conv1d`` as the chain of tape ops it replaces."""
    out = _conv1d(x, w)
    return out if b is None else out + nm.reshape(b, (-1, 1))


def linear_reference(x, w, b):
    """``nm.linear`` as the chain of tape ops it replaces."""
    return x @ w + b


def add_layer_norm_reference(a, b, axis):
    """``nm.add_layer_norm`` as the chain of tape ops it replaces."""
    return nm.layer_norm(a + b, axis=axis)


def conv1d_im2col(x, w, g):
    """conv1d as ``np.pad`` + ``np.stack`` windows, one matmul against the
    flattened kernel and a col2im over a padded buffer: (forward, x cotangent,
    w cotangent) for output cotangent ``g``. The op must match it byte for byte."""
    cout, cin, k = w.shape
    length = x.shape[1]
    pl = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pl, k - 1 - pl)))
    cols = np.stack([xp[:, i : i + length] for i in range(k)], axis=1).reshape(cin * k, length)
    w2 = w.reshape(cout, cin * k)
    gcols = (w2.T @ g).reshape(cin, k, length)
    gxp = np.zeros_like(xp)
    for i in range(k):
        gxp[:, i : i + length] += gcols[:, i]
    return w2 @ cols, gxp[:, pl : pl + length], (g @ cols.T).reshape(cout, cin, k)


def conv1d_padded(x, w, g):
    """The per-tap ``einsum`` conv1d that the im2col matmul replaced: (forward,
    x cotangent, w cotangent) for output cotangent ``g``. BLAS sums in another
    order, so the op matches it within 1e-12, not byte for byte."""
    k, length = w.shape[2], x.shape[1]
    pl = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pl, k - 1 - pl)))
    windows = np.stack([xp[:, i : i + length] for i in range(k)], axis=1)
    gxp = np.zeros_like(xp)
    for i in range(k):
        gxp[:, i : i + length] += np.einsum("oc,ol->cl", w[:, :, i], g)
    return (np.einsum("ock,ckl->ol", w, windows), gxp[:, pl : pl + length],
            np.einsum("ol,ckl->ock", g, windows))


def layer_norm_mean(x, axis, g, eps=1e-8):
    """Layer norm and its VJP with ``ndarray.mean``, as written before the
    shared helper took ``np.add.reduce(...) / n``: (forward, cotangent)."""
    xc = x - x.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=axis, keepdims=True) + eps)
    y = xc * inv
    g_mean = g.mean(axis=axis, keepdims=True)
    gy_mean = (g * y).mean(axis=axis, keepdims=True)
    return y, inv * (g - g_mean - y * gy_mean)


def _forward_and_grads(op, leaves, *args):
    """Output bytes and the leaves' gradient bytes of ``op(*leaves, *args)``
    under a random output weighting."""
    out = op(*leaves, *args)
    nm.summation(out * Rng(99).normal(out.shape)).backward()
    result = [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]
    for t in leaves:
        t.zero_grad()
    return result


def _attention_case(rng, length, width, n_heads, head_dim, bias_kind=None):
    """Random inputs; ``bias_kind`` is None, "mask" (masked key columns) or "dense"."""
    x = Tensor(rng.normal((length, width)), requires_grad=True)
    heads = [tuple(nm.init_uniform(rng, (width, head_dim), width) for _ in range(3))
             for _ in range(n_heads)]
    bias = None
    if bias_kind == "mask":
        keep = rng.uniform(0.0, 1.0, length) < 0.7
        keep[0] = True
        bias = np.zeros((length, length))
        bias[:, ~keep] = -1e30
    elif bias_kind == "dense":
        bias = rng.normal((length, length))
    return x, heads, 1.0 / np.sqrt(head_dim), bias


def _raises_numeric(f, *args) -> bool:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f(*args)
    except NumericError:
        return True
    return False


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0])).data
        npt.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(1)
        for _ in range(10):
            x = Tensor(rng.normal((4, 7)) * 3)
            sums = nm.softmax(x, axis=1).data.sum(axis=1)
            npt.assert_allclose(sums, 1.0, atol=1e-12)

    def test_matmul_identity(self):
        rng = Rng(2)
        for k in (1, 3, 5):
            x = rng.normal((3, k))
            out = nm.matmul(Tensor(np.eye(3)), Tensor(x))
            npt.assert_array_equal(out.data, x)

    def test_conv1d_matches_sliding_window_oracle(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        w = np.array([[[1.0, 0.0, 0.0]]])
        expected = conv1d_oracle(x, w)
        npt.assert_allclose(nm.conv1d(Tensor(x), Tensor(w)).data, expected)

        rng = Rng(3)
        for _ in range(10):
            cin = rng.integers(1, 4)
            cout = rng.integers(1, 4)
            k = 1 + 2 * rng.integers(0, 3)
            length = rng.integers(1, 9)
            x = rng.normal((cin, length))
            w = rng.normal((cout, cin, k))
            npt.assert_allclose(
                nm.conv1d(Tensor(x), Tensor(w)).data, conv1d_oracle(x, w), atol=1e-12
            )

    def test_layer_norm_zero_mean(self):
        rng = Rng(4)
        out = nm.layer_norm(Tensor(rng.normal((5, 9)) * 4 + 2), axis=1)
        assert np.abs(out.data.mean(axis=1)).max() <= 1e-9

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            nm.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_non_finite_output_raises(self):
        with pytest.raises(NumericError):
            nm.log(Tensor([0.0]))
        with pytest.raises(NumericError):
            nm.exp(Tensor([1e4]))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        nm.summation(x).backward()
        npt.assert_array_equal(x.grad, np.ones(4))

    def test_mse_singleton_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        nm.mse(x, Tensor([0.0])).backward()
        npt.assert_allclose(x.grad, [4.0])

    def test_three_layer_tanh_network(self):
        rng = Rng(5)
        w1, w2, w3 = (Tensor(rng.normal((4, 4))) for _ in range(3))

        def f(t):
            h = nm.tanh(t @ w1)
            h = nm.tanh(h @ w2)
            return nm.summation(nm.tanh(h @ w3))

        assert check_grad(f, Tensor(rng.normal((2, 4)))) <= 1e-4

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            (x * 2.0).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = nm.summation(x * x)
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        npt.assert_array_equal(x.grad, 2 * first)

    def test_broadcast_bias_gradient(self):
        x = Tensor(np.ones((3, 4)))
        b = Tensor(np.zeros(4), requires_grad=True)
        nm.summation((x + b) * 2.0).backward()
        npt.assert_array_equal(b.grad, np.full(4, 6.0))

    def test_detach_blocks_flow(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * 2.0).detach()
        nm.summation(y * 5.0).backward()
        assert x.grad is None

    def test_same_tensor_used_twice(self):
        x = Tensor([3.0], requires_grad=True)
        nm.summation(x * x).backward()
        npt.assert_allclose(x.grad, [6.0])

    def test_frozen_params_get_no_grads(self):
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([1.5], requires_grad=True)
        with nm.frozen([w]):
            nm.summation(x * w).backward()
        assert w.grad is None
        npt.assert_allclose(x.grad, [2.0])
        assert w.requires_grad  # restored


class TestCheckGrad:
    def test_linear_is_exact(self):
        assert check_grad(nm.summation, Tensor(np.array([1.0, -2.0, 0.5]))) <= 1e-10

    def test_quadratic_example(self):
        x = Tensor([1.0, 2.0])
        probe = Tensor(x.data.copy(), requires_grad=True)
        loss = nm.summation(probe * probe)
        loss.backward()
        npt.assert_allclose(probe.grad, [2.0, 4.0])
        assert check_grad(lambda t: nm.summation(t * t), x) <= 1e-4

    def test_softmax_matmul_chain(self):
        rng = Rng(6)
        w = Tensor(rng.normal((5, 3)))
        mixer = rng.normal((2, 3))

        def f(t):
            return nm.summation(nm.softmax(t @ w, axis=1) * mixer)

        assert check_grad(f, Tensor(rng.normal((2, 5)))) <= 1e-4


class TestRng:
    def test_identical_seed_identical_stream(self):
        a, b = Rng(1234), Rng(1234)
        npt.assert_array_equal(a.normal((10,)), b.normal((10,)))
        npt.assert_array_equal(a.uniform(-1, 1, (5,)), b.uniform(-1, 1, (5,)))
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_children_are_independent_and_reproducible(self):
        a = Rng(9).child(3)
        b = Rng(9).child(3)
        c = Rng(9).child(4)
        x, y, z = a.normal((4,)), b.normal((4,)), c.normal((4,))
        npt.assert_array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_bit_identical_forward_runs(self):
        def run():
            rng = Rng(77)
            w = nm.init_uniform(rng, (6, 6), 6)
            x = Tensor(rng.normal((3, 6)))
            return nm.layer_norm(nm.tanh(x @ w), axis=1).data

        npt.assert_array_equal(run(), run())


class TestAdamW:
    def test_lr_schedule_monotone(self):
        opt = AdamW([Tensor([1.0], requires_grad=True)])
        lrs = []
        for e in range(10):
            opt.set_epoch(e)
            lrs.append(opt.lr)
        assert all(a > b for a, b in zip(lrs, lrs[1:]))
        npt.assert_allclose(lrs[3], 2e-4 * (0.999 ** (1 / 8)) ** 3)

    def test_decoupled_weight_decay(self):
        p = Tensor([10.0], requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        p.grad = np.zeros(1)
        opt.step()
        # zero gradient: only the decay term moves the parameter
        npt.assert_allclose(p.data, [10.0 * (1 - 0.1 * 0.01)])

    def test_none_grads_skipped(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW([p], lr=0.1)
        opt.step()
        npt.assert_array_equal(p.data, [1.0])

    def test_step_reduces_simple_quadratic(self):
        p = Tensor([5.0], requires_grad=True)
        opt = AdamW([p], lr=0.05, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            nm.summation(p * p).backward()
            opt.step()
        assert abs(p.data[0]) < 1.0


def adamw_reference(params, m, v, t: int, lr: float, cfg: AdamWConfig):
    """The per-parameter AdamW loop that the flat-buffer ``AdamW.step`` replaced.

    ``m``/``v`` are per-parameter moment arrays updated in place; params whose
    grad is unset are skipped.
    """
    for p, mi, vi in zip(params, m, v):
        if p.grad is None:
            continue
        g = p.grad
        p.data -= lr * cfg.weight_decay * p.data
        mi[:] = cfg.beta1 * mi + (1.0 - cfg.beta1) * g
        vi[:] = cfg.beta2 * vi + (1.0 - cfg.beta2) * (g * g)
        m_hat = mi / (1.0 - cfg.beta1**t)
        v_hat = vi / (1.0 - cfg.beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


class TestFlatAdamW:
    SHAPES = [(5,), (3, 4), (4, 3, 5), (1,), (2, 2, 3), (6, 2), (7,)]

    def _pair(self, seed=0):
        rng = Rng(seed)
        init = [rng.normal(s) * 3.0 for s in self.SHAPES]
        flat = [Tensor(x.copy(), requires_grad=True) for x in init]
        ref = [Tensor(x.copy(), requires_grad=True) for x in init]
        return flat, ref

    def test_bit_identical_to_per_parameter_loop(self):
        cfg = AdamWConfig(lr=0.03, weight_decay=0.1)
        flat, ref = self._pair()
        opt = AdamW(flat, **vars(cfg))
        m = [np.zeros(p.shape) for p in ref]
        v = [np.zeros(p.shape) for p in ref]
        rng = Rng(1)
        for step in range(60):
            opt.set_epoch(step // 7)
            unset = {3: {3}, 4: {0, 6}, 5: {2, 3, 4}, 6: set(range(7))}.get(step % 9, set())
            for i, (a, b) in enumerate(zip(flat, ref)):
                if i in unset:
                    a.grad = b.grad = None
                    continue
                g = rng.normal(a.shape) * 10.0 ** rng.integers(-3, 3)
                if g.ndim == 2 and step % 2:
                    g = np.ascontiguousarray(g.T).T  # a Fortran-ordered grad
                a.grad, b.grad = g, g.copy()
            opt.step()
            adamw_reference(ref, m, v, step + 1, cfg.lr * cfg.lr_decay ** (step // 7), cfg)
            for a, b in zip(flat, ref):
                assert a.data.tobytes() == b.data.tobytes(), step
            assert opt._m.tobytes() == np.concatenate(m, axis=None).tobytes(), step
            assert opt._v.tobytes() == np.concatenate(v, axis=None).tobytes(), step

    def test_params_share_one_buffer(self):
        flat, _ = self._pair()
        frozen_param = Tensor([1.0, 2.0])
        opt = AdamW(flat[:2] + [frozen_param] + flat[2:])
        assert opt.params == flat
        for p in flat:
            assert p.data.base is opt._flat
        assert frozen_param.data.base is None
        assert opt._flat.size == sum(p.size for p in flat)

    def test_rebound_param_raises(self):
        flat, _ = self._pair()
        opt = AdamW(flat)
        flat[1].data = np.zeros((3, 4))
        for p in flat:
            p.grad = np.ones(p.shape)
        with pytest.raises(RuntimeError, match=r"parameter 1 \(shape \(3, 4\)\)"):
            opt.step()

    def test_in_place_write_is_kept(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.data[...] = [4.0, 5.0]
        assert opt._flat.tolist() == [4.0, 5.0]

    def test_duplicate_param_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="more than once"):
            AdamW([p, p])


class TestNonFiniteCheck:
    """``_make`` catches exactly the arrays holding a NaN or an infinity."""

    @pytest.mark.parametrize("bad", [
        [1.0, np.nan, 2.0],
        [np.inf, 0.0],
        [0.0, -np.inf],
        [np.inf, 1.0, -np.inf],
        [[1.0, 2.0], [3.0, np.nan]],
    ])
    def test_non_finite_raises_naming_the_op(self, bad):
        with pytest.raises(NumericError, match=r"^add produced a non-finite value$"):
            nm.add(Tensor(bad), 0.0)

    @pytest.mark.parametrize("ok", [[1e308, 1e308], [-1e308, -1e308, 5.0], [[1e308], [1e308]]])
    def test_finite_values_whose_sum_overflows_pass(self, ok):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nm.add(Tensor(ok), 0.0)
        npt.assert_array_equal(out.data, ok)


class TestFusedAttention:
    """``nm.attention`` against the per-head chain of tape ops it replaces."""

    SHAPES = [(1, 4, 2, 2), (2, 1, 1, 8), (3, 2, 1, 8), (5, 8, 2, 4), (7, 32, 2, 16),
              (16, 16, 2, 8), (33, 32, 4, 8), (64, 3, 3, 5), (100, 32, 2, 16), (320, 1, 1, 8)]

    @pytest.mark.parametrize("bias_kind", [None, "mask", "dense"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_bit_identical_and_gradients_close(self, shape, bias_kind):
        x, heads, scale, bias = _attention_case(Rng(sum(shape)), *shape, bias_kind)
        leaves = [x] + [w for head in heads for w in head]
        weight = Rng(7).normal((shape[0], shape[2] * shape[3]))
        grads = []
        for op in (attention_reference, nm.attention):
            out = op(x, heads, scale, bias)
            grads.append(out.data.tobytes())
            nm.summation(out * weight).backward()
            grads.append([t.grad for t in leaves])
            for t in leaves:
                t.zero_grad()
        ref_bytes, ref_grads, fused_bytes, fused_grads = grads
        assert fused_bytes == ref_bytes
        for a, b in zip(ref_grads, fused_grads):
            npt.assert_allclose(b, a, rtol=1e-12, atol=1e-12 * np.abs(a).max())

    def test_encoder_and_flows_bit_identical_to_reference(self, monkeypatch):
        from alignflow.encoder import SpeakerTable, TextEncoder
        from alignflow.flows import FlowStack

        enc = TextEncoder(vocab=5, width=16, n_heads=2, speaker_dim=4, rng=Rng(1))
        spk = SpeakerTable(3, 4, Rng(2)).lookup(1)
        flows = FlowStack(4, 3, 6, Rng(3), key_dim=4, head_init="small")
        tokens, mask = [0, 3, 1, 4, 2, 2], np.array([1, 1, 1, 1, 0, 0], bool)
        frames = Tensor(Rng(4).normal((4, 9)))

        def outputs():
            h, mu, sigma = enc.encode(tokens, spk, mask)
            y, logdet = flows.forward(frames)
            return [t.data.tobytes() for t in (h, mu, sigma, y, logdet)]

        fused = outputs()
        monkeypatch.setattr(nm, "attention", attention_reference)
        assert outputs() == fused

    def test_one_tape_node_for_all_heads(self):
        x, heads, scale, _ = _attention_case(Rng(1), 4, 6, 3, 2)
        out = nm.attention(x, heads, scale)
        assert out.shape == (4, 6)
        assert out._parents == (x, *[head[i] for i in range(3) for head in heads])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_q_overflow_raises(self):
        x, heads, scale, _ = _attention_case(Rng(2), 3, 2, 2, 2)
        heads[1][0].data[...] = 1e300
        x.data[0] = 1e10
        for op in (attention_reference, nm.attention):
            assert _raises_numeric(op, x, heads, scale)
        with pytest.raises(NumericError, match="q, k or v"):
            nm.attention(x, heads, scale)

    def test_v_overflow_raises(self):
        x, heads, scale, _ = _attention_case(Rng(3), 3, 2, 1, 2)
        heads[0][2].data[...] = 1e300
        x.data[...] = 1e10
        for op in (attention_reference, nm.attention):
            assert _raises_numeric(op, x, heads, scale)

    def test_overflow_in_weighted_sum_of_v_raises_like_the_chain(self):
        # finite v at the largest double: rounding in att @ v overflows for some lengths
        big = np.finfo(np.float64).max
        raised = []
        for length in range(2, 65):
            x = Tensor(np.ones((length, 1)))
            heads = [(Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[big]]))]
            fused = _raises_numeric(nm.attention, x, heads, 1.0)
            assert fused == _raises_numeric(attention_reference, x, heads, 1.0), length
            if fused:
                raised.append(length)
        assert raised, "no length overflowed; the output check went untested"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_single_minus_inf_score_raises(self):
        # q0.k0 = -1e320 overflows to -inf while every other score is finite;
        # softmax would turn that entry into a silent 0
        x = Tensor([[1e160], [1.0]])
        heads = [(Tensor([[1.0]]), Tensor([[-1.0]]), Tensor([[1.0]]))]
        for op in (attention_reference, nm.attention):
            assert _raises_numeric(op, x, heads, 1.0)
        with pytest.raises(NumericError, match="non-finite score"):
            nm.attention(x, heads, 1.0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_raises_exactly_where_the_chain_raises(self, masked):
        outcomes = set()
        for exponent in range(140, 170):
            x = Tensor([[10.0 ** exponent], [1.0], [-3.0]])
            heads = [(Tensor([[1.0]]), Tensor([[-1.0]]), Tensor([[1.0]])),
                     (Tensor([[0.5]]), Tensor([[2.0]]), Tensor([[1e-150]]))]
            bias = np.where(np.arange(3) == 2, -1e30, 0.0) * np.ones((3, 1)) if masked else None
            fused = _raises_numeric(nm.attention, x, heads, 0.7, bias)
            assert fused == _raises_numeric(attention_reference, x, heads, 0.7, bias), exponent
            outcomes.add(fused)
        assert outcomes == {False, True}

    def test_shape_errors(self):
        w = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="attention"):
            nm.attention(Tensor(np.zeros((4, 2))), [(w, w, w)], 1.0)
        with pytest.raises(ShapeError, match="attention"):
            nm.attention(Tensor(np.zeros((4, 3))), [(w, w, Tensor(np.zeros((3, 1))))], 1.0)
        with pytest.raises(ShapeError, match="attention"):
            nm.attention(Tensor(np.zeros((4, 3))), [], 1.0)
        with pytest.raises(ShapeError, match="attention"):
            nm.attention(Tensor(np.zeros(3)), [(w, w, w)], 1.0)
        with pytest.raises(ShapeError, match=r"bias \(3, 3\)"):
            nm.attention(Tensor(np.zeros((4, 3))), [(w, w, w)], 1.0, np.zeros((3, 3)))

    @pytest.mark.parametrize("bias_kind", [None, "mask", "dense"])
    @pytest.mark.parametrize("shape", [(1, 4, 1, 2), (7, 5, 1, 3), (40, 6, 2, 4),
                                       (3, 2, 2, 5), (200, 1, 1, 8), (64, 16, 2, 8)])
    def test_in_place_softmax_bytes_match_the_four_buffer_form(self, shape, bias_kind):
        x, heads, scale, bias = _attention_case(Rng(sum(shape) + 1), *shape, bias_kind)
        ws = list(itertools.chain(*zip(*heads)))  # the op's parent order
        g = Rng(8).normal((shape[0], shape[2] * shape[3]))
        out = nm.attention(x, heads, scale, bias)
        nm.summation(out * g).backward()  # the op's cotangent is g, byte for byte
        want = attention_four_buffers(x.data, [w.data for w in ws], shape[2], scale, bias, g)
        got = [out.data, x.grad, *[w.grad for w in ws]]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_attention_probs_is_the_forward_map(self):
        x, heads, scale, bias = _attention_case(Rng(4), 9, 5, 2, 3, "mask")
        w = np.array([t.data for t in itertools.chain(*zip(*heads))])
        qkv = np.matmul(x.data, w)
        att = nm.attention_probs(qkv[:2], qkv[2:4], scale, bias)
        assert att.shape == (2, 9, 9)
        npt.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-15)
        v = qkv[4:]
        want = np.matmul(att, v).transpose(1, 0, 2).reshape(9, 6)
        assert nm.attention(x, heads, scale, bias).data.tobytes() == want.tobytes()


class TestFusedLayerOps:
    """``conv1d`` with a bias, ``linear`` and ``add_layer_norm`` against the
    op chains they replace: the same bytes forward and backward, and a
    ``NumericError`` on exactly the same inputs."""

    CONV_SHAPES = [(c, o, k, n) for k in range(1, 10) for n in (1, 2, 3, 5, 8, 12)
                   for c, o in ((1, 1), (3, 2))] + [(34, 32, 3, 6), (32, 1, 1, 40)]

    @pytest.mark.parametrize("cin, cout, k, length", CONV_SHAPES)
    def test_conv1d_bytes_match_the_chain_and_the_padded_windows(self, cin, cout, k, length):
        rng = Rng(cin * 1000 + cout * 100 + k * 10 + length)
        x, w, b = (Tensor(rng.normal(s), requires_grad=True)
                   for s in ((cin, length), (cout, cin, k), (cout,)))
        fused = _forward_and_grads(nm.conv1d, [x, w, b])
        assert fused == _forward_and_grads(conv1d_reference, [x, w, b])
        out, gx, gw = conv1d_im2col(x.data, w.data, Rng(99).normal((cout, length)))
        assert _forward_and_grads(nm.conv1d, [x, w]) == [out.tobytes(), gx.tobytes(),
                                                         gw.tobytes()]

    @pytest.mark.parametrize("cin, cout, k, length", CONV_SHAPES)
    def test_conv1d_within_1e12_of_the_einsum_and_the_scalar_loops(self, cin, cout, k, length):
        rng = Rng(cin * 1000 + cout * 100 + k * 10 + length)
        x, w = (Tensor(rng.normal(s), requires_grad=True) for s in ((cin, length), (cout, cin, k)))
        g = Rng(99).normal((cout, length))
        got = [np.frombuffer(raw) for raw in _forward_and_grads(nm.conv1d, [x, w])]
        oracle = (conv1d_oracle(x.data, w.data), *conv1d_oracle_vjp(x.data, w.data, g))
        for reference in (conv1d_padded(x.data, w.data, g), oracle):
            for have, want in zip(got, reference):
                npt.assert_allclose(have, want.ravel(), rtol=1e-12, atol=1e-12)

    def test_conv1d_matches_oracle_for_every_kernel_and_short_inputs(self):
        # even kernels and kernels wider than the input: taps that fall
        # wholly in the padding must contribute zeros, not raise
        rng = Rng(8)
        for k in range(1, 10):
            for length in range(1, 11):
                x = rng.normal((rng.integers(1, 4), length))
                w = rng.normal((rng.integers(1, 4), x.shape[0], k))
                npt.assert_allclose(nm.conv1d(Tensor(x), Tensor(w)).data,
                                    conv1d_oracle(x, w), atol=1e-12)

    @pytest.mark.parametrize("n, d, m", [(1, 1, 1), (5, 32, 64), (6, 64, 32), (7, 32, 2),
                                         (40, 3, 5)])
    def test_linear_bytes_match_the_chain(self, n, d, m):
        rng = Rng(n + d + m)
        leaves = [Tensor(rng.normal(s), requires_grad=True) for s in ((n, d), (d, m), (m,))]
        assert (_forward_and_grads(nm.linear, leaves)
                == _forward_and_grads(linear_reference, leaves))

    @pytest.mark.parametrize("shape, axis", [((5, 32), 1), ((5, 32), -1), ((1, 7), 1),
                                             ((4, 3), 0), ((80, 16), 1), ((2, 3, 4), 1)])
    def test_add_layer_norm_bytes_match_the_chain(self, shape, axis):
        rng = Rng(sum(shape) + axis)
        leaves = [Tensor(rng.normal(shape) * 3.0 + 1.0, requires_grad=True) for _ in range(2)]
        assert (_forward_and_grads(nm.add_layer_norm, leaves, axis)
                == _forward_and_grads(add_layer_norm_reference, leaves, axis))

    @pytest.mark.parametrize("shape, axis", [((5, 32), 1), ((5, 32), -1), ((1, 7), 1),
                                             ((4, 3), 0), ((80, 16), 1), ((3, 1), 1),
                                             ((2, 3, 4), 0), ((2, 3, 4), 2), ((9, 64), 1),
                                             ((20, 3), 1), ((10, 5), 1), ((6, 24), -1),
                                             ((7, 6), 0), ((40, 12), 1), ((3, 5, 7), 1)])
    def test_layer_norm_bytes_match_ndarray_mean(self, shape, axis):
        rng = Rng(len(shape) * 100 + sum(shape) + axis)
        x = Tensor(rng.normal(shape) * 5.0 - 2.0, requires_grad=True)
        y, gx = layer_norm_mean(x.data, axis, Rng(99).normal(shape))
        assert _forward_and_grads(nm.layer_norm, [x], axis) == [y.tobytes(), gx.tobytes()]

    def test_one_tape_node_each(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2, 3))), Tensor(np.ones(4))
        assert nm.conv1d(x, w, b)._parents == ()  # constants build no tape
        w.requires_grad = True
        assert nm.conv1d(x, w, b)._parents == (x, w, b)
        assert nm.conv1d(x, w)._parents == (x, w)
        lw, lb = Tensor(np.ones((3, 4)), requires_grad=True), Tensor(np.ones(4))
        assert nm.linear(x, lw, lb)._parents == (x, lw, lb)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        assert nm.add_layer_norm(x, y, axis=1)._parents == (x, y)

    def test_conv1d_skips_cotangents_nothing_uses(self):
        rng = Rng(12)
        x = Tensor(rng.normal((3, 5)))
        w, b = Tensor(rng.normal((2, 3, 3)), requires_grad=True), Tensor(rng.normal(2))
        out, g = nm.conv1d(x, w, b), rng.normal((2, 5))
        gx, gw, gb = out._vjp(g)
        assert gx is None and gb.tobytes() == g.sum(axis=1).tobytes()
        assert gw.tobytes() == conv1d_im2col(x.data, w.data, g)[2].tobytes()
        with nm.frozen([w]):  # frozen at backward time, as for the critic
            assert out._vjp(g)[:2] == (None, None)
        x.requires_grad = True  # a kernel frozen under a trainable input
        with nm.frozen([w]):
            gx, gw, _ = nm.conv1d(x, w, b)._vjp(g)
        assert gw is None and gx.tobytes() == conv1d_im2col(x.data, w.data, g)[1].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bias_overflow_raises_where_the_chain_raises(self):
        outcomes = set()
        for exponent in range(300, 309):
            big = 1.7 * 10.0 ** exponent
            x = Tensor(np.full((1, 3), big))
            w, b = Tensor(np.ones((1, 1, 1))), Tensor([big])
            fused = _raises_numeric(nm.conv1d, x, w, b)
            assert fused == _raises_numeric(conv1d_reference, x, w, b), exponent
            lw, lb = Tensor(np.ones((3, 1))), Tensor([big])
            assert _raises_numeric(nm.linear, x, lw, lb) == _raises_numeric(
                linear_reference, x, lw, lb), exponent
            outcomes.add(fused)
        assert outcomes == {False, True}
        with pytest.raises(NumericError, match=r"^conv1d produced a non-finite value$"):
            nm.conv1d(x, w, b)
        with pytest.raises(NumericError, match=r"^linear produced a non-finite value$"):
            nm.linear(x, lw, lb)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_residual_sum_raises_where_the_chain_raises(self):
        outcomes = set()
        for exponent in range(300, 309):
            a = Tensor([[1.0, 1.7 * 10.0 ** exponent, -2.0]])
            b = Tensor([[0.5, 1.7 * 10.0 ** exponent, 3.0]])
            fused = _raises_numeric(nm.add_layer_norm, a, b, 1)
            assert fused == _raises_numeric(add_layer_norm_reference, a, b, 1), exponent
            outcomes.add(fused)
        assert outcomes == {False, True}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^add_layer_norm produced a non-finite value$"):
                nm.add_layer_norm(Tensor([[np.inf, 1.0]]), Tensor([[0.0, 1.0]]), axis=1)

    def test_shape_errors(self):
        x, w = Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 2, 3)))
        with pytest.raises(ShapeError, match=r"bias \(2,\)"):
            nm.conv1d(x, w, Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="linear"):
            nm.linear(Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="linear"):
            nm.linear(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match=r"\(2, 5\) and \(5, 2\)"):
            nm.add_layer_norm(x, Tensor(np.zeros((5, 2))))

    def test_modules_bit_identical_to_the_chains(self, monkeypatch):
        from alignflow.duration import DurationDiscriminator, DurationGenerator
        from alignflow.encoder import TextEncoder
        from alignflow.flows import FlowStack

        enc = TextEncoder(vocab=5, width=16, n_heads=2, rng=Rng(1))
        flows = FlowStack(4, 3, 6, Rng(3), key_dim=4, cond_dim=5, head_init="small")
        gen = DurationGenerator(h_dim=16, z_dim=2, hidden=8, rng=Rng(4), cond_dim=5)
        disc = DurationDiscriminator(h_dim=16, hidden=8, rng=Rng(5))
        cond, frames = Tensor(Rng(6).normal(5)), Tensor(Rng(7).normal((4, 9)))
        leaves = enc.params() + flows.params() + gen.params() + disc.params()

        def outputs():
            h, mu, sigma = enc.encode([0, 3, 1, 4, 2, 2], mask=np.array([1, 1, 1, 1, 1, 0], bool))
            y, logdet = flows.forward(frames, cond)
            d = gen.forward(h, Tensor(Rng(8).normal((6, 2))), cond)
            score = disc.forward(h, d)
            loss = sum(nm.summation(t * Rng(9).normal(t.shape))
                       for t in (mu, sigma, y, logdet, score))
            loss.backward()
            grads = [p.grad.tobytes() for p in leaves]
            for p in leaves:
                p.zero_grad()
            return [t.data.tobytes() for t in (h, mu, sigma, y, logdet, d, score)] + grads

        fused = outputs()
        monkeypatch.setattr(nm, "conv1d", conv1d_reference)
        monkeypatch.setattr(nm, "linear", linear_reference)
        monkeypatch.setattr(nm, "add_layer_norm", add_layer_norm_reference)
        assert outputs() == fused


class TestConcurrency:
    def test_independent_tapes_in_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        def work(seed):
            rng = Rng(seed)
            w = Tensor(rng.normal((6, 6)), requires_grad=True)
            x = Tensor(rng.normal((4, 6)))
            nm.summation(nm.tanh(x @ w)).backward()
            return w.grad.copy()

        serial = [work(s) for s in range(6)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(work, range(6)))
        for a, b in zip(serial, parallel):
            npt.assert_array_equal(a, b)


class TestNoGrad:
    """``no_grad`` records no tape in its own thread and checks every output."""

    @staticmethod
    def _ops(x, w, c):
        """One output of each kind of op, from leaves that want a gradient."""
        xa, heads, scale, _ = _attention_case(Rng(3), 5, 4, 2, 2)
        return [x @ w, nm.tanh(x @ w), nm.linear(x, w, c), nm.summation(x * w[0]),
                nm.conv1d(x, w.data.reshape(3, 3, 1), c), nm.add_layer_norm(x, x @ w),
                nm.attention(xa, heads, scale), x[1:3], nm.softmax(x @ w)]

    def _leaves(self):
        rng = Rng(1)
        return (Tensor(rng.normal((3, 3)), requires_grad=True),
                Tensor(rng.normal((3, 3)), requires_grad=True),
                Tensor(rng.normal(3), requires_grad=True))

    def test_records_no_parents_and_no_vjp(self):
        x, w, c = self._leaves()
        taped = self._ops(x, w, c)
        with nm.no_grad():
            untaped = self._ops(x, w, c)
        for a, b in zip(taped, untaped):
            assert a._vjp is not None and a.requires_grad
            assert b._parents == () and b._vjp is None and not b.requires_grad
            assert a.data.tobytes() == b.data.tobytes()
        again = x @ w
        assert again._parents == (x, w) and again._vjp is not None

    def test_restores_the_mode_on_exit_nested_or_raising(self):
        x, w, _ = self._leaves()
        with nm.no_grad():
            with nm.no_grad():
                pass
            assert (x @ w)._parents == ()
        with pytest.raises(RuntimeError), nm.no_grad():
            raise RuntimeError
        assert (x @ w)._parents == (x, w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_poisoned_parameter_still_raises(self):
        x, w, c = self._leaves()
        w.data[1, 2] = np.nan
        with nm.no_grad():
            with pytest.raises(NumericError, match="matmul"):
                x @ w
            with pytest.raises(NumericError, match="linear"):
                nm.linear(x, w, c)
            xa, heads, scale, _ = _attention_case(Rng(3), 5, 4, 1, 2)
            heads[0][1].data[0, 0] = np.inf
            with pytest.raises(NumericError, match="q, k or v"):
                nm.attention(xa, heads, scale)

    def test_is_thread_local(self):
        import threading

        x, w, _ = self._leaves()
        nm.summation(nm.tanh(x @ w)).backward()
        want = w.grad.copy()
        w.zero_grad()
        inside, release, seen = threading.Event(), threading.Event(), {}

        def untaped_thread():
            with nm.no_grad():
                seen["before"] = nm.tanh(x @ w)
                inside.set()
                release.wait(timeout=30)
                seen["after"] = nm.tanh(x @ w)

        thread = threading.Thread(target=untaped_thread)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            loss = nm.summation(nm.tanh(x @ w))  # while the other thread is inside
            loss.backward()
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert loss._parents and loss._vjp is not None
        npt.assert_array_equal(w.grad, want)
        assert seen["before"]._parents == () and seen["after"]._parents == ()

    def test_threads_switching_modes_keep_their_own(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def work(seed):
            rng = Rng(seed)
            w = Tensor(rng.normal((5, 5)), requires_grad=True)
            x = Tensor(rng.normal((3, 5)))
            grads, untaped = [], []
            for _ in range(40):
                with nm.no_grad():
                    untaped.append(nm.tanh(x @ w)._parents == ())
                w.zero_grad()
                nm.summation(nm.tanh(x @ w)).backward()
                grads.append(w.grad.copy())
            return all(untaped), grads

        serial = [work(s) for s in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                parallel = list(pool.map(work, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (ok_s, g_s), (ok_p, g_p) in zip(serial, parallel):
            assert ok_s and ok_p
            for a, b in zip(g_s, g_p):
                npt.assert_array_equal(a, b)


class TestTensorBasics:
    def test_take_rows_bounds(self):
        t = Tensor(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            nm.take_rows(t, [0, 3])

    def test_grad_shape_matches(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        nm.summation(x * 1.5).backward()
        assert x.grad.shape == x.shape

    def test_value_semantics_of_detach(self):
        x = Tensor([1.0, 2.0])
        y = x.detach()
        y.data[0] = 99.0
        assert x.data[0] == 1.0
