import contextlib
import functools
import re
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


def attention_reference(x, w, n_heads, scale, bias, wo):
    """Multi-head self-attention with its output projection as the chain of
    scalar tape ops ``nm._attend`` replaces; head h projects with rows h,
    H + h and 2H + h of the stacked weights."""
    parts = []
    for h in range(n_heads):
        q = x @ w[h]
        k = x @ w[n_heads + h]
        v = x @ w[2 * n_heads + h]
        scores = (q @ k.T) * scale
        if bias is not None:
            scores = scores + bias
        parts.append(nm.softmax(scores, axis=1) @ v)
    return nm.concat(parts, axis=1) @ wo


def attend_node(x, w, n_heads, scale, bias, wo):
    """``nm._attend``, the attention of ``encoder_block`` and
    ``coupling_conditioner`` on arrays, as one tape node named "attention",
    wrapped the way they wrap it."""
    parents = x, w, wo = tuple(map(nm.ensure_tensor, (x, w, wo)))
    data, back = nm._attend(x.data, w.data, n_heads, scale, bias, wo.data, "attention")
    return nm._make(data, parents, back, "attention")


@contextlib.contextmanager
def chains_patched_in(monkeypatch, **references):
    """Replace each named ``nm`` op by its reference for the ``with`` body,
    counting the calls, and assert on exit that every one ran: a patched op
    the body never calls would compare the fused run with itself."""
    calls = dict.fromkeys(references, 0)

    def counted(name, reference):
        def op(*args, **kwargs):
            calls[name] += 1
            return reference(*args, **kwargs)
        return op

    for name, reference in references.items():
        monkeypatch.setattr(nm, name, counted(name, reference))
    yield
    assert all(calls.values()), f"never ran: {sorted(n for n, c in calls.items() if not c)}"


def ffn_reference(x, w1, b1, w2, b2):
    """The position-wise net of ``nm.encoder_block`` as the chain of tape ops
    it replaces."""
    return nm.linear(nm.relu(nm.linear(x, w1, b1)), w2, b2)


def affine_coupling_reference(x, c):
    """``nm.affine_coupling`` as the chain of tape ops it replaces."""
    h = x.shape[0] // 2
    return nm.concat([c[2 * h:], x[h:] * nm.exp(c[:h]) + c[h:2 * h]], axis=0)


def feed_forward_node(x, w1, b1, w2, b2):
    """``nm._feed_forward``, the encoder block's net on arrays, as one tape
    node named "ffn", wrapped the way ``encoder_block`` wraps it."""
    parents = x, w1, b1, w2, b2 = tuple(map(nm.ensure_tensor, (x, w1, b1, w2, b2)))
    data, back = nm._feed_forward(x.data, w1.data, b1.data, w2.data, b2.data, "ffn")
    return nm._make(data, parents, back, "ffn")


def scale_head_reference(x, w, b):
    """``nm.scale_head`` as the chain of tape ops it replaces."""
    return nm.exp(nm.clamp(nm.linear(x, w, b), -6.0, 6.0))


def encoder_block_reference(x, w, wo, w1, b1, w2, b2, n_heads, scale, bias=None,
                            attention=attend_node):
    """``nm.encoder_block`` as the chain of tape ops it replaces: the
    ``attention`` with its output projection, add, layer_norm, the net, add and
    layer_norm."""
    x = add_layer_norm_reference(x, attention(x, w, n_heads, scale, bias, wo), 1)
    return add_layer_norm_reference(x, ffn_reference(x, w1, b1, w2, b2), 1)


def _conditioner_chain(x, w1, b1, w2, b2, wqkv, wo, scale, wc, cond, attention):
    """The passed half, the transformed half, the clamped log-scale and the
    conv output of a coupling layer, as the chain of tape ops it ran."""
    x = nm.ensure_tensor(x)
    h = x.shape[0] // 2
    xa, xb = x[:h], x[h:]
    hs = xa
    if wqkv is not None:
        hs = hs + attention(xa.T, wqkv, 1, scale, None, wo).T
    pre = _conv1d(hs, w1, b1)
    if cond is not None:
        pre = pre + nm.reshape(wc @ nm.reshape(cond, (-1, 1)), (-1, 1))
    out = _conv1d(nm.relu(pre), w2, b2)
    return xa, xb, nm.clamp(out[:h], -8.0, 8.0), out


def coupling_reference(x, w1, b1, w2, b2, wqkv=None, wo=None, scale=1.0, wc=None, cond=None):
    """A coupling layer's (y, logdet) as the chain of tape ops that
    ``coupling_conditioner``, ``affine_coupling`` and ``sum_rows`` replaced;
    the output is the chain ``affine_coupling`` replaced before it took the
    conditioner's rows."""
    xa, xb, s, out = _conditioner_chain(x, w1, b1, w2, b2, wqkv, wo, scale, wc, cond,
                                        attend_node)
    t = out[xa.shape[0]:]
    return nm.concat([xa, xb * nm.exp(s) + t], axis=0), nm.summation(s)


def coupling_conditioner_reference(x, w1, b1, w2, b2, wqkv=None, wo=None, scale=1.0, wc=None,
                                   cond=None, attention=attend_node):
    """``nm.coupling_conditioner`` as the chain of tape ops it replaces, its
    rows [s, t, xa] joined by a concat."""
    xa, _, s, out = _conditioner_chain(x, w1, b1, w2, b2, wqkv, wo, scale, wc, cond, attention)
    return nm.concat([s, out[xa.shape[0]:], xa], axis=0)


def fused_coupling(x, w1, b1, w2, b2, wqkv=None, wo=None, scale=1.0, wc=None, cond=None):
    """A coupling layer's (y, logdet) through the fused ops, as
    ``CouplingLayer.forward`` runs them: three tape nodes."""
    x = nm.ensure_tensor(x)
    c = nm.coupling_conditioner(x, w1, b1, w2, b2, wqkv, wo, scale, wc, cond)
    return nm.affine_coupling(x, c), nm.sum_rows(c, x.shape[0] // 2)


def attention_four_buffers(x, ws, n_heads, scale, bias, wo, g):
    """``nm._attend``'s forward and back as written before its softmax went in
    place, with four (H, T, T) temporaries each way: (output, x cotangent,
    weight cotangents in the all-wq, all-wk, all-wv order, ``wo`` cotangent)
    for output cotangent ``g``; ``ws`` are the 3H weights in that order. It
    must match byte for byte."""
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
    heads = np.matmul(att, v).transpose(1, 0, 2).reshape(length, n * d)
    g_wo = heads.T @ g
    g = g @ wo.T
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
    return [heads @ wo, g_x, *g_w, g_wo]


_conv1d = nm.conv1d  # the op itself, for a reference that outlives a monkeypatch


def conv1d_reference(x, w, b=None):
    """Bias-fused ``conv1d`` as the chain of tape ops it replaces."""
    out = _conv1d(x, w)
    return out if b is None else out + nm.reshape(b, (-1, 1))


def conv_tower_reference(feats, extra, w1, b1, w2, b2, wh, bh, wc=None, cond=None):
    """``nm.conv_tower`` as the chain of tape ops it replaces: the input
    assembly of the duration generator and critic, then their towers' conv,
    condition add, relu, conv, relu, 1x1 head and ``[0]``."""
    feats = nm.ensure_tensor(feats)
    if extra is None:
        x = feats.T
    else:
        extra = nm.ensure_tensor(extra)
        if extra.ndim == 1:  # the critic's durations
            extra = nm.reshape(extra, (-1, 1))
        x = nm.concat([feats, extra], axis=1).T
    pre = _conv1d(x, w1, b1)
    if cond is not None:
        pre = pre + nm.reshape(wc @ nm.reshape(cond, (-1, 1)), (-1, 1))
    h = nm.relu(pre)
    h = nm.relu(_conv1d(h, w2, b2))
    return _conv1d(h, wh, bh)[0]


def linear_reference(x, w, b):
    """``nm.linear`` as the chain of tape ops it replaces."""
    return x @ w + b


def add_layer_norm_reference(a, b, axis):
    """A post-norm residual of ``nm.encoder_block`` as the add and layer_norm
    tape ops it replaces."""
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


def dfs_order(root):
    """The tape's nodes in the topological order of an iterative depth-first
    search from ``root``, the sort ``backward`` ran before every walk until it
    visited nodes in creation order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def backward_dfs(root):
    """``Tensor.backward`` as it was with the depth-first sort: the reference
    the creation-order walk must match."""
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(dfs_order(root)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg


def aligned_nll_chain(mu, sigma, u, logdet, frame_tokens):
    """``nm.aligned_nll`` as the chain of 14 tape ops it replaced."""
    u_t = u.T  # (J, C)
    mu_f = nm.take_rows(mu, frame_tokens)
    sig_f = nm.take_rows(sigma, frame_tokens)
    diff = u_t - mu_f
    terms = nm.log(sig_f) + 0.5 * nm.LOG_2PI + (diff * diff) / (2.0 * sig_f * sig_f)
    total = nm.summation(terms) - logdet
    return total * (1.0 / u_t.size)


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
    """Random x, stacked q/k/v, output projection (H*d, D), scale and bias;
    ``bias_kind`` is None, "mask" (masked key columns) or "dense"."""
    x = Tensor(rng.normal((length, width)), requires_grad=True)
    heads = [[nm.init_uniform(rng, (width, head_dim), width).data for _ in range(3)]
             for _ in range(n_heads)]  # wq, wk, wv per head, stacked all wq, all wk, all wv
    w = Tensor(np.array(list(zip(*heads))).reshape(3 * n_heads, width, head_dim),
               requires_grad=True)
    bias = None
    if bias_kind == "mask":
        keep = rng.uniform(0.0, 1.0, length) < 0.7
        keep[0] = True
        bias = np.zeros((length, length))
        bias[:, ~keep] = -1e30
    elif bias_kind == "dense":
        bias = rng.normal((length, length))
    wo = Tensor(rng.normal((n_heads * head_dim, width)), requires_grad=True)
    return x, w, wo, 1.0 / np.sqrt(head_dim), bias


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


# (a's shape, b's shape, a's cotangent from a full-shape one, b's), each summed in
# the order _unbroadcast takes: leading axes first, then size-1 axes left to right
_BROADCAST_CASES = [
    ((3, 1), (1, 4), lambda t: t.sum(axis=1, keepdims=True),
     lambda t: t.sum(axis=0, keepdims=True)),
    ((3, 4), (), lambda t: t, lambda t: t.sum(axis=0).sum(axis=0)),
    ((), (), lambda t: t, lambda t: t),
]

# name -> (forward, local cotangents of a and b) on numpy arrays
_BINARY_REFERENCES = {
    "add": (np.add, lambda g, x, y: (g, g)),
    "sub": (np.subtract, lambda g, x, y: (g, -g)),
    "mul": (np.multiply, lambda g, x, y: (g * y, g * x)),
    "div": (np.divide, lambda g, x, y: (g / y, -g * x / (y * y))),
}


@pytest.mark.parametrize("name", sorted(_BINARY_REFERENCES))
class TestBinaryOps:
    """add, sub, mul and div: the broadcast ``ShapeError`` and, bit for bit,
    the forward and both cotangents summed back to the operands' shapes."""

    def test_shape_error_names_the_op_and_both_shapes(self, name):
        with pytest.raises(ShapeError, match=rf"^{name}: shapes \(2, 3\) and \(4, 5\) do "
                                             rf"not broadcast$"):
            getattr(nm, name)(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    @pytest.mark.parametrize("case", range(len(_BROADCAST_CASES)))
    def test_bytes_match_numpy(self, name, case):
        sa, sb, sum_a, sum_b = _BROADCAST_CASES[case]
        rng = Rng(40 + case)
        x = np.asarray(rng.normal(sa))
        y = np.asarray(rng.uniform(0.5, 2.0, sb) * np.where(rng.normal(sb) < 0, -1.0, 1.0))
        a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
        forward, local = _BINARY_REFERENCES[name]
        out = getattr(nm, name)(a, b)
        want = np.asarray(forward(x, y))
        assert out._parents == (a, b) and out.data.tobytes() == want.tobytes()
        g = np.asarray(rng.normal(want.shape))
        g.reshape(-1)[0] = -0.0  # a signed zero in the cotangent
        ga, gb = out._vjp(g)
        la, lb = local(g, x, y)  # each of the output's shape
        assert ga.shape == sa and ga.tobytes() == np.asarray(sum_a(la)).tobytes()
        assert gb.shape == sb and gb.tobytes() == np.asarray(sum_b(lb)).tobytes()


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

    @pytest.mark.parametrize("span", [1, 2, 3, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62])
    def test_batched_integers_draw_the_scalar_stream(self, span):
        # the corpus sampler draws a round of ids in one call; a numpy release
        # that changed how a batch consumes the stream would move every corpus
        batched, scalar = Rng(31), Rng(31)
        for n in (1, 5, 64):
            lo = -(span // 2)
            got = batched.integers(lo, lo + span, n)
            assert got.tolist() == [scalar.integers(lo, lo + span) for _ in range(n)]
            assert batched._gen.bit_generator.state == scalar._gen.bit_generator.state

    @pytest.mark.xfail(strict=True, reason="a child seeds from (seed, tag) alone, so a "
                       "grandchild draws the root's child of the same tag")
    def test_a_grandchild_differs_from_the_roots_child_of_its_tag(self):
        assert not np.array_equal(Rng(7).child(3).child(1).normal(8), Rng(7).child(1).normal(8))

    def test_bit_identical_forward_runs(self):
        def run():
            rng = Rng(77)
            w = nm.init_uniform(rng, (6, 6), 6)
            x = Tensor(rng.normal((3, 6)))
            return nm.layer_norm(nm.tanh(x @ w), axis=1).data

        npt.assert_array_equal(run(), run())


class TestAdamW:
    @pytest.mark.parametrize("field, value, want", [
        ("lr", np.nan, "finite and > 0"), ("lr", 0.0, "finite and > 0"),
        ("lr", -1.0, "finite and > 0"), ("eps", np.inf, "finite and > 0"),
        ("lr_decay", 0.0, "finite and > 0"), ("beta1", 1.0, "in [0, 1)"),
        ("beta2", -0.1, "in [0, 1)"), ("beta1", np.nan, "in [0, 1)"),
        ("weight_decay", -1e-3, "finite and >= 0"), ("weight_decay", np.inf, "finite and >= 0"),
    ])
    def test_config_rejects_values_out_of_range_when_built(self, field, value, want):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {want}, got {value!r}")):
            AdamWConfig(**{field: value})
        AdamWConfig(beta1=0.0, beta2=0.0, weight_decay=0.0)  # the closed ends are valid

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
        opt = AdamW([p], AdamWConfig(lr=0.1, weight_decay=0.01))
        p.grad = np.zeros(1)
        opt.step()
        # zero gradient: only the decay term moves the parameter
        npt.assert_allclose(p.data, [10.0 * (1 - 0.1 * 0.01)])

    def test_none_grads_skipped(self):
        p = Tensor([1.0], requires_grad=True)
        opt = AdamW([p], AdamWConfig(lr=0.1))
        opt.step()
        npt.assert_array_equal(p.data, [1.0])

    def test_step_reduces_simple_quadratic(self):
        p = Tensor([5.0], requires_grad=True)
        opt = AdamW([p], AdamWConfig(lr=0.05, weight_decay=0.0))
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
        opt = AdamW(flat, cfg)
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

    def test_first_bias_correction_rounds_to_exactly_one(self):
        # the steps from which AdamW stops dividing m by it
        assert 1.0 - 0.8**167 != 1.0 and 1.0 - 0.8**168 == 1.0
        assert 1.0 - 0.0**1 == 1.0

    @pytest.mark.parametrize("beta1, steps", [
        (0.8, 170),  # t = 167, 168 and 169 cross to the unit correction
        (0.0, 6),    # the correction is 1.0 from t = 1
    ])
    def test_unit_bias_correction_steps_bit_identical(self, beta1, steps):
        cfg = AdamWConfig(lr=0.03, beta1=beta1, weight_decay=0.1)
        flat, ref = self._pair(2)
        for a, b in zip(flat, ref):  # signed zeros among the params
            a.data.reshape(-1)[0] = b.data.reshape(-1)[0] = -0.0
        opt = AdamW(flat, cfg)
        m = [np.zeros(p.shape) for p in ref]
        v = [np.zeros(p.shape) for p in ref]
        rng, negative_zero_moment = Rng(3), False
        for t in range(1, steps + 1):
            for i, (a, b) in enumerate(zip(flat, ref)):
                if (t + i) % 11 == 0:
                    a.grad = b.grad = None
                    continue
                g = rng.normal(a.shape) * 10.0 ** rng.integers(-3, 3)
                g.reshape(-1)[: t % 3] = -0.0  # zero grads after negative moments
                a.grad, b.grad = g, g.copy()
            opt.step()
            adamw_reference(ref, m, v, t, cfg.lr, cfg)
            for a, b in zip(flat, ref):
                assert a.data.tobytes() == b.data.tobytes(), t
            assert opt._m.tobytes() == np.concatenate(m, axis=None).tobytes(), t
            assert opt._v.tobytes() == np.concatenate(v, axis=None).tobytes(), t
            negative_zero_moment |= bool((np.signbit(opt._m) & (opt._m == 0.0)).any())
        assert negative_zero_moment or beta1 > 0.0  # m = 0 * m + g is -0.0 after a negative m

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
        opt = AdamW([p], AdamWConfig(lr=0.1, weight_decay=0.0))
        p.data[...] = [4.0, 5.0]
        assert opt._flat.tolist() == [4.0, 5.0]

    def test_duplicate_param_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="more than once"):
            AdamW([p, p])


class TestPackParams:
    def test_values_are_copied_bit_for_bit_into_views_of_one_buffer(self):
        values = [np.array([-0.0, 5e-324, np.nan, -np.inf]), np.array(2.5),
                  np.empty((0, 3)), np.arange(6.0).reshape(2, 3)]
        params = [Tensor(v.copy(), requires_grad=bool(i % 2)) for i, v in enumerate(values)]
        flat = nm.pack_params(params)
        assert flat.dtype == np.float64 and flat.flags.c_contiguous and flat.size == 11
        assert flat.tobytes() == b"".join(v.tobytes() for v in values)
        for p, v in zip(params, values):
            assert p.data.base is flat and p.shape == v.shape
            assert p.data.tobytes() == v.tobytes()
        params[3].data[1, 2] = 9.0  # an in-place write lands in the buffer
        assert flat[-1] == 9.0 and values[3][1, 2] == 5.0

    def test_packing_again_moves_every_view_to_the_new_buffer(self):
        params = [Tensor(np.ones(2)), Tensor(np.zeros((1, 3)))]
        first = nm.pack_params(params)
        second = nm.pack_params(params[::-1])
        assert first is not second and second.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
        assert all(p.data.base is second for p in params)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_infinite_variance_raises_in_place_of_zero_rows(self):
        # centred values past about 1.3e154 overflow a layer norm's variance, and
        # its zero scale would return finite all-zero rows with zero gradients
        with pytest.raises(NumericError, match=r"^layer_norm produced a non-finite variance$"):
            nm.layer_norm(Tensor([[1e200, -1e200, 3.0]]), axis=1)
        assert np.isfinite(nm.layer_norm(Tensor([[1e150, -1e150, 3.0]]), axis=1).data).all()
        from alignflow.encoder import EncoderBlock

        block = EncoderBlock(width=8, n_heads=2, ff_width=12, rng=Rng(13))
        block.w2.data[...] *= 1e160
        with pytest.raises(NumericError, match=r"^encoder_block produced a non-finite variance$"):
            block.forward(Tensor(Rng(14).normal((5, 8))))
        # a NaN output keeps the message of every other op's non-finite output
        with pytest.raises(NumericError, match=r"^layer_norm produced a non-finite value$"):
            nm.layer_norm(Tensor([[1.7e308, 1.7e308, -1.0]]), axis=1)

    @pytest.mark.parametrize("ok", [[1e308, 1e308], [-1e308, -1e308, 5.0], [[1e308], [1e308]]])
    def test_finite_values_whose_sum_overflows_pass(self, ok):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nm.add(Tensor(ok), 0.0)
        npt.assert_array_equal(out.data, ok)


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-310, np.finfo(np.float64).max, 1.0]


def _float_arrays(max_dims: int = 3):
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    elements = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True))
    shapes = hnp.array_shapes(min_dims=0, max_dims=max_dims, min_side=0, max_side=5)
    return hnp.arrays(np.float64, shapes, elements=elements)


def _layouts(a: np.ndarray) -> list[np.ndarray]:
    """``a`` itself and non-contiguous views of it: transposed, strided, reversed."""
    views = [a, a.T]
    if a.ndim:
        views += [a[..., ::2], a[::-1], np.swapaxes(a, 0, -1)[::2]]
    return views


class TestLeanMake:
    """``_make`` builds its output without ``Tensor.__init__``; it must keep
    ``Tensor(data)``'s conversion, the finite check and every slot."""

    @staticmethod
    def _raised(data) -> bool:
        try:
            nm._make(data, (), None, "probe")
        except NumericError as e:
            assert str(e) == "probe produced a non-finite value"
            return True
        return False

    def test_raises_exactly_when_not_all_finite(self):
        from hypothesis import given, settings

        @settings(max_examples=300, deadline=None)
        @given(_float_arrays())
        def check(a):
            for view in _layouts(a):
                assert self._raised(view) == (not np.isfinite(view).all())
                if np.isfinite(view).all():
                    assert nm._make(view, (), None, "probe").data is view  # no copy

        check()

    @pytest.mark.parametrize("value", _SPECIAL)
    def test_each_special_value_alone_and_among_finite(self, value):
        strided = np.full((4, 6), 0.5, order="F")[:, ::2]
        strided[1, 2] = value
        for data in (np.array(value), np.array([1.0, value, -2.0]), strided, np.float64(value),
                     value):
            assert self._raised(data) == (not np.isfinite(value))

    def test_empty_arrays_pass(self):
        for shape in ((0,), (3, 0), (0, 4, 2)):
            assert nm._make(np.empty(shape), (), None, "probe").shape == shape

    @pytest.mark.parametrize("result", [
        np.float64(2.5), 2.5, np.float32(1.5), np.arange(3, dtype=np.float32),
        np.arange(4).reshape(2, 2), np.array([True, False]), np.array(3.0).view(np.matrix),
        np.array([1.0, 2.0], dtype=">f8"),
    ])
    def test_converts_like_the_tensor_constructor(self, result):
        out = nm._make(result, (), None, "probe")
        want = Tensor(result).data
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64
        assert out.data.dtype.isnative
        assert out.shape == want.shape and out.data.tobytes() == want.tobytes()

    def test_non_finite_scalar_results_raise(self):
        for result in (np.float64(np.nan), float("inf"), np.float32(-np.inf)):
            assert self._raised(result)

    def test_every_slot_set_taped_untaped_and_under_no_grad(self):
        leaf = Tensor(np.ones(2), requires_grad=True)
        const = Tensor(np.ones(2))

        def vjp(g):
            return (g,)

        taped = nm._make(np.ones(2), (const, leaf), vjp, "probe")
        untaped = nm._make(np.ones(2), (const,), vjp, "probe")
        with nm.no_grad():
            off = nm._make(np.ones(2), (leaf,), vjp, "probe")
        for t in (taped, untaped, off):
            for slot in Tensor.__slots__:
                getattr(t, slot)  # an unset slot raises AttributeError
            assert t.grad is None and type(t._seq) is int and t._seq > leaf._seq
        assert taped.requires_grad is True
        assert taped._parents == (const, leaf) and taped._vjp is vjp
        for t in (untaped, off):
            assert t.requires_grad is False and t._parents == () and t._vjp is None
        assert taped._seq < untaped._seq < off._seq


class TestFusedAttention:
    """``nm._attend``, the attention math of ``encoder_block`` and
    ``coupling_conditioner``, as the tape node ``attend_node``, against the
    per-head chain of tape ops it replaces and the four-buffer form."""

    SHAPES = [(1, 4, 2, 2), (2, 1, 1, 8), (3, 2, 1, 8), (5, 8, 2, 4), (7, 32, 2, 16),
              (16, 16, 2, 8), (33, 32, 4, 8), (64, 3, 3, 5), (100, 32, 2, 16), (320, 1, 1, 8)]

    @pytest.mark.parametrize("bias_kind", [None, "mask", "dense"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_bit_identical_and_gradients_close(self, shape, bias_kind):
        x, w, wo, scale, bias = _attention_case(Rng(sum(shape)), *shape, bias_kind)
        leaves = [x, w, wo]
        weight = Rng(7).normal((shape[0], shape[1]))
        grads = []
        for op in (attention_reference, attend_node):
            out = op(x, w, shape[2], scale, bias, wo)
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
        with chains_patched_in(  # the per-head attention chain in both fused ops
                monkeypatch,
                encoder_block=functools.partial(encoder_block_reference,
                                                attention=attention_reference),
                coupling_conditioner=functools.partial(coupling_conditioner_reference,
                                                       attention=attention_reference)):
            assert outputs() == fused

    def test_one_tape_node_for_all_heads(self):
        x, w, wo, scale, _ = _attention_case(Rng(1), 4, 6, 3, 2)
        out = attend_node(x, w, 3, scale, None, wo)
        assert out.shape == (4, 6)
        assert out._parents == (x, w, wo)
        g_x, g_w, g_wo = out._vjp(np.ones(out.shape))
        assert g_x.shape == x.shape and g_w.shape == w.shape == (9, 6, 2)
        assert g_wo.shape == wo.shape == (6, 6)
        assert out._vjp(np.ones(out.shape), False)[0] is None  # want_x off

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_q_overflow_raises(self):
        x, w, wo, scale, _ = _attention_case(Rng(2), 3, 2, 2, 2)
        w.data[1] = 1e300  # head 1's wq
        x.data[0] = 1e10
        for op in (attention_reference, attend_node):
            assert _raises_numeric(op, x, w, 2, scale, None, wo)
        with pytest.raises(NumericError, match="q, k or v"):
            attend_node(x, w, 2, scale, None, wo)

    def test_v_overflow_raises(self):
        x, w, wo, scale, _ = _attention_case(Rng(3), 3, 2, 1, 2)
        w.data[2] = 1e300  # wv
        x.data[...] = 1e10
        for op in (attention_reference, attend_node):
            assert _raises_numeric(op, x, w, 1, scale, None, wo)

    def test_overflow_in_weighted_sum_of_v_raises_like_the_chain(self):
        # finite v at the largest double: rounding in att @ v overflows for some lengths
        big = np.finfo(np.float64).max
        raised = []
        for length in range(2, 65):
            x = Tensor(np.ones((length, 1)))
            w, wo = Tensor([[[0.0]], [[0.0]], [[big]]]), Tensor([[1.0]])
            fused = _raises_numeric(attend_node, x, w, 1, 1.0, None, wo)
            assert fused == _raises_numeric(attention_reference, x, w, 1, 1.0, None, wo), length
            if fused:
                raised.append(length)
        assert raised, "no length overflowed; the heads check went untested"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_single_minus_inf_score_raises(self):
        # q0.k0 = -1e320 overflows to -inf while every other score is finite;
        # softmax would turn that entry into a silent 0
        x = Tensor([[1e160], [1.0]])
        w, wo = Tensor([[[1.0]], [[-1.0]], [[1.0]]]), Tensor([[1.0]])
        for op in (attention_reference, attend_node):
            assert _raises_numeric(op, x, w, 1, 1.0, None, wo)
        with pytest.raises(NumericError, match="non-finite score"):
            attend_node(x, w, 1, 1.0, None, wo)

    @pytest.mark.parametrize("masked", [False, True])
    def test_raises_exactly_where_the_chain_raises(self, masked):
        outcomes = set()
        wo = Tensor(np.eye(2))  # the heads themselves
        for exponent in range(140, 170):
            x = Tensor([[10.0 ** exponent], [1.0], [-3.0]])
            # head 0 (wq, wk, wv) = (1, -1, 1), head 1 = (0.5, 2, 1e-150)
            w = Tensor(np.array([1.0, 0.5, -1.0, 2.0, 1.0, 1e-150]).reshape(6, 1, 1))
            bias = np.where(np.arange(3) == 2, -1e30, 0.0) * np.ones((3, 1)) if masked else None
            fused = _raises_numeric(attend_node, x, w, 2, 0.7, bias, wo)
            assert fused == _raises_numeric(attention_reference, x, w, 2, 0.7, bias, wo), exponent
            outcomes.add(fused)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("bias_kind", [None, "mask", "dense"])
    @pytest.mark.parametrize("shape", SHAPES + [(1, 4, 1, 2), (7, 5, 1, 3), (40, 6, 2, 4),
                                                (3, 2, 2, 5), (200, 1, 1, 8), (64, 16, 2, 8)])
    def test_in_place_softmax_bytes_match_the_four_buffer_form(self, shape, bias_kind):
        x, w, wo, scale, bias = _attention_case(Rng(sum(shape) + 1), *shape, bias_kind)
        g = Rng(8).normal((shape[0], shape[1]))
        out = attend_node(x, w, shape[2], scale, bias, wo)
        nm.summation(out * g).backward()  # the node's cotangent is g, byte for byte
        want = attention_four_buffers(x.data, list(w.data), shape[2], scale, bias, wo.data, g)
        got = [out.data, x.grad, *w.grad, wo.grad]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_attention_probs_is_the_forward_map(self):
        x, w, wo, scale, bias = _attention_case(Rng(4), 9, 5, 2, 3, "mask")
        qkv = np.matmul(x.data, w.data)
        att = nm.attention_probs(qkv[:2], qkv[2:4], scale, bias)
        assert att.shape == (2, 9, 9)
        npt.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-15)
        v = qkv[4:]
        want = np.matmul(att, v).transpose(1, 0, 2).reshape(9, 6) @ wo.data
        assert attend_node(x, w, 2, scale, bias, wo).data.tobytes() == want.tobytes()


class TestFusedLayerOps:
    """``conv1d`` with a bias and ``linear`` against the op chains they
    replace: the same bytes forward and backward, and a ``NumericError`` on
    exactly the same inputs."""

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

    def test_conv1d_vjp_computes_every_cotangent(self):
        """No model path runs ``conv1d``, so its VJP takes no flags: a constant
        input or bias and a frozen kernel still get the all-trainable bytes,
        and the walk leaves ``grad`` None on each leaf that takes none."""
        rng = Rng(12)
        x = Tensor(rng.normal((3, 5)))
        w, b = Tensor(rng.normal((2, 3, 3)), requires_grad=True), Tensor(rng.normal(2))
        out, g = nm.conv1d(x, w, b), rng.normal((2, 5))
        _, want_gx, want_gw = conv1d_im2col(x.data, w.data, g)
        want = [want_gx.tobytes(), want_gw.tobytes(), g.sum(axis=1).tobytes()]
        assert [gr.tobytes() for gr in out._vjp(g)] == want
        with nm.frozen([w]):  # frozen at backward time, as for the critic
            assert [gr.tobytes() for gr in out._vjp(g)] == want
        x.requires_grad = True  # a kernel frozen under a trainable input
        with nm.frozen([w]):
            nm.summation(nm.conv1d(x, w, b) * g).backward()
        assert w.grad is None and b.grad is None and x.grad.tobytes() == want[0]

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

    def test_shape_errors(self):
        x, w = Tensor(np.zeros((2, 5))), Tensor(np.zeros((3, 2, 3)))
        with pytest.raises(ShapeError, match=r"bias \(2,\)"):
            nm.conv1d(x, w, Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="linear"):
            nm.linear(Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="linear"):
            nm.linear(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))

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
        with chains_patched_in(  # the norms' add + layer_norm, the convs as conv1d chains
                monkeypatch, linear=linear_reference, encoder_block=encoder_block_reference,
                coupling_conditioner=coupling_conditioner_reference,
                conv_tower=conv_tower_reference):
            assert outputs() == fused


class TestFusedProjectionFfnCoupling:
    """``_attend``'s output projection, the encoder block's net
    ``_feed_forward`` as one node, and ``affine_coupling``, against the op
    chains they replace: the same bytes forward and backward, and a
    ``NumericError`` on exactly the same inputs."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_projected_attention_raises_where_the_chain_raises(self):
        # finite v at the largest double: rounding in att @ v overflows the
        # heads for some lengths, and a zero projection would hide that
        big = np.finfo(np.float64).max
        outcomes = set()
        for length in range(2, 40):
            x = Tensor(np.ones((length, 1)))
            w = Tensor([[[0.0]], [[0.0]], [[big]]])
            for proj in (0.0, 1e-300, 1.0):
                wo = Tensor([[proj]])
                fused = _raises_numeric(attend_node, x, w, 1, 1.0, None, wo)
                assert fused == _raises_numeric(attention_reference, x, w, 1, 1.0, None, wo), (
                    length, proj)
                outcomes.add(fused)
        assert outcomes == {False, True}
        outcomes = set()
        for exponent in range(150, 160):  # finite heads, overflowing projection
            x = Tensor(np.ones((3, 1)))
            w = Tensor([[[1.0]], [[1.0]], [[10.0 ** exponent]]])
            wo = Tensor([[10.0 ** exponent, 1.0]])
            fused = _raises_numeric(attend_node, x, w, 1, 1.0, None, wo)
            assert fused == _raises_numeric(attention_reference, x, w, 1, 1.0, None, wo), exponent
            outcomes.add(fused)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("n, d, f, m", [(1, 1, 1, 1), (5, 32, 64, 32), (6, 16, 24, 16),
                                            (40, 3, 7, 5)])
    def test_ffn_bytes_match_the_chain(self, n, d, f, m):
        rng = Rng(n + d + f + m)
        leaves = [Tensor(rng.normal(s), requires_grad=True)
                  for s in ((n, d), (d, f), (f,), (f, m), (m,))]
        leaves[0].data[0] = 0.0  # pre-activations at relu's kink
        leaves[2].data[::2] = 0.0
        assert (_forward_and_grads(feed_forward_node, leaves)
                == _forward_and_grads(ffn_reference, leaves))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ffn_raises_where_the_chain_raises(self):
        outcomes = {1.0: set(), -1.0: set()}
        for exponent in range(300, 309):
            big = 1.7 * 10.0 ** exponent
            for sign in (1.0, -1.0):  # relu turns an overflow to -inf into 0
                args = (Tensor([[sign * big, sign * big]]), Tensor(np.ones((2, 1))),
                        Tensor([0.0]), Tensor([[10.0]]), Tensor([0.0]))
                fused = _raises_numeric(feed_forward_node, *args)
                assert fused == _raises_numeric(ffn_reference, *args), (exponent, sign)
                outcomes[sign].add(fused)
        assert outcomes == {1.0: {False, True}, -1.0: {False, True}}
        with pytest.raises(NumericError, match=r"^ffn produced a non-finite value$"):
            feed_forward_node(*args)

    @pytest.mark.parametrize("h, length", [(1, 1), (1, 9), (2, 5), (3, 40)])
    def test_affine_coupling_bytes_match_the_chain(self, h, length):
        rng = Rng(h * 100 + length)
        leaves = [Tensor(rng.normal(s), requires_grad=True)
                  for s in ((2 * h, length), (3 * h, length))]
        assert (_forward_and_grads(nm.affine_coupling, leaves)
                == _forward_and_grads(affine_coupling_reference, leaves))

    def test_affine_coupling_shift_cotangent_has_the_getitem_zeros(self):
        rng = Rng(4)
        leaves = [Tensor(rng.normal(s), requires_grad=True) for s in ((4, 3), (6, 3))]
        weight = rng.normal((4, 3))
        weight[2:, 0] = weight[:2, 1] = -0.0
        grads = []
        for op in (nm.affine_coupling, affine_coupling_reference):
            nm.summation(op(*leaves) * weight).backward()
            grads.append([t.grad.tobytes() for t in leaves])
            for t in leaves:
                t.zero_grad()
        assert grads[0] == grads[1]
        g_x, g_c = (np.frombuffer(g).reshape(t.shape) for g, t in zip(grads[0], leaves))
        assert (g_x[:2] == 0).all() and (g_x[2:, 0] == 0).all() and (g_c[2:4, 0] == 0).all()
        assert (g_c[4:, 1] == 0).all()
        assert not np.signbit(g_x[g_x == 0]).any()  # 0.0 + -0.0, as the getitem VJPs add
        assert not np.signbit(g_c[g_c == 0]).any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_affine_coupling_raises_where_the_chain_raises(self):
        outcomes = set()
        for s_val in (-np.inf, -800.0, 0.0, 700.0, 709.0, 710.0, 800.0, np.inf, np.nan):
            for xb_val in (0.0, 1e-300, 1.0, 1e300):
                for t_val in (0.0, 1e308, -1e308):
                    args = (Tensor([[np.nan], [xb_val]]),  # x[:h] is not the chain's
                            Tensor([[s_val], [t_val], [1.0]]))
                    fused = _raises_numeric(nm.affine_coupling, *args)
                    assert fused == _raises_numeric(affine_coupling_reference, *args), (
                        s_val, xb_val, t_val)
                    outcomes.add(fused)
        for xa_val, xb_val, t_val in ((np.inf, 1.0, 0.0), (1.0, np.nan, 0.0),
                                      (1.0, 1.0, -np.inf)):
            args = (Tensor([[0.0], [xb_val]]), Tensor([[0.0], [t_val], [xa_val]]))
            assert _raises_numeric(nm.affine_coupling, *args)
            assert _raises_numeric(affine_coupling_reference, *args)
        assert outcomes == {False, True}

    def test_one_tape_node_each(self):
        x, c = Tensor(np.ones((4, 3)), requires_grad=True), Tensor(np.ones((6, 3)),
                                                                   requires_grad=True)
        assert nm.affine_coupling(x, c)._parents == (x, c)

    def test_shape_errors(self):
        for args in ([np.ones((4, 3)), np.ones((4, 3))], [np.ones((4, 3)), np.ones((6, 2))],
                     [np.ones((3, 3)), np.ones((3, 3))], [np.ones(4), np.ones(6)]):
            with pytest.raises(ShapeError, match="affine_coupling expects"):
                nm.affine_coupling(*args)

    def test_modules_and_training_bit_identical_to_the_chains(self, monkeypatch):
        from alignflow.encoder import SpeakerTable, TextEncoder
        from alignflow.flows import FlowStack
        from alignflow.harness import TrainConfig, train_toy

        enc = TextEncoder(vocab=5, width=16, n_heads=4, speaker_dim=4, rng=Rng(1))
        table = SpeakerTable(3, 4, Rng(2))
        flows = FlowStack(4, 3, 6, Rng(3), key_dim=4, cond_dim=5, head_init="small")
        cond, frames = Tensor(Rng(6).normal(5)), Tensor(Rng(7).normal((4, 9)))
        leaves = enc.params() + table.params() + flows.params()
        config = TrainConfig(seed=3, steps_main=6, steps_duration=2, n_train=3, n_eval=0,
                             hidden_width=16, ff_width=24, speakers=3, speaker_shift=0.5)

        def outputs():
            h, mu, sigma = enc.encode([0, 3, 1, 4, 2, 2], table.lookup(1),
                                      np.array([1, 1, 1, 1, 1, 0], bool))
            y, logdet = flows.forward(frames, cond)
            loss = sum(nm.summation(t * Rng(9).normal(t.shape)) for t in (h, mu, sigma, y))
            (loss + logdet).backward()
            grads = [p.grad.tobytes() for p in leaves]
            for p in leaves:
                p.zero_grad()
            history, model = train_toy(config)
            trained = [t.data.tobytes() for _, t in model.named_params()]
            return [t.data.tobytes() for t in (h, mu, sigma, y, logdet)] + grads + [
                [row["loss"] for row in history["main"]]] + trained

        fused = outputs()
        with chains_patched_in(monkeypatch, encoder_block=encoder_block_reference,
                               scale_head=scale_head_reference,
                               coupling_conditioner=coupling_conditioner_reference,
                               affine_coupling=affine_coupling_reference):
            assert outputs() == fused


def _tower_case(rng, length, h, extra, hidden, k=3, cond_dim=0):
    """Leaves of a ``conv_tower`` call, every one trainable: ``extra`` is 0
    (no extra block), -1 (durations, (I,)) or Z (noise, (I, Z))."""
    cin = h + (1 if extra == -1 else extra)
    shapes = [(length, h), None if extra == 0 else (length,) if extra == -1 else (length, extra),
              (hidden, cin, k), (hidden,), (hidden, hidden, k), (hidden,), (1, hidden, 1), (1,)]
    if cond_dim:
        shapes += [(hidden, cond_dim), (cond_dim,)]
    return [None if s is None else Tensor(rng.normal(s), requires_grad=True) for s in shapes]


def _tower_bytes(op, leaves, g):
    """Output bytes and each leaf's gradient bytes (None where it has none)
    of ``op(*leaves)`` under the output cotangent ``g``."""
    out = op(*leaves)
    nm.summation(out * g).backward()
    result = [out.data.tobytes()] + [None if t is None or t.grad is None else t.grad.tobytes()
                                     for t in leaves]
    for t in leaves:
        if t is not None:
            t.zero_grad()
    return result


class TestFusedConvTower:
    """``conv_tower`` against the chain of concat, transpose, reshape, conv1d,
    add, matmul, relu and getitem ops it replaces: the same bytes forward and
    backward, the same ``None`` skips, and a ``NumericError`` on exactly the
    same inputs."""

    CASES = [(length, h, extra, hidden, k, cond_dim)
             for length in (1, 2, 3, 7) for h, extra in ((3, 2), (3, -1), (4, 0))
             for hidden, k in ((4, 3), (2, 1), (3, 5)) for cond_dim in (0, 3)]

    @pytest.mark.parametrize("length, h, extra, hidden, k, cond_dim", CASES)
    def test_bytes_match_the_chain(self, length, h, extra, hidden, k, cond_dim):
        rng = Rng(length * 1000 + h * 100 + hidden * 10 + k + cond_dim + extra)
        leaves = _tower_case(rng, length, h, extra, hidden, k, cond_dim)
        g = rng.normal(length)
        assert (_tower_bytes(nm.conv_tower, leaves, g)
                == _tower_bytes(conv_tower_reference, leaves, g))

    @pytest.mark.parametrize("length", [1, 2, 5])
    @pytest.mark.parametrize("cond_dim", [0, 2])
    def test_pre_activations_at_zero_and_negative_zero_cotangents(self, length, cond_dim):
        """A hidden unit whose pre-activation is exactly 0 passes no gradient,
        and -0.0 output cotangents give the chain's bytes. The op starts its
        getitem and col2im buffers at +0.0 and takes the condition's
        cotangent as is at I = 1, as the chain did; where every matmul and
        sum starts from +0.0 (OpenBLAS and numpy's reductions do), the sign
        of such a zero cannot reach a cotangent, so this pins the bytes, not
        those steps."""
        rng = Rng(40 + length + cond_dim)
        leaves = _tower_case(rng, length, 3, 2, 4, 3, cond_dim)
        w1, b1, w2, b2 = leaves[2:6]
        w1.data[1], b1.data[1], w2.data[2], b2.data[2] = 0.0, 0.0, 0.0, 0.0
        if cond_dim:
            leaves[8].data[1] = 0.0
        g = rng.normal(length)
        g[0] = -0.0
        fused = _tower_bytes(nm.conv_tower, leaves, g)
        assert fused == _tower_bytes(conv_tower_reference, leaves, g)
        zero = -0.0 * np.ones(length)  # every cotangent a signed zero
        assert (_tower_bytes(nm.conv_tower, leaves, zero)
                == _tower_bytes(conv_tower_reference, leaves, zero))

    def test_one_tape_node(self):
        leaves = _tower_case(Rng(50), 5, 3, -1, 4, 3, 2)
        out = nm.conv_tower(*leaves)
        assert out._parents == tuple(leaves) and out.shape == (5,)
        no_extra = _tower_case(Rng(51), 5, 3, 0, 4)
        assert nm.conv_tower(*no_extra)._parents == tuple(t for t in no_extra if t is not None)
        constants = [Tensor(t.data) for t in leaves]
        assert nm.conv_tower(*constants)._parents == ()

    def test_skips_cotangents_nothing_uses(self):
        """Two flags remain: the input (features and extra) and the weights
        (both convs, the head and the condition). The critic's constant
        inputs in ``adv_loss_d`` and its frozen weights in ``adv_loss_g`` get
        ``None``; a parent under a flag another parent sets gets the chain's
        bytes, and the walk leaves its ``grad`` None."""
        rng = Rng(52)
        leaves = _tower_case(rng, 5, 3, -1, 4)
        g = rng.normal(5)
        want = _tower_bytes(conv_tower_reference, leaves, g)
        for t in leaves[:2]:  # the adv_loss_d critic: features and durations constant
            t.requires_grad = False
        grads = nm.conv_tower(*leaves)._vjp(g)
        assert grads[:2] == [None, None]
        assert [gr.tobytes() for gr in grads[2:]] == want[3:]
        leaves[1].requires_grad = True  # the adv_loss_g critic: trainable durations
        with nm.frozen(leaves[2:]):
            grads = nm.conv_tower(*leaves)._vjp(g)
            assert _tower_bytes(nm.conv_tower, leaves, g)[1:] == [None, want[2]] + [None] * 6
        assert grads[2:] == [None] * 6  # the features share the durations' flag
        assert [gr.tobytes() for gr in grads[:2]] == want[1:3]
        gen = _tower_case(rng, 4, 3, 2, 4, cond_dim=2)
        g = rng.normal(4)
        want = _tower_bytes(conv_tower_reference, gen, g)
        for t in (gen[0], gen[1], gen[9]):  # the generator: constant h, z and condition
            t.requires_grad = False
        grads = nm.conv_tower(*gen)._vjp(g)
        assert grads[:2] == [None, None]  # the condition shares the weights' flag
        assert [gr.tobytes() for gr in grads[2:]] == want[3:]
        assert _tower_bytes(nm.conv_tower, gen, g)[1:] == [None, None] + want[3:10] + [None]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage_overflows_raise_where_the_chain_raises(self):
        """Each check of the chain: the input assembly, the first conv, the
        condition (its reshape node: with ``wc`` at zero, no product can
        carry it), the condition product and sum, the second conv, and the
        scores."""
        def case():
            leaves = [Tensor(np.zeros(s)) for s in ((3, 2), (3,), (2, 3, 3), (2,), (2, 2, 3),
                                                     (2,), (1, 2, 1), (1,), (2, 1), (1,))]
            return leaves, dict(zip(("feats", "extra", "w1", "b1", "w2", "b2", "wh", "bh",
                                     "wc", "cond"), leaves))
        stages = {
            "input": lambda t, big: t["feats"].data.__setitem__((0, 0), big * 10.0),
            "conv1": lambda t, big: (t["feats"].data.fill(big), t["w1"].data.fill(1.0)),
            "cond": lambda t, big: t["cond"].data.fill(big * 10.0),
            "cond product": lambda t, big: (t["wc"].data.fill(3.0), t["cond"].data.fill(big)),
            "cond sum": lambda t, big: (t["b1"].data.fill(big), t["wc"].data.fill(1.0),
                                        t["cond"].data.fill(big)),
            "conv2": lambda t, big: (t["b1"].data.fill(big), t["w2"].data.fill(1.0)),
            "scores": lambda t, big: (t["b2"].data.fill(big), t["wh"].data.fill(1.0),
                                      t["bh"].data.fill(big)),
        }
        for stage, poison in stages.items():
            outcomes = set()
            for exponent in range(300, 309):
                leaves, named = case()
                poison(named, 1.7 * 10.0 ** exponent)
                fused = _raises_numeric(nm.conv_tower, *leaves)
                assert fused == _raises_numeric(conv_tower_reference, *leaves), (stage, exponent)
                outcomes.add(fused)
            assert outcomes == {False, True}, stage
        leaves, named = case()
        named["wc"].data.fill(3.0)
        named["cond"].data.fill(1.7e308)
        with pytest.raises(NumericError, match=r"^conv_tower produced a non-finite value$"):
            nm.conv_tower(*leaves)

    def test_shape_errors(self):
        leaves = _tower_case(Rng(53), 5, 3, 2, 4, cond_dim=2)
        with pytest.raises(ShapeError, match="conv_tower expects"):
            nm.conv_tower(leaves[0], Tensor(np.zeros((4, 2))), *leaves[2:])
        with pytest.raises(ShapeError, match="conv_tower expects"):
            nm.conv_tower(*leaves[:8], leaves[8], Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="conv_tower expects"):
            nm.conv_tower(*leaves[:8], leaves[8])
        with pytest.raises(ShapeError, match="conv_tower expects"):
            nm.conv_tower(leaves[0], None, *leaves[2:8])

    def test_duration_training_bit_identical_to_the_chain(self, monkeypatch):
        """Two speaker-conditioned adversarial steps on a padded batch: the
        losses and every trained parameter, the chain monkeypatched in."""
        from alignflow.duration import (DurationBatch, DurationDiscriminator,
                                        DurationGenerator, train_duration)

        rng = Rng(54)
        batch = DurationBatch(rng.normal((2, 5, 6)), rng.uniform(0.0, 1.5, (2, 5)),
                              np.arange(5) < np.array([[5], [2]]), cond=rng.normal(3))

        def outputs():
            gen = DurationGenerator(h_dim=6, z_dim=2, hidden=4, rng=Rng(55), cond_dim=3)
            disc = DurationDiscriminator(h_dim=6, hidden=4, rng=Rng(56))
            history = train_duration(gen, disc, [batch], 3, rng=Rng(57), verify_isolation=True)
            return history, [p.data.tobytes() for p in gen.params() + disc.params()]

        fused = outputs()
        with chains_patched_in(monkeypatch, conv_tower=conv_tower_reference):
            assert outputs() == fused

    def test_gradcheck_rows_run_through_the_op(self, monkeypatch):
        from alignflow import gradcheck

        rows = {"duration_gen.conv1_w", "duration.loss_d.disc.conv1_w",
                "duration.loss_g.gen.conv1_w"}
        make, ops = nm._make, set()

        def recording_make(data, parents, vjp, op):
            ops.add(op)
            return make(data, parents, vjp, op)

        suite = [row for row in gradcheck.suite(Rng(0).child(100)) if row[0] in rows]
        assert {name for name, _, _ in suite} == rows
        monkeypatch.setattr(nm, "_make", recording_make)
        for name, f, probe in suite:
            ops.clear()
            with nm.frozen(getattr(f, "frozen", ())):
                assert check_grad(f, probe) < 1e-4, name
            assert "conv_tower" in ops and not ops & {"conv1d", "concat", "relu"}, name


def _block_leaves(rng, length, width, n_heads, ff):
    """Leaves of an ``encoder_block`` call, every one trainable: x, the stacked
    q/k/v, wo, w1, b1, w2, b2."""
    d = width // n_heads
    shapes = [(length, width), (3 * n_heads, width, d), (width, width), (width, ff), (ff,),
              (ff, width), (width,)]
    return [Tensor(rng.normal(s) * 0.5, requires_grad=True) for s in shapes]


def _coupling_leaves(rng, h, length, hidden, k=3, key_dim=0, cond_dim=0):
    """Leaves of a coupling layer, every one trainable, in the order of
    ``coupling_conditioner``'s arguments: x, w1, b1, w2, b2, then wqkv and wo
    (or None, None: no attention), then wc and cond (or None, None)."""
    shapes = [(2 * h, length), (hidden, h, k), (hidden,), (2 * h, hidden, k), (2 * h,),
              (3, h, key_dim) if key_dim else None, (key_dim, h) if key_dim else None,
              (hidden, cond_dim) if cond_dim else None, (cond_dim,) if cond_dim else None]
    return [None if s is None else Tensor(rng.normal(s), requires_grad=True) for s in shapes]


def _coupling_call(op, leaves, scale=0.5):
    x, w1, b1, w2, b2, wqkv, wo, wc, cond = leaves
    return op(x, w1, b1, w2, b2, wqkv, wo, scale, wc, cond)


def _layer_bytes(op, leaves, g, ld_weight=0.7):
    """Output and log-det bytes and each leaf's gradient bytes (None where it
    has none) of a coupling layer ``op`` under output cotangent ``g``."""
    y, logdet = _coupling_call(op, leaves)
    (nm.summation(y * g) + logdet * ld_weight).backward()
    result = [y.data.tobytes(), logdet.data.tobytes()] + [
        None if t is None or t.grad is None else t.grad.tobytes() for t in leaves]
    for t in leaves:
        if t is not None:
            t.zero_grad()
    return result


class TestFusedEncoderBlock:
    """``encoder_block`` against the chain it replaces (the attention as
    ``attend_node``, add, layer_norm, the net, add, layer_norm): the same
    bytes forward and backward, and a ``NumericError`` on exactly the same
    inputs."""

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("length", [1, 2, 5, 9])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bytes_match_the_chain(self, n_heads, length, masked):
        rng = Rng(100 * n_heads + 10 * length + masked)
        leaves = _block_leaves(rng, length, 8, n_heads, 12)
        w1, b1 = leaves[3], leaves[4]
        w1.data[:, 2], b1.data[2] = 0.0, 0.0  # a hidden unit exactly at relu's kink
        bias = None
        if masked:
            bias = np.zeros((length, length))
            bias[:, length - 1:] = -1e30 if length > 1 else 0.0
        scale = 1.0 / np.sqrt(8 // n_heads)
        g = rng.normal((length, 8))
        g[0, :3] = -0.0
        for weights in (g, -0.0 * np.ones((length, 8))):  # signed-zero cotangents
            fused, chain = (_tower_bytes(lambda *t: op(*t, n_heads, scale, bias), leaves, weights)
                            for op in (nm.encoder_block, encoder_block_reference))
            assert fused == chain

    def test_one_tape_node(self):
        leaves = _block_leaves(Rng(1), 4, 6, 2, 5)
        out = nm.encoder_block(*leaves, 2, 0.5)
        assert out._parents == tuple(leaves) and out.shape == (4, 6)
        with nm.no_grad():
            untaped = nm.encoder_block(*leaves, 2, 0.5)
        assert untaped._parents == () and untaped._vjp is None
        assert untaped.data.tobytes() == out.data.tobytes()
        constants = [Tensor(t.data) for t in leaves]
        assert nm.encoder_block(*constants, 2, 0.5)._parents == ()

    def test_vjp_computes_every_cotangent(self):
        """Every training step trains all seven parents, so the VJP takes no
        flags: a constant input or frozen weights still get the chain's
        bytes, and the walk leaves their ``grad`` None."""
        rng = Rng(2)
        leaves = _block_leaves(rng, 5, 8, 2, 12)
        g = rng.normal((5, 8))

        def block(*t):
            return nm.encoder_block(*t, 2, 0.5)

        want = _tower_bytes(lambda *t: encoder_block_reference(*t, 2, 0.5), leaves, g)[1:]
        leaves[0].requires_grad = False  # a constant input
        assert [gr.tobytes() for gr in block(*leaves)._vjp(g)] == want
        assert _tower_bytes(block, leaves, g)[1:] == [None] + want[1:]
        with nm.frozen(leaves[1:3]):  # attention frozen: only the net's weights
            assert [gr.tobytes() for gr in block(*leaves)._vjp(g)] == want
            assert _tower_bytes(block, leaves, g)[1:] == [None] * 3 + want[3:]
        leaves[0].requires_grad = True
        with nm.frozen(leaves[3:]):  # the net frozen: x and attention still take theirs
            assert _tower_bytes(block, leaves, g)[1:] == want[:3] + [None] * 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage_overflows_raise_where_the_chain_raises(self):
        """Each check of the chain: q, k or v, the scores, the first residual
        sum, the net's affine map (either sign: relu would hide a -inf), the
        net's output and the second norm's output."""
        names = ("x", "w", "wo", "w1", "b1", "w2", "b2")

        def case():  # T = 3, D = 2, one head of width 1, a net of width 1
            leaves = [Tensor(np.zeros(s)) for s in ((3, 2), (3, 2, 1), (1, 2), (2, 1), (1,),
                                                     (1, 2), (2,))]
            return leaves, dict(zip(names, leaves))

        def fill(t, **values):
            for name, (idx, v) in values.items():
                t[name].data[idx] = v

        stages = {
            "q, k or v": lambda t, big: (t["x"].data.fill(1.0),
                                         fill(t, w=((2, slice(None), 0), big))),
            "score": lambda t, big: (t["x"].data.fill(1.0),
                                     fill(t, w=((0, slice(None), 0), 1.0)),
                                     fill(t, w=((1, 0, 0), 2 * big))),
            "first sum": lambda t, big: (t["x"].data.__setitem__((slice(None), 0), big),
                                         fill(t, w=((2, 0, 0), 1.0), wo=((0, 0), 1.0))),
            "net +": lambda t, big: (t["x"].data.__setitem__((slice(None), 1), 1.0),
                                     fill(t, w1=((0, 0), -big), b1=(0, 0.0)),
                                     fill(t, w1=((1, 0), big))),
            "net -": lambda t, big: (t["x"].data.__setitem__((slice(None), 1), 1.0),
                                     fill(t, w1=((0, 0), big)), fill(t, w1=((1, 0), -big))),
            "net output": lambda t, big: (t["b1"].data.fill(1.0),
                                          fill(t, w2=((0, 0), big), b2=(0, big))),
            "second norm": lambda t, big: t["b2"].data.fill(big),
        }
        for stage, poison in stages.items():
            outcomes = set()
            for exponent in range(150, 309):  # a norm's variance overflows from about 1e154
                leaves, named = case()
                poison(named, 1.7 * 10.0 ** exponent)
                args = (*leaves, 1, 1.0)
                fused = _raises_numeric(nm.encoder_block, *args)
                assert fused == _raises_numeric(encoder_block_reference, *args), (
                    stage, exponent)
                outcomes.add(fused)
            assert outcomes == {False, True}, stage
        outcomes = set()
        for length in range(2, 40):  # heads that round up to inf, hidden by a zero wo
            leaves, named = case()
            named["x"] = leaves[0] = Tensor(np.ones((length, 2)))
            named["w"].data[2, 0, 0] = np.finfo(np.float64).max
            fused = _raises_numeric(nm.encoder_block, *leaves, 1, 1.0)
            assert fused == _raises_numeric(encoder_block_reference, *leaves, 1, 1.0), length
            outcomes.add(fused)
        assert outcomes == {False, True}
        leaves, named = case()
        named["b2"].data.fill(1.7e308)
        with pytest.raises(NumericError, match=r"^encoder_block produced a non-finite value$"):
            nm.encoder_block(*leaves, 1, 1.0)
        leaves, named = case()
        named["w"].data[:2] = 1e200
        named["x"].data.fill(1.0)
        with pytest.raises(NumericError, match=r"^encoder_block produced a non-finite score$"):
            nm.encoder_block(*leaves, 1, 1.0)

    def test_shape_errors(self):
        leaves = _block_leaves(Rng(3), 4, 6, 2, 5)
        with pytest.raises(ShapeError, match="encoder_block expects .* for H = 3 heads"):
            nm.encoder_block(*leaves, 3, 0.5)
        with pytest.raises(ShapeError, match="encoder_block expects"):
            nm.encoder_block(*leaves, 0, 0.5)
        for i, bad in [(0, (4,)), (0, ()), (1, (6, 5, 3)), (1, ()), (2, (5, 6)), (3, (5, 5)),
                       (4, (4,)), (5, (5, 4)), (6, (4,))]:
            with pytest.raises(ShapeError, match="encoder_block expects"):
                nm.encoder_block(*leaves[:i], np.ones(bad), *leaves[i + 1:], 2, 0.5)
        x, w, *rest = leaves  # T = 4, D = 6, H = 2, d = 3
        for args in [(np.ones((4, 2)), w, *rest, 2),  # D differs
                     (x, np.ones((3, 6, 3)), *rest, 2),  # 3 rows for 2 heads
                     (x, np.ones((6, 3)), *rest, 1)]:  # one unstacked weight
            with pytest.raises(ShapeError, match="encoder_block expects"):
                nm.encoder_block(*args, 0.5)
        with pytest.raises(ShapeError, match=r"^encoder_block: bias \(3, 3\) does not fit"):
            nm.encoder_block(*leaves, 2, 0.5, np.zeros((3, 3)))


class TestScaleHead:
    """``scale_head`` against the linear, clamp and exp chain it replaces."""

    @pytest.mark.parametrize("n, d, m", [(1, 1, 1), (6, 32, 2), (9, 4, 3)])
    def test_bytes_match_the_chain(self, n, d, m):
        rng = Rng(n + d + m)
        leaves = [Tensor(rng.normal(s) * 4.0, requires_grad=True) for s in ((n, d), (d, m), (m,))]
        leaves[1].data[:, 0] = 0.0
        leaves[2].data[0] = 6.0  # a whole column exactly at the clamp's upper kink
        g = rng.normal((n, m))
        g[0] = -0.0
        for weights in (g, -0.0 * np.ones((n, m))):
            assert (_tower_bytes(nm.scale_head, leaves, weights)
                    == _tower_bytes(scale_head_reference, leaves, weights))

    def test_one_node_whose_vjp_computes_all_three(self):
        """The sigma head trains all three parents, so its VJP takes no flags;
        the walk leaves ``grad`` None on a constant or frozen parent."""
        rng = Rng(3)
        leaves = [Tensor(rng.normal(s), requires_grad=True) for s in ((5, 4), (4, 2), (2,))]
        out = nm.scale_head(*leaves)
        assert out._parents == tuple(leaves) and (out.data > 0).all()
        g = rng.normal((5, 2))
        want = _tower_bytes(scale_head_reference, leaves, g)[1:]
        leaves[0].requires_grad = False
        assert [gr.tobytes() for gr in nm.scale_head(*leaves)._vjp(g)] == want
        assert _tower_bytes(nm.scale_head, leaves, g)[1:] == [None] + want[1:]
        leaves[0].requires_grad = True
        with nm.frozen(leaves[1:]):
            assert [gr.tobytes() for gr in nm.scale_head(*leaves)._vjp(g)] == want
            assert _tower_bytes(nm.scale_head, leaves, g)[1:] == [want[0], None, None]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_where_the_chain_raises(self):
        outcomes = set()
        for exponent in range(300, 309):
            for sign in (1.0, -1.0):  # the clamp turns either infinity into a bound
                args = (Tensor([[1.0, 1.0]]), Tensor([[sign * 1.7 * 10.0 ** exponent]] * 2),
                        Tensor([0.0]))
                fused = _raises_numeric(nm.scale_head, *args)
                assert fused == _raises_numeric(scale_head_reference, *args), (exponent, sign)
                outcomes.add(fused)
        assert outcomes == {False, True}
        with pytest.raises(NumericError, match=r"^scale_head produced a non-finite value$"):
            nm.scale_head(Tensor([[np.nan]]), Tensor([[1.0]]), Tensor([0.0]))
        for args in ((np.ones(3), np.ones((3, 2)), np.ones(2)),
                     (np.ones((2, 3)), np.ones((4, 2)), np.ones(2)),
                     (np.ones((2, 3)), np.ones((3, 2)), np.ones(3))):
            with pytest.raises(ShapeError, match="scale_head expects"):
                nm.scale_head(*args)


class TestSumRows:
    """``sum_rows`` against the getitem-then-sum chain it replaces."""

    @pytest.mark.parametrize("shape, n", [((1, 1), 1), ((2, 7), 1), ((6, 5), 2), ((4, 3), 4),
                                          ((6, 40), 3), ((5, 33), 5)])
    @pytest.mark.parametrize("order", ["C", "F"])  # F: its rows must be summed in C order
    def test_bytes_match_the_chain(self, shape, n, order):
        a = Tensor(np.asarray(Rng(sum(shape) + n).normal(shape), order=order) * 1e3,
                   requires_grad=True)
        results = []
        for op in (nm.sum_rows, lambda t, k: nm.summation(t[:k])):
            for g in (2.5, -0.0):  # a signed-zero cotangent comes back +0.0, as getitem adds
                out = op(a, n)
                (out * g).backward()
                results.append((out.data.tobytes(), a.grad.tobytes()))
                a.zero_grad()
        assert results[:2] == results[2:]
        assert not np.signbit(np.frombuffer(results[1][1])).any()

    def test_one_node_raising_like_the_chain(self):
        a = Tensor(np.array([[1.0, 2.0], [np.nan, 0.0]]), requires_grad=True)
        out = nm.sum_rows(a, 1)  # the rows it does not read may hold anything
        assert out._parents == (a,) and out.shape == () and out.item() == 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericError, match="^sum_rows produced a non-finite value$"):
                nm.sum_rows(Tensor(np.array([[1e308, 1e308]])), 1)
        assert nm.sum_rows(a, 0).item() == 0.0


class TestFusedCoupling:
    """A coupling layer as ``coupling_conditioner``, ``affine_coupling`` and
    the log-det's getitem and sum, against the chain of getitem, transpose,
    ``attend_node``, add, conv1d, condition term, relu, conv1d, getitem, clamp,
    affine output and sum it replaces: the same bytes forward and backward
    (the input's cotangent included), the same ``None`` skips, and a
    ``NumericError`` on exactly the same inputs."""

    CASES = [(h, length, k, key_dim, cond_dim)
             for h, length in ((1, 1), (1, 2), (1, 5), (2, 3), (2, 16))
             for k in (3, 5) for key_dim in (0, 4) for cond_dim in (0, 3)]

    @pytest.mark.parametrize("h, length, k, key_dim, cond_dim", CASES)
    def test_bytes_match_the_chain(self, h, length, k, key_dim, cond_dim):
        rng = Rng(10000 * h + 100 * length + 10 * k + key_dim + cond_dim)
        leaves = _coupling_leaves(rng, h, length, 4, k, key_dim, cond_dim)
        w1, b1, w2, b2 = leaves[1:5]
        w1.data[1], b1.data[1] = 0.0, 0.0  # a hidden unit at relu's kink (but for cond)
        w2.data[0], b2.data[0] = 0.0, 8.0  # a log-scale row exactly at the clamp
        g = rng.normal((2 * h, length))
        g[:, 0] = -0.0
        assert _layer_bytes(fused_coupling, leaves, g) == _layer_bytes(coupling_reference,
                                                                       leaves, g)
        zero = -0.0 * np.ones((2 * h, length))  # every cotangent a signed zero
        assert (_layer_bytes(fused_coupling, leaves, zero, -0.0)
                == _layer_bytes(coupling_reference, leaves, zero, -0.0))

    @pytest.mark.parametrize("key_dim, cond_dim", [(0, 0), (4, 3)])
    @pytest.mark.parametrize("signed_zeros", ["column", "all"])
    def test_conditioner_bytes_match_its_chain(self, key_dim, cond_dim, signed_zeros):
        """On its own, with cotangents no affine output has normalised: a
        column of -0.0, or -0.0 everywhere (a bias row sum of -0.0s is -0.0
        unless the getitem buffers' +0.0 starts it)."""
        rng = Rng(7 + key_dim + cond_dim)
        leaves = _coupling_leaves(rng, 2, 6, 3, 3, key_dim, cond_dim)
        g = rng.normal((6, 6))
        g[:, 1] = -0.0
        if signed_zeros == "all":
            g[...] = -0.0
        results = []
        for op in (nm.coupling_conditioner, coupling_conditioner_reference):
            out = _coupling_call(op, leaves)
            nm.summation(out * g).backward()
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves
                                                   if t is not None])
            for t in leaves:
                if t is not None:
                    t.zero_grad()
        assert results[0] == results[1]

    def test_inverse_shares_the_conditioner_bytes_match_the_chain(self, monkeypatch):
        """The inverse runs the same conditioner node; through a forward and
        inverse, and a loss on both, every byte equals the old chains'."""
        from alignflow.flows import FlowStack

        stack = FlowStack(4, 3, 5, Rng(20), key_dim=3, cond_dim=2, head_init="small")
        x = Tensor(Rng(21).normal((4, 7)), requires_grad=True)
        cond = Tensor(Rng(22).normal(2), requires_grad=True)
        leaves = stack.params() + [x, cond]

        def outputs():
            y, logdet = stack.forward(x, cond)
            back = stack.inverse(y, cond)
            loss = nm.summation(y * Rng(23).normal(y.shape)) + nm.summation(back * back)
            (loss + logdet).backward()
            result = [t.data.tobytes() for t in (y, logdet, back)] + [
                p.grad.tobytes() for p in leaves]
            for p in leaves:
                p.zero_grad()
            return result

        fused = outputs()
        with chains_patched_in(monkeypatch, coupling_conditioner=coupling_conditioner_reference,
                               affine_coupling=affine_coupling_reference):
            assert outputs() == fused
        np.testing.assert_allclose(stack.inverse(stack.forward(x, cond)[0], cond).data, x.data,
                                   atol=1e-12)

    def test_three_tape_nodes(self):
        leaves = _coupling_leaves(Rng(30), 2, 5, 4, 3, 3, 2)
        x = leaves[0]
        c = _coupling_call(nm.coupling_conditioner, leaves)
        assert c._parents == tuple(t for t in leaves if t is not None) and c.shape == (6, 5)
        y, logdet = _coupling_call(fused_coupling, leaves)
        assert y._parents[0] is x and y._parents[1]._parents == c._parents != ()
        assert logdet._parents == (y._parents[1],)  # the log-det reads c's rows directly
        with nm.no_grad():
            untaped = _coupling_call(nm.coupling_conditioner, leaves)
        assert untaped._parents == () and untaped.data.tobytes() == c.data.tobytes()
        no_attention = leaves[:5] + [None, None] + leaves[7:]
        assert (_coupling_call(nm.coupling_conditioner, no_attention)._parents
                == tuple(t for t in no_attention if t is not None))

    def test_skips_cotangents_nothing_uses(self):
        """Layer 0 sees constant frames: x's is the one flag left, and the VJP
        gives ``None`` there. A frozen weight still gets the chain's bytes,
        and the walk leaves its ``grad`` None."""
        rng = Rng(31)
        leaves = _coupling_leaves(rng, 1, 6, 4, 3, 3, 2)
        g = rng.normal((3, 6))

        def op(*t):
            return _coupling_call(nm.coupling_conditioner, t)

        want = _tower_bytes(lambda *t: _coupling_call(coupling_conditioner_reference, t),
                            leaves, g)[1:]
        for frozen_set in ([0], [0, 5, 6], [1, 2, 8], [3, 4, 7], list(range(1, 9))):
            with nm.frozen([leaves[i] for i in frozen_set]):
                grads = op(*leaves)._vjp(g)
                walked = _tower_bytes(op, leaves, g)[1:]
            assert [None if gr is None else gr.tobytes() for gr in grads] == [
                None if i == 0 and 0 in frozen_set else w for i, w in enumerate(want)], frozen_set
            assert walked == [None if i in frozen_set else w for i, w in enumerate(want)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage_overflows_raise_where_the_chain_raises(self):
        """Each check of the chain: the input, q, k or v, the scores, the
        residual sum, the first conv, the condition and its sum, the second
        conv (the clamp would hide an inf) and the layer output."""
        names = ("x", "w1", "b1", "w2", "b2", "wqkv", "wo", "wc", "cond")

        def case():  # h = 1, T = 3, hidden 1, key width 1, one condition value
            leaves = [Tensor(np.zeros(s)) for s in ((2, 3), (1, 1, 3), (1,), (2, 1, 3), (2,),
                                                     (3, 1, 1), (1, 1), (1, 1), (1,))]
            return leaves, dict(zip(names, leaves))

        def xa(t, v):
            t["x"].data[0] = v

        stages = {
            "input": lambda t, big: t["x"].data.__setitem__((1, 0), big * 10.0),
            "q, k or v": lambda t, big: (xa(t, 2.0), t["wqkv"].data.__setitem__(2, big)),
            "score": lambda t, big: (xa(t, 1.0), t["wqkv"].data.__setitem__(0, 2.0),
                                     t["wqkv"].data.__setitem__(1, big)),
            "residual": lambda t, big: (xa(t, big), t["wqkv"].data.__setitem__(2, 1.0),
                                        t["wo"].data.fill(1.0)),
            "conv1": lambda t, big: (xa(t, 2.0), t["w1"].data.fill(big)),
            "condition": lambda t, big: t["cond"].data.fill(big * 10.0),
            "condition sum": lambda t, big: (t["b1"].data.fill(big), t["wc"].data.fill(1.0),
                                             t["cond"].data.fill(big)),
            "conv2 log-scale": lambda t, big: (t["b1"].data.fill(1.0),
                                               t["w2"].data.__setitem__(0, big)),
            "conv2 shift": lambda t, big: (t["b1"].data.fill(1.0),
                                           t["w2"].data.__setitem__(1, big)),
            "output": lambda t, big: (t["x"].data.__setitem__(1, big),
                                      t["b2"].data.__setitem__(0, 8.0)),
        }
        for stage, poison in stages.items():
            outcomes = set()
            for exponent in range(300, 309):
                leaves, named = case()
                poison(named, 1.7 * 10.0 ** exponent)
                fused = _raises_numeric(_coupling_call, fused_coupling, leaves, 1.0)
                assert fused == _raises_numeric(_coupling_call, coupling_reference, leaves,
                                                1.0), (stage, exponent)
                outcomes.add(fused)
            assert outcomes == {False, True}, stage
        outcomes = set()
        for length in range(2, 40):  # heads that round up to inf, hidden by a zero wo
            leaves, named = case()
            named["x"] = leaves[0] = Tensor(np.ones((2, length)))
            named["wqkv"].data[2] = np.finfo(np.float64).max
            fused = _raises_numeric(_coupling_call, fused_coupling, leaves, 1.0)
            assert fused == _raises_numeric(_coupling_call, coupling_reference, leaves, 1.0)
            outcomes.add(fused)
        assert outcomes == {False, True}
        leaves, named = case()
        named["cond"].data.fill(np.inf)
        with pytest.raises(NumericError,
                           match=r"^coupling_conditioner produced a non-finite value$"):
            _coupling_call(nm.coupling_conditioner, leaves)

    def test_shape_errors(self):
        leaves = _coupling_leaves(Rng(32), 2, 5, 4, 3, 3, 2)
        bad = {0: np.ones((3, 5)), 1: np.ones((4, 3, 3)), 2: np.ones(3), 3: np.ones((3, 4, 3)),
               4: np.ones(3), 5: np.ones((2, 2, 3)), 6: np.ones((3, 3)), 7: np.ones((4, 3))}
        for i, value in bad.items():
            args = list(leaves)
            args[i] = value
            with pytest.raises(ShapeError, match="coupling_conditioner expects"):
                _coupling_call(nm.coupling_conditioner, args)

    def test_gradcheck_rows_run_through_the_ops(self, monkeypatch):
        from alignflow import gradcheck

        rows = {"coupling.input", "coupling.conv1_w", "coupling.wq", "encoder_block.input",
                "encoder_block.wo", "main.flow.layer1.attn.wq", "main.enc.block2.head1.wq"}
        make, ops = nm._make, set()

        def recording_make(data, parents, vjp, op):
            ops.add(op)
            return make(data, parents, vjp, op)

        suite = [row for row in gradcheck.suite(Rng(0).child(100)) if row[0] in rows]
        assert {name for name, _, _ in suite} == rows
        monkeypatch.setattr(nm, "_make", recording_make)
        for name, f, probe in suite:
            ops.clear()
            assert check_grad(f, probe) < 1e-4, name
            assert ops & {"encoder_block", "coupling_conditioner"}, name
            assert not ops & {"attention", "ffn", "layer_norm", "conv1d", "relu"}, name


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

    def test_fused_encoder_block_and_coupling_layer_in_threads(self):
        """Three threads each run an encoder block and a coupling layer forward
        and backward on leaves of their own; every gradient equals the
        serial run's byte for byte."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def work(seed):
            rng = Rng(seed)
            block = _block_leaves(rng, 5, 8, 2, 12)
            layer = _coupling_leaves(rng, 2, 7, 4, 3, 3, 2)
            leaves = block + [t for t in layer if t is not None]
            for _ in range(10):
                h = nm.encoder_block(*block, 2, 0.5)
                y, logdet = _coupling_call(fused_coupling, layer)
                loss = nm.summation(h * rng.normal(h.shape)) + nm.summation(y * y) + logdet
                loss.backward()
            return [t.grad.tobytes() for t in leaves]

        serial = [work(s) for s in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                parallel = list(pool.map(work, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial


def _walk_both_ways(monkeypatch):
    """Make every ``backward`` run the depth-first reference first and then the
    creation-order walk from the same leaf gradients; returns the list that
    collects, per call, (reference, walk) gradient pairs of the leaves."""
    walk, calls = nm.Tensor.backward, []

    def both(root):
        leaves = [n for n in dfs_order(root) if n._vjp is None and n.requires_grad]
        before = [t.grad for t in leaves]  # accumulation rebinds grad, never writes it
        backward_dfs(root)
        reference = [t.grad for t in leaves]
        for t, g in zip(leaves, before):
            t.grad = g
        walk(root)
        calls.append([(a, t.grad) for a, t in zip(reference, leaves)])

    monkeypatch.setattr(nm.Tensor, "backward", both)
    return calls


class TestCreationOrderWalk:
    """``backward`` visits nodes newest first and sums a node's cotangents
    newest consumer first. Where every node has at most two consumers, that
    gives the depth-first walk's bytes (two-term sums commute); where a node
    has three or more, the two walks may associate its sum differently, so
    they are held to 1e-12 relative there."""

    def test_acceptance_main_step_matches_the_depth_first_walk(self, monkeypatch):
        from alignflow.harness import TrainConfig, train_toy

        calls = _walk_both_ways(monkeypatch)
        train_toy(TrainConfig(seed=7, steps_main=1, steps_duration=1, n_eval=0))
        # one main step, then the critic and the generator of one duration step
        # main leaves (one stacked q/k/v leaf per attention block), critic, generator
        assert [len(pairs) for pairs in calls] == [41, 6, 6]
        for pairs in calls:
            assert all(a.tobytes() == b.tobytes() for a, b in pairs)

    def test_adversarial_duration_step_matches_the_depth_first_walk(self, monkeypatch):
        from alignflow.duration import (DurationBatch, DurationDiscriminator, DurationGenerator,
                                        adv_loss_d, adv_loss_g, generate, mse_loss)

        # one instance per batch, as training runs it; the critic sees it twice
        # (real and fake), so no parameter has more than two consumers
        rng = Rng(8)
        gen = DurationGenerator(h_dim=5, z_dim=2, hidden=6, rng=rng.child(0), cond_dim=3)
        disc = DurationDiscriminator(h_dim=5, hidden=6, rng=rng.child(1))
        h, d, z = rng.normal((1, 4, 5)), rng.uniform(0.0, 1.5, (1, 4)), rng.normal((1, 4, 2))
        mask = np.ones((1, 4), dtype=bool)
        batch = DurationBatch(h, d, mask)
        cond = Tensor(rng.normal(3), requires_grad=True)
        calls = _walk_both_ways(monkeypatch)
        adv_loss_d(disc, batch, generate(gen, h, z, mask, cond)).backward()
        d_hat = generate(gen, h, z, mask, cond)
        with nm.frozen(disc.params()):
            (adv_loss_g(disc, batch, d_hat) + mse_loss(batch, d_hat)).backward()
        critic, generator = calls
        assert len(critic) == len(disc.params())
        assert len(generator) == len(gen.params()) + 1  # and the condition
        for a, b in critic + generator:
            assert a.tobytes() == b.tobytes()

    def test_many_consumers_agree_within_1e12(self, monkeypatch):
        # the speaker condition feeds all four coupling layers
        from alignflow.harness import TrainConfig, train_toy

        calls = _walk_both_ways(monkeypatch)
        train_toy(TrainConfig(seed=7, steps_main=6, steps_duration=2, n_eval=0, speakers=3,
                              speaker_shift=0.5, flow_depth=4))
        assert len(calls) == 10
        for pairs in calls:
            for a, b in pairs:
                npt.assert_allclose(b, a, rtol=1e-12, atol=0.0)

    def test_fan_in_is_summed_newest_consumer_first(self):
        # three consumers whose cotangents sum to 2, 3 or 4 depending on
        # which two are added first
        x = Tensor([1.0], requires_grad=True)
        c1, c2, c3 = 1e16, 1.0, -(1e16 - 2.0)
        nm.summation(x * c1 + x * c2 + x * c3).backward()
        assert x.grad[0] == (c3 + c2) + c1 == 4.0
        assert (c1 + c2) + c3 == 2.0 and (c1 + c3) + c2 == 3.0

    def test_parents_wait_for_every_consumer(self):
        # y is older than both of its consumers but is reached from the
        # newest one first; its cotangent must be complete when it is visited
        x = Tensor(np.array([0.3, -1.2]), requires_grad=True)
        y = nm.tanh(x)
        a = y * 3.0
        b = nm.exp(a) + y
        nm.summation(b * y).backward()
        t = np.tanh(x.data)
        want = (np.exp(3 * t) * 3 * t + 2 * t + np.exp(3 * t)) * (1 - t * t)
        npt.assert_allclose(x.grad, want, rtol=1e-14)

    def test_creation_numbers_stay_unique_under_thread_stress(self):
        # a lost update of the shared counter would hand two tensors one number
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def make(_):
            return [Tensor(0.0)._seq for _ in range(3000)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                per_thread = list(pool.map(make, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        seqs = [s for run in per_thread for s in run]
        assert len(set(seqs)) == len(seqs) == 18000
        assert all(run == sorted(run) for run in per_thread)

    def test_threads_interleaved_op_by_op_match_serial(self):
        import threading

        def work(seed, step):
            rng = Rng(seed)
            w = Tensor(rng.normal((4, 4)), requires_grad=True)
            h, seqs = Tensor(rng.normal((3, 4))), []
            for _ in range(5):
                step()
                h = nm.tanh(h @ w)
                step()
                h = h + h * 0.5 + nm.exp(h * 0.1)  # h has three consumers
                seqs.append(h._seq)
            step()
            loss = nm.summation(h)
            step()
            loss.backward()
            return w.grad, seqs

        serial = [work(s, lambda: None)[0] for s in (1, 2)]
        barrier = threading.Barrier(2, timeout=30)
        results = {}

        def run(seed):
            results[seed] = work(seed, barrier.wait)

        threads = [threading.Thread(target=run, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        (g1, s1), (g2, s2) = results[1], results[2]
        # the two tapes took their numbers from one counter, op by op
        assert min(s1) < max(s2) and min(s2) < max(s1)
        assert g1.tobytes() == serial[0].tobytes() and g2.tobytes() == serial[1].tobytes()


def _acceptance_main_loss():
    """(main params, loss()), where ``loss()`` builds the tape of one
    acceptance-7 main step, noise off, on the first training instance."""
    from alignflow.alignment import log_prob_grid, mas_search
    from alignflow.corpus import generate_corpus
    from alignflow.harness import TrainConfig, _instance_forward, build_model

    cfg = TrainConfig(seed=7)
    root = Rng(cfg.seed)
    model = build_model(cfg, root.child(3))
    inst = generate_corpus(cfg.corpus_spec(), root.child(1)).train[0]

    def loss():
        _, mu, sigma, u, logdet, _ = _instance_forward(model, inst)
        align, _ = mas_search(log_prob_grid(u.data.T, mu.data, sigma.data))
        return nm.aligned_nll(mu, sigma, u, logdet, align.frame_tokens())

    return model.main_params(), loss


class TestSlotWalk:
    """``backward`` keeps an interior node's pending cotangent in its ``_g``
    slot and a leaf's in a dict of its own call, setting each leaf's ``grad``
    once, after the walk."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_raising_vjp_clears_every_slot_and_sets_no_grad(self, where):
        params, loss = _acceptance_main_loss()
        loss().backward()
        serial = [p.grad.tobytes() for p in params]
        for p in params:
            p.grad = None
        root = loss()
        nodes = dfs_order(root)
        # a node is visited after every newer one, so this is the visiting order
        interior = sorted((n for n in nodes if n._vjp is not None), key=lambda n: -n._seq)
        victim = interior[{"first": 0, "middle": len(interior) // 2, "last": -1}[where]]
        vjp, pending = victim._vjp, []

        def raising(g):
            pending.extend(n for n in nodes if n._g is not None)
            raise RuntimeError("vjp failed")

        victim._vjp = raising
        with pytest.raises(RuntimeError, match="vjp failed"):
            root.backward()
        if where == "middle":
            assert pending  # the walk stopped with cotangents in flight
        assert all(n._g is None for n in nodes)
        assert all(p.grad is None for p in params)
        victim._vjp = vjp
        root.backward()
        assert [p.grad.tobytes() for p in params] == serial

    def test_leaf_sums_newest_consumer_first_then_adds_to_grad_once(self):
        x = Tensor([0.0], requires_grad=True)
        x.grad = np.array([1e16])
        c1, c2, c3 = -1e16, 1.0, 1.0  # the consumers' cotangents, oldest first
        nm.summation(x * c1 + x * c2 + x * c3).backward()
        assert x.grad[0] == 1e16 + ((c3 + c2) + c1) == 2.0
        # added to grad one consumer at a time it would be 0.0, oldest first -2.0
        assert ((1e16 + c3) + c2) + c1 == 0.0 and 1e16 + ((c1 + c2) + c3) == 0.0

    def test_a_walk_inside_a_walk_keeps_its_own_leaf_sums(self):
        # a VJP of the outer walk runs a whole walk over a second tape on the
        # same leaf; the outer walk's pending sum for that leaf must not see it
        def tapes(w):
            inner = nm.summation(w * 3.0 + w * w)
            scaled = w * 2.0
            return inner, scaled, nm.summation(scaled + nm.exp(w))

        w = Tensor(np.array([0.5, -1.5]), requires_grad=True)
        inner, _, _ = tapes(w)
        inner.backward()
        g_inner, w.grad = w.grad, None
        _, _, outer = tapes(w)
        outer.backward()
        g_outer, w.grad = w.grad, None

        inner, scaled, outer = tapes(w)
        vjp = scaled._vjp
        scaled._vjp = lambda g: (inner.backward(), vjp(g))[1]
        outer.backward()
        assert w.grad.tobytes() == (g_inner + g_outer).tobytes()

    def test_leaf_and_constant_roots(self):
        leaf = Tensor(2.0, requires_grad=True)
        leaf.backward()
        leaf.backward()
        assert leaf.grad.tolist() == 2.0
        const = Tensor(2.0)
        const.backward()
        assert const.grad is None and const._g is None


def _nll_case(rng, durations, channels=2):
    """Leaves (mu, sigma, u, logdet) and frame tokens of one aligned utterance."""
    n = len(durations)
    frame_tokens = np.repeat(np.arange(n), durations)
    leaves = [Tensor(rng.normal((n, channels)), requires_grad=True),
              Tensor(rng.uniform(0.3, 2.0, (n, channels)), requires_grad=True),
              Tensor(rng.normal((channels, frame_tokens.size)), requires_grad=True),
              Tensor(rng.normal(()), requires_grad=True)]
    return leaves, frame_tokens


class TestAlignedNll:
    """The fused loss op against the chain it replaced, run through the
    depth-first walk the chain was trained with."""

    @staticmethod
    def _both(leaves, frame_tokens):
        out = nm.aligned_nll(*leaves, frame_tokens)
        out.backward()
        fused = [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]
        for t in leaves:
            t.zero_grad()
        out = aligned_nll_chain(*leaves, frame_tokens)
        backward_dfs(out)
        chain = [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]
        for t in leaves:
            t.zero_grad()
        return fused, chain

    @pytest.mark.parametrize("durations", [[1], [3, 1, 2], [2, 2, 2, 2], [1, 5, 1, 4, 2, 3],
                                           [6, 1]])
    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_match_the_chain(self, durations, seed):
        # tokens repeat across frames, and [1], [3, 1, 2], ... give one-frame tokens
        for channels in (1, 2, 4):
            leaves, frame_tokens = _nll_case(Rng(seed), durations, channels)
            fused, chain = self._both(leaves, frame_tokens)
            assert fused == chain

    def test_a_token_used_twice_apart(self):
        leaves, _ = _nll_case(Rng(3), [2, 2, 2])
        fused, chain = self._both(leaves, np.array([0, 1, 0, 2, 2, 1]))
        assert fused == chain

    def test_sigma_cotangent_keeps_the_chain_order(self):
        # summing a sigma row's three terms in the order the new walk would
        # run the chain moves bits: the op must keep the depth-first order
        leaves, frame_tokens = _nll_case(Rng(0), [3, 1, 2, 4], channels=2)
        out = aligned_nll_chain(*leaves, frame_tokens)
        out.backward()
        newest_first = leaves[1].grad.tobytes()
        for t in leaves:
            t.zero_grad()
        fused, chain = self._both(leaves, frame_tokens)
        assert fused[2] == chain[2] != newest_first

    @pytest.mark.parametrize("speakers", [1, 3])
    def test_model_gradients_match_the_chain(self, speakers):
        from alignflow.harness import TrainConfig, _instance_forward, build_model
        from alignflow.corpus import generate_corpus

        config = TrainConfig(seed=2, speakers=speakers, speaker_shift=0.5)
        corpus = generate_corpus(config.corpus_spec(), Rng(2).child(1))
        model = build_model(config, Rng(2).child(3))
        for p in model.main_params():  # off the identity init of the flows
            if not p.data.any():
                p.data[...] = 0.1 * Rng(4).normal(p.shape)
        params = model.main_params()
        for inst in corpus.train[:3]:
            frame_tokens = np.repeat(np.arange(inst.tokens.size), inst.durations)
            grads = []
            for loss_fn, walk in ((nm.aligned_nll, Tensor.backward),
                                  (aligned_nll_chain, backward_dfs)):
                _, mu, sigma, u, logdet, _ = _instance_forward(model, inst)
                loss = loss_fn(mu, sigma, u, logdet, frame_tokens)
                walk(loss)
                grads.append([loss.data.tobytes()] + [p.grad.tobytes() for p in params])
                for p in params:
                    p.zero_grad()
            assert grads[0] == grads[1]

    @pytest.mark.parametrize("edit", [
        lambda mu, sig, u, ld: None,                                    # fine
        lambda mu, sig, u, ld: sig.__setitem__((0, 0), 1e200),         # 2 s s overflows, q = 0
        lambda mu, sig, u, ld: sig.__setitem__((0, 0), 1e153),         # 2 s s just finite
        lambda mu, sig, u, ld: sig.__setitem__((0, 0), 1e-200),        # 2 s s underflows to 0
        lambda mu, sig, u, ld: sig.__setitem__((1, 1), 0.0),           # log 0
        lambda mu, sig, u, ld: sig.__setitem__((1, 1), -0.5),          # log of a negative
        lambda mu, sig, u, ld: sig.__setitem__((2, 0), np.inf),        # picked row not finite
        lambda mu, sig, u, ld: sig.__setitem__((3, 0), -1.0),          # a row no frame picks
        lambda mu, sig, u, ld: (u.__setitem__((0, 0), 1e308),
                                mu.__setitem__((0, 0), -1e308)),        # u - mu overflows
        lambda mu, sig, u, ld: u.__setitem__((0, 0), 1.5e154),         # (u - mu)^2 overflows
        lambda mu, sig, u, ld: (u.__setitem__((0, slice(0, 3)), 1.3e154),
                                sig.__setitem__((0, 0), 1.0),
                                mu.__setitem__((0, 0), 0.0)),           # the sum overflows
        lambda mu, sig, u, ld: (u.__setitem__((0, slice(0, 2)), 1.3e154),
                                sig.__setitem__((0, 0), 1.0),
                                mu.__setitem__((0, 0), 0.0)),           # two terms: no overflow
        lambda mu, sig, u, ld: ld.__setitem__((), 1.7e308),            # sum - logdet
        lambda mu, sig, u, ld: ld.__setitem__((), np.nan),
        lambda mu, sig, u, ld: u.__setitem__((1, 4), np.nan),
    ])
    def test_raises_exactly_where_the_chain_raises(self, edit):
        rng = Rng(6)
        mu, sig = rng.normal((4, 2)), rng.uniform(0.5, 1.5, (4, 2))
        u, ld = rng.normal((2, 6)), np.asarray(rng.normal())
        frame_tokens = np.array([0, 0, 0, 1, 2, 2])  # row 3 is never picked
        edit(mu, sig, u, ld)
        args = [Tensor(a) for a in (mu, sig, u, ld)]
        assert (_raises_numeric(nm.aligned_nll, *args, frame_tokens)
                == _raises_numeric(aligned_nll_chain, *args, frame_tokens))

    # (input, index, value) edits of mu (0), sigma (1), u (2) and logdet (3);
    # frames 0 and 1 pick token 0, frame 2 token 1
    BIG = [(2, (0, 0), 1.3e154), (2, (0, 1), 1.3e154), (0, (0, 0), 0.0), (1, (0, 0), 1.0)]

    @pytest.mark.parametrize("edits, raises", [
        ([], False),
        ([(1, (0, 0), 1e200)], True),  # 2 s s overflows while q = (u - mu)^2 / inf = 0
        ([(1, (0, 0), 1e153)], False),
        ([(1, (0, 0), 0.0)], True),  # s <= 0
        ([(1, (0, 0), -1.0)], True),
        ([(2, (0, 0), 1e308), (0, (0, 0), -1e308)], True),  # u - mu overflows
        (BIG + [(2, (1, 1), 1.3e154), (0, (0, 1), 0.0), (1, (0, 1), 1.0)], True),  # the sum
        (BIG + [(3, (), -1e308)], True),  # only sum - logdet overflows
        (BIG, False),
    ])
    def test_each_kind_of_overflow(self, edits, raises):
        rng = Rng(6)
        arrays = [rng.normal((2, 2)), rng.uniform(0.5, 1.5, (2, 2)), rng.normal((2, 3)),
                  np.asarray(0.0)]
        for i, index, value in edits:
            arrays[i][index] = value
        args = [Tensor(a) for a in arrays] + [np.array([0, 0, 1])]
        assert _raises_numeric(aligned_nll_chain, *args) == raises
        assert _raises_numeric(nm.aligned_nll, *args) == raises

    def test_one_node_and_shape_errors(self):
        leaves, frame_tokens = _nll_case(Rng(1), [2, 1])
        out = nm.aligned_nll(*leaves, frame_tokens)
        assert out.shape == () and out._parents == tuple(leaves)
        mu, sigma, u, logdet = leaves
        with pytest.raises(ShapeError):
            nm.aligned_nll(mu, sigma, u, logdet, frame_tokens[:-1])
        with pytest.raises(ShapeError):
            nm.aligned_nll(mu, sigma[:1], u, logdet, frame_tokens)
        with pytest.raises(ShapeError):
            nm.aligned_nll(mu, sigma, u.T, logdet, frame_tokens)
        with pytest.raises(IndexError, match=r"aligned_nll: ids outside \[0, 2\): 0..2"):
            nm.aligned_nll(mu, sigma, u, logdet, np.array([0, 2, 1]))


class TestStructuralOps:
    """``concat``, ``summation``, ``clamp`` and ``take_rows`` without numpy's
    Python-level helpers give the bytes of the forms they replaced."""

    def test_concat_vjp_slices_like_split(self):
        rng = Rng(2)
        for axis, shapes in ((0, [(2, 3), (1, 3), (4, 3)]), (1, [(3, 2), (3, 1)]),
                             (-1, [(2, 2), (2, 3)])):
            ts = [Tensor(rng.normal(s), requires_grad=True) for s in shapes]
            out = nm.concat(ts, axis=axis)
            g = rng.normal(out.shape)
            splits = np.cumsum([s[axis] for s in shapes])[:-1]
            for got, want in zip(out._vjp(g), np.split(g, splits, axis=axis)):
                assert got.shape == want.shape and got.strides == want.strides
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_summation_vjp_matches_broadcast_copy(self, axis):
        x = Tensor(Rng(3).normal((3, 4)), requires_grad=True)
        out = nm.summation(x, axis=axis)
        assert out.data.tobytes() == np.asarray(x.data.sum(axis=axis)).tobytes()
        g = Rng(4).normal(out.shape)
        want = np.broadcast_to(g if axis is None else np.expand_dims(g, axis), x.shape).copy()
        (got,) = out._vjp(g)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_clamp_matches_clip_and_its_mask(self):
        x = Tensor(np.array([-9.0, -8.0, -7.5, -0.0, 0.0, 3.0, 8.0, 9.5]), requires_grad=True)
        out = nm.clamp(x, -8.0, 8.0)
        assert out.data.tobytes() == np.clip(x.data, -8.0, 8.0).tobytes()
        g = np.arange(1.0, 9.0)
        (got,) = out._vjp(g)
        assert got.tobytes() == (g * ((x.data > -8.0) & (x.data < 8.0))).tobytes()

    def test_take_rows_bounds_at_both_ends(self):
        t = Tensor(np.zeros((3, 2)))
        for ids in ([0, 3], [-1, 0], [[0, 1], [2, 3]], [np.iinfo(np.int64).min]):
            with pytest.raises(IndexError, match=r"take_rows: ids outside \[0, 3\)"):
                nm.take_rows(t, ids)
        assert nm.take_rows(t, [[0, 2], [1, 2]]).shape == (2, 2, 2)
        assert nm.take_rows(t, np.array([], dtype=np.int64)).shape == (0, 2)


class TestNoGrad:
    """``no_grad`` records no tape in its own thread and checks every output."""

    @staticmethod
    def _ops(x, w, c):
        """One output of each kind of op, from leaves that want a gradient."""
        block = _block_leaves(Rng(3), 5, 4, 2, 3)
        return [x @ w, nm.tanh(x @ w), nm.linear(x, w, c), nm.summation(x * w[0]),
                nm.conv1d(x, w.data.reshape(3, 3, 1), c), nm.encoder_block(*block, 2, 0.7),
                x[1:3], nm.softmax(x @ w)]

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

    def test_requires_grad_is_set_exactly_on_taped_outputs(self):
        # the tape reads requires_grad alone to decide where gradients flow
        x, w, c = self._leaves()
        with nm.no_grad():
            untaped = self._ops(x, w, c)
        with nm.frozen([x, w, c]):
            assert not any(t.requires_grad or t._vjp is not None for t in (x, w, c))
            under_frozen = self._ops(x, w, c)
        assert under_frozen[0]._parents == ()  # x @ w of frozen leaves records no tape
        for t in self._ops(x, w, c) + untaped + under_frozen:
            assert t.requires_grad == (t._vjp is not None)

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
            block = _block_leaves(Rng(3), 5, 4, 1, 3)
            block[1].data[1, 0, 0] = np.inf  # wk
            with pytest.raises(NumericError, match="^encoder_block produced a non-finite q, k"):
                nm.encoder_block(*block, 1, 0.5)

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


class TestThreadSettings:
    """``no_grad`` and ``param_budget`` are per-thread settings: they nest in
    either order, each restores only its own, and a new thread starts with
    neither."""

    @staticmethod
    def _probe():
        """(the thread records a tape, a 5-value ``zeros`` fits its budget); a
        refused ``zeros`` raises before it spends, so probing spends nothing
        when the budget is under 5."""
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        try:
            nm.zeros(5)
        except ValueError:
            return (w @ w)._parents == (w, w), False
        return (w @ w)._parents == (w, w), True

    def test_nest_in_either_order(self):
        with nm.no_grad():
            with nm.param_budget(4):
                assert self._probe() == (False, False)
            assert self._probe() == (False, True)
        with nm.param_budget(4):
            with nm.no_grad():
                assert self._probe() == (False, False)
            assert self._probe() == (True, False)
        assert self._probe() == (True, True)

    def test_a_raising_block_restores_only_its_own_setting(self):
        with nm.param_budget(4):
            with pytest.raises(RuntimeError), nm.no_grad():
                raise RuntimeError
            assert self._probe() == (True, False)
        with nm.no_grad():
            with pytest.raises(RuntimeError), nm.param_budget(4):
                raise RuntimeError
            assert self._probe() == (False, True)
        assert self._probe() == (True, True)

    def test_an_inner_budget_restores_what_the_outer_had_left(self):
        with nm.param_budget(10):
            nm.zeros(6)
            with nm.param_budget(100):
                nm.zeros(50)
            with pytest.raises(ValueError, match="more than 10 values"):
                nm.zeros(5)
            nm.zeros(4)

    def test_a_new_thread_records_a_tape_and_has_no_budget(self):
        import threading

        seen = {}
        with nm.no_grad(), nm.param_budget(4):
            thread = threading.Thread(target=lambda: seen.setdefault("probe", self._probe()))
            thread.start()
            thread.join(timeout=30)
            assert self._probe() == (False, False)
        assert not thread.is_alive() and seen["probe"] == (True, True)


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
