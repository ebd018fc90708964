"""Finite-difference verification suite for every differentiable op and the
composed modules built from them.

Each entry pairs a probe tensor with a deterministic tensor-to-scalar
function; the scalar is a random-weighted reduction so a wrong cotangent in
any coordinate shows up. Inputs for kinked ops (relu, clamp) are pushed away
from their kinks, where central differences are meaningless.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .corpus import Instance
from .duration import (
    DurationBatch,
    DurationDiscriminator,
    DurationGenerator,
    adv_loss_d,
    adv_loss_g,
    generate,
    mse_loss,
)
from .encoder import MASK_BIAS, EncoderBlock
from .flows import CouplingLayer
from .harness import TrainConfig, _instance_forward, build_model
from .numerics import Rng, Tensor, check_grad


def _away_from_zero(x: np.ndarray, margin: float = 0.2) -> np.ndarray:
    return x + margin * np.sign(x)


def _swap_param(obj, attr: str, build, row: int | None = None):
    """Scalar function of a parameter or one ``row`` of it: swap the probe in, evaluate, restore."""

    def f(probe: Tensor) -> Tensor:
        original = getattr(obj, attr)
        setattr(obj, attr, probe if row is None else _with_row(original.data, row, probe))
        try:
            return build()
        finally:
            setattr(obj, attr, original)

    return f


def _with_row(w: np.ndarray, row: int, probe: Tensor) -> Tensor:
    """``w`` with ``w[row]`` replaced by ``probe``, differentiable in ``probe``."""
    return nm.concat([w[:row], nm.reshape(probe, (1, *probe.shape)), w[row + 1:]], axis=0)


def suite(rng: Rng) -> list[tuple[str, object, Tensor]]:
    """(name, f, probe) triples; check_grad(f, probe) must come back <= 1e-4,
    run under ``nm.frozen(f.frozen)`` where a row sets that list.

    Probe shapes are drawn from the rng too, so repeated suites cover random
    shapes as well as random values.
    """
    rows = rng.integers(2, 5)
    cols = 2 * rng.integers(1, 4)  # even, so the reshape below stays valid
    w34 = rng.normal((rows, cols))
    w26 = rng.normal((rows * 2, cols // 2))
    other = Tensor(rng.normal((rows, cols)))

    def weighted(t: Tensor, w) -> Tensor:
        return nm.summation(t * w)

    checks: list[tuple[str, object, Tensor]] = []
    x = Tensor(rng.normal((rows, cols)))
    checks += [
        ("add", lambda t: weighted(t + other, w34), x),
        ("sub", lambda t: weighted(other - t, w34), x),
        ("mul", lambda t: weighted(t * other, w34), x),
        ("div", lambda t: weighted(t / (other * other + 1.5), w34), x),
        ("div.denom", lambda t: weighted(other / (t * t + 1.5), w34), x),
        ("neg", lambda t: weighted(-t, w34), x),
        ("pow", lambda t: weighted((t * t + 1.0) ** 1.5, w34), x),
        ("tanh", lambda t: weighted(nm.tanh(t), w34), x),
        ("sigmoid", lambda t: weighted(nm.sigmoid(t), w34), x),
        ("exp", lambda t: weighted(nm.exp(t), w34), x),
        ("softmax", lambda t: weighted(nm.softmax(t, axis=1), w34), x),
        ("layer_norm", lambda t: weighted(nm.layer_norm(t, axis=1), w34), x),
        ("mean", lambda t: nm.mean(t * w34), x),
        ("sum", lambda t: nm.summation(t * w34), x),
        ("mse", lambda t: nm.mse(t, other), x),
        ("transpose", lambda t: weighted(t.T, w34.T), x),
        ("reshape", lambda t: weighted(nm.reshape(t, (rows * 2, cols // 2)), w26), x),
        ("getitem", lambda t: weighted(t[1:, ::2], w34[1:, ::2]), x),
        ("concat", lambda t: weighted(nm.concat([t, other], axis=0),
                                      np.concatenate([w34, w34])), x),
    ]
    checks.append(
        ("log", lambda t: weighted(nm.log(t), w34),
         Tensor(rng.uniform(0.5, 2.0, (rows, cols))))
    )
    checks.append(
        ("relu", lambda t: weighted(nm.relu(t), w34),
         Tensor(_away_from_zero(rng.normal((rows, cols)))))
    )
    checks.append(
        ("clamp", lambda t: weighted(nm.clamp(t, -1.0, 1.0), w34),
         Tensor(rng.uniform(-0.8, 0.8, (rows, cols))))
    )

    inner = rng.integers(2, 6)
    a = Tensor(rng.normal((rows, inner)))
    b_fixed = Tensor(rng.normal((inner, cols)))
    a_fixed = Tensor(rng.normal((rows, inner)))
    checks += [
        ("matmul.lhs", lambda t: weighted(t @ b_fixed, w34), a),
        ("matmul.rhs", lambda t: weighted(a_fixed @ t, w34),
         Tensor(rng.normal((inner, cols)))),
    ]

    c_in, c_out = rng.integers(1, 4), rng.integers(1, 4)
    length = rng.integers(2, 8)
    k = 1 + 2 * rng.integers(0, 3)
    wconv = rng.normal((c_out, length))
    sig = Tensor(rng.normal((c_in, length)))
    ker = Tensor(rng.normal((c_out, c_in, k)))
    checks += [
        ("conv1d.input", lambda t: weighted(nm.conv1d(t, ker), wconv), sig),
        ("conv1d.kernel", lambda t: weighted(nm.conv1d(sig, t), wconv),
         Tensor(rng.normal((c_out, c_in, k)))),
    ]

    # fused attention with two heads, each loss term once unmasked and once with
    # the last key column masked (own stream: the draws of the rows below stay put)
    ra = rng.child(15)
    t_att, d_att = ra.integers(2, 6), ra.integers(1, 4)
    x_att = Tensor(ra.normal((t_att, 3)))
    draws = [ra.normal((3, d_att)) for _ in range(6)]  # head0 q, k, v; head1 q, k, v
    w_att = np.array(draws)[[0, 3, 1, 4, 2, 5]]  # all wq, all wk, all wv
    masked = np.zeros((t_att, t_att))
    masked[:, -1] = MASK_BIAS
    wout, wout_masked = ra.normal((2, t_att, 2 * d_att))

    def att_loss(x: Tensor, w) -> Tensor:
        scale = 1.0 / np.sqrt(d_att)
        return (weighted(nm.attention(x, w, 2, scale), wout)
                + weighted(nm.attention(x, w, 2, scale, masked), wout_masked))

    def att_weight(row: int):
        return lambda t: att_loss(x_att, _with_row(w_att, row, t))

    checks += [  # head 0's projections
        ("attention.x", lambda t: att_loss(t, w_att), x_att),
        ("attention.wq", att_weight(0), Tensor(w_att[0])),
        ("attention.wk", att_weight(2), Tensor(w_att[2])),
        ("attention.wv", att_weight(4), Tensor(w_att[4])),
    ]

    # the fused layer ops, from their own stream too; the conv kernel may be
    # even or wider than the input
    rf = rng.child(16)
    cb_in, cb_out = rf.integers(1, 4), rf.integers(1, 4)
    lb, kb = rf.integers(1, 8), rf.integers(1, 10)
    sig_b, ker_b, wconv_b = (rf.normal(s) for s in ((cb_in, lb), (cb_out, cb_in, kb),
                                                    (cb_out, lb)))
    n_lin, d_lin, m_lin = rf.integers(1, 5), rf.integers(1, 5), rf.integers(1, 5)
    x_lin, w_lin, b_lin = (Tensor(rf.normal(s)) for s in ((n_lin, d_lin), (d_lin, m_lin),
                                                           (m_lin,)))
    wlin = rf.normal((n_lin, m_lin))
    ln_shape = (rf.integers(1, 5), rf.integers(2, 7))
    a_ln, b_ln = Tensor(rf.normal(ln_shape)), Tensor(rf.normal(ln_shape))
    wln = rf.normal(ln_shape)
    checks += [
        ("conv1d.bias", lambda t: weighted(nm.conv1d(sig_b, ker_b, t), wconv_b),
         Tensor(rf.normal(cb_out))),
        ("linear.x", lambda t: weighted(nm.linear(t, w_lin, b_lin), wlin), x_lin),
        ("linear.w", lambda t: weighted(nm.linear(x_lin, t, b_lin), wlin), w_lin),
        ("linear.b", lambda t: weighted(nm.linear(x_lin, w_lin, t), wlin), b_lin),
        ("add_layer_norm.a", lambda t: weighted(nm.add_layer_norm(t, b_ln, axis=1), wln), a_ln),
        ("add_layer_norm.b", lambda t: weighted(nm.add_layer_norm(a_ln, t, axis=1), wln), b_ln),
    ]

    # even kernels pad one more zero on the right than on the left, so the
    # col2im of the input cotangent is asymmetric (own stream again)
    rk = rng.child(17)
    for ke in (2, 4):
        ce_in, ce_out, le = rk.integers(1, 4), rk.integers(1, 4), rk.integers(1, 8)
        sig_e, ker_e = Tensor(rk.normal((ce_in, le))), Tensor(rk.normal((ce_out, ce_in, ke)))
        wconv_e = rk.normal((ce_out, le))
        checks += [
            (f"conv1d.input.k{ke}",
             lambda t, ker=ker_e, w=wconv_e: weighted(nm.conv1d(t, ker), w), sig_e),
            (f"conv1d.kernel.k{ke}",
             lambda t, sig=sig_e, w=wconv_e: weighted(nm.conv1d(sig, t), w), ker_e),
        ]

    # the fused loss op, each input in turn; frames share tokens (own stream)
    rl = rng.child(19)
    n_tok, c_nll = rl.integers(1, 4), 2 * rl.integers(1, 3)
    frame_tokens = np.repeat(np.arange(n_tok), rl.integers(1, 4, n_tok))
    nll_in = [Tensor(rl.normal((n_tok, c_nll))), Tensor(rl.uniform(0.5, 2.0, (n_tok, c_nll))),
              Tensor(rl.normal((c_nll, frame_tokens.size))), Tensor(rl.normal(()))]

    def nll_input(i: int):
        return lambda t: nm.aligned_nll(*nll_in[:i], t, *nll_in[i + 1:], frame_tokens)

    checks += [(f"aligned_nll.{name}", nll_input(i), nll_in[i])
               for i, name in enumerate(("mu", "sigma", "u", "logdet"))]

    wrows = rng.normal((4, cols))
    checks.append(
        ("take_rows", lambda t: weighted(nm.take_rows(t, [0, 2, 2, 1]), wrows),
         Tensor(rng.normal((3, cols))))
    )

    # composed modules, randomized away from their identity initializations
    layer = CouplingLayer(4, 6, rng.child(10), key_dim=4, head_init="small")
    wflow = rng.normal((4, 5))
    xin = Tensor(rng.normal((4, 5)))

    def flow_loss() -> Tensor:
        y, logdet = layer.forward(xin)
        return weighted(y, wflow) + logdet * 0.7

    checks += [
        ("coupling.input",
         lambda t: weighted(layer.forward(t)[0], wflow) + layer.forward(t)[1] * 0.7, xin),
        ("coupling.conv1_w", _swap_param(layer, "conv1_w", flow_loss),
         Tensor(layer.conv1_w.data.copy())),
        ("coupling.wq", _swap_param(layer, "wqkv", flow_loss, row=0),
         Tensor(layer.wqkv.data[0].copy())),
    ]

    gen = DurationGenerator(h_dim=6, z_dim=2, hidden=5, rng=rng.child(11))
    htok = Tensor(rng.normal((4, 6)))
    znoise = Tensor(rng.normal((4, 2)))
    wtok = rng.normal(4)

    def gen_loss() -> Tensor:
        return nm.summation(gen.forward(htok, znoise) * wtok)

    checks += [
        ("duration_gen.h", lambda t: nm.summation(gen.forward(t, znoise) * wtok), htok),
        ("duration_gen.conv1_w", _swap_param(gen.tower, "conv1_w", gen_loss),
         Tensor(gen.tower.conv1_w.data.copy())),
    ]

    disc = DurationDiscriminator(h_dim=6, hidden=5, rng=rng.child(12))
    dvals = Tensor(rng.uniform(0.1, 2.0, 4))

    def disc_loss() -> Tensor:
        return nm.summation(disc.forward(htok, dvals) * wtok)

    checks += [
        ("duration_disc.h", lambda t: nm.summation(disc.forward(t, dvals) * wtok), htok),
        ("duration_disc.d", lambda t: nm.summation(disc.forward(htok, t) * wtok), dvals),
        ("duration_disc.conv2_w", _swap_param(disc.tower, "conv2_w", disc_loss),
         Tensor(disc.tower.conv2_w.data.copy())),
    ]

    block = EncoderBlock(width=8, n_heads=2, ff_width=12, rng=rng.child(13))
    xblk = Tensor(rng.normal((5, 8)))
    wblk = rng.normal((5, 8))

    def block_loss() -> Tensor:
        return weighted(block.forward(xblk), wblk)

    checks += [
        ("encoder_block.input", lambda t: weighted(block.forward(t), wblk), xblk),
        ("encoder_block.wo", _swap_param(block, "wo", block_loss),
         Tensor(block.wo.data.copy())),
        ("encoder_block.head0.wk", _swap_param(block, "wqkv", block_loss, row=2),
         Tensor(block.wqkv.data[2].copy())),
    ]
    return checks + _main_phase_checks(rng.child(14)) + _duration_phase_checks(rng.child(18))


def _main_phase_checks(rng: Rng) -> list[tuple[str, object, Tensor]]:
    """The composed main-phase loss of a tiny 3-speaker model: speaker table ->
    encoder with speaker injection -> conditioned flows -> aligned NLL, with the
    alignment held fixed (alignment search is piecewise constant)."""
    config = TrainConfig(speakers=3, speaker_dim=4, hidden_width=8, n_heads=2, ff_width=8,
                         n_blocks=3, flow_depth=2, flow_hidden=4, key_dim=2)
    model = build_model(config, rng.child(0))
    for p in model.main_params():  # move off the zero init (identity flows)
        if not p.data.any():
            p.data[...] = 0.3 * rng.normal(p.shape)
    tokens = rng.integers(0, config.vocab, 4)
    durations = rng.integers(1, 4, 4)
    inst = Instance(tokens, durations, rng.normal((int(durations.sum()), config.channels)),
                    speaker=rng.integers(0, config.speakers))
    frame_tokens = np.repeat(np.arange(tokens.size), durations)

    def loss() -> Tensor:
        _, mu, sigma, u, logdet, _ = _instance_forward(model, inst)
        return nm.aligned_nll(mu, sigma, u, logdet, frame_tokens)

    block = model.encoder.blocks[model.encoder.SPEAKER_BLOCK]
    layer = model.flows.layers[1]
    return [
        ("main.spk.speakers.table", _swap_param(model.speakers, "table", loss),
         Tensor(model.speakers.table.data.copy())),
        ("main.enc.block2.head1.wq", _swap_param(block, "wqkv", loss, row=1),
         Tensor(block.wqkv.data[1].copy())),
        ("main.flow.layer1.attn.wq", _swap_param(layer, "wqkv", loss, row=0),
         Tensor(layer.wqkv.data[0].copy())),
    ]


def _duration_phase_checks(rng: Rng) -> list[tuple[str, object, Tensor]]:
    """The composed duration-phase losses of one adversarial step on a padded
    two-instance batch: the critic loss with respect to a critic weight, and
    the speaker-conditioned generator loss (adversarial + MSE) with respect to
    a generator weight, the critic frozen as in ``train_duration``."""
    h_dim, tokens = 3, 4
    gen = DurationGenerator(h_dim=h_dim, z_dim=2, hidden=4, rng=rng.child(0), cond_dim=3)
    disc = DurationDiscriminator(h_dim=h_dim, hidden=4, rng=rng.child(1))
    for p in gen.params() + disc.params():  # move the biases off their zero init
        if not p.data.any():
            p.data[...] = 0.3 * rng.normal(p.shape)
    h_text = rng.normal((2, tokens, h_dim))
    mask = np.arange(tokens) < np.array([[tokens], [tokens - 1]])
    d = rng.uniform(0.0, 1.5, (2, tokens))
    z = rng.normal((2, tokens, 2))
    batch = DurationBatch(h_text, d, mask, cond=rng.normal(3))

    def loss_d() -> Tensor:
        return adv_loss_d(disc, batch, generate(gen, h_text, z, mask, batch.cond))

    def loss_g() -> Tensor:
        d_hat = generate(gen, h_text, z, mask, batch.cond)
        return adv_loss_g(disc, batch, d_hat) + mse_loss(batch, d_hat)

    gen_row = _swap_param(gen.tower, "conv1_w", loss_g)
    gen_row.frozen = disc.params()  # checked, backward included, under nm.frozen
    return [
        ("duration.loss_d.disc.conv1_w", _swap_param(disc.tower, "conv1_w", loss_d),
         Tensor(disc.tower.conv1_w.data.copy())),
        ("duration.loss_g.gen.conv1_w", gen_row, Tensor(gen.tower.conv1_w.data.copy())),
    ]


def run(seed: int = 0, n_seeds: int = 20) -> list[tuple[str, float]]:
    """Worst check_grad error per check name across n_seeds fresh suites."""
    worst: dict[str, float] = {}
    for s in range(n_seeds):
        for name, f, probe in suite(Rng(seed).child(100 + s)):
            with nm.frozen(getattr(f, "frozen", ())):
                err = check_grad(f, probe)
            worst[name] = max(worst.get(name, 0.0), err)
    return sorted(worst.items())
