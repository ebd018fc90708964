"""Affine coupling flows with a small residual transformer block.

Each layer splits channels in half: the first half passes through unchanged
and, after an optional single-head self-attention block with a residual
connection, drives a conv net that emits a per-element shift and log-scale
for the second half. The attention lets the transform look beyond the conv
receptive field; switching it off leaves a pure convolutional coupling layer.
Log-determinants are the sum of the log-scales, so densities stay exact under
change of variables.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .numerics import Rng, Tensor

KERNEL = 3  # conv kernel width along time, in every coupling layer


class CouplingLayer(nm.Module):
    """Invertible map on (C, T) inputs; C must be even.

    head_init="zero" starts the layer as the identity (shift 0, log-scale 0),
    the usual stabilization for flow training. attention=False leaves the
    transformer block out of the layer entirely.
    """

    conv_receptive_field = 2 * ((KERNEL - 1) // 2)  # half-width along time

    def __init__(
        self,
        channels: int,
        hidden: int,
        rng: Rng,
        key_dim: int = 8,
        attention: bool = True,
        cond_dim: int | None = None,
        head_init: str = "zero",
    ):
        if channels % 2 != 0:
            raise nm.ShapeError(f"coupling needs an even channel count, got {channels}")
        self.channels = channels
        self.half = channels // 2
        self.hidden = hidden
        self.key_dim = key_dim
        self.attention = attention
        self.cond_dim = cond_dim

        half, kd = self.half, key_dim
        self.wqkv = self.param({"attn.wq": 0, "attn.wk": 1, "attn.wv": 2},
                               nm.init_uniform(rng, (3, half, kd), half))
        self.wo = self.param("attn.wo", nm.init_uniform(rng, (kd, half), kd))
        self.conv1_w = self.param(
            "conv1.w", nm.init_uniform(rng, (hidden, half, KERNEL), half * KERNEL)
        )
        self.conv1_b = self.param("conv1.b", nm.zeros((hidden,), requires_grad=True))
        self.conv2_w = self.param(
            "conv2.w",
            nm.zeros((channels, hidden, KERNEL), requires_grad=True)
            if head_init == "zero"
            else nm.init_uniform(rng, (channels, hidden, KERNEL), hidden * KERNEL),
        )
        self.conv2_b = self.param("conv2.b", nm.zeros((channels,), requires_grad=True))
        self.wc = self.param(
            "cond.w",
            None if cond_dim is None else nm.init_uniform(rng, (hidden, cond_dim), cond_dim),
        )

    def _condition(self, x: Tensor, cond: Tensor | None) -> Tensor:
        """The (3h, T) rows [s, t, x[:h]]: the clamped log-scale and the shift
        the passed half x[:h] conditions, and that half."""
        if x.ndim != 2 or x.shape[0] != self.channels:
            raise nm.ShapeError(f"expected ({self.channels}, T) input, got {x.shape}")
        if cond is not None and self.wc is None:
            raise ValueError("layer built without cond_dim cannot take a condition")
        attn = self.attention
        return nm.coupling_conditioner(
            x, self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b,
            self.wqkv if attn else None, self.wo if attn else None, 1.0 / math.sqrt(self.key_dim),
            None if cond is None else self.wc, cond)

    def forward(self, x: Tensor, cond: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """y = [x_a, x_b * exp(s) + t]; returns (y, logdet) with logdet = sum(s)."""
        x = nm.ensure_tensor(x)
        c = self._condition(x, cond)
        return nm.affine_coupling(x, c), nm.sum_rows(c, self.half)

    def inverse(self, y: Tensor, cond: Tensor | None = None) -> Tensor:
        """Exact algebraic inverse: x_b = (y_b - t) * exp(-s)."""
        y = nm.ensure_tensor(y)
        c = self._condition(y, cond)
        h = self.half
        xb = (y[h:] - c[h : 2 * h]) * nm.exp(-c[:h])
        return nm.concat([c[2 * h :], xb], axis=0)  # y[:h] through c, as forward passes x[:h]

    def attention_map(self, x) -> np.ndarray:
        """The T x T row-stochastic attention matrix this input produces.

        Pure numpy, side-effect free; rows sum to 1 even when attention is
        off (the map the block *would* use). It is the map the attention
        inside ``nm.coupling_conditioner`` uses, byte for byte: the same q, k
        products and the same ``nm.attention_probs``.
        """
        xt = np.ascontiguousarray(nm.ensure_tensor(x).data[: self.half].T)
        q, k = np.matmul(xt, self.wqkv.data[:2])
        return nm.attention_probs(q[None], k[None], 1.0 / math.sqrt(self.key_dim))[0]


def _flip_channels(x: Tensor) -> Tensor:
    return x[::-1]


class FlowStack(nm.Module):
    """Coupling layers composed with a channel flip between consecutive layers."""

    def __init__(
        self,
        channels: int,
        depth: int,
        hidden: int,
        rng: Rng,
        key_dim: int = 8,
        attention: bool = True,
        cond_dim: int | None = None,
        head_init: str = "zero",
    ):
        nm.check(nm.at_least(2), depth, "stack depth")
        self.channels = channels
        self.depth = depth
        self.layers = [
            self.child(f"layer{li}", CouplingLayer(
                channels,
                hidden,
                rng.child(li),
                key_dim=key_dim,
                attention=attention,
                cond_dim=cond_dim,
                head_init=head_init,
            ))
            for li in range(depth)
        ]

    def forward(self, x: Tensor, cond: Tensor | None = None) -> tuple[Tensor, Tensor]:
        x, total = self.layers[0].forward(x, cond)
        for layer in self.layers[1:]:
            x, ld = layer.forward(_flip_channels(x), cond)
            total = total + ld
        return x, total

    def inverse(self, z: Tensor, cond: Tensor | None = None) -> Tensor:
        for li in range(self.depth - 1, -1, -1):
            z = self.layers[li].inverse(z, cond)
            if li > 0:
                z = _flip_channels(z)
        return z

    def attention_maps(self, x, cond: Tensor | None = None) -> list[np.ndarray]:
        """Per-layer attention maps for the inputs each layer actually sees."""
        x = nm.ensure_tensor(x)
        maps = []
        with nm.no_grad():
            for li, layer in enumerate(self.layers):
                if li > 0:
                    x = _flip_channels(x)
                maps.append(layer.attention_map(x))
                x, _ = layer.forward(x, cond)
        return maps
