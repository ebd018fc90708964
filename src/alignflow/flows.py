"""Affine coupling flows with a small residual transformer block.

Each layer splits channels in half: the first half passes through unchanged
and, after an optional single-head self-attention block with a residual
connection, drives a conv net that emits a per-element shift and log-scale
for the second half. The attention lets the transform look beyond the conv
receptive field; scaling its output by zero recovers a pure convolutional
coupling layer exactly. Log-determinants are the sum of the log-scales, so
densities stay exact under change of variables.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .numerics import Rng, Tensor


class CouplingLayer(nm.Module):
    """Invertible map on (C, T) inputs; C must be even.

    head_init="zero" starts the layer as the identity (shift 0, log-scale 0),
    the usual stabilization for flow training. attn_gain scales the attention
    residual; 0 bypasses the transformer block entirely.
    """

    def __init__(
        self,
        channels: int,
        hidden: int,
        rng: Rng,
        key_dim: int = 8,
        attn_gain: float = 1.0,
        cond_dim: int | None = None,
        kernel: int = 3,
        head_init: str = "zero",
    ):
        if channels % 2 != 0:
            raise nm.ShapeError(f"coupling needs an even channel count, got {channels}")
        self.channels = channels
        self.half = channels // 2
        self.hidden = hidden
        self.key_dim = key_dim
        self.attn_gain = float(attn_gain)
        self.cond_dim = cond_dim
        self.kernel = kernel

        half, kd = self.half, key_dim
        self.wq = self.param("attn.wq", nm.init_uniform(rng, (half, kd), half))
        self.wk = self.param("attn.wk", nm.init_uniform(rng, (half, kd), half))
        self.wv = self.param("attn.wv", nm.init_uniform(rng, (half, kd), half))
        self.wo = self.param("attn.wo", nm.init_uniform(rng, (kd, half), kd))
        self.conv1_w = self.param(
            "conv1.w", nm.init_uniform(rng, (hidden, half, kernel), half * kernel)
        )
        self.conv1_b = self.param("conv1.b", nm.zeros((hidden,), requires_grad=True))
        self.conv2_w = self.param(
            "conv2.w",
            nm.zeros((channels, hidden, kernel), requires_grad=True)
            if head_init == "zero"
            else nm.init_uniform(rng, (channels, hidden, kernel), hidden * kernel),
        )
        self.conv2_b = self.param("conv2.b", nm.zeros((channels,), requires_grad=True))
        self.wc = self.param(
            "cond.w",
            None if cond_dim is None else nm.init_uniform(rng, (hidden, cond_dim), cond_dim),
        )

    @property
    def conv_receptive_field(self) -> int:
        """Half-width of the conv path's receptive field along time."""
        return 2 * ((self.kernel - 1) // 2)

    def _attend(self, xa: Tensor) -> Tensor:
        # self-attention over time; xa is (half, T)
        heads = [(self.wq, self.wk, self.wv)]
        return (nm.attention(xa.T, heads, 1.0 / math.sqrt(self.key_dim)) @ self.wo).T

    def _shift_and_logscale(self, xa: Tensor, cond: Tensor | None):
        h = xa
        if self.attn_gain != 0.0:
            h = h + self._attend(xa) * self.attn_gain
        pre = nm.conv1d(h, self.conv1_w, self.conv1_b)
        if cond is not None:
            if self.wc is None:
                raise ValueError("layer built without cond_dim cannot take a condition")
            pre = pre + nm.reshape(self.wc @ nm.reshape(cond, (-1, 1)), (-1, 1))
        hid = nm.relu(pre)
        out = nm.conv1d(hid, self.conv2_w, self.conv2_b)
        s = nm.clamp(out[: self.half], -8.0, 8.0)  # keeps exp(s) invertible
        t = out[self.half :]
        return s, t

    def forward(self, x: Tensor, cond: Tensor | None = None) -> tuple[Tensor, Tensor]:
        """y = [x_a, x_b * exp(s) + t]; returns (y, logdet) with logdet = sum(s)."""
        x = nm.ensure_tensor(x)
        if x.ndim != 2 or x.shape[0] != self.channels:
            raise nm.ShapeError(
                f"expected ({self.channels}, T) input, got {x.shape}"
            )
        xa, xb = x[: self.half], x[self.half :]
        s, t = self._shift_and_logscale(xa, cond)
        yb = xb * nm.exp(s) + t
        y = nm.concat([xa, yb], axis=0)
        return y, nm.summation(s)

    def inverse(self, y: Tensor, cond: Tensor | None = None) -> Tensor:
        """Exact algebraic inverse: x_b = (y_b - t) * exp(-s)."""
        y = nm.ensure_tensor(y)
        if y.ndim != 2 or y.shape[0] != self.channels:
            raise nm.ShapeError(
                f"expected ({self.channels}, T) input, got {y.shape}"
            )
        ya, yb = y[: self.half], y[self.half :]
        s, t = self._shift_and_logscale(ya, cond)
        xb = (yb - t) * nm.exp(-s)
        return nm.concat([ya, xb], axis=0)

    def attention_map(self, x) -> np.ndarray:
        """The T x T row-stochastic attention matrix this input produces.

        Pure numpy, side-effect free; rows sum to 1 even when attn_gain is 0
        (the map the block *would* use). It is the map ``nm.attention`` uses
        inside ``_attend``, byte for byte: the same q, k products and the
        same ``nm.attention_probs``.
        """
        xt = np.ascontiguousarray(nm.ensure_tensor(x).data[: self.half].T)
        q, k = np.matmul(xt, np.array([self.wq.data, self.wk.data]))
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
        attn_gain: float = 1.0,
        cond_dim: int | None = None,
        kernel: int = 3,
        head_init: str = "zero",
    ):
        if depth < 2:
            raise ValueError(f"stack depth must be >= 2, got {depth}")
        self.channels = channels
        self.depth = depth
        self.layers = [
            self.child(f"layer{li}", CouplingLayer(
                channels,
                hidden,
                rng.child(li),
                key_dim=key_dim,
                attn_gain=attn_gain,
                cond_dim=cond_dim,
                kernel=kernel,
                head_init=head_init,
            ))
            for li in range(depth)
        ]

    def forward(self, x: Tensor, cond: Tensor | None = None) -> tuple[Tensor, Tensor]:
        total = Tensor(0.0)
        for li, layer in enumerate(self.layers):
            if li > 0:
                x = _flip_channels(x)
            x, ld = layer.forward(x, cond)
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
