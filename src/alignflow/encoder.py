"""Transformer text encoder with speaker conditioning at the third block.

Produces the token-aligned hidden representation consumed by the duration
model plus the per-token prior statistics (mu, sigma) the alignment search
scores frames against. In multi-speaker mode a learned speaker embedding is
projected and added to the hidden states at the input of block 3 — blocks 1
and 2 are provably speaker-independent, which the tests pin down bit-exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numerics as nm
from .numerics import Rng, Tensor

MASK_BIAS = -1e30  # additive attention bias; exp underflows to exactly 0


class SpeakerTable(nm.Module):
    """Learnable speaker embeddings, one row per speaker id."""

    def __init__(self, n_speakers: int, dim: int, rng: Rng):
        self.n_speakers = n_speakers
        self.dim = dim
        self.table = self.param("speakers.table", nm.init_uniform(rng, (n_speakers, dim), dim))

    def lookup(self, speaker_id: int) -> Tensor:
        if not (0 <= speaker_id < self.n_speakers):
            raise IndexError(
                f"speaker id {speaker_id} outside [0, {self.n_speakers})"
            )
        return nm.take_rows(self.table, [speaker_id])[0]


@functools.lru_cache(maxsize=256)
def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Classic fixed position encoding, (length, dim). Cached per shape, so the
    array is shared between calls and read-only."""
    pe = np.zeros((length, dim))
    pos = np.arange(length, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, dim, 2, dtype=np.float64) * (-math.log(10000.0) / dim))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: dim // 2])
    pe.flags.writeable = False
    return pe


class EncoderBlock(nm.Module):
    """Post-norm transformer block: self-attention and a position-wise FFN,
    each wrapped in residual + layer norm."""

    def __init__(self, width: int, n_heads: int, ff_width: int, rng: Rng):
        if width % n_heads != 0:
            raise ValueError(f"width {width} not divisible by {n_heads} heads")
        self.width = width
        self.n_heads = n_heads
        self.head_dim = width // n_heads
        # head h draws its wq, wk, wv from rng.child(h); nm.attention takes all wq, all wk, all wv
        w = np.stack([nm.init_uniform(rng.child(h), (3, width, self.head_dim), width).data
                      for h in range(n_heads)], axis=1)
        self.wqkv = self.param({f"head{h}.{n}": j * n_heads + h for h in range(n_heads)
                                for j, n in enumerate(("wq", "wk", "wv"))},
                               Tensor(w.reshape(3 * n_heads, width, -1), requires_grad=True))
        r = rng.child(n_heads)
        self.wo = self.param("wo", nm.init_uniform(r, (width, width), width))
        self.w1 = self.param("ffn.w1", nm.init_uniform(r, (width, ff_width), width))
        self.b1 = self.param("ffn.b1", nm.zeros((ff_width,), requires_grad=True))
        self.w2 = self.param("ffn.w2", nm.init_uniform(r, (ff_width, width), ff_width))
        self.b2 = self.param("ffn.b2", nm.zeros((width,), requires_grad=True))

    def forward(self, x: Tensor, attn_bias: np.ndarray | None = None) -> Tensor:
        return nm.encoder_block(x, self.wqkv, self.wo, self.w1, self.b1, self.w2, self.b2,
                                self.n_heads, 1.0 / math.sqrt(self.head_dim), attn_bias)


class TextEncoder(nm.Module):
    """Token ids -> (h_text, mu, sigma), all length-aligned with the input.

    n_blocks >= 3 so the speaker injection point exists. sigma comes from an
    exp of a clamped log-scale head, so it is always strictly positive.
    """

    SPEAKER_BLOCK = 2  # speaker vector enters at the input of this block

    def __init__(
        self,
        vocab: int,
        rng: Rng,
        width: int = 32,
        out_channels: int = 2,
        n_blocks: int = 4,
        n_heads: int = 2,
        ff_width: int = 64,
        speaker_dim: int | None = None,
    ):
        if n_blocks < 3:
            raise ValueError(f"need at least 3 blocks for speaker injection, got {n_blocks}")
        self.vocab = vocab
        self.width = width
        self.out_channels = out_channels
        self.n_blocks = n_blocks
        self.speaker_dim = speaker_dim
        self.embedding = self.param(
            "embedding", nm.init_uniform(rng.child(1000), (vocab, width), width)
        )
        self.blocks = [
            self.child(f"block{b}", EncoderBlock(width, n_heads, ff_width, rng.child(b)))
            for b in range(n_blocks)
        ]
        r = rng.child(2000)
        self.w_speaker = self.param(
            "speaker_proj",
            None if speaker_dim is None else nm.init_uniform(r, (speaker_dim, width), speaker_dim),
        )
        self.w_mu = self.param("mu.w", nm.init_uniform(r, (width, out_channels), width))
        self.b_mu = self.param("mu.b", nm.zeros((out_channels,), requires_grad=True))
        self.w_logsigma = self.param("logsigma.w", nm.init_uniform(r, (width, out_channels), width))
        self.b_logsigma = self.param("logsigma.b", nm.zeros((out_channels,), requires_grad=True))

    def _attn_bias(self, n: int, mask: np.ndarray | None) -> np.ndarray | None:
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise nm.ShapeError(f"mask shape {mask.shape} does not match {n} tokens")
        bias = np.zeros((n, n))
        bias[:, ~mask] = MASK_BIAS
        return bias

    def hidden_states(
        self,
        tokens,
        speaker: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> list[Tensor]:
        """Hidden state after each block (used by tests to pin locality)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("tokens must be a non-empty 1-D id sequence")
        if np.maximum.reduce(tokens.view(np.uint64)) >= self.vocab:  # a negative id is >= 2**63
            raise IndexError(f"token ids outside [0, {self.vocab})")
        if speaker is not None and self.w_speaker is None:
            raise ValueError("encoder was built without speaker conditioning")
        bias = self._attn_bias(tokens.size, mask)
        x = nm.take_rows(self.embedding, tokens)
        x = x + sinusoidal_encoding(tokens.size, self.width)
        states = []
        for b, block in enumerate(self.blocks):
            if b == self.SPEAKER_BLOCK and speaker is not None:
                x = x + nm.reshape(speaker, (1, -1)) @ self.w_speaker
            x = block.forward(x, bias)
            states.append(x)
        return states

    def encode(
        self,
        tokens,
        speaker: Tensor | None = None,
        mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (h_text, mu, sigma), each length-I along the token axis."""
        h = self.hidden_states(tokens, speaker, mask)[-1]
        mu = nm.linear(h, self.w_mu, self.b_mu)
        return h, mu, nm.scale_head(h, self.w_logsigma, self.b_logsigma)
