"""Stochastic duration modeling with a time-step-wise adversary.

The generator maps per-token text features plus Gaussian noise to a log-scale
duration per token, so one sentence admits many timings. The discriminator is
conditional and time-step-wise: it sees (text features, durations) and emits
one real/fake score per token rather than pooling, which is what lets it
handle variable-length sequences. Training uses the least-squares adversarial
objective (real scores pushed to 1, fake to 0) plus a mean-squared-error
anchor on the search-derived log-durations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import AdamWConfig, NumericError, Rng, Tensor, frozen


@dataclass
class DurationBatch:
    """Padded batch: h_text (B, I, H), d (B, I) log-durations, mask (B, I).

    Masks must be prefix-form (valid tokens first). Valid log-durations are
    finite and >= 0, i.e. at least one frame per token.
    """

    h_text: np.ndarray
    d: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.h_text = np.asarray(self.h_text, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.h_text.ndim != 3:
            raise ValueError(f"h_text must be (B, I, H), got {self.h_text.shape}")
        b, i = self.h_text.shape[:2]
        if self.d.shape != (b, i) or self.mask.shape != (b, i):
            raise ValueError(
                f"d {self.d.shape} and mask {self.mask.shape} must both be ({b}, {i})"
            )
        for row in self.mask:
            n = int(row.sum())
            if not row[:n].all() or row[n:].any():
                raise ValueError("masks must be prefix-form (valid tokens first)")
            if n == 0:
                raise ValueError("every instance needs at least one valid token")
        if not np.all(np.isfinite(self.d[self.mask])):
            raise ValueError("log-durations must be finite on valid positions")
        if (self.d[self.mask] < 0).any():
            raise ValueError("valid log-durations must be >= 0 (durations >= 1 frame)")

    @property
    def batch_size(self) -> int:
        return self.h_text.shape[0]

    def valid_len(self, b: int) -> int:
        return int(self.mask[b].sum())


class _ConvTower(nm.Module):
    """conv(k) -> relu -> conv(k) -> relu -> 1x1 head, over the token axis."""

    def __init__(self, in_dim: int, hidden: int, rng: Rng, kernel: int = 3,
                 cond_dim: int | None = None):
        self.kernel = kernel
        self.conv1_w = self.param(
            "conv1.w", nm.init_uniform(rng, (hidden, in_dim, kernel), in_dim * kernel)
        )
        self.conv1_b = self.param("conv1.b", nm.zeros((hidden,), requires_grad=True))
        self.conv2_w = self.param(
            "conv2.w", nm.init_uniform(rng, (hidden, hidden, kernel), hidden * kernel)
        )
        self.conv2_b = self.param("conv2.b", nm.zeros((hidden,), requires_grad=True))
        self.head_w = self.param("head.w", nm.init_uniform(rng, (1, hidden, 1), hidden))
        self.head_b = self.param("head.b", nm.zeros((1,), requires_grad=True))
        self.wc = self.param(
            "cond.w", nm.init_uniform(rng, (hidden, cond_dim), cond_dim) if cond_dim else None
        )

    def run(self, x: Tensor, cond: Tensor | None) -> Tensor:
        # x: (in_dim, I) -> (I,)
        pre = nm.conv1d(x, self.conv1_w, self.conv1_b)
        if cond is not None:
            if self.wc is None:
                raise ValueError("tower built without cond_dim cannot take a condition")
            pre = pre + nm.reshape(self.wc @ nm.reshape(cond, (-1, 1)), (-1, 1))
        h = nm.relu(pre)
        h = nm.relu(nm.conv1d(h, self.conv2_w, self.conv2_b))
        out = nm.conv1d(h, self.head_w, self.head_b)
        return out[0]


class DurationGenerator(nm.Module):
    """Per-token log-duration network: concat(text features, noise) -> conv tower.

    z_dim = 0 builds the deterministic variant (no noise input), used by the
    non-adversarial baseline.
    """

    def __init__(self, h_dim: int, z_dim: int = 2, hidden: int = 32,
                 rng: Rng | None = None, cond_dim: int | None = None, kernel: int = 3):
        rng = rng if rng is not None else Rng(0)
        self.h_dim = h_dim
        self.z_dim = z_dim
        self.tower = self.child("gen", _ConvTower(h_dim + z_dim, hidden, rng, kernel, cond_dim))

    def forward(self, h, z=None, cond: Tensor | None = None) -> Tensor:
        """h: (I, h_dim), z: (I, z_dim) standard normal. Returns (I,) log-durations."""
        h = nm.ensure_tensor(h)
        if h.ndim != 2 or h.shape[1] != self.h_dim:
            raise nm.ShapeError(f"expected (I, {self.h_dim}) features, got {h.shape}")
        if self.z_dim:
            z = nm.ensure_tensor(z)
            if z.shape != (h.shape[0], self.z_dim):
                raise nm.ShapeError(
                    f"noise must be ({h.shape[0]}, {self.z_dim}), got {z.shape}"
                )
            x = nm.concat([h, z], axis=1).T
        else:
            x = h.T
        return self.tower.run(x, cond)


class DurationDiscriminator(nm.Module):
    """Time-step-wise conditional critic: one score per token, never pooled."""

    def __init__(self, h_dim: int, hidden: int = 32, rng: Rng | None = None,
                 kernel: int = 3):
        rng = rng if rng is not None else Rng(0)
        self.h_dim = h_dim
        self.kernel = kernel
        self.tower = self.child("disc", _ConvTower(h_dim + 1, hidden, rng, kernel))

    @property
    def receptive_field(self) -> int:
        """Half-width of a score's dependence window along the token axis."""
        return 2 * ((self.kernel - 1) // 2)

    def forward(self, h, d) -> Tensor:
        """h: (I, h_dim), d: (I,) durations in log scale. Returns (I,) scores."""
        h = nm.ensure_tensor(h)
        d = nm.ensure_tensor(d)
        if d.ndim != 1 or d.shape[0] != h.shape[0]:
            raise nm.ShapeError(f"durations {d.shape} must match tokens {h.shape}")
        x = nm.concat([h, nm.reshape(d, (-1, 1))], axis=1).T
        return self.tower.run(x, cond=None)


def generate(gen: DurationGenerator, h_text, z_d, mask, cond=None) -> list[Tensor]:
    """Predicted log-durations per instance, valid prefix only.

    h_text: (B, I, H); z_d: (B, I, Z) standard normal (ignored for a
    deterministic generator); mask: (B, I) prefix masks. The returned tensors
    are tape-connected to the generator parameters.
    """
    h_text = np.asarray(h_text, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    out = []
    for b in range(h_text.shape[0]):
        n = int(mask[b].sum())
        z = None
        if gen.z_dim:
            z = np.asarray(z_d, dtype=np.float64)[b, :n]
        out.append(gen.forward(h_text[b, :n], z, cond=cond))
    return out


def _masked_mean(per_token_terms: list[Tensor]) -> Tensor:
    total = None
    count = 0
    for t in per_token_terms:
        count += t.size
        s = nm.summation(t)
        total = s if total is None else total + s
    return total * (1.0 / count)


def adv_loss_d(disc: DurationDiscriminator, d, d_hat, h_text, mask) -> Tensor:
    """Least-squares critic loss: mean over valid tokens of
    (D(d, h) - 1)^2 + D(d_hat, h)^2.

    Predicted durations are detached here, so this loss can never move the
    generator.
    """
    h_text = np.asarray(h_text, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    terms = []
    for b in range(h_text.shape[0]):
        n = int(mask[b].sum())
        h = h_text[b, :n]
        real = disc.forward(h, d[b, :n])
        fake = disc.forward(h, d_hat[b].detach())
        terms.append((real - 1.0) ** 2 + fake**2)
    return _masked_mean(terms)


def adv_loss_g(disc: DurationDiscriminator, d_hat, h_text, mask) -> Tensor:
    """Least-squares generator loss: mean over valid tokens of (D(d_hat, h) - 1)^2.

    Freeze the discriminator parameters around backward when training; the
    tape checks requires_grad at backward time.
    """
    h_text = np.asarray(h_text, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    terms = []
    for b in range(h_text.shape[0]):
        n = int(mask[b].sum())
        fake = disc.forward(h_text[b, :n], d_hat[b])
        terms.append((fake - 1.0) ** 2)
    return _masked_mean(terms)


def mse_loss(d_hat, d, mask) -> Tensor:
    """Mean squared error between predicted and target log-durations."""
    d = np.asarray(d, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    terms = []
    for b in range(d.shape[0]):
        n = int(mask[b].sum())
        diff = d_hat[b] - d[b, :n]
        terms.append(diff * diff)
    return _masked_mean(terms)


def _grads_are_zero(params) -> bool:
    return all(p.grad is None or not p.grad.any() for p in params)


def train_duration(
    gen: DurationGenerator,
    disc: DurationDiscriminator | None,
    corpus: list[DurationBatch],
    steps: int,
    opt_cfg: AdamWConfig | None = None,
    rng: Rng | None = None,
    cond=None,
    adversarial: bool = True,
    verify_isolation: bool = False,
) -> list[dict]:
    """Alternating critic/generator updates over a corpus of batches.

    Per step: one discriminator update on the least-squares critic loss, then
    one generator update on adversarial + MSE loss. With adversarial=False the
    critic is never touched and only the MSE objective is on the tape (the
    deterministic-baseline arm). ``cond`` may be a single condition vector or
    a list aligned with ``corpus``. Returns one loss record per step; a
    non-finite loss aborts with the offending step index.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if adversarial and disc is None:
        raise ValueError("adversarial training needs a discriminator")
    if gen.z_dim and rng is None:
        raise ValueError("a generator with a noise input needs an rng")
    opt_cfg = opt_cfg or AdamWConfig()
    opt_g = opt_cfg.build(gen.params())
    opt_d = opt_cfg.build(disc.params()) if adversarial else None

    def draw_noise(batch: DurationBatch) -> np.ndarray | None:
        if not gen.z_dim:
            return None
        return rng.normal((batch.batch_size, batch.mask.shape[1], gen.z_dim))

    history = []
    for step in range(steps):
        idx = step % len(corpus)
        batch = corpus[idx]
        batch_cond = cond[idx] if isinstance(cond, list) else cond
        epoch = step // len(corpus)
        opt_g.set_epoch(epoch)
        if opt_d is not None:
            opt_d.set_epoch(epoch)
        try:
            if adversarial:
                d_hat = generate(gen, batch.h_text, draw_noise(batch), batch.mask, batch_cond)
                loss_d = adv_loss_d(disc, batch.d, d_hat, batch.h_text, batch.mask)
                opt_d.zero_grad()
                opt_g.zero_grad()
                loss_d.backward()
                if verify_isolation and not _grads_are_zero(gen.params()):
                    raise AssertionError(
                        f"step {step}: critic update leaked into generator grads"
                    )
                opt_d.step()

                d_hat = generate(gen, batch.h_text, draw_noise(batch), batch.mask, batch_cond)
                loss_adv = adv_loss_g(disc, d_hat, batch.h_text, batch.mask)
                loss_mse = mse_loss(d_hat, batch.d, batch.mask)
                loss_g = loss_adv + loss_mse
                opt_g.zero_grad()
                opt_d.zero_grad()
                with frozen(disc.params()):
                    loss_g.backward()
                if verify_isolation and not _grads_are_zero(disc.params()):
                    raise AssertionError(
                        f"step {step}: generator update leaked into critic grads"
                    )
                opt_g.step()
                history.append(
                    {
                        "step": step,
                        "loss_d": loss_d.item(),
                        "loss_g_adv": loss_adv.item(),
                        "loss_g_mse": loss_mse.item(),
                    }
                )
            else:
                d_hat = generate(gen, batch.h_text, draw_noise(batch), batch.mask, batch_cond)
                loss_mse = mse_loss(d_hat, batch.d, batch.mask)
                opt_g.zero_grad()
                loss_mse.backward()
                opt_g.step()
                history.append({"step": step, "loss_g_mse": loss_mse.item()})
        except NumericError as e:
            raise NumericError(f"duration training diverged at step {step}: {e}") from e
    return history
