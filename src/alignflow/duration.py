"""Stochastic duration modeling with a time-step-wise adversary.

The generator maps per-token text features plus Gaussian noise to a log-scale
duration per token, so one sentence admits many timings. The discriminator is
conditional and time-step-wise: it sees (text features, durations) and emits
one real/fake score per token rather than pooling, which is what lets it
handle variable-length sequences. Training uses the least-squares adversarial
objective (real scores pushed to 1, fake to 0) plus a mean-squared-error
anchor on the search-derived log-durations.

The phase passes one ``DurationBatch`` around: features, targets and speaker
condition together. Only ``instances()`` and ``generate`` read its padding.

Each loss is one tape node over its instances, with a hand-written VJP that
is bit-identical to the chain of sub, pow or mul, sum, add and mul-by-1/count
nodes it replaced. So a training step is 9 nodes: the two generator and three
critic towers, the three losses and the generator's adversarial + MSE sum.
The critic's update reads the generator's output detached, so it generates
it under ``no_grad``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import AdamW, AdamWConfig, NumericError, Rng, Tensor, frozen

KERNEL = 3  # conv kernel width along the token axis, in every tower
_sum = np.add.reduce  # what ndarray.sum runs, minus its wrapper


def _prefix_counts(mask: np.ndarray):
    """The valid tokens of each row of a (B, I) bool mask. Raises
    ``ValueError``, for the first row that breaks a rule, unless every row is
    prefix-form (valid tokens first) with at least one valid token."""
    if mask.shape[1] and np.logical_and.reduce(mask, axis=None):  # no padding, as in training
        return (mask.shape[1],) * mask.shape[0]
    counts = mask.sum(axis=1)
    rises = mask[:, 1:] > mask[:, :-1]  # a valid token after padding
    bad = (counts == 0) | rises.any(axis=1)
    if bad.any():
        if counts[bad.argmax()]:  # an all-False row has no rise
            raise ValueError("masks must be prefix-form (valid tokens first)")
        raise ValueError("every instance needs at least one valid token")
    return counts


@dataclass
class DurationBatch:
    """Padded batch: h_text (B, I, H), d (B, I) log-durations, mask (B, I),
    and ``cond``, None or the generator's condition vector for every instance.

    Masks must be prefix-form (valid tokens first). Valid features are
    finite, valid log-durations finite and >= 0 (at least one frame per
    token), and ``cond`` 1-D and finite; a breach raises ``ValueError``
    naming the field. The fields are checked and cut into instances once, at
    construction: build a new batch (e.g. with ``dataclasses.replace``)
    rather than rebinding a field.
    """

    h_text: np.ndarray
    d: np.ndarray
    mask: np.ndarray
    cond: np.ndarray | None = None

    def __post_init__(self):
        self.h_text = np.asarray(self.h_text, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.h_text.ndim != 3:
            raise ValueError(f"h_text must be (B, I, H), got {self.h_text.shape}")
        b, i = self.h_text.shape[:2]
        if b == 0:
            raise ValueError(f"a batch needs at least one instance, got h_text {self.h_text.shape}")
        if self.d.shape != (b, i) or self.mask.shape != (b, i):
            raise ValueError(
                f"d {self.d.shape} and mask {self.mask.shape} must both be ({b}, {i})"
            )
        counts = _prefix_counts(self.mask)
        if not np.all(np.isfinite(self.h_text[self.mask])):
            raise ValueError("h_text must be finite on valid positions")
        if not np.all(np.isfinite(self.d[self.mask])):
            raise ValueError("log-durations must be finite on valid positions")
        if (self.d[self.mask] < 0).any():
            raise ValueError("valid log-durations must be >= 0 (durations >= 1 frame)")
        if self.cond is not None:
            self.cond = np.asarray(self.cond, dtype=np.float64)
            if self.cond.ndim != 1:
                raise ValueError(f"cond must be 1-D, got shape {self.cond.shape}")
            if not np.all(np.isfinite(self.cond)):
                raise ValueError("cond must be finite")
        # every training step reads these three times, so they are cut once here
        self._instances = tuple((h[:n], d[:n]) for h, d, n in
                                zip(self.h_text, self.d, counts))

    def instances(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each instance's valid prefix as views ``(h_text[b, :n], d[b, :n])``."""
        return self._instances


class _ConvTower(nm.Module):
    """conv(k) -> relu -> conv(k) -> relu -> 1x1 head, over the token axis."""

    def __init__(self, in_dim: int, hidden: int, rng: Rng, cond_dim: int | None = None):
        self.conv1_w = self.param(
            "conv1.w", nm.init_uniform(rng, (hidden, in_dim, KERNEL), in_dim * KERNEL)
        )
        self.conv1_b = self.param("conv1.b", nm.zeros((hidden,), requires_grad=True))
        self.conv2_w = self.param(
            "conv2.w", nm.init_uniform(rng, (hidden, hidden, KERNEL), hidden * KERNEL)
        )
        self.conv2_b = self.param("conv2.b", nm.zeros((hidden,), requires_grad=True))
        self.head_w = self.param("head.w", nm.init_uniform(rng, (1, hidden, 1), hidden))
        self.head_b = self.param("head.b", nm.zeros((1,), requires_grad=True))
        self.wc = self.param(
            "cond.w", nm.init_uniform(rng, (hidden, cond_dim), cond_dim) if cond_dim else None
        )

    def run(self, feats: Tensor, extra: Tensor | None, cond: Tensor | None) -> Tensor:
        """(I,) scores of the features (I, H) with the extra input channels
        (None, (I, Z) or (I,)) stacked after them, as one ``nm.conv_tower`` node."""
        if cond is not None and self.wc is None:
            raise ValueError("tower built without cond_dim cannot take a condition")
        return nm.conv_tower(feats, extra, self.conv1_w, self.conv1_b, self.conv2_w,
                             self.conv2_b, self.head_w, self.head_b,
                             None if cond is None else self.wc, cond)


class DurationGenerator(nm.Module):
    """Per-token log-duration network: (text features, noise) -> conv tower.

    z_dim = 0 builds the deterministic variant (no noise input), used by the
    non-adversarial baseline.
    """

    def __init__(self, h_dim: int, z_dim: int, hidden: int, rng: Rng,
                 cond_dim: int | None = None):
        self.h_dim = h_dim
        self.z_dim = z_dim
        self.tower = self.child("gen", _ConvTower(h_dim + z_dim, hidden, rng, cond_dim))

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
        return self.tower.run(h, z if self.z_dim else None, cond)


class DurationDiscriminator(nm.Module):
    """Time-step-wise conditional critic: one score per token, never pooled."""

    receptive_field = 2 * ((KERNEL - 1) // 2)  # half-width of a score's window

    def __init__(self, h_dim: int, hidden: int, rng: Rng):
        self.h_dim = h_dim
        self.tower = self.child("disc", _ConvTower(h_dim + 1, hidden, rng))

    def forward(self, h, d) -> Tensor:
        """h: (I, h_dim), d: (I,) durations in log scale. Returns (I,) scores."""
        h = nm.ensure_tensor(h)
        d = nm.ensure_tensor(d)
        if d.ndim != 1 or d.shape[0] != h.shape[0]:
            raise nm.ShapeError(f"durations {d.shape} must match tokens {h.shape}")
        return self.tower.run(h, d, cond=None)


def generate(gen: DurationGenerator, h_text, z_d, mask, cond=None) -> list[Tensor]:
    """Predicted log-durations per instance, valid prefix only.

    h_text: (B, I, H); z_d: (B, I, Z) standard normal (ignored for a
    deterministic generator); mask: (B, I) prefix masks; cond: None or one
    condition vector for every instance. The returned tensors are
    tape-connected to the generator parameters. Raises ``ShapeError`` when
    the mask or the noise does not fit ``h_text``, and ``ValueError``, as
    ``DurationBatch`` does, for a mask row that is not prefix-form or has no
    valid token.
    """
    h_text = np.asarray(h_text, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if h_text.ndim != 3 or mask.shape != h_text.shape[:2]:
        raise nm.ShapeError(f"mask {mask.shape} must be (B, I) of h_text (B, I, H) "
                            f"{h_text.shape}")
    if gen.z_dim:
        want = (*mask.shape, gen.z_dim)
        z_d = None if z_d is None else np.asarray(z_d, dtype=np.float64)
        if z_d is None or z_d.shape != want:
            raise nm.ShapeError(f"noise z_d must be {want} for h_text {h_text.shape}, got "
                                f"{None if z_d is None else z_d.shape}")
    out = []
    for b, n in enumerate(_prefix_counts(mask)):
        z = z_d[b, :n] if gen.z_dim else None
        out.append(gen.forward(h_text[b, :n], z, cond=cond))
    return out


def _mean_node(op: str, parents: list[Tensor], bases: list[np.ndarray],
               parts: list[np.ndarray], term_vjp) -> Tensor:
    """The mean over every element of ``parts``, one array of per-token terms
    per instance, as one tape node on ``parents``. ``term_vjp(gs, bases[k])``
    is ``parents[k]``'s cotangent, with ``gs`` the cotangent of each term.

    Bit for bit the chain of ``summation`` per instance, ``add`` of those sums
    in instance order and multiply by 1/count that it replaced: each part's
    ``np.add.reduce`` sum, added in order, times 1/count, and ``gs = g *
    (1/count)``. The VJP computes every parent's cotangent. The terms are
    squares, so a non-finite square or sum leaves the mean non-finite, and
    ``_make`` raises exactly where the chain did; the caller computes
    ``parts`` and calls this under ``nm._ignoring(over="ignore")``, which
    silences the overflow warnings outside a guard and lets a guard's raise
    through inside one.
    """
    scale = 1.0 / sum(part.size for part in parts)
    total = _sum(parts[0], axis=None)
    for part in parts[1:]:
        total = total + _sum(part, axis=None)

    def vjp(g):
        gs = g * scale
        return [term_vjp(gs, base) for base in bases]

    return nm._make(total * scale, tuple(parents), vjp, op)


def _square_vjp(gs, base):
    return (gs * 2.0) * base  # pow's VJP at p = 2: g * p * base ** 1.0


def _product_vjp(gs, base):
    g_base = gs * base  # mul's VJP for base * base, its two factors summed by the walk
    return g_base + g_base


def adv_loss_d(disc: DurationDiscriminator, batch: DurationBatch, d_hat) -> Tensor:
    """Least-squares critic loss: mean over valid tokens of
    (D(d, h) - 1)^2 + D(d_hat, h)^2, ``d_hat`` one tensor per instance, as
    one ``adv_loss_d`` node on the real and fake scores.

    Predicted durations are detached here, so this loss can never move the
    generator.
    """
    scores = []
    for (h, d), fake_d in zip(batch.instances(), d_hat, strict=True):
        scores += disc.forward(h, d), disc.forward(h, fake_d.detach())
    with nm._ignoring(over="ignore"):
        bases = [s.data - 1.0 if k % 2 == 0 else s.data for k, s in enumerate(scores)]
        parts = [r**2.0 + f**2.0 for r, f in zip(bases[::2], bases[1::2])]
        return _mean_node("adv_loss_d", scores, bases, parts, _square_vjp)


def adv_loss_g(disc: DurationDiscriminator, batch: DurationBatch, d_hat) -> Tensor:
    """Least-squares generator loss: mean over valid tokens of (D(d_hat, h) - 1)^2,
    ``d_hat`` one tensor per instance, as one ``adv_loss_g`` node on the scores.

    Freeze the discriminator parameters around backward when training; the
    tape checks requires_grad at backward time.
    """
    scores = [disc.forward(h, fake_d)
              for (h, _), fake_d in zip(batch.instances(), d_hat, strict=True)]
    with nm._ignoring(over="ignore"):
        bases = [s.data - 1.0 for s in scores]
        return _mean_node("adv_loss_g", scores, bases, [b**2.0 for b in bases], _square_vjp)


def mse_loss(batch: DurationBatch, d_hat) -> Tensor:
    """Mean over valid tokens of (d_hat - d)^2, ``d_hat`` one (n,) tensor per
    instance of n valid tokens, as one ``mse_loss`` node on the predictions."""
    preds, bases = [], []
    with nm._ignoring(over="ignore"):
        for (_, d), pred in zip(batch.instances(), d_hat, strict=True):
            pred = nm.ensure_tensor(pred)
            if pred.shape != d.shape:
                raise nm.ShapeError(f"prediction {pred.shape} must be {d.shape}, one per token")
            preds.append(pred)
            bases.append(pred.data - d)
        return _mean_node("mse_loss", preds, bases, [b * b for b in bases], _product_vjp)


def _grads_are_zero(params) -> bool:
    return all(p.grad is None or not p.grad.any() for p in params)


def train_duration(
    gen: DurationGenerator,
    disc: DurationDiscriminator | None,
    corpus: list[DurationBatch],
    steps: int,
    opt_cfg: AdamWConfig = AdamWConfig(),
    rng: Rng | None = None,
    verify_isolation: bool = False,
) -> list[dict]:
    """Alternating critic/generator updates over a corpus of batches, the
    generator conditioned on each batch's own ``cond``.

    Per step: one discriminator update on the least-squares critic loss, then
    one generator update on adversarial + MSE loss. With ``disc=None`` the
    step is the generator update on the MSE loss alone (the
    deterministic-baseline arm), and its record has no critic or adversarial
    loss. Returns one loss record per step; a non-finite loss aborts with the
    offending step index.
    """
    nm.check(nm.at_least(0), steps, "steps")
    if not corpus:
        raise ValueError("train_duration needs at least one batch, got an empty corpus")
    if gen.z_dim and rng is None:
        raise ValueError("a generator with a noise input needs an rng")
    critic = disc.params() if disc is not None else []
    opt_g = AdamW(gen.params(), opt_cfg)
    opt_d = AdamW(critic, opt_cfg) if disc is not None else None
    opts = [opt for opt in (opt_g, opt_d) if opt is not None]

    def draw_noise(batch: DurationBatch) -> np.ndarray | None:
        return rng.normal((*batch.mask.shape, gen.z_dim)) if gen.z_dim else None

    def critic_update(batch: DurationBatch, noise) -> Tensor:
        with nm.no_grad():  # the critic reads these detached
            d_hat = generate(gen, batch.h_text, noise, batch.mask, batch.cond)
        loss_d = adv_loss_d(disc, batch, d_hat)
        loss_d.backward()
        return loss_d

    def generator_update(batch: DurationBatch, noise) -> tuple[Tensor | None, Tensor]:
        d_hat = generate(gen, batch.h_text, noise, batch.mask, batch.cond)
        loss_adv = adv_loss_g(disc, batch, d_hat) if disc is not None else None
        loss_mse = mse_loss(batch, d_hat)
        with frozen(critic):
            (loss_mse if disc is None else loss_adv + loss_mse).backward()
        return loss_adv, loss_mse

    # each update, forward and backward, runs guarded by floating-point flags
    # (nm.run_guarded) on these leaves and the batch's arrays; its noise is
    # drawn and its grads are cleared before it, its optimizer steps after it
    leaves = gen.params() + critic
    history = []
    for step in range(steps):
        batch = corpus[step % len(corpus)]
        for opt in opts:
            opt.set_epoch(step // len(corpus))
        row = {"step": step}
        checked = False  # the critic update found every leaf and batch array finite
        try:
            if disc is not None:
                noise = draw_noise(batch)
                for opt in opts:
                    opt.zero_grad()
                checked = nm.guard_ready(leaves, (batch.h_text, batch.d, batch.cond, noise))
                loss_d = nm.run_guarded(lambda: critic_update(batch, noise),
                                        () if checked else None)
                if verify_isolation and not _grads_are_zero(gen.params()):
                    raise AssertionError(
                        f"step {step}: critic update leaked into generator grads"
                    )
                opt_d.step()
                row["loss_d"] = loss_d.item()

            noise = draw_noise(batch)
            for opt in opts:
                opt.zero_grad()
            # since that check only opt_d.step has run: scan the critic's buffer and the new noise
            known = ((critic, (noise,)) if checked
                     else (leaves, (batch.h_text, batch.d, batch.cond, noise)))
            loss_adv, loss_mse = nm.run_guarded(lambda: generator_update(batch, noise), *known)
            if disc is not None:
                row["loss_g_adv"] = loss_adv.item()
            if verify_isolation and not _grads_are_zero(critic):
                raise AssertionError(
                    f"step {step}: generator update leaked into critic grads"
                )
            opt_g.step()
            row["loss_g_mse"] = loss_mse.item()
        except NumericError as e:
            raise NumericError(f"duration training diverged at step {step}: {e}") from e
        history.append(row)
    return history
