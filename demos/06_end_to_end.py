"""The full toy pipeline: alignment-driven training with known ground truth.

A synthetic corpus assigns each token a prototype frame vector and draws its
duration from a uniform integer range, so the true alignment is known by
construction. The main phase trains
the encoder and flow stack to explain the frames under the searched
alignment; the short second phase trains the duration GAN on the frozen
alignment targets. Ablation arms switch individual mechanisms off.
"""

from alignflow.corpus import generate_corpus
from alignflow.harness import TrainConfig, eval_alignment, train_toy
from alignflow.numerics import Rng

config = TrainConfig(seed=7, steps_main=1200, steps_duration=200, eval_every=200)

history, model = train_toy(config)

print("main phase (alignment accuracy on held-out instances):")
for row in history["main"]:
    if row["eval_exact"] is not None:
        print(f"  step {row['step'] + 1:5d}  loss {row['loss']:+7.3f}"
              f"  noise {row['noise_scale']:.4f}"
              f"  exact {row['eval_exact']:5.1%}  mae {row['eval_mae']:.3f}")

corpus = generate_corpus(config.corpus_spec(), Rng(config.seed).child(1))
stats = eval_alignment(model, corpus.eval)
print(f"\nheld-out: exact match {stats['exact_match']:.1%}, "
      f"mean abs duration error {stats['mae']:.3f} frames")

last = history["duration"][-1]
print(f"duration phase final: critic {last['loss_d']:.3f}, "
      f"adversarial {last['loss_g_adv']:.3f}, mse {last['loss_g_mse']:.3f}")

# One trained instance, side by side.
inst = corpus.eval[0]
from alignflow.harness import predict_durations

print("\ntokens:         ", inst.tokens)
print("true durations: ", inst.durations)
print("searched:       ", predict_durations(model, inst))

# The three ablation arms run the same pipeline with one mechanism off.
print("\nablation arms (short runs):")
short = dict(seed=7, steps_main=300, steps_duration=50, eval_every=300)
for name, flags in [
    ("no alignment noise", dict(noise_anneal=False)),
    ("no transformer block", dict(transformer_block=False)),
    ("no adversarial duration", dict(duration_adversarial=False)),
]:
    hist, m = train_toy(TrainConfig(**short, **flags))
    ev = [r for r in hist["main"] if r["eval_exact"] is not None][-1]
    print(f"  {name:26s} exact {ev['eval_exact']:5.1%}  mae {ev['eval_mae']:.3f}")
