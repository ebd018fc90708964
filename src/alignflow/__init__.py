"""Desk-scale building blocks for alignment-based speech-synthesis training:
monotonic alignment search with annealed exploration noise, an adversarially
trained stochastic duration model, transformer-augmented coupling flows, and
a speaker-conditioned text encoder, all on a minimal float64 autodiff core.
"""

import os

# One BLAS thread unless the caller set a count: on long inputs OpenBLAS sums a
# matmul in another order under another thread count, and every command's output
# bytes must not depend on the host's cores. It takes effect only if numpy is not
# loaded yet: a program that loads numpy before alignflow keeps numpy's default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import alignment, duration, encoder, flows, harness, numerics
from .numerics import AdamW, AdamWConfig, Rng, Tensor, check_grad

__all__ = [
    "AdamW",
    "AdamWConfig",
    "Rng",
    "Tensor",
    "check_grad",
    "alignment",
    "duration",
    "encoder",
    "flows",
    "harness",
    "numerics",
]

__version__ = "0.1.0"
