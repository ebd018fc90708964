"""Suite-wide set-up: the package's one-BLAS-thread default, applied before numpy loads.

Each test module imports numpy before ``alignflow``, and a program that loads
numpy first keeps numpy's own BLAS thread count. Importing the package here,
before any test module, gives the suite what every CLI command gets: one
OpenBLAS thread, the only count at which ``numerics.run_guarded`` guards by
floating-point flags. A variable the caller set is kept.
"""

import alignflow  # noqa: F401  (sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS unless set)
