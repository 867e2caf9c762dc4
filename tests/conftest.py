"""Settings for the whole test session, made before any test module
imports numpy."""

import os

# OpenBLAS threads the direct sums' small matrix-vector products, and its
# threads spin while they wait for a core that other work holds.  One thread
# gives the same bytes (test_golden checks one against two) in less CPU time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
