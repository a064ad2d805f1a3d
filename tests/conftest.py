"""Session set-up for the test suite.

One BLAS thread unless the caller set another count, as the CLI runs: pytest
imports this file before any test module, so numpy's OpenBLAS reads the
variables when it loads.  At the default thread count OpenBLAS splits the
SVDs and products the in-process tests run between threads, which on a
2-CPU machine made them slower, and the check suites' default worker count
divides the CPUs by it."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
