"""Machine-speed gauge: a fixed NumPy and Python kernel owned by the
benchmark, timed in a fresh interpreter after every iteration.

On a shared machine, other load can make every stage 20 % slower for minutes
at a time. The kernel slows down with it, so the end-to-end times are scaled
by REFERENCE_S over the kernel's median time in the run. They read as
seconds on a machine where the kernel takes REFERENCE_S. The raw wall times
are kept in the run's details file.
"""

from __future__ import annotations

import time

# The kernel's median time on the machine the baseline was taken on
# (2-vCPU shared VM, one BLAS thread).
REFERENCE_S = 0.08


def reference_seconds() -> float:
    """Wall time of the kernel: elementwise maths, a sort, a small matrix
    product and many tiny SVDs, the kinds of work the pipeline does."""
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.random(500_000)
    a = rng.random((300, 128))
    tiny = rng.random((8, 9))
    np.linalg.svd(tiny)  # load LAPACK before timing
    t0 = time.perf_counter()
    for _ in range(12):
        y = np.exp(-x) * x
        np.argsort(y[:100_000])
        np.argmax(a @ a.T, axis=1)
    for _ in range(900):
        np.linalg.svd(tiny)
    return time.perf_counter() - t0
