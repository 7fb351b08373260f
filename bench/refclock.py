"""Reference clock: rescale wall times by the current speed of the machine.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds, far more than the changes the benchmark has to resolve.  Before each
timed library call the workload times a fixed reference kernel (half a scalar
Python DP like the DTW loop, half small numpy ops like the autodiff ops) and
rescales the call's wall time by ``REF_SECONDS / kernel time``.  A rescaled
time is the time the call would take on a machine where the kernel takes
``REF_SECONDS``; wall times are kept next to it in the result file.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel takes about 2.5 ms on an idle 2-core x86-64 (AVX-512) container.
REF_SECONDS = 2.5e-3
# Share of a call's duration spent sampling the kernel before the next call.
SHARE = 0.05


def reference_kernel() -> float:
    x = [float(i % 7) - 3.0 for i in range(48)]
    acc = [0.0] * 48
    for i in range(48):
        prev = acc[0]
        for j in range(48):
            d = x[i] - x[j]
            v = min(prev, acc[j]) + (d if d > 0 else -d)
            acc[j] = v
            prev = v
    a = np.full((8, 64, 16), 0.5)
    w = np.full((16, 16), 0.05)
    for _ in range(24):
        a = np.tanh(a @ w + a[:, ::-1])
    return acc[-1] + float(a.sum())


class RefClock:
    """Samples the reference kernel for a share of the time being measured."""

    def __init__(self):
        self.kernel_times: list[float] = []
        reference_kernel()  # first call pays for numpy's lazy set-up

    def scale(self, last_seconds: float) -> float:
        """Run the kernel for ``SHARE * last_seconds`` (at least once) and
        return the factor that rescales wall time to reference speed."""
        budget = SHARE * last_seconds
        times = []
        t_start = time.perf_counter()
        while not times or time.perf_counter() - t_start < budget:
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.kernel_times.extend(times)
        return REF_SECONDS / statistics.median(times)
