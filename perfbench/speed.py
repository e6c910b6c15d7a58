"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine, work from other tenants slows this process down
by up to ~1.6x in phases lasting from a second to tens of seconds, and
process CPU time slows with it (the vCPU is not descheduled; it runs
slower).  A fixed kernel timed next to each operation tracks those phases:
over one minute on a 2-core Xeon at 2.1 GHz the median latency of
``integrate rotating_surface`` swung between 51 and 94 ms while its ratio
to the kernel time stayed within 14.4-17.6.

So every timing is also reported at reference speed: multiplied by
``REFERENCE_S / level``, where ``level`` is the kernel time measured just
before and just after it.  The kernel does not use daecont, so a change to
the program does not change it.
"""

import time

import numpy as np

# Uncontended time of one kernel run on the machine the bounds were set on
# (2-core Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
REFERENCE_S = 0.0030
BURST = 5  # kernel runs per sample; the sample is their minimum
EVERY_S = 0.25  # resample when the last sample is older than this


def kernel():
    # Half-explicit RK4 on a 2-vector with a scalar Newton solve per stage:
    # the same mix of interpreter and small-array work as daecont's marches.
    a = np.array([[0.0, -1.0], [1.0, 0.0]])

    def rhs(t, y):
        q = 0.0
        for _ in range(3):
            q -= (q ** 3 + q - y[0] ** 2) / (3.0 * q * q + 1.0)
        return a @ y + np.array([np.cos(t) - q, -y[1]])

    y, t, h = np.array([0.1, 0.2]), 0.0, 0.01
    for _ in range(150):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


class Speedometer:
    """Kernel-time samples, taken on demand and at most ``EVERY_S`` apart."""

    def __init__(self):
        self.samples = []
        self._taken_at = -np.inf

    def level(self) -> float:
        if time.perf_counter() - self._taken_at >= EVERY_S:
            best = np.inf
            for _ in range(BURST):
                start = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - start)
            self.samples.append(best)
            self._taken_at = time.perf_counter()
        return self.samples[-1]

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return (result, scale to reference speed)."""
        before = self.level()
        result = fn(*args)
        after = self.level()
        return result, REFERENCE_S / (0.5 * (before + after))
