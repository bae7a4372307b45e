"""How fast the host runs Python at the moment, for the benchmark's times.

The benchmark reports its times in reference seconds: wall seconds scaled by
REF_NOMINAL_S / (the time `kernel()` takes on the host, measured next to
them).  On a shared guest the host's speed drifts: a fixed pure-Python loop
runs 20% faster or slower from one half-minute to the next, in one process
with nothing else running, so no run of a few dozen seconds can time the
program to better than that in wall seconds.  The kernel is timed before
every certificate and guard run, and each one's time is scaled by the median
of the kernel times around it, which cancels the drift the program and the
kernel share.  A change that makes the program slower moves its reference
seconds as it moves its wall seconds, since the kernel calls nothing of
ckgeom.

The kernel does what ckgeom's projective kernel does most: calls of small
functions on tuples of complex doubles, products, sums and normalisation by
the largest-modulus entry.  It runs with the cyclic garbage collector
paused, so the size of the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import statistics
import time

# Nominal time of one kernel() call: a reference second is the time in which
# the host, at the speed the kernel measured, would run the kernel
# 1 / REF_NOMINAL_S times.  It fixes the scale of reported times only.
REF_NOMINAL_S = 2e-3
REF_STEPS = 1000
# a run is scaled by the 2 * REF_NEIGHBOURS kernel times nearest to it, half
# before and half after; the host's speed holds for a few seconds at a time
REF_NEIGHBOURS = 3


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _normalize(p):
    m = max(p, key=abs)
    return (p[0] / m, p[1] / m, p[2] / m)


def kernel():
    """A fixed recurrence of cross products over three complex triples."""
    p, q, r = (1 + 2j, 0.5 - 1j, 1), (-0.25 + 0.75j, 2, 1 - 1j), \
        (0.3, -1.5 + 0.2j, 1)
    for _ in range(REF_STEPS):
        s = _cross(p, q)
        p, q, r = q, r, _normalize((s[0] + r[1], s[1] + r[2],
                                    s[2] + r[0] + 1))
    return p


def sample() -> float:
    """Seconds one kernel() call takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """Factor from wall seconds to reference seconds, given kernel times
    measured over the same stretch of time."""
    return REF_NOMINAL_S / statistics.median(samples)


def local_scales(samples, k: int = REF_NEIGHBOURS):
    """For kernel times taken one before each of a sequence of runs, the
    factor of each run, from the kernel times nearest to it."""
    return [scale(samples[max(0, i - k + 1):i + k + 1])
            for i in range(len(samples))]
