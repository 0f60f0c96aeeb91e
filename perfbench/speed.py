"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose single-thread speed drifts by tens
of percent over tens of seconds, so raw wall times of identical work differ
by more than any useful regression bound from one run to the next.  A fixed
stdlib kernel (exact Gaussian elimination over Fractions, the kind of work
toricva does) is timed around each measured interval, and the interval is
reported at reference speed:

    scaled = wall * REFERENCE_S / kernel time around the interval

The kernel does not touch toricva, so a change to the program moves the
scaled times by the same factor as the wall times; only host drift cancels.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# A probe() time typical of the host where the baseline in README.md was
# recorded (2-vCPU Intel Xeon VM, Python 3.11.7); its probes ranged from
# about 0.45 to 0.75 ms.  Scaled times are wall times at this speed.
REFERENCE_S = 0.00065

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(7)] for i in range(7)]


def _kernel() -> None:
    a = [row[:] for row in _MATRIX]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]


def probe(repeats: int = 15) -> float:
    """Median time of the kernel, with the collector off so that the
    program's heap does not enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for an interval bracketed by two probes."""
    return REFERENCE_S / ((before + after) / 2)
