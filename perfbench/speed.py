"""Machine-speed calibration for timing on hosts whose speed drifts.

On a shared virtual machine the speed of a core can drift by 1.7x over
seconds to minutes while CPU time stays equal to wall time, so the drift
is not preemption and no statistic of raw times taken within one run can
remove it.  The benchmark therefore times a fixed kernel next to every
measured interval and reports each interval scaled to the kernel's
reference time: ``raw * REFERENCE_S / kernel_time``.  The kernel is the
benchmark's own code and does the kind of work tropval does (sparse
polynomial products over exact rationals in dicts), so a change to tropval
cannot change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median kernel time on an idle core of the machine the bounds were tuned
# on (2-vCPU VM, Python 3.11.7); scaled times read as seconds there.
REFERENCE_S = 0.0017

_P = {(i, j, max(3 - i - j, 0)): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
_Q = {(i, j, 1): Fraction(j - 2, i + 1) for i in range(3) for j in range(3)}


def _kernel() -> None:
    for _ in range(3):
        out: dict = {}
        for e1, c1 in _P.items():
            for e2, c2 in _Q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        max(out, key=lambda e: (sum(e), e))


def kernel_time() -> float:
    """One timed kernel run, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(raw_s: float, kernel_samples: list[float]) -> float:
    """A raw interval expressed at reference speed."""
    return raw_s * REFERENCE_S / statistics.median(kernel_samples)
