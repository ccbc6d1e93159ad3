"""The machine's current speed, from a fixed pure-Python reference loop.

Shared machines drift between speeds up to 1.5x apart, in spells of seconds
to minutes, and that drift is larger than the changes the benchmark must
resolve. Every time the benchmark reports is therefore scaled to a nominal
speed: divided by `factor()`, the reference loop's time now over its time on
an uncontended core (REF_NOMINAL_S, measured on the 2-core x86-64 VM with
Python 3.11 the benchmark was defined on). Raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

REF_ITERATIONS = 20_000
REF_NOMINAL_S = 1.0e-3


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def factor(samples: int = 5) -> float:
    """Current slowdown against nominal speed (about 1 on an uncontended core)."""
    return statistics.median(reference_s() for _ in range(samples)) / REF_NOMINAL_S
