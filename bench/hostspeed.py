"""Host-speed calibration: a fixed kernel timed next to every measurement.

The shared 2-core machine the benchmark was built on changes speed by up
to 1.7x, for stretches from under a second to many minutes, and process
CPU time slows with it.  No estimator taken over one run removes a slow
stretch longer than the run, so every time the end-to-end metrics use is
taken between two runs of this kernel and reported in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

that is, the time the measurement would have taken on a host where the
kernel takes REFERENCE_S.  The kernel does the kind of work the package
does (Fraction arithmetic, sorting, dict and set lookups, small function
calls) with the standard library alone, never with the package's code, so
a change to the package moves a normalized time by the same factor as the
raw one.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the kernel's time on an undisturbed host of the kind the benchmark was built on
REFERENCE_S = 0.002


def _kernel() -> int:
    values: list[Fraction] = []
    seen: dict[Fraction, int] = {}
    acc = Fraction(0)
    for n in range(1, 120):
        x = Fraction(n * n + 3, 2 * n + 1) - Fraction(n, 7)
        acc += x / (n + 1)
        if x not in seen:
            seen[x] = n
            values.append(x)
    values.sort()
    distinct = {v.limit_denominator(50) for v in values}
    return len(distinct) + acc.numerator % 97


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def normalize(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel runs of `before` and `after` seconds, in reference seconds."""
    return seconds * REFERENCE_S / ((before + after) / 2)
