"""Order statistics and the drift-corrected clock used by every workload.

Timings on a shared 2-vCPU machine drift with the CPU speed: a fixed
pure-Python loop has run anywhere from 13 to 23 ms within one 40-second run.
A median over a long run removes short bursts but not that slow drift, so
each item's wall time is also divided by the duration of a fixed reference
loop timed next to it (``Clock``).  Both the raw and the corrected times are
kept; the corrected one is what the result line reports.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# A percentile p is reported only if at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, p: float) -> float | None:
    """The p-th percentile (0 < p < 100), or None if the sample is too small.

    A percentile describes a tail only if at least MIN_TAIL_SAMPLES samples
    lie beyond it, so p90 needs 100 samples and p99 1000.  The median
    (p = 50) only needs one sample.
    """
    values = sorted(values)
    n = len(values)
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    if n == 0:
        return None
    if p != 50.0 and n * (100.0 - p) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    # nearest-rank definition: the smallest value with at least p% at or below
    rank = max(1, math.ceil(p / 100.0 * n))
    return float(values[rank - 1]) if p != 50.0 else median(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


# -- drift-corrected clock ----------------------------------------------

# Corrected times are milliseconds of a machine on which one reference loop
# takes exactly this long; the loop is sized so that this is close to wall
# milliseconds on the 2-vCPU machine of the README's reference figures.
REFERENCE_LOOP_MS = 1.0
_REFERENCE_POWERS = 1000
_REFERENCE_NUMPY_CALLS = 45
_REFERENCE_ARRAY = np.linspace(0.0, 1.0, 256)
_REFERENCE_FRACTIONS = tuple(Fraction(i % 13 + 1, i % 7 + 1) for i in range(60))
# the scale is the median of this many latest reference timings
_WINDOW = 5
_RECALIBRATE_S = 0.05


def reference_loop() -> float:
    """A fixed mix of float powers, small-array NumPy calls and Fractions.

    bklab's items are bound by float powers in the interpreter (kernel
    bisections), by the dispatch cost of small NumPy calls (the search) or
    by Fraction arithmetic (exact trees), so the reference does some of
    each.  Of the mixes tried, this one followed the items' own speed most
    closely as the machine drifted.
    """
    acc = 0.0
    for i in range(_REFERENCE_POWERS):
        x = 1.0 + (i % 89) * 0.01
        acc += x**0.37 + math.exp(-x) / (1.0 + x**1.7)
    a = _REFERENCE_ARRAY
    out = np.empty_like(a)
    for _ in range(_REFERENCE_NUMPY_CALLS):
        np.maximum(a, a.reshape(16, 16).mean(axis=-1).repeat(16), out=out)
    total = Fraction(0)
    for v in _REFERENCE_FRACTIONS:
        total += v / 3
    return acc + float(out[0]) + float(total)


def time_reference(repeats: int = 3) -> float:
    """Median wall seconds of one reference loop over a few repeats."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return median(out)


class Clock:
    """Scales item times by the speed of the reference loop timed near them.

    The reference loop is re-timed whenever _RECALIBRATE_S has passed, which
    costs about 6% of a run.  ``scale()`` is REFERENCE_LOOP_MS
    over the median of the latest _WINDOW reference timings in milliseconds:
    multiply a raw duration by it to get milliseconds at the reference speed.
    The window smooths the noise of single timings while still following a
    drift that takes seconds.
    """

    def __init__(self) -> None:
        self._last = -math.inf
        self._scale = 1.0
        self.reference_s: list[float] = []

    def scale(self) -> float:
        now = time.perf_counter()
        if now - self._last >= _RECALIBRATE_S:
            self.reference_s.append(time_reference())
            recent = median(self.reference_s[-_WINDOW:])
            self._scale = REFERENCE_LOOP_MS / (recent * 1e3)
            self._last = time.perf_counter()
        return self._scale
