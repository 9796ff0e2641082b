"""Reference-speed clock: turns measured seconds into reference seconds.

The shared VMs this benchmark runs on change speed by 1.4-1.75x, flipping
within a second and drifting over minutes, and the flips slow pure-Python
jobs alike (measured on a 2-vCPU Xeon VM; memory-bound numpy work slows
less).  While work runs, a SIGALRM timer times a fixed pure-Python loop
every ``period`` seconds in the same process.  A stretch of work is then
scaled by CAL_REF_S over the mean loop time seen during it, after the
loop's own time is taken out.  Work in child processes gets a partial
correction (CHILD_EXPONENT).
"""

from __future__ import annotations

import signal
import statistics
import time

# The loop's time in the fast state of that VM, so that reference seconds
# read close to wall seconds there.
CAL_REF_S = 0.0025
PERIOD_S = 0.25
# The gadgets rungs, which run in child processes, are dominated by numpy
# sweeps bound by memory, and slow about half as much as the loop does in
# log terms.  Their times are scaled by the factor to this power.  On ten
# seeds, gadgets wall_s spread (IQR over median) 10% with the full factor,
# 7% unscaled and about 2% with the square root.
CHILD_EXPONENT = 0.5


def _reference_loop():
    table = {}
    total = 0
    for i in range(20_000):
        table[i & 511] = total
        total += i * i % 7
    return total


def calibrate():
    """Fastest of three timings of the reference loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Samples the reference loop on a timer while used as a context.

    ``spent`` is the time the samples took; callers subtract it from the
    intervals they measure."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor(self):
        """Seconds to reference seconds over the samples taken so far."""
        return CAL_REF_S / statistics.fmean(self.samples)
