"""Core speed, sampled while requests run.

On a shared machine the speed of one core drifts by tens of percent over
seconds and over minutes (the same 70-request pass took 3.5 s to 7.6 s
within one hour on the 2-core machine this benchmark was built on).
``CoreClock`` times a fixed pure-Python kernel from a SIGALRM handler
every ``PERIOD_S`` seconds of wall time, so the kernel's time is known
during each request.  A request's scaled time is its wall time, less the
time spent in the handler, times ``REF_KERNEL_S`` over the median kernel
time within ``WINDOW_S`` of the request.  It reads as the request's time
on a core where the kernel takes exactly ``REF_KERNEL_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# Close to the kernel's typical time on the machine the benchmark was
# built on, so scaled and wall times there are of the same size.
REF_KERNEL_S = 1e-3
PERIOD_S = 0.05
WINDOW_S = 0.25


def kernel():
    """Fixed interpreter-bound work: dict, list, float and call overhead.

    It allocates no objects the cyclic collector tracks, beyond one dict
    and one list, so it does not move the program's collections.
    """
    table, acc, window = {}, 0.0, []
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0.0) + math.hypot(i, acc % 7.0)
        window.append(acc)
        if len(window) > 32:
            window.pop(0)
        acc += table[key] * 1e-3
    return acc


class CoreClock:
    """Context manager that samples the kernel while it is entered."""

    def __init__(self):
        self.stamps = []        # perf_counter at the end of each sample
        self.kernel_s = []      # kernel time of each sample
        self.spent = 0.0        # seconds spent in the handler, in total

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.kernel_s.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """(fn(), start, end, wall seconds of fn less handler time)."""
        spent = self.spent
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        return result, start, end, end - start - (self.spent - spent)

    def speed(self, start, end):
        """REF_KERNEL_S / median kernel time within WINDOW_S of [start, end]."""
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, end + WINDOW_S)
        samples = self.kernel_s[lo:hi]
        if not samples:
            return math.nan
        return REF_KERNEL_S / statistics.median(samples)
