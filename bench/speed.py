"""Host-speed probe: corrects timings for a host whose speed changes during a run.

Hosts that share cores with other tenants can switch speed for many seconds
at a time. On the machine this benchmark was built on, a fixed kernel
alternated between about 4.5 ms and 7.8 ms in phases of 5-30 s. A run that
happens to fall in slow phases then reads up to 1.7x slower with no change
to the code. The `Speedometer` times a small fixed kernel (Python
arithmetic and small FFTs, like the workloads) every `INTERVAL` seconds from
a SIGALRM handler. A task's speed factor is the mean probe time during the
task divided by `PROBE_REF_S`, the probe's time on that machine in its fast
phase. Dividing a task's time by its factor gives its time at reference
speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.02
PROBE_REF_S = 2.1e-4
_A = np.exp(1j * np.arange(129.0))


def probe() -> float:
    """Seconds for one run of the fixed kernel."""
    start = perf_counter()
    s = 0.0
    for i in range(1000):
        s += i * 0.5
    for _ in range(8):
        np.fft.ifft(np.fft.fft(_A))
    return perf_counter() - start


def probe_factor(n: int = 25) -> float:
    """Speed factor from `n` back-to-back probes (median), for short phases."""
    return statistics.median(probe() for _ in range(n)) / PROBE_REF_S


class Speedometer:
    """Samples `probe()` every INTERVAL seconds of wall time while running."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        duration = probe()
        self.times.append(perf_counter())
        self.samples.append(duration)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, start: float, end: float, nearest: int = 5) -> float:
        """Mean probe time within [start, end] over PROBE_REF_S; for a span
        too short to hold `nearest` samples, the `nearest` samples closest
        to its midpoint."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < nearest:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - nearest // 2, len(self.times) - nearest))
            hi = min(len(self.times), lo + nearest)
        return statistics.fmean(self.samples[lo:hi]) / PROBE_REF_S
