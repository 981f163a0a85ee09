"""Host-speed sampling, so that timings can be read at a fixed reference speed.

The benchmark runs on shared virtual machines whose effective CPU speed
drifts by tens of percent over seconds as other tenants load the host; the
same pass measured a minute apart can differ by 1.5x.  To keep that drift out
of the reported times, a `Speedometer` interrupts the process every
`PERIOD_S` seconds (SIGALRM) and times a fixed pure-Python reference chunk
of integer and Fraction arithmetic, the same kind of work permfix does.  An
interval of the process's own time is then reported at reference speed:

    normalized = raw * mean(REFERENCE_S / d_k)

over the chunk durations d_k sampled inside the interval.  `clock()` excludes
the time spent in the sampler, so raw intervals hold only the measured work.
REFERENCE_S is the chunk's duration on one idle core of the 2-vCPU x86-64
machine the benchmark was defined on, so reference seconds are close to wall
seconds there when the host is quiet.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
REFERENCE_S = 0.0009


def reference_chunk() -> None:
    s = 0
    for i in range(4000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(1, i)


class Speedometer:
    """Samples the reference chunk's duration while the process runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock() at the sample, duration)
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return time.perf_counter() - self.paused

    def _sample(self, *_signal) -> None:
        t = time.perf_counter()
        reference_chunk()
        d = time.perf_counter() - t
        self.samples.append((t - self.paused, d))
        self.paused += d

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / d over the samples taken in [start, end] on
        clock(); the sample nearest the midpoint when none fell inside."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(REFERENCE_S / d for d in inside) / len(inside)

    def normalize(self, start: float, end: float) -> float:
        """The interval [start, end] on clock(), in seconds at reference speed."""
        return (end - start) * self.factor(start, end)
