"""Wall time corrected for CPU contention, by an interleaved reference probe.

On a shared CPU the same work can take twice as long from one moment to
the next, in bursts that last from a few milliseconds to tens of
seconds; process CPU time slows down with it.  A reference snippet of
fixed work, timed every ``INTERVAL`` seconds from a ``SIGALRM`` handler
while the program runs, slows down by the same factor.  ``ProbeClock``
divides each stretch of wall time between two probes by the slowdown
the preceding probe saw, relative to the probe's nominal uncontended
duration, and leaves the probes' own time out.  The result estimates
the wall time the same work takes when nothing else contends for the
CPU.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List

INTERVAL = 0.025
# The probe's duration on an uncontended CPU of the calibration machine.
# Corrected times are in units of this: wall time with the probe's
# slowdown divided out.
NOMINAL_S = 100e-6


class _Step:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def step(self, x: int) -> "_Step":
        return _Step(self.a + x, self.b)


_KEYS = [(i * 7919) % 97 for i in range(60)]


def reference() -> int:
    """Fixed work: method calls that build small objects, then an insertion sort.

    Of the probes tried, this mix tracked the slowdown of all three
    workloads best; allocation-only or arithmetic-only loops under- or
    over-corrected some of them.
    """
    o = _Step(0, 1)
    for i in range(300):
        o = o.step(i)
    out: List[int] = []
    for e in _KEYS:
        i = len(out)
        while i > 0 and e < out[i - 1]:
            i -= 1
        out.insert(i, e)
    return o.a + out[0]


class ProbeClock:
    """Runs the reference probe on a timer while it is entered."""

    def __init__(self, nominal: float = NOMINAL_S):
        self.nominal = nominal
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        # Collections triggered by the program's garbage must not land
        # inside a probe, so the collector is held off for its length.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "ProbeClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, end: float) -> float:
        """Contention-corrected length of the interval [start, end]."""
        if not self.durations:
            return end - start
        i = bisect.bisect_left(self.starts, start)
        # The probe governing the stretch before the first probe inside
        # the interval is the last one before it, if there is one.
        k = max(i - 1, 0)
        t = start
        total = 0.0
        while i < len(self.starts) and self.starts[i] < end:
            total += (self.starts[i] - t) * self.nominal / self.durations[k]
            t = self.starts[i] + self.durations[i]
            k = i
            i += 1
        total += (end - t) * self.nominal / self.durations[k]
        return total

    def raw_without_probes(self, start: float, end: float) -> float:
        """Wall time of [start, end] minus the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])
