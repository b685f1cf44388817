"""Calibrated time: durations at a fixed reference speed of this core.

On a shared 2-core virtual machine one core's speed drifted by a third or
more over seconds, for the same pure-Python loop, and the other core's speed
did not follow it, so raw wall times of different runs were not comparable.  The clock samples
the current speed on the measuring thread itself: every TICK_S a timer
signal runs a fixed reference loop and records how long it took.  An
interval's calibrated duration is its wall time less the ticks inside it,
scaled by REF_S over the mean reference time of the ticks inside it and of
the tick on either side.  A calibrated second is the time in which the
reference loop runs 1 / REF_S times.

On that machine, calibration cut the spread between repeats of one
certificate from 14-28% to 4-9%.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter

TICK_S = 0.02
REF_S = 0.0005  # nominal time of one reference loop
_REF_ITERATIONS = 4000


def _reference() -> int:
    s = 0
    for k in range(_REF_ITERATIONS):
        s += (k * k) % 7
    return s


class Clock:
    """Samples the reference loop on a timer; converts intervals afterwards."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        _reference()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        """Stop the timer and take one last sample after the last interval."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick()

    def calibrated(self, a: float, b: float) -> float:
        """Calibrated seconds of the perf_counter interval [a, b]."""
        i = bisect_left(self.starts, a)
        j = bisect_left(self.starts, b)
        paused = sum(self.ends[k] - self.starts[k] for k in range(i, j))
        near = range(max(i - 1, 0), min(j + 1, len(self.starts)))
        ref = sum(self.ends[k] - self.starts[k] for k in near) / len(near)
        return (b - a - paused) * REF_S / ref
