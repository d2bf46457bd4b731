"""Host-speed sampling, so throughput reads the same on a noisy shared host.

On a shared machine the speed at which this process executes swings by
tens of percent within seconds (other tenants load the same cores); wall
time and process CPU time swing together, so neither removes it.  While a
timed phase runs, a ``SIGALRM`` interval timer runs a fixed pure-Python
calibration loop every :data:`PERIOD_S` seconds.  The loop time over
the phase measures how fast the host ran during exactly that phase, and
:attr:`HostSpeed.slowdown` is its median over :data:`NOMINAL_LOOP_NS`.

Rates are multiplied by the slowdown, so they read at the nominal host
speed; the loop's own time inside the phase is subtracted first.  On the
baseline machine this cut the quartile spread of repeated 0.6 s searches
from 20% to 7%.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Sampling period of the timer (seconds); each sample costs ~0.13 ms.
PERIOD_S = 0.025
#: Calibration loop length and its time on the baseline machine when quiet.
LOOP_ITERATIONS = 2000
NOMINAL_LOOP_NS = 130_000


def calibration_ns() -> int:
    """Run the calibration loop once; returns its duration in ns."""
    start = time.perf_counter_ns()
    total = 0
    for index in range(LOOP_ITERATIONS):
        total += index * index % 7
    return time.perf_counter_ns() - start


class HostSpeed:
    """Context manager sampling host speed over one timed phase.

    Samples are taken on entry, every :data:`PERIOD_S` seconds inside the
    phase, and on exit.  Must be entered on the main thread.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []
        #: Time spent in samples taken inside the phase (ns).
        self.inside_ns = 0

    def _tick(self, signum, frame) -> None:
        duration = calibration_ns()
        self.samples.append(duration)
        self.inside_ns += duration

    def __enter__(self) -> "HostSpeed":
        self.samples = [calibration_ns()]
        self.inside_ns = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibration_ns())

    @property
    def slowdown(self) -> float:
        """Median calibration time over the nominal one (>1: host ran slow).

        The median, not the mean: a sample that is itself preempted reads
        several times too slow and would over-correct the whole phase.
        """
        return statistics.median(self.samples) / NOMINAL_LOOP_NS
