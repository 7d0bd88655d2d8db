"""Host-speed probe: a fixed pure-Python kernel timed during every job.

The reference machine is a two-core share of a larger host.  Its speed for
single-threaded Python drifts by 20-45 % over minutes and swings by about
25 % within seconds, alike in wall and CPU time (steal time stays near
zero, so the cause is the shared host, not the scheduler), and there is no
hardware counter to count work instead of time.  A time measured once
therefore says as much about the host as about the program.  The swings
last long enough to be followed: the kernel's time over one 70 ms stretch
correlates at 0.8 with the next.

`SpeedProbe` therefore samples the host while a job runs.  An interval
timer interrupts the job every `INTERVAL_S` seconds and times one call of
`kernel` in the signal handler; one more call runs at the start and the
end of the job.  The job's own time is its wall time less the time spent in
those calls, and its time at the reference speed is that multiplied by
`REF_S / mean kernel time over the job`.  The kernel uses only the standard
library (integer, rational, tuple and dict work, the operations the exact
scalar ring is made of), never the code under test, so a change to the
program cannot move it; the cyclic garbage collector is off while it runs
so that a larger heap left by the program does not slow it either.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

perf = time.perf_counter

# Mean time of one kernel call on the reference machine (two cores of an
# Intel Xeon host at 2.0 GHz, Python 3.11) at a typical host speed; it only
# sets the scale of the reported times.
REF_S = 0.0018
# Time between two samples inside a job: the kernel costs about 5 % of it.
INTERVAL_S = 0.04

_ITERATIONS = 160
_ZERO = Fraction(0)


def kernel() -> int:
    """A fixed amount of integer, rational and dict work."""
    acc: dict[tuple, Fraction] = {}
    q = Fraction(3, 7)
    total = 0
    for i in range(_ITERATIONS):
        key = tuple(sorted(((i % 13, 1), (i % 7 + 13, 3), (i % 3 + 20, 2))))
        acc[key] = acc.get(key, _ZERO) + q * Fraction(i + 1, i % 5 + 2)
        for j in range(40):
            total += (i * j) % 7
    return total + len(acc)


def at_reference(busy_s: float, kernel_s: float, kernel_calls: int) -> tuple[float, float]:
    """(busy_s, busy_s at the reference speed) given the kernel samples
    taken over the same stretch."""
    return busy_s, busy_s * REF_S * kernel_calls / kernel_s


class SpeedProbe:
    """Times jobs and scales each to the reference host speed.

    `start` and `stop` bracket one job and sample at both ends; inside the
    context manager the interval timer samples in between too.  Only the
    main thread may use it (signal handlers run there)."""

    def __init__(self):
        self.seconds = 0.0  # kernel time, all samples
        self.calls = 0
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # an alarm during a sample waits for the next one
            self.sample()

    def sample(self) -> None:
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf()
            kernel()
            self.seconds += perf() - t0
            self.calls += 1
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def add(self, kernel_s: float, kernel_calls: int) -> None:
        """Count samples taken elsewhere (in a child process) in `mean_s`."""
        self.seconds += kernel_s
        self.calls += kernel_calls

    def start(self):
        before = self.seconds, self.calls
        self.sample()
        return perf(), self.seconds, before

    def stop(self, mark) -> tuple[float, float]:
        """(job seconds as measured, job seconds at the reference speed)."""
        end = perf()
        t0, started, (seconds, calls) = mark
        inside = self.seconds - started
        self.sample()
        return at_reference(end - t0 - inside, self.seconds - seconds, self.calls - calls)

    @property
    def mean_s(self) -> float:
        return self.seconds / self.calls
