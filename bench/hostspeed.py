"""Wall time rescaled to the host's uncontended speed.

The benchmark runs on a few vCPUs of a shared host, whose speed changes by
up to 2x in bursts from a fraction of a second to minutes: the reference
kernel below takes 76 us, or about 150 us while the host halves the vCPU; a
fixed loop timed in 5-second windows gave medians from 5.6 to 8.5 ms; and a
4000+4000 study took from 6.3 to 8.4 s within one minute.  A wall time
therefore moves with the host as much as with the program.

:class:`Speedometer` measures the host while a unit of work runs.  A
``SIGALRM`` every ``PERIOD`` seconds runs a fixed reference kernel (a small
numpy loop sharing no code with the package) in the main thread and records
how long it took.  The kernel's speed at time t is the host's speed s(t),
so the mean of ``REFERENCE_S / sample`` over samples spread evenly in time
is the mean of s over the unit, and the unit's wall time (less the kernel's
own time) times that mean is the time the unit would take at the reference
speed.  Over the same minute as above the
normalised study time stayed within +-3 %.  The kernel costs about 1.5 % of
the wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between samples.
PERIOD = 0.01

#: The kernel's time at the reference speed: its fastest time on an
#: uncontended vCPU of the host the bounds were set on (Intel Xeon, 2 vCPUs,
#: Python 3.11.7, numpy 2.4.6).  Normalised times are in seconds at that
#: speed.
REFERENCE_S = 76e-6

_START = np.full(8, 0.125)


def kernel() -> float:
    q, acc = _START, 0.0
    for i in range(40):
        q = q * (1.0 / q.sum())
        acc += float(q[i & 7]) * i
    return acc


def sample() -> float:
    started = perf_counter()
    kernel()
    return perf_counter() - started


class Speedometer:
    """Context manager: ``wall`` is the raw wall time of the block and
    ``seconds`` the same time at the reference speed.

    It samples once on entry and once on exit (outside ``wall``) so that a
    block shorter than ``PERIOD`` still has samples.  Not reentrant; the
    block must not use ``SIGALRM`` itself.
    """

    def __enter__(self) -> Speedometer:
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._started = perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())
        own = sum(self.samples[1:-1])
        self.seconds = (self.wall - own) * statistics.fmean(REFERENCE_S / s for s in self.samples)


class Stopwatch:
    """A :class:`Speedometer` that does not sample: ``seconds`` is ``wall``."""

    def __enter__(self) -> Stopwatch:
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = self.seconds = perf_counter() - self._started
