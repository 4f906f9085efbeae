"""A work clock: wall time corrected for the host's momentary speed.

On a shared host the same pure-Python work can take twice as long for
stretches of seconds to minutes, with CPU time equal to wall time: the
core itself is slower, not preempted.  Wall times of one run then say
more about the host than about the program.

``WorkClock`` times a fixed probe (integer and ``Fraction`` arithmetic,
like the package's own inner loops) every 25 ms of CPU time,
from a ``SIGPROF`` interval timer.  Between two probes the work done is
the wall time elapsed, probes left out, times the speed the two probes
measured (the mean of ``REFERENCE_PROBE_S / probe``).  ``read()`` sums
that work, in seconds of a host on which the probe takes
``REFERENCE_PROBE_S``: about the calm speed of a 2-vCPU Xeon (Sapphire
Rapids) KVM guest with CPython 3.11.  The probes cost a few per cent of
the run and are not counted; in a traced run they fall inside whatever
span is open, so per-layer times include them.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Probe duration that defines one reference second per wall second.
REFERENCE_PROBE_S = 5.5e-4
# CPU time between two probes.
INTERVAL_S = 0.025
_MODULUS = (1 << 127) - 1


def probe() -> float:
    """Seconds for a fixed int/Fraction loop; about half a millisecond."""
    start = time.perf_counter()
    x, acc = 1, Fraction(0)
    for k in range(1, 80):
        x = (x * 6364136223846793005 + k) % _MODULUS
        acc = Fraction(x % 1000 + 1, k) + Fraction(k, x % 997 + 1) * acc.denominator % 7
    return time.perf_counter() - start


class WorkClock:
    """Reference seconds of work done since ``start()``; one per process."""

    def __init__(self):
        self.work = 0.0  # reference seconds up to ``mark``
        self.mark = None  # perf_counter() at the end of the last probe
        self.rate = None  # reference seconds per wall second at ``mark``
        self.probes = []  # every probe's duration, for diagnostics
        self.busy = False  # set while probing, so a tick cannot nest

    def _advance(self) -> None:
        """Probe now and add the work since the last probe."""
        self.busy = True
        try:
            now = time.perf_counter()
            p = probe()
            rate = REFERENCE_PROBE_S / p
            self.work += (now - self.mark) * (self.rate + rate) / 2
            self.rate, self.mark = rate, time.perf_counter()
            self.probes.append(p)
        finally:
            self.busy = False

    def _tick(self, signum, frame) -> None:
        if self.mark is not None and not self.busy:
            self._advance()

    def start(self) -> "WorkClock":
        p = probe()
        self.rate, self.mark = REFERENCE_PROBE_S / p, time.perf_counter()
        self.probes.append(p)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.mark = None

    def read(self) -> float:
        """Reference seconds of work done so far."""
        self._advance()
        return self.work
