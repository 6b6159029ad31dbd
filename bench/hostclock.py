"""Program time rescaled to a host of fixed speed.

The benchmark runs on a few cores of a shared host whose speed can change
by a third or more within a minute, as other tenants come and go. The same
pass then takes 12 s in one run and 19 s in the next. A fixed reference
loop slows and speeds with the host, so it is timed every TICK_S while a
pass runs, and each stretch of program time is divided by the reference
time measured at its start. The sum is the time the pass would take on a
host where the reference loop takes REF_NOMINAL_S: "nominal seconds".

The reference is plain Python, Fraction products and an integer loop, the
kind of work the program does. It never calls the program, so a faster
program reads faster here by the same share as in wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 1e-3
TICK_S = 0.1


def reference() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    start = time.perf_counter()
    acc, x = Fraction(0), 0
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    for i in range(3000):
        x += i * i % 7
    return time.perf_counter() - start


def nominal(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the reference took `ref_s`, in nominal seconds."""
    return seconds * REF_NOMINAL_S / ref_s


def reference_now(samples: int = 5) -> float:
    return statistics.median(reference() for _ in range(samples))


class HostClock:
    """Nominal seconds of program time between resume() and pause().

    start() samples the reference and arms a SIGALRM interval timer. Each
    tick closes the running stretch at the current sample, takes a new
    sample, and opens the next stretch after itself. Handler time that
    falls inside program time is added to `stolen`, for callers to take
    off their own wall-clock totals.
    """

    def __init__(self, tick_s: float = TICK_S, ref=reference):
        self.tick_s = tick_s
        self.ref = ref
        self.nominal_s = 0.0
        self.stolen = 0.0
        self.samples: list[float] = []
        self.active = False
        self.ticking = False
        self.opened = 0.0

    def start(self) -> None:
        self.samples.append(self.ref())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # A tick can land between any two statements below. The order keeps every
    # stretch non-negative: at worst one handler run is counted as program time.
    def resume(self) -> None:
        self.opened = time.perf_counter()
        self.active = True

    def pause(self) -> None:
        self.active = False
        self.nominal_s += nominal(time.perf_counter() - self.opened, self.samples[-1])

    def _tick(self, signum, frame) -> None:
        if self.ticking:  # a tick that fires during a slow handler run is dropped
            return
        self.ticking = True
        entered = time.perf_counter()
        active = self.active
        if active:
            self.nominal_s += nominal(entered - self.opened, self.samples[-1])
        self.samples.append(self.ref())
        if active:
            self.opened = time.perf_counter()
            self.stolen += self.opened - entered
        self.ticking = False
