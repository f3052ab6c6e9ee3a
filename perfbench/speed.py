"""The host's speed while a job runs, sampled with a short fixed tick.

On a shared host the same work takes up to twice as long in one stretch as
in another.  Process CPU time follows wall time, so the slowdown is slower
execution, not time taken away from the process; the stretches last from a
fraction of a second to minutes, and each CPU has its own.  The worker
therefore times a fixed pure-Python tick of under a millisecond every
PERIOD_S seconds of the job, from a SIGALRM handler in the job's own thread,
and the parent scales the job's time by ``REFERENCE_S`` over the ticks'
mean: every reported time is in seconds of a host on which the tick takes
``REFERENCE_S``.  On the single-process workloads, the job's wall time and
the ticks' mean correlated at 0.97 to 0.99 over repetitions on a shared
2-CPU host.

A job whose work runs in other processes cannot be sampled from inside; its
speed is the mean of EDGE_TICKS ticks run back to back just before and
just after it.  Set-up is scaled by the ticks run just after it.  The tick
uses nothing from ``longcycles``, so a change to the library does not move
it.  The ticks add about 1.5% to a sampled job's time, the same on every
commit.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.001
PERIOD_S = 0.05
LOOP = 10_000
EDGE_TICKS = 150


def scale(tick_s: float) -> float:
    """Factor that turns a time measured now into reference seconds."""
    return REFERENCE_S / tick_s


class SpeedSampler:
    """Collects tick timings; ``with sampler:`` ticks every PERIOD_S
    seconds, ``sampler.run(k)`` ticks k times back to back."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self, *_signal_args) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def run(self, count: int) -> None:
        for _ in range(count):
            self.tick()

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
