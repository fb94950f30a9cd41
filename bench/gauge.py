"""Host-speed gauge: the benchmark's timings in reference seconds.

On a shared host one Python thread runs at speeds up to about 2.2 times
apart, switching within seconds or holding for minutes, and process CPU
time slows with wall time.  So no statistic taken over the calls of one
run removes the drift: a run that falls in a slow spell reads slow.

The gauge measures the host's speed while each timed call runs.  A small
pure-Python kernel is timed a few times just before the call and just
after it, and, while the call runs, once every INTERVAL_S of wall time
from a SIGALRM handler in the same thread.  The call's wall time is scaled
by REFERENCE_S times the mean of 1/kernel time over those samples, which
weights each instant by the speed the host had then.  A reported second is
thus a second on a host where the kernel takes REFERENCE_S.

The kernel closes the symmetric group S_5 from two generators, composing
permutations as tuples and keeping them in a set: the tuple building,
hashing and set lookups that the package's own inner loops are made of,
but none of the package's code.  A change to the package therefore moves a
scaled time as it moves wall time; the samples add about 1% to each call,
the same on every version of the package.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The kernel time that defines one reference second.  On a shared 2-vCPU
# Xeon guest at 2.1 GHz the kernel takes about 0.13 ms in a fast spell and
# 0.21 to 0.25 ms in a slow one, so a reference second is about a wall
# second in a fast spell.
REFERENCE_S = 0.00013
# Wall time between samples while a call runs.
INTERVAL_S = 0.025
# Samples taken just before and just after each call.
EDGE = 3


def kernel(n: int = 5) -> int:
    """Close S_n from a transposition and an n-cycle; return its order."""
    gens = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for p in frontier:
            for g in gens:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return len(seen)


class Gauge:
    """Samples the host speed around and during each timed call.

    Use as `gauge.start()`, the timed call, then `gauge.scale(elapsed)`;
    `stop()` disarms the timer on a path that does not reach `scale`."""

    def __init__(self):
        self.samples: list[float] = []
        self.factors: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def close(self) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self) -> None:
        start = perf_counter()
        if kernel() != 120:
            raise AssertionError("calibration kernel gave the wrong order")
        self.samples.append(perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        self.samples = []
        for _ in range(EDGE):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, elapsed: float) -> float:
        """Disarm the timer, take the closing samples and return `elapsed`
        in reference seconds."""
        self.stop()
        for _ in range(EDGE):
            self._sample()
        factor = REFERENCE_S * sum(1 / s for s in self.samples) / len(self.samples)
        self.factors.append(factor)
        return elapsed * factor
