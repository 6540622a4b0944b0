"""The machine's speed, measured with a fixed kernel that does not call degseq.

The VM the benchmark was built on shares its hardware with other tenants,
and the same code runs up to twice as slow from one second to the next (see
README.md, "Noise on a shared machine").  The timings the benchmark gates
on are therefore expressed in reference seconds.

While a `Meter` is on, an interval timer on the process's CPU time
(ITIMER_PROF) interrupts it every `INTERVAL_S` and runs `kernel()` twice
from the signal handler.  The first run brings back into the caches what
the program evicted; the second is timed, and is a speed sample:
REF_KERNEL_S over its duration.  So a sample follows the machine rather
than the program's memory footprint; the timed kernel reads within 10% of
the same speed inside couple-large and inside replicas-small.  A time
measured in the process, less the time spent in the handler, times the
mean speed sampled while it ran, is that time in reference seconds.
When the machine slows down, the kernel and the program slow down together
and the reference time stays put.  Within one process, the speed sampled
during a couple-large replica tracks the replica's own speed with a
correlation of 0.85 to 0.97.

The kernel mixes what the program spends its time on: interpreted loops,
sets and dicts of tuples, numpy generator construction and a gather from an
array larger than the caches.  It lives in the benchmark, so a change to
degseq cannot change it.  It takes under 2% of the time it samples.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# kernel() with warm caches on the 2-core VM the benchmark was built on, at
# its typical speed: a reference second is about a second there.
REF_KERNEL_S = 0.00022
INTERVAL_S = 0.03

_ARR = np.arange(1 << 19, dtype=np.int64)   # 4 MiB
_IDX = np.random.Generator(np.random.PCG64(12345)).integers(0, 1 << 19, 4000)


def kernel() -> int:
    s = 0
    for i in range(600):
        s += i * i % 7
    seen: set[tuple[int, int]] = set()
    counts: dict[int, int] = {}
    for i in range(250):
        a, b = i * 7919 % 1009, i * 104729 % 1013
        e = (a, b) if a < b else (b, a)
        if e not in seen:
            seen.add(e)
            counts[a] = counts.get(a, 0) + 1
    s += int(np.random.Generator(np.random.PCG64(s)).random(64).sum())
    return s + len(seen) + int(_ARR[_IDX].sum())


class Meter:
    """Speed samples taken while on; `busy` is the seconds spent taking them.

    Use as a context manager around the code to be timed, and time that
    code with `clock()`, which leaves the sampling out.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.busy = 0.0
        self._sampling = False
        self._previous = None

    def sample(self) -> None:
        """Take one speed sample now; the timer takes the others."""
        self._sampling = True
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.speeds.append(REF_KERNEL_S / (end - warm))
        self.busy += end - start
        self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:   # the timer fired inside sample()
            self.sample()

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self) -> float:
        """perf_counter() less the time spent taking samples."""
        return time.perf_counter() - self.busy

    def speed(self, since: int = 0) -> float:
        """Mean speed of the samples from `since` on (of all, if none), in reference s per s."""
        new = self.speeds[since:] or self.speeds
        return sum(new) / len(new)
