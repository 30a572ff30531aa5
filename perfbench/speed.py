"""Interpreter-speed sampling, to take machine-wide CPU-speed swings out of pass times.

On a shared machine the same pure-Python work can take half as long again
from one second to the next: a fixed loop measured 0.08-0.13 s on either CPU
of a shared 2-vCPU Linux machine, with CPU time equal to wall time, so the
swing is in the hardware's speed, not in scheduling.  Dividing a pass's time by the mean
duration of a fixed reference loop run *during* the pass cancels most of it.
The loop does what the library's closures do (dict lookups, tuple building,
hashing) over a table larger than L2, because memory-bound work slows more in
the machine's slow spells than pure arithmetic: on fourteen rank-11 reverse
passes the coefficient of variation fell from 14.9 % raw to 2.8 % with this
loop, but only to 7.4 % with an arithmetic loop.

The reference loop runs from a SIGALRM handler every INTERVAL_S seconds,
between bytecodes of the main thread (no thread is started), costing under
1 % of the pass.  Its own time is subtracted from the pass.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter_ns

INTERVAL_S = 0.05
REF_ITERATIONS = 2000
TABLE_SIZE = 20_000
_TABLE = {i: (i, i + 1) for i in range(TABLE_SIZE)}


def reference_loop() -> int:
    x, seen = 12345, {}
    for _ in range(REF_ITERATIONS):
        x = (x * 1103515245 + 12345) % TABLE_SIZE
        t = _TABLE[x]
        seen[(t[0], x)] = t
    return len(seen)


class SpeedSampler:
    """Context manager that runs the reference loop at start-up and on a timer.

    `net_ns(start, end)` is an interval's length minus the sampling done in it;
    `ref_ns()` is the mean duration of the reference loop.
    """

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (start, duration) in ns

    def _sample(self, *_):
        t0 = perf_counter_ns()
        reference_loop()
        self.samples.append((t0, perf_counter_ns() - t0))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def net_ns(self, start: int, end: int) -> int:
        return end - start - sum(d for t, d in self.samples if start <= t < end)

    def ref_ns(self) -> float:
        return mean(d for _, d in self.samples)
