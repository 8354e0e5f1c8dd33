"""Machine-speed sampling, to express measured times at a reference speed.

A shared machine can run the same code up to half slower for minutes at a
time, and its speed also wanders within a single op.  While a Sampler is
active, a SIGALRM timer interrupts the program every PERIOD_S of wall time
to time probe_s(), a fixed pure-Python loop owned by the benchmark; five
more probes run just before the op and five just after.  An op's time at
reference speed is its wall time, less the time spent sampling, scaled by
REF_PROBE_S over the median probe time: seconds on a machine where the
probe takes exactly REF_PROBE_S.  The median, unlike the mean, ignores a
probe that an interrupt stretched, which matters for short ops with few
samples.  Sampling costs about 1% of the op's wall time, and that time is
subtracted.

Imports nothing heavy, so a set-up probe can load it before the program.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
REF_PROBE_S = 0.0002
EDGE_PROBES = 5


def probe_s() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(2000):
        x += i * i % 7
    return time.perf_counter() - t0


class Sampler:
    """Samples machine speed between begin_op and end_op (main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0          # time the last op spent in the sampler
        self.ref_s = 0.0           # the last op's time at reference speed
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_s())
        self.busy_s += time.perf_counter() - t0

    def begin_op(self, op_id=None) -> None:
        self.samples = [probe_s() for _ in range(EDGE_PROBES)]
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def end_op(self, wall_s: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [probe_s() for _ in range(EDGE_PROBES)]
        self.ref_s = (wall_s - self.busy_s) * REF_PROBE_S / statistics.median(self.samples)
