"""Timings corrected for the changing speed of a shared core.

On a small shared machine the same pure-Python pass can take 1.0x to 1.8x
as long from one second to the next, and the slow spells differ between
cores, so a second process cannot measure them. A SpeedProbe therefore
interrupts this process every PERIOD_S with SIGALRM and times a fixed
probe: tuple arithmetic modulo 2^61-1, the same kind of work as the
library's jet and rank kernels. A timed interval is then rescaled to the
time it would have taken on a core that runs the probe in REFERENCE_NS,
about the uncontended speed of a 2.1 GHz Xeon core. Probe time is
subtracted from the interval first.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.01
REFERENCE_NS = 25_000
MIN_PROBES = 3  # a short interval borrows the nearest probes around it
_P = (1 << 61) - 1
_A = tuple(range(1, 41))
_B = tuple(range(41, 81))


def probe_work() -> tuple:
    a = _A
    for _ in range(6):
        a = tuple((x * y + x) % _P for x, y in zip(a, _B))
    return a


class SpeedProbe:
    """Context manager sampling core speed while timed work runs."""

    def __init__(self):
        self.ends: list[int] = []  # perf_counter_ns at each probe's end
        self.durations: list[int] = []  # the timed probe
        self.costs: list[int] = []  # the whole interruption, warm-up included
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter_ns()
        probe_work()  # warm the caches the interrupted work left cold
        start = time.perf_counter_ns()
        probe_work()
        end = time.perf_counter_ns()
        self.ends.append(end)
        self.durations.append(end - start)
        self.costs.append(end - begin)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start_ns: int, end_ns: int) -> float:
        """Seconds the interval would take on the reference core."""
        lo = bisect_left(self.ends, start_ns)
        hi = bisect_right(self.ends, end_ns)
        busy = end_ns - start_ns - sum(self.costs[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        sample = self.durations[lo:hi]
        if not sample:
            return busy / 1e9
        rate = sum(REFERENCE_NS / d for d in sample) / len(sample)
        return busy * rate / 1e9

    def median_factor(self) -> float:
        """Median probe duration over the reference: 1.0 on an idle core."""
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2] / REFERENCE_NS if ordered else 0.0
