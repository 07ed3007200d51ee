"""Machine-speed probe: turns measured durations into reference-speed durations.

The small shared machines this benchmark runs on change speed on their own:
other tenants of the host make the same pure-Python code run 1.3 to 1.8
times slower for stretches of seconds to minutes (``README.md`` has
figures).  A probe slice is a fixed piece of pure-Python work like the
library's own (small ``Fraction`` products, tuple-keyed dict updates, a
generator of tuples, integer arithmetic) that imports nothing from
``hyperoct``.  The probe
times slices interleaved with the measured work, and every measured
duration is multiplied by ``REFERENCE_SLICE_S`` over the median slice time
around it.  A change to the library moves the measured duration and not the
slices, so it shows in full; a slow spell of the machine moves both and
cancels out.

Slices come from two sources:

* ``ticking()``: a ``SIGALRM`` timer runs one slice every 0.5 to 1.5
  ``TICK_S`` seconds, at random, inside the running process, also in the
  middle of a long library call.  The time the handler takes is added to ``stolen``,
  which the caller subtracts from the duration it measured.
* ``probe()``: explicit slices, before and after each child process.  While
  a child runs, timer-driven slices measure the core next to it, so the
  ones right before and after, on the core it ran on, are added.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# a slice's time on a 2-core x86-64 container with Python 3.11 in its fast state, so reported
# durations read as that machine's
REFERENCE_SLICE_S = 0.00095
TICK_S = 0.05
# slices up to this far before an operation's start and after its end set its speed
WINDOW_S = 0.5
MIN_SLICES = 5


def _slice_work() -> int:
    """The mix of the library's own work: small ``Fraction`` products, tuple keys in a
    dict, a generator of tuples, and integer arithmetic."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc = Fraction(i, i + 1) * Fraction(3, i + 2) + Fraction(1, 7)
    table: dict[tuple[int, int, int], int] = {}
    for i in range(1200):
        table[(i % 37, i % 11, i)] = table.get((i % 37, i % 11, i - 1), 0) + 1
    total = 0
    for a, b, c in ((i, i + 1, i % 5) for i in range(600)):
        total += a * b if c else 1
    return total + acc.numerator + len(table)


def time_slice() -> float:
    """Seconds one slice takes now, with the cyclic collector held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _slice_work()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        # tick intervals vary at random, so the slices cannot fall in step with a periodic disturbance
        self.jitter = random.Random(0)
        self.at: list[float] = []  # perf_counter at each slice, ascending
        self.took: list[float] = []
        self.stolen = 0.0  # seconds spent in timer-driven slices so far

    def probe(self, slices: int = 1) -> None:
        for _ in range(slices):
            took = time_slice()
            self.at.append(perf_counter())
            self.took.append(took)

    def _on_tick(self, signum, frame) -> None:
        start = perf_counter()
        self.probe()
        self.stolen += perf_counter() - start
        self._arm()

    @contextlib.contextmanager
    def ticking(self):
        """Run timer-driven slices while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_tick)
        self._arm()
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, TICK_S * self.jitter.uniform(0.5, 1.5))

    def scaled(self, start: float, seconds: float) -> float:
        """Reference-speed duration of ``seconds`` of work that began at ``start``.

        A long operation is cut into pieces of ``WINDOW_S``, each scaled by
        the speed around it, so a spell of slowness counts only where it was.
        """
        end = start + seconds
        pieces = max(1, int((end - start) / WINDOW_S))
        edges = [start + (end - start) * i / pieces for i in range(pieces + 1)]
        return sum(seconds / pieces * self.factor(a, b) for a, b in zip(edges, edges[1:]))

    def factor(self, start: float, end: float) -> float:
        """Reference-speed seconds per measured second for work between start and end."""
        if not self.took:
            raise ValueError("no probe slices were taken")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_SLICES:  # too few nearby: take the nearest ones in time
            middle = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(middle - MIN_SLICES // 2, len(self.at) - MIN_SLICES))
            hi = min(len(self.at), lo + MIN_SLICES)
        return REFERENCE_SLICE_S / statistics.median(self.took[lo:hi])
