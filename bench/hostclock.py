"""Host time rescaled to a fixed host speed.

The benchmark runs on shared machines whose speed drifts. On a 2-vCPU
2.1 GHz Xeon VM, one Fig. 7 cell repeated for 90 s slowed and sped up
by half over tens of seconds, and a fixed pure-Python kernel drifted
with it. Over 33 back-to-back passes of the 54 serve cells, pass time
had an interquartile range of 17 % of its median; rescaled by the
kernel timed between cells, 3.5 %.

So :meth:`HostClock.tick` runs :func:`speed_kernel` between cells, at
most every :data:`TICK_EVERY_S`, and :meth:`HostClock.seconds` scales
each measured interval by ``KERNEL_REF_S / kernel time``, interpolated
between the kernel runs on either side of it, with the kernel's own
runs left out. A reported second is a second on a host
that runs the kernel in :data:`KERNEL_REF_S`. ``active=False`` turns the
kernel off and reports raw host time (used under cProfile, which would
otherwise profile the kernel too).
"""

from __future__ import annotations

import bisect
import heapq
import time
from typing import List, Tuple

#: kernel time that defines the reference host speed: the kernel's
#: typical time on an idle 2.1 GHz Xeon vCPU under CPython 3.11
KERNEL_REF_S = 0.0026
#: least host time between two kernel runs
TICK_EVERY_S = 0.03


class _Event:
    __slots__ = ("time", "key")

    def __init__(self, time: int, key: int):
        self.time = time
        self.key = key


def speed_kernel(n: int = 3000) -> int:
    """Fixed interpreter work in the simulator's mix: a heap of timed
    entries, dict counters, small slotted objects and attribute reads."""
    queue: List[Tuple[int, int]] = []
    counters = {}
    acc = 0
    for i in range(n):
        heapq.heappush(queue, (i * 7919 % 1009, i))
        counters[i & 255] = counters.get(i & 255, 0) + i
        event = _Event(i, acc)
        acc = (acc + event.time * 31 + len(queue)) & 0xFFFF
        if len(queue) > 64:
            heapq.heappop(queue)
    return acc


class HostClock:
    """Measures intervals in reference-host seconds (see module docs)."""

    def __init__(self, active: bool = True):
        self.active = active
        #: (midpoint, kernel seconds) of each kernel run
        self.marks: List[Tuple[float, float]] = []
        #: (start, end) of each kernel run
        self.pauses: List[Tuple[float, float]] = []
        self._last = float("-inf")
        self._times: List[float] = []
        self._factors: List[float] = []

    def tick(self) -> None:
        """Run the kernel if :data:`TICK_EVERY_S` has passed since the last."""
        start = time.perf_counter()
        if not self.active or start - self._last < TICK_EVERY_S:
            return
        speed_kernel()
        end = time.perf_counter()
        self.marks.append(((start + end) / 2, end - start))
        self.pauses.append((start, end))
        self._last = end

    def _factor(self, at: float) -> float:
        """``KERNEL_REF_S / kernel time``, interpolated between the kernel
        runs on either side of ``at``."""
        if not self.marks:
            return 1.0
        if len(self._times) != len(self.marks):
            self._times = [m[0] for m in self.marks]
            self._factors = [KERNEL_REF_S / m[1] for m in self.marks]
        i = bisect.bisect_left(self._times, at)
        if i == 0:
            return self._factors[0]
        if i == len(self._times):
            return self._factors[-1]
        t0, t1 = self._times[i - 1], self._times[i]
        f0, f1 = self._factors[i - 1], self._factors[i]
        return f0 + (f1 - f0) * (at - t0) / (t1 - t0)

    def seconds(self, start: float, end: float) -> float:
        """Reference-host seconds between two ``perf_counter`` readings,
        kernel runs excluded."""
        total = 0.0
        i = bisect.bisect_left(self.pauses, (start,))
        cursor = start
        for p_start, p_end in self.pauses[i:]:
            if p_start >= end:
                break
            total += (p_start - cursor) * self._factor((cursor + p_start) / 2)
            cursor = p_end
        return total + (end - cursor) * self._factor((cursor + end) / 2)

    def raw_seconds(self, start: float, end: float) -> float:
        """Host seconds between two readings, kernel runs excluded."""
        paused = sum(
            min(p_end, end) - max(p_start, start)
            for p_start, p_end in self.pauses
            if p_start < end and p_end > start
        )
        return end - start - paused
