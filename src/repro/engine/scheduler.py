"""The event queue at the heart of the simulator.

Every timed activity in the machine is a callback scheduled at an absolute
cycle. Callbacks scheduled for the same cycle run in scheduling order
(FIFO), which keeps runs bit-for-bit deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


class Scheduler:
    """A deterministic discrete-event scheduler with an integer clock.

    A bucket queue: one FIFO list of bare callables per distinct cycle,
    plus a heap of the distinct cycles. The heap orders plain ints, so no
    Python-level comparison runs per push or pop, and scheduling allocates
    nothing but the list slot - most scheduled cycles hold a single event.

    A slot is set to ``None`` (a tombstone) when its callback fires or is
    cancelled, so a bucket's pending entries are exactly its non-``None``
    slots and no cursor outlives a drain: an interrupted drain (a callback
    raised) resumes by skipping the tombstones. An event at ``now`` that
    schedules another event at ``now`` lands at the bucket's end and runs
    after every event already queued for that cycle. A cycle's time is
    only popped from the heap once its bucket is exhausted: popping early
    would pin the head and let a later ``at(t')`` with ``now <= t' < head``
    be mis-ordered behind it.
    """

    def __init__(self):
        self._buckets: dict[int, list[Optional[Callable[[], Any]]]] = {}
        self._times: list[int] = []
        self.now: int = 0

    def __len__(self) -> int:
        return sum(
            1 for bucket in self._buckets.values() for fn in bucket if fn is not None
        )

    def at(self, time: int, fn: Callable[[], Any]) -> int:
        """Schedule ``fn`` to run at absolute cycle ``time``; returns it."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (now={self.now}, time={time})"
            )
        time = int(time)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn]
            heappush(self._times, time)
        else:
            bucket.append(fn)
        return time

    def after(self, delay: int, fn: Callable[[], Any]) -> int:
        """Schedule ``fn`` to run ``delay`` cycles from now; returns the
        cycle it fires at.

        ``delay`` must be an int: the simulator coerces where a non-int
        can enter from outside it (``Compute.cycles`` in the executor, the
        config-derived latencies and costs read once at construction), so
        this per-event path does not.
        """
        # Full body instead of delegating to at(): after() runs once per
        # event and the extra frame is measurable. delay >= 0 implies the
        # no-scheduling-in-the-past invariant.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn]
            heappush(self._times, time)
        else:
            bucket.append(fn)
        return time

    def cancel(self, time: int, fn: Callable[[], Any]) -> None:
        """Keep the last pending ``fn`` scheduled at ``time`` from firing.

        ``fn`` must be the very object that was scheduled. Raises
        :class:`SimulationError` when no such entry is pending.
        """
        bucket = self._buckets.get(time)
        if bucket is not None:
            for i in range(len(bucket) - 1, -1, -1):
                if bucket[i] is fn:
                    bucket[i] = None
                    return
        raise SimulationError(f"no pending event {fn!r} at cycle {time}")

    def peek_time(self) -> Optional[int]:
        """Return the cycle of the next pending event, or None when idle."""
        while self._times:
            t = self._times[0]
            if any(fn is not None for fn in self._buckets[t]):
                return t
            del self._buckets[t]
            heappop(self._times)
        return None

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        t = self.peek_time()
        if t is None:
            return False
        bucket = self._buckets[t]
        i = 0
        while bucket[i] is None:
            i += 1
        fn = bucket[i]
        bucket[i] = None
        self.now = t
        fn()
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue, one bucket at a time.

        Args:
            until: stop once the clock would pass this cycle (events at
                exactly ``until`` still run).
            max_events: safety valve against runaway simulations.

        Returns:
            The number of events executed.

        Firing order is exactly :meth:`step` in a loop. Callbacks may
        append to the current bucket (its length is re-read after every
        fire) and schedule any future cycle (the heap is consulted only
        between buckets). Tombstones are skipped without advancing
        ``now`` (a cancelled drain tick can be the queue's last entry, and
        the final clock value is part of the RunResult) and are not
        counted.
        """
        executed = 0
        limit = -1 if max_events is None else max(0, max_events)
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            if until is not None and t > until:
                break
            bucket = buckets[t]
            i = 0
            n = len(bucket)
            while i < n:
                fn = bucket[i]
                if fn is not None:
                    if executed == limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; possible livelock"
                        )
                    bucket[i] = None
                    self.now = t
                    fn()
                    executed += 1
                    n = len(bucket)
                i += 1
            del buckets[t]
            heappop(times)
        if until is not None and self.now < until:
            # Idle until the bound (the next event, if any, is beyond it).
            self.now = until
        return executed
