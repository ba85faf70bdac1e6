"""The event queue at the heart of the simulator.

Every timed activity in the machine is a callback scheduled at an absolute
cycle. Callbacks scheduled for the same cycle run in scheduling order
(FIFO), which keeps runs bit-for-bit deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


class _Event:
    """A scheduled callback.

    ``time`` is kept because the WPQ's expedite logic reads the pending
    drain event's deadline; ordering needs no sequence number, because
    each cycle's bucket is already a FIFO list.
    """

    __slots__ = ("time", "fn", "cancelled")

    def __init__(self, time: int, fn: Callable[[], Any]):
        self.time = time
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing; cheap (lazy deletion)."""
        self.cancelled = True


class Scheduler:
    """A deterministic discrete-event scheduler with an integer clock.

    A bucket queue: one FIFO list per distinct cycle, plus a heap of the
    distinct cycles. The heap orders plain ints, so no Python-level
    comparison runs per push or pop; that, not batching, is where the
    win over a heap of ``(time, seq)`` event objects comes from - most
    scheduled cycles hold a single event.

    Buckets drain via a cursor, so an event at ``now`` that schedules
    another event at ``now`` lands behind the cursor and runs after every
    event already queued for that cycle. A cycle's time is only popped
    from the heap once its bucket is exhausted: popping early would pin
    the head and let a later ``at(t')`` with ``now <= t' < head`` be
    mis-ordered behind it.
    """

    def __init__(self):
        self._buckets: dict[int, list[_Event]] = {}
        self._cursors: dict[int, int] = {}
        self._times: list[int] = []
        self.now: int = 0

    def __len__(self) -> int:
        return sum(
            1
            for t, bucket in self._buckets.items()
            for ev in bucket[self._cursors.get(t, 0) :]
            if not ev.cancelled
        )

    def at(self, time: int, fn: Callable[[], Any]) -> _Event:
        """Schedule ``fn`` to run at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (now={self.now}, time={time})"
            )
        time = int(time)
        ev = _Event(time, fn)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [ev]
            heapq.heappush(self._times, time)
        else:
            bucket.append(ev)
        return ev

    def after(self, delay: int, fn: Callable[[], Any]) -> _Event:
        """Schedule ``fn`` to run ``delay`` cycles from now."""
        # Full body instead of delegating to at(): after() runs once per
        # event and the extra frame is measurable. delay >= 0 implies the
        # no-scheduling-in-the-past invariant.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + int(delay)
        ev = _Event(time, fn)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [ev]
            heapq.heappush(self._times, time)
        else:
            bucket.append(ev)
        return ev

    def peek_time(self) -> Optional[int]:
        """Return the cycle of the next pending event, or None when idle."""
        while self._times:
            t = self._times[0]
            bucket = self._buckets[t]
            i = self._cursors.get(t, 0)
            n = len(bucket)
            while i < n and bucket[i].cancelled:
                i += 1
            if i < n:
                if i:
                    self._cursors[t] = i
                return t
            del self._buckets[t]
            self._cursors.pop(t, None)
            heapq.heappop(self._times)
        return None

    def step(self) -> bool:
        """Run the next event. Returns False when the queue is empty."""
        t = self.peek_time()
        if t is None:
            return False
        bucket = self._buckets[t]
        i = self._cursors.get(t, 0)
        ev = bucket[i]
        self._cursors[t] = i + 1
        self.now = t
        ev.fn()
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
        between buckets).
        """
        executed = 0
        buckets = self._buckets
        cursors = self._cursors
        times = self._times
        while times:
            t = times[0]
            if until is not None and t > until:
                break
            bucket = buckets[t]
            i = cursors.get(t, 0)
            n = len(bucket)
            if i >= n:
                del buckets[t]
                cursors.pop(t, None)
                heapq.heappop(times)
                continue
            while i < n:
                ev = bucket[i]
                i += 1
                cursors[t] = i
                if ev.cancelled:
                    # now is NOT advanced for cancelled events (a cancelled
                    # drain tick can be the queue's last entry, and the
                    # final clock value is part of the RunResult).
                    continue
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                self.now = t
                ev.fn()
                executed += 1
                n = len(bucket)
        if until is not None and self.now < until:
            # Idle until the bound (the next event, if any, is beyond it).
            self.now = until
        return executed
