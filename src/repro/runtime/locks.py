"""Simulated locks for isolation.

WAL provides atomic durability but not isolation (Sec. 2.1); workloads
guard conflicting atomic regions with these locks. A lock hand-off costs a
couple of coherence round trips, modelled as a fixed latency; contention
cost emerges naturally from queueing - which is how synchronous persist
waits inside critical sections hurt multi-threaded throughput.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.common.errors import SimulationError
from repro.engine import Scheduler

#: cycles for an uncontended acquire/release (atomic RMW on a shared line)
_LOCK_OP_COST = 30


class SimLock:
    """A FIFO mutex living in the simulated machine."""

    _next_id = 0

    OBSERVED = ("lock_acquired", "lock_released")

    def __init__(self, scheduler: Scheduler, name: Optional[str] = None):
        self._scheduler = scheduler
        self.name = name or f"lock{SimLock._next_id}"
        SimLock._next_id += 1
        self.holder: Optional[int] = None
        self._waiters: Deque[Tuple[int, Callable[[], None]]] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0
        self.observer = None

    def acquire(self, thread_id: int, done: Callable[[], None]) -> None:
        """Take the lock; ``done`` runs once the thread holds it."""
        if self.holder is None:
            self.holder = thread_id
            self.acquisitions += 1
            if self.observer is not None:
                self.observer.lock_acquired(self, thread_id)
            self._scheduler.after(_LOCK_OP_COST, done)
        else:
            if self.holder == thread_id:
                raise SimulationError(
                    f"{self.name}: thread {thread_id} re-acquiring held lock"
                )
            self.contended_acquisitions += 1
            self._waiters.append((thread_id, done))

    def queued_threads(self) -> list:
        """The threads waiting for the lock, oldest first."""
        return [thread_id for thread_id, _done in self._waiters]

    def release(self, thread_id: int, done: Callable[[], None]) -> None:
        """Release the lock and hand it to the oldest waiter, if any."""
        if self.holder != thread_id:
            raise SimulationError(
                f"{self.name}: thread {thread_id} releasing lock held by {self.holder}"
            )
        if self.observer is not None:
            self.observer.lock_released(self, thread_id)
        if self._waiters:
            next_thread, next_done = self._waiters.popleft()
            self.holder = next_thread
            self.acquisitions += 1
            if self.observer is not None:
                self.observer.lock_acquired(self, next_thread)
            self._scheduler.after(_LOCK_OP_COST, next_done)
        else:
            self.holder = None
        self._scheduler.after(_LOCK_OP_COST, done)
