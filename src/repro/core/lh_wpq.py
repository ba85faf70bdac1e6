"""The Log Header WPQ (Fig. 3, Fig. 5b, Sec. 5.5).

Each channel has an LH-WPQ holding, for every uncommitted atomic region,
the LogHeader of its latest (unsealed) log record together with the
header's PM address. Like the WPQ it sits inside the persistence domain:
on a crash its contents are flushed to persistent memory so recovery can
find partially-filled records.

Capacity pressure on this structure is the Sec. 7.4 sensitivity study: a
16-entry LH-WPQ makes regions stall at their first LPO when too many
uncommitted regions are outstanding, costing ASAP 0.78x of its 128-entry
performance.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.errors import SimulationError
from repro.core.log import LogRecord
from repro.engine import Scheduler, WaitQueue
from repro.mem.image import MemoryImage


class LogHeaderWPQ:
    """One channel's LH-WPQ."""

    def __init__(self, name: str, scheduler: Scheduler, capacity: int):
        if capacity <= 0:
            raise SimulationError("LH-WPQ capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._scheduler = scheduler
        #: header_addr -> live record whose header is held here
        self._entries: Dict[int, LogRecord] = {}
        self.waiters = WaitQueue(scheduler)
        self.peak_occupancy = 0
        self.stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def acquire(self, record: LogRecord, granted: Callable[[], None]) -> None:
        """Install ``record``'s header; calls ``granted`` once there is room.

        A full LH-WPQ parks the requester - this is the structural stall
        that the Sec. 7.4 experiment measures.
        """
        if not self.full:
            self._entries[record.header_addr] = record
            self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
            self._scheduler.after(0, granted)
        else:
            self.stalls += 1
            self.waiters.park(lambda: self.acquire(record, granted))

    def release(self, header_addr: int) -> Optional[LogRecord]:
        """Remove a header (record sealed and moved to the WPQ, or commit)."""
        record = self._entries.pop(header_addr, None)
        if record is not None:
            self.waiters.wake_one()
        return record

    def release_region(self, rid: int) -> int:
        """Drop every header belonging to ``rid`` (commit path)."""
        victims = [
            addr for addr, rec in self._entries.items() if rec.rid == rid
        ]
        for addr in victims:
            self.release(addr)
        return len(victims)

    def flush_to_pm(self, image: MemoryImage) -> int:
        """Crash path: write every held header into ``image`` (a copy of
        PM); the LH-WPQ itself is untouched."""
        for record in self._entries.values():
            image.apply(record.header_payload())
        return len(self._entries)

    def records(self):
        return iter(self._entries.values())
