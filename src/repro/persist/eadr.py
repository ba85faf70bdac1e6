"""Idealized eADR baseline (the Sec. 8 contrast).

Intel eADR extends the persistence domain over the entire cache
hierarchy: a store is durable the moment it hits the cache, so no LPOs or
DPOs ever stall execution and no flush instructions exist. Atomic
durability still requires write-ahead logging (the paper: "it still
requires a WAL technique to provide failure-atomicity") - but the log
writes, too, are just cache writes.

The catch the paper leans on: eADR "requires a large battery, consuming
high power" - the battery must be able to flush every dirty line in the
hierarchy on power failure. :meth:`battery_backed_bytes` quantifies that
requirement so the Ext. 4 experiment can put it next to ASAP's ~70 KB of
persistence-domain structures.

Model: regions commit instantaneously at ``asap_end`` (all their writes
are already durable, and the in-cache undo log makes in-flight regions
rollbackable). On a crash the battery flushes the caches: the volatile
image *is* the durable image, minus the rollback of in-flight regions
from their in-cache logs.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.common.address import line_base
from repro.mem.image import MemoryImage
from repro.persist.base import PersistenceScheme, SchemeThread


class _EadrThread(SchemeThread):
    def __init__(self, thread_id: int, core_id: int):
        super().__init__(thread_id, core_id)
        #: in-cache undo log of the active region: line -> old words
        self.undo: Dict[int, tuple] = {}


class EadrLogging(PersistenceScheme):
    """WAL over battery-backed caches: zero persist ops, big battery."""

    name = "eadr"

    #: caches are in the persistence domain: every store is durable at
    #: retirement, so program/coherence order is durability order
    ORDERING_EDGES = frozenset({"sync-commit"})

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        return _EadrThread(thread_id, core_id)

    # -- the cost side of the trade (Sec. 8) --------------------------------

    def battery_backed_bytes(self) -> int:
        """SRAM the battery must be able to flush on power failure."""
        return self.machine.config.cache_hierarchy_bytes()

    # -- regions -------------------------------------------------------------

    def begin_region(self, thread: _EadrThread, done: Callable[[], None]) -> None:
        thread.undo.clear()
        done()

    def end_region(self, thread: _EadrThread, done: Callable[[], None]) -> None:
        # Everything the region wrote is already inside the (cache)
        # persistence domain: the region is durable the instant the
        # in-cache log is dropped. Commit is free and immediate.
        thread.undo.clear()
        super().end_region(thread, done)

    # -- accesses ----------------------------------------------------------------

    def write(self, thread: _EadrThread, addr: int, values, done: Callable[[], None]) -> None:
        line = line_base(addr)
        in_region = thread.nest_depth > 0
        if (
            in_region
            and self.machine.page_table.is_persistent(addr)
            and line not in thread.undo
        ):
            thread.undo[line] = self.machine.volatile.line(line)
        self.machine.volatile.write_range(addr, values)
        self.machine.hierarchy.access(thread.core_id, addr, True, lambda meta: done())

    # -- crash ----------------------------------------------------------------------

    def crash_flush(self, image: MemoryImage) -> None:
        """The battery flushes every dirty line: durable state = volatile
        state, with in-flight regions rolled back from their in-cache
        logs (which the battery flushes too)."""
        persistent = self.machine.page_table.is_persistent
        image.apply([run for run in self.machine.volatile.lines() if persistent(run[0])])
        for thread in self._threads():
            image.apply(tuple(thread.undo.items()))

    def _threads(self):
        for executor in self.machine.executors:
            yield executor.scheme_thread
