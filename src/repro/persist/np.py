"""The No-Persistency (NP) baseline: the performance upper bound.

Data is read from and written to persistent memory, but no LPOs or DPOs
are ever performed and no atomic durability is guaranteed (Sec. 6.3). PM
still sees write traffic from ordinary dirty-line evictions, which is why
NP appears in the Fig. 9 traffic comparison with a non-zero bar.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import SimulationError
from repro.core.rid import pack_rid
from repro.persist.base import PersistenceScheme, SchemeThread


class NoPersistence(PersistenceScheme):
    """Begin/end are pure bookkeeping; reads/writes are plain cache ops."""

    name = "np"

    #: no persistence, no durability guarantees - every conflicting
    #: persist pair is (vacuously) a race, which is why the detector
    #: refuses to analyse this scheme rather than report noise
    ORDERING_EDGES = frozenset()

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        return SchemeThread(thread_id, core_id)

    def begin(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        thread.nest_depth += 1
        if thread.nest_depth == 1:
            thread.regions_begun += 1
        done()

    def end(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        if thread.nest_depth <= 0:
            raise SimulationError("end without begin")
        thread.nest_depth -= 1
        if thread.nest_depth == 0:
            # NP gives no durability, but the region is "complete" for
            # throughput accounting purposes.
            self._notify_commit(pack_rid(thread.thread_id, thread.regions_begun))
        done()

    def write(self, thread: SchemeThread, addr: int, values, done: Callable[[], None]) -> None:
        self.machine.volatile.write_range(addr, values)
        self.machine.hierarchy.access(thread.core_id, addr, True, lambda meta: done())

    def read(self, thread: SchemeThread, addr: int, nwords: int, done: Callable[[list], None]) -> None:
        def after(meta) -> None:
            done(self.machine.volatile.read_words(addr, nwords))

        self.machine.hierarchy.access(thread.core_id, addr, False, after)
