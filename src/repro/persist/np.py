"""The No-Persistency (NP) baseline: the performance upper bound.

Data is read from and written to persistent memory, but no LPOs or DPOs
are ever performed and no atomic durability is guaranteed (Sec. 6.3). PM
still sees write traffic from ordinary dirty-line evictions, which is why
NP appears in the Fig. 9 traffic comparison with a non-zero bar.
"""

from __future__ import annotations

from typing import Callable

from repro.persist.base import PersistenceScheme, SchemeThread


class NoPersistence(PersistenceScheme):
    """Begin/end are pure bookkeeping; reads/writes are plain cache ops.

    NP gives no durability, but a region is "complete" at its end for
    throughput accounting: the template's default ``end_region`` commits
    it at once.
    """

    name = "np"

    #: no persistence, no durability guarantees. NP issues no persist
    #: operations either, so the race detector finds nothing to order:
    #: it reports 0 nodes and 0 findings for this scheme
    ORDERING_EDGES = frozenset()

    def write(self, thread: SchemeThread, addr: int, values, done: Callable[[], None]) -> None:
        self.machine.volatile.write_range(addr, values)
        self.machine.hierarchy.access(thread.core_id, addr, True, lambda meta: done())
