"""The Dependence List (Fig. 3 (4), Secs. 4.5, 4.6.3, 4.8, 5.5).

Each memory-controller channel hosts a Dependence List (128 entries in
Table 2). An entry exists for every uncommitted atomic region and records
up to 4 outstanding dependencies (Dep slots) on other uncommitted regions:
the control dependence on the thread's previous region plus data
dependences captured when the region touches a line owned by another
region.

The Dependence List is part of the persistence domain: on a crash, active
entries are flushed to PM and recovery uses them to derive the
happens-before order in which uncommitted regions must be undone
(Sec. 5.5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver
from repro.core.states import RegionState
from repro.engine import Scheduler, WaitQueue


class DependenceEntry:
    """Dependence List entry for one uncommitted region."""

    def __init__(self, rid: int, max_deps: int):
        self.rid = rid
        self.max_deps = max_deps
        self.state = RegionState.IN_PROGRESS
        self.deps: Set[int] = set()

    @property
    def deps_full(self) -> bool:
        return len(self.deps) >= self.max_deps

    @property
    def committable(self) -> bool:
        """Fig. 4 transition (4): Done@MC and every Dep slot cleared."""
        return self.state is RegionState.DONE and not self.deps

    def snapshot(self) -> dict:
        """Persistable view (what the crash flush writes; Sec. 5.5)."""
        return {"rid": self.rid, "state": self.state.value, "deps": sorted(self.deps)}


class DependenceList:
    """One channel's Dependence List."""

    OBSERVED = ("dep_entry_opened", "dep_entry_removed")

    def __init__(self, channel_index: int, scheduler: Scheduler, entries: int, dep_slots: int):
        self.channel_index = channel_index
        self.max_entries = entries
        self.dep_slots = dep_slots
        self._entries: Dict[int, DependenceEntry] = {}
        #: regions waiting for a free entry (asap_begin stall)
        self.entry_waiters = WaitQueue(scheduler)
        #: accesses waiting for a free Dep slot (cleared by commits)
        self.dep_waiters = WaitQueue(scheduler)
        self.entry_stalls = 0
        self.dep_stalls = 0
        #: optional :class:`SimObserver` notified on entry open/remove
        self.observer: Optional[SimObserver] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.max_entries

    @property
    def empty(self) -> bool:
        return not self._entries

    def entry(self, rid: int) -> Optional[DependenceEntry]:
        return self._entries.get(rid)

    def contains(self, rid: int) -> bool:
        """The lookup performed before adding a Dep: a missing entry means
        the owner region has already committed (Sec. 5.8)."""
        return rid in self._entries

    def open_entry(self, rid: int) -> DependenceEntry:
        if self.full:
            raise SimulationError(
                f"Dependence List of channel {self.channel_index} is full"
            )
        if rid in self._entries:
            raise SimulationError(f"duplicate Dependence entry for rid {rid}")
        entry = DependenceEntry(rid, self.dep_slots)
        self._entries[rid] = entry
        if self.observer is not None:
            self.observer.dep_entry_opened(self, entry)
        return entry

    def remove_entry(self, rid: int) -> None:
        """Commit: clear the region's entry (Fig. 4 transition (4))."""
        if rid in self._entries:
            del self._entries[rid]
            if self.observer is not None:
                self.observer.dep_entry_removed(self, rid)
            self.entry_waiters.wake_one()

    def clear_dependency(self, committed_rid: int) -> List[DependenceEntry]:
        """Apply a commit broadcast: clear matching Dep slots.

        Returns entries that became committable as a result.
        """
        ready = []
        for entry in self._entries.values():
            if committed_rid in entry.deps:
                entry.deps.discard(committed_rid)
                self.dep_waiters.wake_all()
                if entry.committable:
                    ready.append(entry)
        return ready

    def entries(self):
        return iter(self._entries.values())

    def snapshot(self) -> List[dict]:
        """Flush-to-PM view of every active entry (crash path)."""
        return [entry.snapshot() for entry in self._entries.values()]
