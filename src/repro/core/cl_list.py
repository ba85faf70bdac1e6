"""The Modified Cache Line List (Fig. 3 (3), Secs. 4.6.2, 4.8).

Each core has a small CL List (4 entries in Table 2). An entry tracks one
atomic region's still-unpersisted modified cache lines in up to 8 CLPtr
slots. The entry is created at ``asap_begin``, marked Done at ``asap_end``,
and removed once every slot has cleared (all DPOs complete) - at which
point the region's Dependence List entry at the memory controller is marked
Done (Fig. 4 transition (3)).

Structural stalls modelled here, as in the paper:

* a new region finding all 4 entries occupied stalls until one clears,
* a write needing a 9th slot stalls until a DPO completes (Sec. 4.6.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import SimulationError
from repro.core.states import RegionState
from repro.engine import Scheduler, WaitQueue

#: global creation order for CL entries. Within one CL List this matches
#: dict insertion order (rids are never reused), so sorting by
#: ``(core, seq)`` reproduces the reference "cores ascending, entries in
#: insertion order" iteration that the asap scheme's slot index
#: replays.
_entry_seq = itertools.count()


@dataclass(slots=True)
class CLSlot:
    """One CLPtr slot: a modified line awaiting its data persist."""

    line: int
    #: bumped on every write by the owning region to this line; a DPO
    #: carries the version it snapshotted, and only a current-version DPO
    #: completion clears the slot (stale ones re-initiate).
    data_version: int = 0
    dpo_inflight: bool = False
    #: True when the line holds data newer than any initiated DPO
    pending: bool = True
    #: value of the entry's write counter at the last write to this line
    #: (drives the distance-4 DPO coalescing policy).
    last_write_stamp: int = 0
    #: writes not yet covered by an issued DPO; with coalescing disabled
    #: (Fig. 9a No-Opt) every backlogged write issues its own DPO.
    eager_backlog: int = 0


class CLEntry:
    """CL List entry for one atomic region."""

    def __init__(self, rid: int, max_slots: int):
        self.rid = rid
        self.seq = next(_entry_seq)
        self.max_slots = max_slots
        self.state = RegionState.IN_PROGRESS
        self.slots: Dict[int, CLSlot] = {}
        #: counts writes by the region to lines other than a given slot's;
        #: incremented once per write op.
        self.write_counter = 0
        #: True while a write is stalled on a free slot: the coalescing
        #: distance is waived so pending DPOs drain and free one
        #: (Sec. 4.6.2's "stalls until ... the corresponding DPO completes")
        self.pressure = False

    @property
    def slots_full(self) -> bool:
        return len(self.slots) >= self.max_slots

    @property
    def drained(self) -> bool:
        return not self.slots

    def slot_for(self, line: int) -> Optional[CLSlot]:
        return self.slots.get(line)

    def add_slot(self, line: int) -> CLSlot:
        if self.slots_full:
            raise SimulationError(f"CL entry {self.rid}: all CLPtr slots occupied")
        slot = CLSlot(line=line)
        self.slots[line] = slot
        return slot

    def clear_slot(self, line: int) -> None:
        self.slots.pop(line, None)


class CLList:
    """One core's CL List with its two wait queues."""

    def __init__(self, core_id: int, scheduler: Scheduler, entries: int, slots: int):
        self.core_id = core_id
        self.max_entries = entries
        self.max_slots = slots
        self._entries: Dict[int, CLEntry] = {}
        #: regions waiting for a free entry (asap_begin stall)
        self.entry_waiters = WaitQueue(scheduler)
        #: writes waiting for a free CLPtr slot (DPO completion frees one)
        self.slot_waiters = WaitQueue(scheduler)
        self.entry_stalls = 0
        self.slot_stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.max_entries

    def entry(self, rid: int) -> Optional[CLEntry]:
        return self._entries.get(rid)

    def open_entry(self, rid: int) -> CLEntry:
        """Create the region's entry (caller must have checked ``full``)."""
        if self.full:
            raise SimulationError(f"CL List of core {self.core_id} is full")
        if rid in self._entries:
            raise SimulationError(f"duplicate CL entry for rid {rid}")
        entry = CLEntry(rid, self.max_slots)
        self._entries[rid] = entry
        return entry

    def remove_entry(self, rid: int) -> None:
        """Region reached Done@L1 with all slots drained (Fig. 4 (3))."""
        if rid in self._entries:
            del self._entries[rid]
            self.entry_waiters.wake_one()

    def entries(self):
        return iter(self._entries.values())
