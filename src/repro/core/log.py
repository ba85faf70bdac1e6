"""Per-thread circular undo logs (Sec. 4.4, Sec. 5.5, Fig. 5a).

Each thread owns a distributed log buffer in persistent memory, divided
into fixed-size *records*: one 64 B ``LogHeader`` line followed by up to
seven 64 B data-entry lines. The header line stores the region id and the
data address of every entry, so the addresses of seven log entries persist
with a single cache-line write.

Layout of a record slot (stride = ``(1 + entries_per_record) * 64`` bytes)::

    header_addr + 0   : word0 = packed RID, word(1+i) = data line addr i
    header_addr + 64  : entry 0 (the 64 B old value of data line 0)
    header_addr + 128 : entry 1
    ...

On overflow the hardware raises an exception whose handler allocates more
log space (Sec. 4.4); we model that with an optional ``grow_fn`` that
returns a fresh PM range.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import LogOverflowError, SimulationError
from repro.common.params import AsapParams
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES

#: low bit of a header slot word: the logged line's previous writer was an
#: *uncommitted* region when this entry was created, i.e. the entry sits in
#: the middle of a per-line undo chain. Data lines are 64-byte aligned, so
#: the low six bits of a slot word are free for metadata; recovery masks
#: them off (see :func:`decode_slot_word`) and uses the flag to validate
#: chain completeness before restoring (docs/RECOVERY.md).
CHAIN_BIT = 0x1


def encode_slot_word(data_line: int, chained: bool) -> int:
    """Pack a header slot word: line address plus the chain flag."""
    return data_line | (CHAIN_BIT if chained else 0)


def decode_slot_word(word: int) -> Tuple[int, bool]:
    """Unpack a header slot word into ``(data_line, chained)``."""
    return word & ~(CACHE_LINE_BYTES - 1), bool(word & CHAIN_BIT)


class LogRecord:
    """One in-flight log record of an atomic region.

    An entry slot has two states: *reserved* (the LPO was created and is on
    its way to a WPQ) and *confirmed* (the WPQ accepted the LPO, so the old
    value is inside the persistence domain). Only confirmed entries appear
    in the persistable header: a crash must never expose a header entry
    whose logged value did not make it to durability - recovery would
    restore garbage. An unconfirmed entry is safe to drop entirely, because
    the LockBit guarantees no DPO or eviction writeback of that line can
    have persisted either (Sec. 4.6.1).
    """

    __slots__ = (
        "rid",
        "header_addr",
        "capacity",
        "entries",
        "confirmed",
        "chained",
    )

    def __init__(self, rid: int, header_addr: int, capacity: int):
        self.rid = rid
        self.header_addr = header_addr
        self.capacity = capacity
        #: (data_line, entry_addr) in fill order
        self.entries: List[Tuple[int, int]] = []
        self.confirmed: set = set()
        #: slots whose line had an *uncommitted* previous writer (their
        #: durable header words carry :data:`CHAIN_BIT`)
        self.chained: set = set()

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def entry_addr(self, slot: int) -> int:
        return self.header_addr + (1 + slot) * CACHE_LINE_BYTES

    def add_entry(self, data_line: int, chained: bool = False) -> Tuple[int, int]:
        """Reserve the next entry slot for ``data_line``.

        ``chained`` marks the entry as mid-chain (the line's previous
        writer was uncommitted); its durable header word carries
        :data:`CHAIN_BIT`. Returns ``(slot_index, entry_addr)``.
        """
        if self.full:
            raise SimulationError("appending to a full log record")
        slot = len(self.entries)
        addr = self.entry_addr(slot)
        self.entries.append((data_line, addr))
        if chained:
            self.chained.add(slot)
        return slot, addr

    def confirm(self, slot: int) -> None:
        """Mark entry ``slot``'s LPO as accepted by a WPQ."""
        self.confirmed.add(slot)

    def header_word_addr(self, slot: int) -> int:
        """PM address of the header word naming entry ``slot``."""
        return self.header_addr + (1 + slot) * WORD_BYTES

    def slot_word(self, slot: int) -> int:
        """The durable header word for entry ``slot`` (address + flags)."""
        return encode_slot_word(self.entries[slot][0], slot in self.chained)

    def entry_payload(self, slot: int, old_line: Tuple[int, ...]) -> tuple:
        """The LPO payload for entry ``slot``: the logged ``old_line`` at the
        entry, plus the header words naming the region and the entry. The
        entry becomes visible to recovery exactly when its value is durable
        (Sec. 5.5)."""
        return (
            (self.entry_addr(slot), old_line),
            (self.header_addr, (self.rid,)),
            (self.header_word_addr(slot), (self.slot_word(slot),)),
        )

    def header_payload(self) -> tuple:
        """The header cache line as a one-run payload.

        Word 0 is the packed RID; word ``1+i`` is the data-line address of
        confirmed entry ``i`` (low bits carry the :data:`CHAIN_BIT` flag).
        Unconfirmed and unused slots are explicit zeros so that writing
        this header scrubs any stale addresses left in a reused record
        slot. This is what recovery parses.
        """
        confirmed = self.confirmed
        slots = (self.slot_word(i) if i in confirmed else 0 for i in range(self.capacity))
        return ((self.header_addr, (self.rid, *slots)),)


class UndoLog:
    """The circular log buffer of one thread.

    Record slots are managed as a free pool: a commit returns the region's
    slots, begin-to-commit lifetimes bound occupancy exactly like the
    paper's LogHead/LogTail window.
    """

    def __init__(
        self,
        thread_id: int,
        base_addr: int,
        num_records: int,
        entries_per_record: int = 7,
        grow_fn: Optional[Callable[[int], int]] = None,
    ):
        """
        Args:
            base_addr: PM base of the initial buffer segment.
            num_records: record slots in the initial segment.
            grow_fn: called with a byte size on overflow; must return the
                base address of a fresh PM range (the overflow handler).
        """
        if entries_per_record < 1 or entries_per_record > 7:
            raise SimulationError(
                "entries_per_record must be 1..7 (header addresses fit one line)"
            )
        self.thread_id = thread_id
        self.entries_per_record = entries_per_record
        self.record_stride = (1 + entries_per_record) * CACHE_LINE_BYTES
        self._grow_fn = grow_fn
        self.segments: List[Tuple[int, int]] = []
        self._free_slots: Deque[int] = deque()
        self._open: Dict[int, LogRecord] = {}  # rid -> unsealed record
        self._records_of: Dict[int, List[LogRecord]] = {}  # rid -> all records
        self.overflows = 0
        self._add_segment(base_addr, num_records)

    @classmethod
    def allocate(
        cls, thread_id: int, params: AsapParams, alloc: Callable[[int], int]
    ) -> "UndoLog":
        """A thread's log area of ``params.initial_log_entries`` entries,
        in whole records. ``alloc`` allocates PM for it now and again on
        each overflow."""
        per_record = params.log_data_entries_per_record
        num_records = max(1, params.initial_log_entries // per_record)
        base = alloc(num_records * (1 + per_record) * CACHE_LINE_BYTES)
        return cls(thread_id, base, num_records, per_record, grow_fn=alloc)

    # -- space management ----------------------------------------------------

    def _add_segment(self, base_addr: int, num_records: int) -> None:
        if num_records <= 0:
            raise SimulationError("segment must hold at least one record")
        self.segments.append((base_addr, num_records))
        stride = self.record_stride
        self._free_slots.extend(
            range(base_addr, base_addr + num_records * stride, stride)
        )

    def _allocate_slot(self) -> int:
        if not self._free_slots:
            self.overflows += 1
            if self._grow_fn is None:
                raise LogOverflowError(self.thread_id, self.capacity_records)
            grow_records = max(1, self.capacity_records)
            base = self._grow_fn(grow_records * self.record_stride)
            self._add_segment(base, grow_records)
        return self._free_slots.popleft()

    @property
    def capacity_records(self) -> int:
        return sum(n for _, n in self.segments)

    @property
    def free_records(self) -> int:
        return len(self._free_slots)

    @property
    def live_records(self) -> int:
        return self.capacity_records - self.free_records

    # -- appending -----------------------------------------------------------

    def append(self, rid: int, data_line: int, chained: bool = False):
        """Allocate a log entry for ``data_line`` in region ``rid``.

        ``chained`` is forwarded to :meth:`LogRecord.add_entry`.

        Returns:
            ``(slot, entry_addr, record, opened, sealed_record)`` where
            ``slot`` indexes the entry within its record, ``opened`` is True
            when this entry started a fresh record (a new LH-WPQ entry is
            needed) and ``sealed_record`` is the previously open record if
            this append found it full and sealed it (its header must move
            from the LH-WPQ to the WPQ; Sec. 5.5).
        """
        sealed_record = None
        record = self._open.get(rid)
        if record is not None and record.full:
            sealed_record = record
            record = None
        opened = record is None
        if record is None:
            record = LogRecord(rid, self._allocate_slot(), self.entries_per_record)
            self._open[rid] = record
            self._records_of.setdefault(rid, []).append(record)
        slot, entry_addr = record.add_entry(data_line, chained=chained)
        return slot, entry_addr, record, opened, sealed_record

    def open_record(self, rid: int) -> Optional[LogRecord]:
        return self._open.get(rid)

    def records_of(self, rid: int) -> List[LogRecord]:
        return list(self._records_of.get(rid, ()))

    # -- freeing (commit) ------------------------------------------------------

    def free(self, rid: int) -> List[LogRecord]:
        """Release all of ``rid``'s records back to the pool (on commit)."""
        self._open.pop(rid, None)
        records = self._records_of.pop(rid, [])
        for record in records:
            self._free_slots.append(record.header_addr)
        return records
