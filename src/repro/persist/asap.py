"""The ASAP scheme: asynchronous commit with dependence enforcement.

This module wires the hardware structures of Fig. 3 (:mod:`repro.core`)
to the cache hierarchy and memory controllers, implementing:

* ``asap_begin`` / ``asap_end`` for top-level regions; the
  :class:`~repro.persist.base.PersistenceScheme` template flattens nested
  ones (Secs. 4.5, 4.7),
* first-write LPO initiation with the LockBit protocol (Sec. 4.6.1),
* CLPtr tracking and the distance-4 DPO initiation policy (Sec. 4.6.2),
* control- and data-dependence capture (Secs. 4.5, 4.6.3),
* the asynchronous commit state machine of Fig. 4 (Sec. 4.8),
* the three traffic optimizations - LPO dropping, DPO coalescing, DPO
  dropping (Sec. 5.1),
* ``asap_fence`` for synchronous persistence on demand (Sec. 5.2),
* OwnerRID spill/reload across LLC evictions via the DRAM buffer and
  Bloom filter (Sec. 5.3),
* log management with the LH-WPQ (Sec. 5.5),
* the per-line log-persist ordering rule recovery relies on
  (:class:`~repro.persist.base.LineChainGate`; docs/RECOVERY.md).

Everything is continuation-passing: an operation's ``done`` callback fires
when the instruction may retire, so structural stalls (full CL List, full
Dep slots, full LH-WPQ, WPQ backpressure) naturally extend instruction
latency exactly where the paper says they do - and *only* there, because
commits are asynchronous.

With the non-blocking hierarchy (docs/MEMORY.md), ``done`` callbacks may
fire out of issue order *across cores*: core 0's early miss can complete
after core 1's later hit, and MSHR merges complete whole waiter lists in
one cycle. The scheme is agnostic - each thread's own ops still retire
in program order, and nothing here assumes cross-core completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core.bloom import OwnerSpillBuffer
from repro.core.cl_list import CLEntry, CLList, CLSlot
from repro.core.lh_wpq import LogHeaderWPQ
from repro.core.log import LogRecord
from repro.core.rid import thread_id_of
from repro.core.states import RegionState
from repro.mem.image import MemoryImage
from repro.mem.tagstore import LineMeta
from repro.mem.wpq import LPO, PersistOp
from repro.persist.async_commit import AsyncCommitScheme, AsyncThread
from repro.persist.base import LineChainGate


@dataclass
class AsapStats:
    """Scheme-level counters (cross-checked by the test suite)."""

    regions_begun: int = 0
    regions_ended: int = 0
    commits: int = 0
    lpos_initiated: int = 0
    dpos_initiated: int = 0
    dpos_reinitiated: int = 0
    lpo_drops: int = 0
    dpo_drops: int = 0
    loghdr_writes: int = 0
    dep_captures: int = 0
    stale_owner_lookups: int = 0
    fence_waits: int = 0
    #: LPOs held at the memory controller until an earlier uncommitted
    #: writer's log entry for the same line became durable (the per-line
    #: chain-ordering rule; docs/RECOVERY.md)
    lpo_order_delays: int = 0


class AsapScheme(AsyncCommitScheme):
    """The full ASAP mechanism for one machine."""

    name = "asap"

    #: the paper's full asynchronous-persistence ordering machinery
    ORDERING_EDGES = frozenset(
        {"wpq-fifo", "line-chain", "lockbit-gate", "dep-commit-gate"}
    )

    RECOVERY = "undo"

    OBSERVED = (
        "region_begun", "region_ended", "dep_captured", "slot_opened",
        "lpo_initiated", "lpo_deferred", "lpo_chained", "lpo_logged",
        "dpo_initiated", "log_freed",
    )

    def __init__(self):
        super().__init__()
        self.stats = AsapStats()

    def attach(self, machine) -> None:
        """Build the CL Lists, LH-WPQs and spill buffer, and hook LLC
        evictions and PM reloads (Sec. 5.3)."""
        super().attach(machine)
        config = machine.config
        params = self.params = config.asap
        scheduler = self.scheduler = machine.scheduler
        self.memory = machine.memory
        self.hierarchy = machine.hierarchy
        self.volatile = machine.volatile

        self.cl_lists: List[CLList] = [
            CLList(core, scheduler, params.cl_list_entries, params.clptr_slots)
            for core in range(config.num_cores)
        ]
        num_channels = config.memory.num_channels
        self.lh_wpqs: List[LogHeaderWPQ] = [
            LogHeaderWPQ(f"lh-wpq[{ch}]", scheduler, params.lh_wpq_entries)
            for ch in range(num_channels)
        ]
        self.spill = OwnerSpillBuffer(
            num_channels, params.bloom_filter_bits, params.bloom_hashes
        )
        #: per-line LPO ordering at acceptance granularity. Submission
        #: order equals dependence-chain order (first writes take ownership
        #: under dependence capture), so releasing held LPOs oldest-first
        #: persists each line's log entries chain-oldest-first. A held LPO
        #: keeps its line's LockBit, so its region's DPO, and hence its
        #: commit, stays behind it.
        self.lpo_gate = LineChainGate(machine.memory, ride_same_channel=True)
        #: line -> {entry rid: (core, entry seq, entry, slot)} for every
        #: live CLPtr slot tracking that line, so
        #: ``_try_issue_dpos_for_line`` avoids scanning every core's CL
        #: List. Sorting by (core, entry seq) replays the "cores ascending,
        #: entries in insertion order" scan order exactly (see
        #: :mod:`repro.core.cl_list`).
        self._slots_by_line: Dict[int, Dict[int, tuple]] = {}
        self._dpo_distance = params.dpo_distance

        machine.hierarchy.evict_hook = self._on_llc_evict
        machine.hierarchy.reload_hook = self._on_pm_reload

    # ------------------------------------------------------------------
    # structure lookups
    # ------------------------------------------------------------------

    def lh_wpq_for(self, header_addr: int) -> LogHeaderWPQ:
        return self.lh_wpqs[(header_addr >> 6) % len(self.lh_wpqs)]

    def uncommitted_count(self) -> int:
        return sum(len(dl) for dl in self.dep_lists)

    def wait_queues(self) -> list:
        cl = [
            (f"CL List[{c.core_id}] {kind}", queue)
            for c in self.cl_lists
            for kind, queue in (("entry", c.entry_waiters), ("slot", c.slot_waiters))
        ]
        lh = [(f"LH-WPQ[{ch}]", lh.waiters) for ch, lh in enumerate(self.lh_wpqs)]
        return cl + super().wait_queues() + lh

    def stall_counts(self) -> Dict[str, int]:
        return {
            "cl_entry": sum(cl.entry_stalls for cl in self.cl_lists),
            "cl_slot": sum(cl.slot_stalls for cl in self.cl_lists),
            "dep_entry": sum(dl.entry_stalls for dl in self.dep_lists),
            "dep_slot": sum(dl.dep_stalls for dl in self.dep_lists),
            "lh_wpq": sum(lh.stalls for lh in self.lh_wpqs),
        }

    # ------------------------------------------------------------------
    # asap_begin
    # ------------------------------------------------------------------

    def begin_region(self, thread: AsyncThread, done: Callable[[], None]) -> None:
        cl = self.cl_lists[thread.core_id]
        if cl.full:
            cl.entry_stalls += 1
            cl.entry_waiters.park(lambda: self.begin_region(thread, done))
            return
        if not self._open_region(thread, lambda: self.begin_region(thread, done)):
            return
        rid = thread.rid
        cl.open_entry(rid)
        self.stats.regions_begun += 1
        if self.observer is not None:
            self.observer.region_begun(self, thread, rid)
        done()

    # ------------------------------------------------------------------
    # asap_end
    # ------------------------------------------------------------------

    def end_region(self, thread: AsyncThread, done: Callable[[], None]) -> None:
        rid = thread.rid
        self.stats.regions_ended += 1
        if self.observer is not None:
            self.observer.region_ended(self, thread, rid)
        entry = self.cl_lists[thread.core_id].entry(rid)
        if entry is None:
            raise SimulationError(f"missing CL entry for {rid} at asap_end")
        entry.state = RegionState.DONE  # Fig. 4 transition (2)
        self._coalescing_scan(entry, thread)  # Done: drains every slot
        if entry.drained:
            self._finish_at_l1(entry, thread)
        # Asynchronous commit: execution proceeds immediately.
        done()

    # ------------------------------------------------------------------
    # memory accesses
    # ------------------------------------------------------------------

    def write(
        self,
        thread: AsyncThread,
        addr: int,
        values,
        done: Callable[[], None],
    ) -> None:
        """A store by ``thread``; ``values`` are the words to write.

        The functional write applies immediately; persistence machinery may
        delay retirement (``done``) on structural stalls only. A region
        write to a line another region owns first captures the dependence
        (:meth:`_capture_dependence`); every region write is then tracked
        by :meth:`_track_write`.
        """
        line = addr & ~63
        hierarchy = self.hierarchy
        rid = thread.rid if thread.nest_depth else None
        if rid is None or not hierarchy.is_persistent(line):
            self.volatile.write_range(addr, values)
            hierarchy.access(thread.core_id, addr, True, lambda meta: done())
            return
        old_snapshot = self.volatile.line(line)
        self.volatile.write_range(addr, values)

        def after_access(meta: LineMeta) -> None:
            owner = meta.owner_rid
            if owner is None or owner == rid:
                self._track_write(thread, rid, meta, old_snapshot, done)
            else:
                self._capture_dependence(
                    rid, meta, lambda: self._track_write(thread, rid, meta, old_snapshot, done)
                )

        hierarchy.access(thread.core_id, addr, True, after_access)

    def read(
        self,
        thread: AsyncThread,
        addr: int,
        nwords: int,
        done: Callable[[list], None],
    ) -> None:
        """A load by ``thread``; ``done`` receives the word values."""
        hierarchy = self.hierarchy
        pm = hierarchy.is_persistent(addr & ~63)
        rid = thread.rid if thread.nest_depth else None
        volatile = self.volatile

        def after_access(meta: LineMeta) -> None:
            if pm and rid is not None:
                owner = meta.owner_rid
                if owner is not None and owner != rid:
                    # Sec. 4.6.3: reads also capture data dependences.
                    self._capture_dependence(
                        rid, meta, lambda: done(volatile.read_words(addr, nwords))
                    )
                    return
            done(volatile.read_words(addr, nwords))

        hierarchy.access(thread.core_id, addr, False, after_access)

    # -- the region-write pipeline ----------------------------------------

    def _stale_owner(self, meta: LineMeta) -> None:
        self.stats.stale_owner_lookups += 1
        super()._stale_owner(meta)
        self.spill.discard(meta.line)

    def _dep_captured(self, rid: int, owner: int) -> None:
        self.stats.dep_captures += 1
        super()._dep_captured(rid, owner)

    def _track_write(
        self,
        thread: AsyncThread,
        rid: int,
        meta: LineMeta,
        old_snapshot: tuple,
        done: Callable[[], None],
    ) -> None:
        """Sec. 4.6.2: track the written line in a CLPtr slot, stalling
        while every slot is taken; on the region's first write to the line,
        lock it and log the old value (Sec. 4.6.1)."""
        cl = self.cl_lists[thread.core_id]
        entry = cl.entry(rid)
        if entry is None:
            raise SimulationError(f"no CL entry for active region {rid}")
        line = meta.line
        slot = entry.slots.get(line)
        if slot is None:
            if entry.slots_full:
                cl.slot_stalls += 1
                # Waive the coalescing distance while stalled: a pending
                # DPO must drain to free a slot (Sec. 4.6.2).
                entry.pressure = True
                self._coalescing_scan(entry, thread)
                cl.slot_waiters.park(
                    lambda: self._track_write(thread, rid, meta, old_snapshot, done)
                )
                return
            slot = self._open_slot(thread, entry, line)
        # Per-write bookkeeping (drives coalescing and DPO staleness).
        entry.write_counter += 1
        slot.last_write_stamp = entry.write_counter
        slot.data_version += 1
        slot.pending = True
        slot.eager_backlog += 1

        def finish() -> None:
            self._coalescing_scan(entry, thread)
            done()

        if meta.owner_rid != rid:  # the region's first write to the line
            self._initiate_lpo(thread, rid, meta, old_snapshot, finish)
        else:
            finish()

    def _open_slot(self, thread: AsyncThread, entry: CLEntry, line: int) -> CLSlot:
        """Track ``line`` in a free CLPtr slot (the caller checked one is
        free) and index it for :meth:`_try_issue_dpos_for_line`."""
        entry.pressure = False
        slot = entry.add_slot(line)
        self._slots_by_line.setdefault(line, {})[entry.rid] = (
            thread.core_id,
            entry.seq,
            entry,
            slot,
        )
        if self.observer is not None:
            self.observer.slot_opened(self, entry, line)
        return slot

    # -- LPO path -----------------------------------------------------------

    def _initiate_lpo(
        self,
        thread: AsyncThread,
        rid: int,
        meta: LineMeta,
        old_snapshot: tuple,
        then: Callable[[], None],
    ) -> None:
        """Sec. 4.6.1: lock the line, take ownership, log the old value."""
        # Chain detection must read the owner *before* this region takes
        # ownership: an uncommitted previous writer means this log entry's
        # "old value" is that writer's never-yet-durable data, so the entry
        # is mid-chain - it carries CHAIN_BIT in the durable header and its
        # LPO is ordered behind the predecessor's (the per-line rule).
        prev_owner = meta.owner_rid
        chained = (
            prev_owner is not None
            and prev_owner != rid
            and self.dep_list_for(prev_owner).contains(prev_owner)
        )
        if chained and self.observer is not None:
            self.observer.lpo_chained(self, rid, meta.line, prev_owner)
        meta.lock_count += 1
        meta.owner_rid = rid
        line = meta.line
        slot_idx, entry_addr, record, opened, sealed = thread.log.append(
            rid, line, chained=chained
        )
        if sealed is not None:
            self._seal_record(sealed, rid)

        def issue() -> None:
            # The logged value travels to the WPQ together with the header
            # word that names it (Sec. 5.5: "ASAP sends the logged value to
            # the WPQ and the address to the LH-WPQ"): the entry becomes
            # visible to recovery exactly when its value is durable.
            payload = record.entry_payload(slot_idx, old_snapshot)

            def accepted(op: PersistOp) -> None:
                record.confirm(slot_idx)
                if self.observer is not None:
                    self.observer.lpo_logged(self, rid, line)
                self._lpo_accepted(op, thread)
                self.lpo_gate.advance(line)

            op = PersistOp(LPO, entry_addr, line, payload, rid, accepted)
            self.stats.lpos_initiated += 1
            if self.observer is not None:
                self.observer.lpo_initiated(self, rid, line, entry_addr)
            if self.lpo_gate.submit(op, line):
                self.stats.lpo_order_delays += 1
                if self.observer is not None:
                    self.observer.lpo_deferred(self, rid, line)
            # Instruction execution proceeds while the LPO is in flight.
            then()

        if opened:
            # A fresh record needs an LH-WPQ entry; a full LH-WPQ stalls the
            # first write of the record (Sec. 7.4's sensitivity lever).
            self.lh_wpq_for(record.header_addr).acquire(record, issue)
        else:
            issue()

    def _seal_record(self, record: LogRecord, rid: int) -> None:
        """A filled record's header moves from the LH-WPQ to the WPQ."""
        self.lh_wpq_for(record.header_addr).release(record.header_addr)
        self._write_header(record, rid)

    def _write_header(self, record: LogRecord, rid: int) -> None:
        # Lazy payload: the set of confirmed entries may still grow while
        # this header write sits in the queue; the durable header must never
        # zero out a word naming an already-accepted LPO.
        self.stats.loghdr_writes += 1
        self._persist_header(record, rid, record.header_payload)

    def _lpo_accepted(self, op: PersistOp, thread: AsyncThread) -> None:
        """The WPQ accepted an LPO: unlock the line, run DPO dropping."""
        line = op.data_line
        meta = self.hierarchy.tags.get(line)
        if meta is not None and meta.lock_count > 0:
            meta.lock_count -= 1
        if self.params.dpo_dropping:
            # Sec. 5.1: a queued DPO for the same line holds the same bytes
            # this LPO just logged; it need not reach PM.
            dropped = self.memory.channel_for_line(line).wpq.drop_data_ops_for_line(
                line, exclude_op_id=op.op_id
            )
            self.stats.dpo_drops += dropped
        # Slots may have been waiting on the LockBit to issue their DPOs -
        # including slots of *earlier* regions that wrote the same line
        # before this op's region took ownership.
        self._try_issue_dpos_for_line(line)

    def _try_issue_dpos_for_line(self, line: int) -> None:
        bucket = self._slots_by_line.get(line)
        if not bucket:
            return
        for core, seq, entry, slot in sorted(bucket.values()):
            if self._dpo_ready(entry, slot):
                thread = self.threads.get(thread_id_of(entry.rid))
                if thread is not None:
                    self._initiate_dpo(entry, slot, thread)

    # -- DPO path -----------------------------------------------------------

    def _dpo_ready(self, entry: CLEntry, slot: CLSlot) -> bool:
        """The Sec. 4.6.2 initiation policy for one slot.

        Without coalescing (the Fig. 9a ``No-Opt`` ablation) a DPO is
        initiated for every write, even while an earlier DPO for the same
        line is still in flight - that redundancy is exactly what the
        distance-4 policy exists to remove. The tests are pure reads, so
        the cheap ones run first and the tag lookup last.
        """
        if not slot.pending:
            return False
        if self.params.dpo_coalescing:
            if slot.dpo_inflight:
                return False
            # A Done region drains every slot, and so does one with a write
            # stalled on a slot; otherwise wait out the coalescing distance.
            if not (entry.state is RegionState.DONE or entry.pressure) and (
                entry.write_counter - slot.last_write_stamp < self._dpo_distance
            ):
                return False
        meta = self.hierarchy.tags.get(slot.line)
        return meta is None or not meta.lock_bit  # else its LPO is in flight

    def _coalescing_scan(self, entry: CLEntry, thread: AsyncThread) -> None:
        """Initiate a DPO for every slot :meth:`_dpo_ready` accepts (at
        ``asap_end``, when the entry is Done, that is every slot whose LPO
        has completed). Initiating a DPO only schedules its submission, so
        the slot dict cannot change under the loop."""
        for slot in entry.slots.values():
            if self._dpo_ready(entry, slot):
                self._initiate_dpo(entry, slot, thread)

    def _initiate_dpo(self, entry: CLEntry, slot: CLSlot, thread: AsyncThread) -> None:
        line = slot.line
        rid = entry.rid
        if not self.params.dpo_coalescing:
            # No-Opt ablation: one DPO per write. All but the newest are
            # redundant same-data writebacks; only the newest clears the
            # slot, so they carry no completion callback.
            for _ in range(slot.eager_backlog - 1):
                self.stats.dpos_initiated += 1
                self._persist_line(line, rid)
        slot.eager_backlog = 0
        accepted = self._claim_slot(entry, slot, thread)
        self.stats.dpos_initiated += 1
        if self.observer is not None:
            self.observer.dpo_initiated(self, rid, line)
        self._persist_line(line, rid, accepted)

    def _claim_slot(
        self, entry: CLEntry, slot: CLSlot, thread: AsyncThread
    ) -> Callable[[PersistOp], None]:
        """A persist now carries ``slot``'s data: mark it in flight and
        return the op's acceptance callback, which clears the slot unless
        the line was rewritten meanwhile."""
        version = slot.data_version
        slot.dpo_inflight = True
        slot.pending = False
        return lambda op: self._dpo_accepted(entry, slot, version, thread)

    def _dpo_accepted(
        self, entry: CLEntry, slot: CLSlot, version: int, thread: AsyncThread
    ) -> None:
        slot.dpo_inflight = False
        if slot.data_version != version:
            # The line was rewritten while the DPO was in flight; its data
            # is stale for slot-clearing purposes. Issue a fresh one.
            self.stats.dpos_reinitiated += 1
            self._retry_dpo(entry, slot, thread)
            return
        self._clear_slot(entry, slot, thread)

    def _retry_dpo(self, entry: CLEntry, slot: CLSlot, thread: AsyncThread) -> None:
        """Re-issue a DPO once the slot is ready; polls on the rare path
        where the line is transiently locked by a successor region's LPO."""
        if (
            entry.slot_for(slot.line) is not slot
            or slot.dpo_inflight
            or not slot.pending
        ):
            return  # the slot cleared, or a DPO already carries its data
        if self._dpo_ready(entry, slot):
            self._initiate_dpo(entry, slot, thread)
        else:
            self.scheduler.after(50, lambda: self._retry_dpo(entry, slot, thread))

    def _clear_slot(self, entry: CLEntry, slot: CLSlot, thread: AsyncThread) -> None:
        entry.clear_slot(slot.line)
        bucket = self._slots_by_line.get(slot.line)
        if bucket is not None:
            bucket.pop(entry.rid, None)
            if not bucket:
                del self._slots_by_line[slot.line]
        cl = self.cl_lists[thread.core_id]
        cl.slot_waiters.wake_one()
        if entry.state is RegionState.DONE and entry.drained:
            self._finish_at_l1(entry, thread)

    # -- commit machinery -----------------------------------------------------

    def _finish_at_l1(self, entry: CLEntry, thread: AsyncThread) -> None:
        """Fig. 4 transition (3): all DPOs complete, no more writes."""
        rid = entry.rid
        if self.cl_lists[thread.core_id].entry(rid) is not entry:
            return  # already finished (duplicate completion)
        self.cl_lists[thread.core_id].remove_entry(rid)
        dl = self.dep_list_for(rid)
        dep_entry = dl.entry(rid)
        if dep_entry is None:
            raise SimulationError(f"region {rid} lost its Dependence entry")
        dep_entry.state = RegionState.DONE
        if dep_entry.committable:
            self._commit(rid)

    def _commit(self, rid: int) -> None:
        """Fig. 4 transition (4): free the log, clear the entry, broadcast."""
        thread = self.threads[thread_id_of(rid)]
        self.commits.fire(rid)
        dl = self.dep_list_for(rid)
        dl.remove_entry(rid)
        open_record = thread.log.open_record(rid)
        records = thread.log.free(rid)
        if self.observer is not None:
            self.observer.log_freed(self, rid, records)
        for lh in self.lh_wpqs:
            lh.release_region(rid)
        if self.params.lpo_dropping:
            # Sec. 5.1: log writes of a committed region still queued in a
            # WPQ need not reach PM.
            dropped = self.memory.drop_log_ops_for_rid(rid)
            self.stats.lpo_drops += dropped
        elif open_record is not None and open_record.entries:
            # Without LPO dropping the final partial record's header is
            # written out like any sealed record's.
            self._write_header(open_record, rid)
        self.stats.commits += 1
        self._release_dependents(rid, self._commit_if_still_ready)
        signal = thread.commit_signals.pop(rid, None)
        if signal is not None:
            signal.fire()
        if self.uncommitted_count() == 0:
            # Safe point to clear the Bloom filters (Sec. 5.3).
            for ch in range(len(self.dep_lists)):
                self.spill.clear_channel(ch)

    def _commit_if_still_ready(self, rid: int) -> None:
        entry = self.dep_list_for(rid).entry(rid)
        if entry is not None and entry.committable:
            self._commit(rid)

    # ------------------------------------------------------------------
    # asap_fence (Sec. 5.2)
    # ------------------------------------------------------------------

    def fence(self, thread: AsyncThread, done: Callable[[], None]) -> None:
        if thread.rid in thread.commit_signals:
            self.stats.fence_waits += 1
        super().fence(thread, done)

    # ------------------------------------------------------------------
    # context switching (Sec. 5.7)
    # ------------------------------------------------------------------

    def migrate(self, thread: AsyncThread, new_core: int, done: Callable[[], None]) -> None:
        """Migrate ``thread`` to ``new_core``.

        The suspended thread's CL List entries must be *cleared* first -
        their remaining CLPtr persist operations complete on the old core -
        so the thread can safely resume on a different core (whose CL List
        knows nothing of the old entries). An In-Progress region simply
        continues afterwards: its Dependence List entry lives at the
        memory controller and is core-agnostic.
        """
        if thread.nest_depth > 0:
            raise SimulationError(
                "context switch inside an atomic region is not modelled; "
                "switch between regions (the paper suspends at quantum "
                "boundaries, completing outstanding persist operations)"
            )
        old_cl = self.cl_lists[thread.core_id]

        def try_drain() -> None:
            # Wait until every CL entry of this thread's regions cleared
            # (all their DPOs complete); they cannot gain new slots since
            # no region is active.
            mine = [
                e for e in old_cl.entries() if thread_id_of(e.rid) == thread.thread_id
            ]
            if mine:
                for entry in mine:
                    self._coalescing_scan(entry, thread)
                self.scheduler.after(25, try_drain)
                return
            thread.core_id = new_core
            done()

        try_drain()

    # ------------------------------------------------------------------
    # crash support (Sec. 5.5)
    # ------------------------------------------------------------------

    def crash_flush(self, image: MemoryImage) -> None:
        """Flush the LH-WPQs into ``image`` (the ADR crash path)."""
        for lh in self.lh_wpqs:
            lh.flush_to_pm(image)

    # ------------------------------------------------------------------
    # LLC eviction hooks (Sec. 5.3)
    # ------------------------------------------------------------------

    def _on_llc_evict(self, meta: LineMeta, wb_op: Optional[PersistOp]) -> None:
        if meta.lock_bit:
            raise SimulationError(
                f"locked line {meta.line:#x} evicted (LPO in flight)"
            )
        owner = meta.owner_rid
        owner_active = owner is not None and self.dep_list_for(owner).contains(owner)
        if owner_active:
            self.spill.spill(meta.line, owner)
            # If the owner still tracks this line in a CLPtr slot, the
            # eviction writeback doubles as the slot's data persist.
            thread = self.threads.get(thread_id_of(owner))
            if thread is not None:
                entry = self.cl_lists[thread.core_id].entry(owner)
                if entry is not None:
                    slot = entry.slot_for(meta.line)
                    if slot is not None and wb_op is not None and not slot.dpo_inflight:
                        wb_op.on_complete = self._claim_slot(entry, slot, thread)

    def _on_pm_reload(self, line: int):
        """LLC miss on a persistent line: recover a spilled OwnerRID."""
        owner, extra = self.spill.lookup(line)
        if owner is None:
            return None, extra
        if not self.dep_list_for(owner).contains(owner):
            # Owner committed while the line was in memory: discard.
            self.spill.discard(line)
            return None, extra
        return owner, extra
