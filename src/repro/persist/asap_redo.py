"""ASAP-Redo: asynchronous commit applied to redo logging (Fig. 2c).

The paper builds ASAP on undo logging but states that "the principles
underlying our design can also by applied to enable asynchronous commit
for redo logging" and sketches the required rule in Fig. 2c: *the later
region's in-place updates (DPOs) are delayed until the earlier region's
log persists (LPOs complete)*. This module is that design, as an
extension beyond the paper's evaluated system:

* writes log their **new** values (redo LPOs), asynchronously; a line
  rewritten after its LPO is re-logged with its final value at region end;
* ``asap_end`` retires immediately - asynchronous commit;
* control and data dependencies are tracked exactly as in undo-ASAP
  (OwnerRID tags + per-channel Dependence Lists);
* a region becomes durable ("commits") once all its LPOs are in the
  persistence domain **and** every region it depends on has committed;
  a durable **commit marker** ``[rid, commit_seq]`` is then persisted -
  redo recovery replays only marked regions, in marker order;
* in-place updates happen lazily after the marker persists (off the
  critical path); the log is reclaimed once they are in the persistence
  domain;
* uncommitted data never reaches its home address: eviction writebacks of
  lines owned by uncommitted regions are suppressed (the log already
  holds the data), and recovery simply ignores unmarked regions.

Simplifications vs a full hardware proposal (documented, not hidden): the
commit-sequence counter is global (one extra broadcast at commit), and
log-record headers piggyback on LPO payloads instead of a dedicated
LH-WPQ (the undo scheme models that structure already).

The per-line log-persist ordering rule of the undo schemes
(``"line-chain"``; docs/RECOVERY.md) is **not applicable** here and is
deliberately not wired in: redo recovery replays only regions whose
commit marker persisted, and a marker is issued only after every LPO of
the region has been *accepted* and every dependency has committed - so a replayed entry's logged (new) value is durable by
construction, and unmarked regions' entries are ignored no matter in
what order they persisted. There is no cross-region undo chain to keep
complete.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.common.address import line_base
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES
from repro.core.log import UndoLog
from repro.core.rid import local_rid_of, thread_id_of
from repro.core.states import RegionState
from repro.mem.wpq import DPO, LOGHDR, LPO, PersistOp
from repro.persist.async_commit import AsyncCommitScheme, AsyncThread
from repro.persist.base import READ_REDIRECT_PENALTY, REDO_DPO_DELAY

#: marker slots per thread (circular; reuse is safe because markers of
#: freed logs are no-ops at recovery)
_MARKER_SLOTS = 64

#: persist-op kind for commit markers (counted as log-header traffic)
MARKER = LOGHDR


class _RedoRegion:
    """Commit-tracking state of one in-flight region."""

    __slots__ = (
        "rid",
        "state",
        "outstanding_lpos",
        "lines",
        "rewritten",
        "values",
        "committing",
    )

    def __init__(self, rid: int):
        self.rid = rid
        self.state = RegionState.IN_PROGRESS
        self.outstanding_lpos = 0
        self.lines: Set[int] = set()
        self.rewritten: Set[int] = set()
        #: True once the commit marker has been issued; the region stays in
        #: its Dependence List until the marker is durably accepted
        self.committing = False
        #: line -> the in-place update's payload, the region's own logged
        #: line; it must install *these* words, never the current cache line,
        #: which may hold a later uncommitted region's data (redo's no-force
        #: rule)
        self.values: Dict[int, Optional[tuple]] = {}


class _RedoThread(AsyncThread):
    def __init__(self, thread_id: int, core_id: int, log: UndoLog):
        super().__init__(thread_id, core_id, log)
        #: PM base of the thread's commit-marker slots
        self.marker_base = 0
        self.active: Optional[_RedoRegion] = None


class AsapRedoLogging(AsyncCommitScheme):
    """Asynchronous-commit redo logging (the Fig. 2c extension)."""

    name = "asap_redo"

    #: redo variant: marker gating replaces LockBit log-before-data (no
    #: in-place writes before commit) and the per-line chain rule
    ORDERING_EDGES = frozenset({"wpq-fifo", "marker-gate", "dep-commit-gate"})

    RECOVERY = "redo"

    OBSERVED = (
        "region_begun", "region_ended", "dep_captured", "lpo_initiated",
        "lpo_logged", "dpo_initiated", "marker_issued", "marker_accepted",
    )

    THREAD = _RedoThread

    def __init__(self):
        super().__init__()
        self.regions: Dict[int, _RedoRegion] = {}
        self._commit_seq = 0
        self._last_writer: Dict[int, int] = {}
        self.reads_redirected = 0

    # -- lifecycle -------------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        machine.hierarchy.evict_hook = self._on_evict
        machine.hierarchy.reload_hook = None

    def register_thread(self, thread_id: int, core_id: int) -> _RedoThread:
        thread = super().register_thread(thread_id, core_id)
        thread.marker_base = self.machine.heap.alloc(_MARKER_SLOTS * CACHE_LINE_BYTES)
        return thread

    # -- regions -----------------------------------------------------------------

    def begin_region(self, thread: _RedoThread, done: Callable[[], None]) -> None:
        if not self._open_region(thread, lambda: self.begin_region(thread, done)):
            return
        rid = thread.rid
        region = _RedoRegion(rid)
        self.regions[rid] = region
        thread.active = region
        if self.observer is not None:
            self.observer.region_begun(self, thread, rid)
        done()

    def end_region(self, thread: _RedoThread, done: Callable[[], None]) -> None:
        region = thread.active
        if region is None:
            raise SimulationError("no active region at asap_end")
        thread.active = None
        # Final-value re-logs for rewritten lines, still asynchronous.
        for line in sorted(region.rewritten):
            self._issue_lpo(thread, region, line)
        region.rewritten.clear()
        region.state = RegionState.DONE
        if self.observer is not None:
            self.observer.region_ended(self, thread, region.rid)
        self._try_commit(region.rid)
        done()  # asynchronous commit: retire immediately

    # -- commit machinery -----------------------------------------------------------

    def _try_commit(self, rid: int) -> None:
        region = self.regions[rid]
        if region.state is not RegionState.DONE or region.outstanding_lpos > 0:
            return
        if region.committing:
            return  # marker already in flight
        entry = self.dep_list_for(rid).entry(rid)
        if entry is None:
            return  # already committed
        entry.state = RegionState.DONE
        if entry.deps:
            return  # Fig. 2c: wait for earlier regions' logs to persist
        self._commit(region, self.threads[thread_id_of(rid)])

    def _commit(self, region: _RedoRegion, thread: _RedoThread) -> None:
        rid = region.rid
        # The Dependence List entry stays until the marker is *accepted*:
        # the region is not committed while its marker can still be lost.
        # Removing it here (the pre-fix behaviour) opened a window in which
        # a successor region - same thread via CurRID, or another thread
        # via an OwnerRID lookup - saw the region as already committed,
        # skipped the dependence, and raced its own marker into a WPQ ahead
        # of this one: commits (and hence the recovery replay order and the
        # no-crash durable image) came out of dependence order.
        region.committing = True
        self._commit_seq += 1
        seq = self._commit_seq
        marker_addr = thread.marker_base + (
            (local_rid_of(rid) % _MARKER_SLOTS) * CACHE_LINE_BYTES
        )

        def marker_accepted(op) -> None:
            # Durable: recovery will replay this region from its log.
            if self.observer is not None:
                self.observer.marker_accepted(self, rid, seq, op)
            self.dep_list_for(rid).remove_entry(rid)
            self.commits.fire(rid)
            signal = thread.commit_signals.pop(rid, None)
            if signal is not None:
                signal.fire()
            # Only now may dependents commit: broadcasting earlier would
            # let a dependent's marker persist while this one is still in
            # flight - the Fig. 2a ordering violation all over again.
            self._release_dependents(rid, self._try_commit)
            # Lazy in-place updates, then log reclamation.
            self.machine.scheduler.after(
                REDO_DPO_DELAY,
                lambda: self._issue_post_commit_dpos(region, thread),
            )

        marker_op = PersistOp(
            MARKER, marker_addr, marker_addr, ((marker_addr, (rid, seq)),),
            rid, marker_accepted,
        )
        if self.observer is not None:
            self.observer.marker_issued(self, rid, seq, marker_op)
        self.machine.memory.issue_persist(marker_op)

    def _issue_post_commit_dpos(self, region: _RedoRegion, thread: _RedoThread) -> None:
        pending = {"n": 1}

        def one_done(_op=None) -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                # Every surviving byte of this region is now in the
                # persistence domain in place (or covered by a *committed*
                # successor's log); the log may be reclaimed and its slots
                # reused.
                thread.log.free(region.rid)
                self.regions.pop(region.rid, None)

        for line in sorted(region.lines):
            writer = self._last_writer.get(line)
            if writer != region.rid and not self.dep_list_for(writer).contains(writer):
                # A *committed* later region re-logged this line: its log
                # (and replay order via commit_seq) covers it.
                continue
            payload = region.values[line]
            meta = self.machine.hierarchy.tags.get(line)
            if meta is not None and self._last_writer.get(line) == region.rid:
                meta.dirty = False
            pending["n"] += 1
            if self.observer is not None:
                self.observer.dpo_initiated(self, region.rid, line)
            self.machine.memory.issue_persist(
                PersistOp(DPO, line, line, payload, region.rid, one_done)
            )
        one_done()

    # -- accesses --------------------------------------------------------------------

    def write(self, thread: _RedoThread, addr: int, values, done: Callable[[], None]) -> None:
        line = line_base(addr)
        pm = self.machine.page_table.is_persistent(addr)
        region = thread.active
        self.machine.volatile.write_range(addr, values)

        def after_access(meta) -> None:
            if not pm or region is None:
                done()
                return

            def after_dep() -> None:
                meta.owner_rid = region.rid
                if line not in region.lines:
                    region.lines.add(line)
                    self._issue_lpo(thread, region, line)
                else:
                    region.rewritten.add(line)
                done()

            self._capture_dependence(region.rid, meta, after_dep)

        self.machine.hierarchy.access(thread.core_id, addr, True, after_access)

    def read(self, thread: _RedoThread, addr: int, nwords: int, done: Callable[[list], None]) -> None:
        line = line_base(addr)
        region = thread.active
        redirect = region is not None and line in region.lines

        def after_access(meta) -> None:
            def deliver() -> None:
                values = self.machine.volatile.read_words(addr, nwords)
                if redirect:
                    # reads of modified data are redirected to the log
                    # (Sec. 2.3)
                    self.reads_redirected += 1
                    self.machine.scheduler.after(
                        READ_REDIRECT_PENALTY, lambda: done(values)
                    )
                else:
                    done(values)

            if region is not None and self.machine.page_table.is_persistent(addr):
                self._capture_dependence(region.rid, meta, deliver)
            else:
                deliver()

        self.machine.hierarchy.access(thread.core_id, addr, False, after_access)

    def _issue_lpo(self, thread: _RedoThread, region: _RedoRegion, line: int) -> None:
        slot, entry_addr, record, _opened, sealed = thread.log.append(region.rid, line)
        if sealed is not None:
            self._persist_header(sealed, region.rid, sealed.header_payload)
        logged = self.machine.volatile.line(line)
        region.values[line] = ((line, logged),)
        payload = record.entry_payload(slot, logged)
        region.outstanding_lpos += 1
        self._last_writer[line] = region.rid
        if self.observer is not None:
            self.observer.lpo_initiated(self, region.rid, line, entry_addr)

        def accepted(_op) -> None:
            record.confirm(slot)
            region.outstanding_lpos -= 1
            if self.observer is not None:
                self.observer.lpo_logged(self, region.rid, line)
            self._try_commit(region.rid)

        self.machine.memory.issue_persist(
            PersistOp(LPO, entry_addr, line, payload, region.rid, accepted)
        )

    # -- eviction (redo's no-force rule) ------------------------------------------------

    def _on_evict(self, meta, wb_op: Optional[PersistOp]) -> None:
        owner = meta.owner_rid
        if owner is None or wb_op is None:
            return
        if self.dep_list_for(owner).contains(owner):
            # Uncommitted data must not reach its home address; its bytes
            # are already safe in the redo log.
            wb_op.dropped = True

    # -- recovery ----------------------------------------------------------------

    def marker_directory(self) -> Dict[int, List[tuple]]:
        """thread id -> [(marker base, slots, stride)] for recovery."""
        return {
            tid: [(t.marker_base, _MARKER_SLOTS, CACHE_LINE_BYTES)]
            for tid, t in self.threads.items()
        }
