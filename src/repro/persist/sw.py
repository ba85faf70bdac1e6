"""Software persistency (SW): undo logging with flush/fence instructions.

This is the Sec. 6.3 SW baseline (and the Fig. 1 motivational experiment):

* distributed per-thread logs,
* hand-coalesced persist operations (one log entry and one data flush per
  modified cache line per region),
* but every persist operation sits on the critical path: the thread stalls
  for the log flush + fence at each first write to a line, and for the
  data flushes + fence plus a commit record at region end.

``dpo_only=True`` builds the Fig. 1 "DPO Only" variant: no logging at all,
just the end-of-region data flushes and fence.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.common.address import line_base
from repro.core.log import UndoLog
from repro.mem.wpq import LOGHDR, LPO, PersistOp
from repro.persist.base import PersistenceScheme, SchemeThread

#: cycles of instruction work to construct one log entry in software
_LOG_CONSTRUCT_COST = 12


class _SwThread(SchemeThread):
    def __init__(self, thread_id: int, core_id: int, log: Optional[UndoLog]):
        super().__init__(thread_id, core_id)
        self.log = log
        #: lines written by the current region (flush targets)
        self.write_set: Set[int] = set()
        #: lines already logged by the current region (coalescing)
        self.logged: Set[int] = set()


class SoftwareLogging(PersistenceScheme):
    """Software undo logging (or flush-only when ``dpo_only``)."""

    #: end blocks on every persist draining, so commit order is program
    #: order (and within a region, clwb+sfence orders log before data)
    ORDERING_EDGES = frozenset({"sync-commit"})

    def __init__(self, dpo_only: bool = False):
        super().__init__()
        self.dpo_only = dpo_only
        self.name = "sw_dpo_only" if dpo_only else "sw"

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        log = None if self.dpo_only else self._new_log(thread_id)
        return _SwThread(thread_id, core_id, log)

    # -- regions ---------------------------------------------------------------

    def begin_region(self, thread: _SwThread, done: Callable[[], None]) -> None:
        thread.write_set.clear()
        thread.logged.clear()
        done()

    def end_region(self, thread: _SwThread, done: Callable[[], None]) -> None:
        self._flush_data(thread, done)

    def _flush_data(self, thread: _SwThread, done: Callable[[], None]) -> None:
        """clwb each modified line, then mfence (wait for the NVM drains)."""
        lines = sorted(thread.write_set)
        rid = thread.rid
        remaining = len(lines)

        def after_fence() -> None:
            if self.dpo_only:
                self._commit(thread, done)
            else:
                self._write_commit_record(thread, done)

        if remaining == 0:
            after_fence()
            return
        state = {"left": remaining}

        def one_accepted(_op) -> None:
            state["left"] -= 1
            if state["left"] == 0:
                after_fence()

        for line in lines:
            self._persist_line(line, rid, None, one_accepted)

    def _write_commit_record(self, thread: _SwThread, done: Callable[[], None]) -> None:
        """Persist the commit record (the final record header), then free."""
        record = thread.log.open_record(thread.rid)
        if record is not None:
            payload = record.header_payload()
        else:
            payload = ((thread.log.segments[0][0], (thread.rid,)),)
        target = line_base(payload[0][0])
        self.machine.memory.issue_persist(
            PersistOp(
                LOGHDR, target, target, payload, thread.rid, None,
                lambda op: self._commit(thread, done),
            )
        )

    def _commit(self, thread: _SwThread, done: Callable[[], None]) -> None:
        if thread.log is not None:
            thread.log.free(thread.rid)
        self.commits.fire(thread.rid)
        done()

    # -- accesses -----------------------------------------------------------------

    def write(self, thread: _SwThread, addr: int, values, done: Callable[[], None]) -> None:
        line = line_base(addr)
        pm = self.machine.page_table.is_persistent(addr)
        in_region = thread.nest_depth > 0
        need_log = (
            pm and in_region and not self.dpo_only and line not in thread.logged
        )
        old_snapshot = self.machine.volatile.line(line) if need_log else None
        self.machine.volatile.write_range(addr, values)
        if pm and in_region:
            thread.write_set.add(line)

        def after_access(meta) -> None:
            if not need_log:
                done()
                return
            thread.logged.add(line)
            slot, entry_addr, record, _opened, sealed = thread.log.append(thread.rid, line)
            record.confirm(slot)  # the log flush below is synchronous
            if sealed is not None:
                # A filled record's header is written out (persist, no wait:
                # the entry flush below already orders after it per channel).
                self._persist_header(sealed, thread.rid, sealed.header_payload())
            payload = ((entry_addr, old_snapshot),)
            # clwb + mfence: the store retires only once the log entry is
            # inside the persistence domain - the software critical path.
            def log_persisted(_op) -> None:
                done()

            self.machine.scheduler.after(
                _LOG_CONSTRUCT_COST,
                lambda: self.machine.memory.issue_persist(
                    PersistOp(
                        LPO, entry_addr, line, payload, thread.rid, None,
                        log_persisted,
                    )
                ),
            )

        self.machine.hierarchy.access(thread.core_id, addr, True, after_access)
