"""Hardware redo logging with synchronous LPOs (the HWRedo baseline).

Modelled on Jeong et al. [33] as described in Secs. 2.3 and 6.3:

* LPOs log the *new* values and are initiated in hardware at the first
  write to a line, overlapped with the region's execution; a line written
  again after its LPO is re-logged with its final value at region end;
* commit is synchronous in the LPOs only: at ``asap_end`` the thread
  stalls until every log write has drained to NVM (the durability point
  the design predates ADR-WPQ persistence domains for);
* DPOs (installing the logged values in place) happen after commit,
  asynchronously, off the critical path;
* unnecessary DPOs are filtered: if a later region has re-written (and
  therefore re-logged) a line before the DPO is issued, the earlier DPO is
  skipped - the later region's log already carries newer data (this is the
  "uses DRAM on commit to filter out unnecessary DPOs" advantage the paper
  credits HWRedo with in Sec. 7.2).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.address import line_base
from repro.core.log import UndoLog
from repro.mem.wpq import LPO, PersistOp
from repro.persist.base import (
    READ_REDIRECT_PENALTY,
    REDO_DPO_DELAY,
    PersistenceScheme,
    SchemeThread,
)


class _HwRedoThread(SchemeThread):
    def __init__(self, thread_id: int, core_id: int, log: UndoLog):
        super().__init__(thread_id, core_id)
        self.log = log
        #: line -> True when the line was written again after its LPO
        self.write_set: Dict[int, bool] = {}
        self.outstanding_lpos = 0
        self.resume: Optional[Callable[[], None]] = None
        self.waiting = False


class HardwareRedoLogging(PersistenceScheme):
    """Synchronous-LPO hardware redo logging with post-commit DPOs."""

    name = "hwredo"

    #: end blocks on LPO acceptance, so commit order is program order
    ORDERING_EDGES = frozenset({"sync-commit"})

    def __init__(self):
        super().__init__()
        #: line -> rid of the latest region to log it (the DPO filter)
        self._last_writer: Dict[int, int] = {}

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        return _HwRedoThread(thread_id, core_id, self._new_log(thread_id))

    # -- regions ---------------------------------------------------------------

    def begin_region(self, thread: _HwRedoThread, done: Callable[[], None]) -> None:
        thread.write_set.clear()
        done()

    def end_region(self, thread: _HwRedoThread, done: Callable[[], None]) -> None:
        # Re-log every line whose final value postdates its LPO.
        for line, rewritten in thread.write_set.items():
            if rewritten:
                self._issue_lpo(thread, line)
                thread.write_set[line] = False
        thread.resume = done
        thread.waiting = True
        self._check_commit(thread)

    def _check_commit(self, thread: _HwRedoThread) -> None:
        if not thread.waiting or thread.outstanding_lpos > 0:
            return
        thread.waiting = False
        rid = thread.rid
        lines = sorted(thread.write_set)
        self.commits.fire(rid)
        resume, thread.resume = thread.resume, None
        # Post-commit DPOs are asynchronous: schedule them lazily, retire
        # anyway. The lazy window is what gives redo logging its DPO
        # filtering: a later region that re-logs a line before the window
        # expires supersedes the pending DPO entirely.
        self.machine.scheduler.after(
            REDO_DPO_DELAY,
            lambda: self._issue_post_commit_dpos(rid, lines, thread),
        )
        resume()

    def _issue_post_commit_dpos(self, rid: int, lines, thread: _HwRedoThread) -> None:
        for line in lines:
            if self._last_writer.get(line) != rid:
                # A later region re-logged the line: its DPO supersedes ours.
                continue
            self._persist_line(line, rid)
        # The log is reclaimed once the data is safely in the persistence
        # domain; modelled as reclamation at writeback-issue time.
        thread.log.free(rid)

    # -- accesses -----------------------------------------------------------------

    def write(self, thread: _HwRedoThread, addr: int, values, done: Callable[[], None]) -> None:
        line = line_base(addr)
        pm = self.machine.page_table.is_persistent(addr)
        in_region = thread.nest_depth > 0
        self.machine.volatile.write_range(addr, values)

        def after_access(meta) -> None:
            if pm and in_region:
                if line not in thread.write_set:
                    thread.write_set[line] = False
                    self._issue_lpo(thread, line)
                else:
                    thread.write_set[line] = True  # needs re-log at end
            done()

        self.machine.hierarchy.access(thread.core_id, addr, True, after_access)

    def _issue_lpo(self, thread: _HwRedoThread, line: int) -> None:
        """Log the line's *current* (new) value - redo logging."""
        slot, entry_addr, record, _opened, sealed = thread.log.append(thread.rid, line)
        record.confirm(slot)  # synchronous schemes persist entries in order
        if sealed is not None:
            self._persist_header(sealed, thread.rid, sealed.header_payload())
        payload = ((entry_addr, self.machine.volatile.line(line)),)
        thread.outstanding_lpos += 1
        self._last_writer[line] = thread.rid

        def lpo_drained(_op) -> None:
            thread.outstanding_lpos -= 1
            self._check_commit(thread)

        # Redo logging's durability point is the NVM write of the log
        # entry (the design predates ADR-WPQ persistence domains), so the
        # commit wait is for the drain, not the accept.
        self.machine.memory.issue_persist(
            PersistOp(
                LPO, entry_addr, line, payload, thread.rid, None, lpo_drained
            )
        )

    def read(self, thread: _HwRedoThread, addr: int, nwords: int, done: Callable[[list], None]) -> None:
        line = line_base(addr)
        redirect = thread.nest_depth > 0 and line in thread.write_set

        def after(meta) -> None:
            values = self.machine.volatile.read_words(addr, nwords)
            if redirect:
                self.machine.scheduler.after(
                    READ_REDIRECT_PENALTY, lambda: done(values)
                )
            else:
                done(values)

        self.machine.hierarchy.access(thread.core_id, addr, False, after)
