"""Hardware undo logging with synchronous commit (the HWUndo baseline).

Modelled on Proteus [61] as described in Secs. 2.3 and 6.3:

* LPOs are initiated automatically in hardware at the first write to a
  line and proceed in the background, overlapped with the region's own
  execution;
* the durability point is the NVM write itself (Proteus predates treating
  the ADR WPQ as the persistence domain): an LPO or DPO completes when it
  *drains* to persistent memory - this is what puts PM latency on the
  commit path and makes HWUndo the most latency-sensitive scheme in the
  Fig. 10 sweep;
* a line's DPO is initiated eagerly, as soon as its LPO has drained
  (undo logging's eager in-place update); a line rewritten after its DPO
  was issued gets a fresh DPO so the region's final values persist;
* commit is synchronous: at ``asap_end`` the thread stalls until every
  LPO and every DPO has drained (Sec. 2.3: "a region commits when all
  LPOs and DPOs complete");
* LPO dropping is applied where possible (Sec. 5.1 notes Proteus does
  this too), though with drain-completion a committing region's LPOs have
  already left the queue, so in practice its log traffic reaches PM;
* same-line log persists are ordered: two concurrently-executing
  regions that write the same line place their log entries in different
  records - potentially on different channels - so nothing else orders
  the entries' drains. The scheme's :class:`LineChainGate` holds a later
  LPO for a line at the controller until the earlier one has drained (or
  was dropped), the drain-granularity analogue of the asap scheme's
  acceptance-granularity rule (docs/RECOVERY.md). HWUndo tracks no
  cross-region ownership, so the gate applies to *all* same-line LPO
  pairs, a conservative superset of the uncommitted-writer chains.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.address import line_base
from repro.core.log import UndoLog
from repro.mem.wpq import LPO, PersistOp
from repro.persist.base import LineChainGate, PersistenceScheme, SchemeThread

#: per-line persistence state within the current region
_WAIT_LPO = "wait_lpo"  # undo log write still draining
_DPO_INFLIGHT = "dpo_inflight"  # in-place update draining
_CLEAN = "clean"  # line's latest DPO drained


class _LineState:
    __slots__ = ("state", "dirty")

    def __init__(self):
        self.state = _WAIT_LPO
        self.dirty = False  # written again since the last DPO was issued


class _HwUndoThread(SchemeThread):
    def __init__(self, thread_id: int, core_id: int, log: UndoLog):
        super().__init__(thread_id, core_id)
        self.log = log
        self.lines: Dict[int, _LineState] = {}
        self.outstanding = 0  # LPO + DPO drains still pending
        self.resume: Optional[Callable[[], None]] = None


class HardwareUndoLogging(PersistenceScheme):
    """Synchronous-commit hardware undo logging (drain durability)."""

    name = "hwundo"

    #: synchronous commit orders per-thread persists across regions; the
    #: per-line drain gate orders same-line LPOs within a region
    ORDERING_EDGES = frozenset({"sync-commit", "line-chain"})

    def attach(self, machine) -> None:
        super().attach(machine)
        #: per-line LPO ordering at drain granularity (the scheme's
        #: durability point): every later same-line LPO waits for the
        #: earlier one's drain
        self.lpo_gate = LineChainGate(machine.memory, ride_same_channel=False)

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        return _HwUndoThread(thread_id, core_id, self._new_log(thread_id))

    # -- regions ---------------------------------------------------------------

    def begin_region(self, thread: _HwUndoThread, done: Callable[[], None]) -> None:
        thread.lines.clear()
        done()

    def end_region(self, thread: _HwUndoThread, done: Callable[[], None]) -> None:
        # Flush rewritten lines whose DPO already drained.
        for line, ls in thread.lines.items():
            if ls.state == _CLEAN and ls.dirty:
                self._issue_dpo(thread, line, ls)
        thread.resume = done
        self._maybe_commit(thread)

    def _maybe_commit(self, thread: _HwUndoThread) -> None:
        if thread.resume is None or thread.outstanding > 0:
            return
        if any(ls.state != _CLEAN or ls.dirty for ls in thread.lines.values()):
            return
        rid = thread.rid
        thread.log.free(rid)
        # LPO dropping (any log writes still queued are unneeded now).
        self.machine.memory.drop_log_ops_for_rid(rid)
        self.commits.fire(rid)
        resume, thread.resume = thread.resume, None
        resume()

    # -- accesses -----------------------------------------------------------------

    def write(self, thread: _HwUndoThread, addr: int, values, done: Callable[[], None]) -> None:
        line = line_base(addr)
        pm = self.machine.page_table.is_persistent(addr)
        in_region = thread.nest_depth > 0
        first_write = pm and in_region and line not in thread.lines
        old_snapshot = self.machine.volatile.line(line) if first_write else None
        self.machine.volatile.write_range(addr, values)

        def after_access(meta) -> None:
            if pm and in_region:
                if first_write:
                    thread.lines[line] = _LineState()
                    self._issue_lpo(thread, line, old_snapshot)
                else:
                    ls = thread.lines[line]
                    ls.dirty = True
            done()  # persist ops are hardware-initiated: no stall here

        self.machine.hierarchy.access(thread.core_id, addr, True, after_access)

    def _issue_lpo(self, thread: _HwUndoThread, line: int, old_snapshot: tuple) -> None:
        slot, entry_addr, record, _opened, sealed = thread.log.append(thread.rid, line)
        record.confirm(slot)
        if sealed is not None:
            self._persist_header(sealed, thread.rid, sealed.header_payload())
        payload = record.entry_payload(slot, old_snapshot)
        thread.outstanding += 1

        def lpo_drained(_op, rid=thread.rid) -> None:
            thread.outstanding -= 1
            if thread.rid == rid:
                # The log entry is durable in NVM: the eager in-place
                # update (undo logging's hallmark) may now proceed.
                ls = thread.lines.get(line)
                if ls is not None and ls.state == _WAIT_LPO:
                    self._issue_dpo(thread, line, ls)
            self._maybe_commit(thread)
            self.lpo_gate.advance(line)

        op = PersistOp(
            LPO, entry_addr, line, payload, thread.rid, None, lpo_drained
        )
        self.lpo_gate.submit(op, line)

    def _issue_dpo(self, thread: _HwUndoThread, line: int, ls: _LineState) -> None:
        ls.state = _DPO_INFLIGHT
        ls.dirty = False
        thread.outstanding += 1

        def dpo_drained(_op, rid=thread.rid) -> None:
            thread.outstanding -= 1
            if thread.rid == rid:
                if ls.dirty:
                    self._issue_dpo(thread, line, ls)  # rewritten: refresh
                else:
                    ls.state = _CLEAN
            self._maybe_commit(thread)

        self._persist_line(line, thread.rid, None, dpo_drained)
