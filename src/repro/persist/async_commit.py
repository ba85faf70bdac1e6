"""The asynchronous-commit template shared by ``asap`` and ``asap_redo``.

Both schemes retire ``asap_end`` at once and let a region commit later,
in dependence order. The order lives in one structure, the per-channel
Dependence List (Secs. 4.5, 4.6.3, 4.8): each uncommitted region has an
entry there, holding the regions it depends on. This base class builds
those lists, hosts each region by its LocalRID, opens a region's entry
with its control dependence on the thread's previous region, and
implements ``asap_fence`` (Sec. 5.2) over per-region commit signals.
Crash recovery orders uncommitted regions by the same lists.

Subclasses add what differs: the log discipline (undo or redo), data
dependence capture, the commit rule and quiescence.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core.dependence import DependenceList
from repro.core.log import UndoLog
from repro.core.rid import local_rid_of, previous_rid
from repro.engine import Signal
from repro.persist.base import PersistenceScheme, SchemeThread


class AsyncThread(SchemeThread):
    """A thread of an asynchronous-commit scheme: its log and the commit
    signal of each of its uncommitted regions."""

    def __init__(self, thread_id: int, core_id: int, log: UndoLog):
        super().__init__(thread_id, core_id)
        self.log = log
        self.commit_signals: Dict[int, Signal] = {}


class AsyncCommitScheme(PersistenceScheme):
    """Asynchronous commit over per-channel Dependence Lists."""

    #: the per-thread state class :meth:`register_thread` builds
    THREAD = AsyncThread

    def __init__(self):
        super().__init__()
        self.dep_lists: List[DependenceList] = []
        self.threads: Dict[int, AsyncThread] = {}

    def attach(self, machine) -> None:
        super().attach(machine)
        params = machine.config.asap
        self.dep_lists = [
            DependenceList(
                ch,
                machine.scheduler,
                params.dependence_list_entries,
                params.dep_slots,
            )
            for ch in range(machine.config.memory.num_channels)
        ]

    def hook_points(self) -> list:
        return [*super().hook_points(), *self.dep_lists]

    def wait_queues(self) -> list:
        return [
            (f"Dependence List[{dl.channel_index}] {kind}", queue)
            for dl in self.dep_lists
            for kind, queue in (("entry", dl.entry_waiters), ("dep", dl.dep_waiters))
        ]

    def register_thread(self, thread_id: int, core_id: int) -> AsyncThread:
        """``asap_init()``: allocate the thread's log buffer."""
        if thread_id in self.threads:
            raise SimulationError(f"thread {thread_id} already registered")
        log = UndoLog.allocate(
            thread_id, self.machine.config.asap, self.machine.heap.alloc
        )
        thread = self.THREAD(thread_id, core_id, log)
        self.threads[thread_id] = thread
        return thread

    def dep_list_for(self, rid: int) -> DependenceList:
        """The Dependence List hosting ``rid`` (by LocalRID LSBs, Sec. 5.6)."""
        return self.dep_lists[local_rid_of(rid) % len(self.dep_lists)]

    def _open_region(self, thread: AsyncThread, dl: DependenceList) -> Optional[int]:
        """Open the entry of the thread's new region in ``dl``, the list
        hosting it (the caller checked it has room), and its commit
        signal. The region depends on the thread's previous region while
        that one is uncommitted (Sec. 4.5); returns that region when the
        control dependence was recorded."""
        rid = thread.rid
        entry = dl.open_entry(rid)
        thread.commit_signals[rid] = Signal(self.machine.scheduler)
        prev = previous_rid(rid)
        if prev is not None and self.dep_list_for(prev).contains(prev):
            entry.deps.add(prev)
            return prev
        return None

    def fence(self, thread: AsyncThread, done: Callable[[], None]) -> None:
        """``asap_fence``: block until the thread's last region (and so
        every region it depends on) has committed."""
        signal = thread.commit_signals.get(thread.rid)
        if signal is None:
            done()
            return
        signal.wait(done)

    def dependence_snapshot(self) -> List[dict]:
        """The persisted Dependence List contents used by recovery."""
        snap: List[dict] = []
        for dl in self.dep_lists:
            snap.extend(dl.snapshot())
        return snap

    def thread_logs(self) -> Dict[int, UndoLog]:
        """Thread id -> log (recovery scans their record slots)."""
        return {tid: t.log for tid, t in self.threads.items()}
