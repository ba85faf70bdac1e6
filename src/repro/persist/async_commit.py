"""The asynchronous-commit template shared by ``asap`` and ``asap_redo``.

Both schemes retire ``asap_end`` at once and let a region commit later,
in dependence order. The order lives in one structure, the per-channel
Dependence List (Secs. 4.5, 4.6.3, 4.8): each uncommitted region has an
entry there, holding the regions it depends on. This base class holds
the one copy of that protocol: it hosts each region by its LocalRID,
opens its entry with the control dependence on the thread's previous
region, captures data dependences on the owners of lines the region
touches (stalling while the Dep slots are full), broadcasts commits, and
implements ``asap_fence`` (Sec. 5.2) over per-region commit signals.
Crash recovery orders uncommitted regions by the same lists.

Subclasses add what differs: the log discipline (undo or redo), the
commit rule and quiescence.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from repro.common.errors import SimulationError
from repro.core.dependence import DependenceList
from repro.core.log import UndoLog
from repro.core.rid import local_rid_of, previous_rid
from repro.engine import Signal
from repro.mem.tagstore import LineMeta
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
        thread = self.THREAD(thread_id, core_id, self._new_log(thread_id))
        self.threads[thread_id] = thread
        return thread

    def dep_list_for(self, rid: int) -> DependenceList:
        """The Dependence List hosting ``rid`` (by LocalRID LSBs, Sec. 5.6)."""
        return self.dep_lists[local_rid_of(rid) % len(self.dep_lists)]

    def _open_region(self, thread: AsyncThread, retry: Callable[[], None]) -> bool:
        """Open the entry of the thread's new region and its commit signal;
        returns False, with ``retry`` parked, while the hosting Dependence
        List is full. The region depends on the thread's previous region
        while that one is uncommitted (Sec. 4.5)."""
        rid = thread.rid
        dl = self.dep_list_for(rid)
        if dl.full:
            dl.entry_stalls += 1
            dl.entry_waiters.park(retry)
            return False
        entry = dl.open_entry(rid)
        thread.commit_signals[rid] = Signal(self.machine.scheduler)
        prev = previous_rid(rid)
        if prev is not None and self.dep_list_for(prev).contains(prev):
            entry.deps.add(prev)
            if self.observer is not None:
                self.observer.dep_captured(self, rid, prev)
        return True

    def _capture_dependence(self, rid: int, meta: LineMeta, then: Callable) -> None:
        """Sec. 4.6.3: before region ``rid``'s access to ``meta``'s line
        proceeds (``then``), add a Dep on the line's uncommitted owner,
        stalling while every Dep slot is taken."""
        owner = meta.owner_rid
        if owner is None or owner == rid:
            then()
            return
        if not self.dep_list_for(owner).contains(owner):
            self._stale_owner(meta)
            then()
            return
        my_dl = self.dep_list_for(rid)
        entry = my_dl.entry(rid)
        if entry is None:
            raise SimulationError(f"no Dependence entry for active region {rid}")
        if owner in entry.deps:
            then()
            return
        if entry.deps_full:
            my_dl.dep_stalls += 1
            my_dl.dep_waiters.park(lambda: self._capture_dependence(rid, meta, then))
            return
        entry.deps.add(owner)
        self._dep_captured(rid, owner)
        then()

    def _stale_owner(self, meta: LineMeta) -> None:
        """The line's owner already committed: the tag is stale (Sec. 5.8)."""
        meta.owner_rid = None

    def _dep_captured(self, rid: int, owner: int) -> None:
        if self.observer is not None:
            self.observer.dep_captured(self, rid, owner)

    def _release_dependents(self, rid: int, retry: Callable[[int], None]) -> None:
        """Broadcast ``rid``'s commit to every Dependence List (Sec. 4.8):
        clear its Dep everywhere, wake the accesses stalled on Dep slots,
        and retry the commit of each region left with no Dep."""
        after = self.machine.scheduler.after
        for dl in self.dep_lists:
            for ready in dl.clear_dependency(rid):
                after(0, partial(retry, ready.rid))

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
