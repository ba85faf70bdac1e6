"""The ASAP scheme: a thin adapter over :class:`repro.core.engine.AsapEngine`.

All of the paper's machinery lives in :mod:`repro.core`; this class maps
the generic :class:`~repro.persist.base.PersistenceScheme` interface onto
it and forwards crash flushes; the engine fires the commit events. The
per-line log-persist ordering rule recovery relies on is enforced in
:meth:`AsapEngine._submit_lpo_ordered` (docs/RECOVERY.md).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.engine import AsapEngine, AsapThread
from repro.mem.image import MemoryImage
from repro.persist.base import PersistenceScheme, SchemeThread


class _AsapSchemeThread(SchemeThread):
    def __init__(self, thread_id: int, core_id: int, engine_thread: AsapThread):
        super().__init__(thread_id, core_id)
        self.engine_thread = engine_thread


class AsapScheme(PersistenceScheme):
    """Asynchronous commit with hardware dependence enforcement."""

    name = "asap"

    #: the paper's full asynchronous-persistence ordering machinery
    ORDERING_EDGES = frozenset(
        {"wpq-fifo", "line-chain", "lockbit-gate", "dep-commit-gate"}
    )

    RECOVERY = "undo"

    def __init__(self):
        super().__init__()
        self.engine: Optional[AsapEngine] = None

    def attach(self, machine) -> None:
        super().attach(machine)
        self.engine = AsapEngine(
            config=machine.config,
            scheduler=machine.scheduler,
            memory=machine.memory,
            hierarchy=machine.hierarchy,
            volatile=machine.volatile,
            pm_alloc=machine.heap.alloc,
            fast=self.fast,
        )

    def hook_points(self) -> list:
        return [self.engine, *self.engine.dep_lists]

    @property
    def stats(self):
        return self.engine.stats if self.engine else None

    def stall_counts(self) -> Dict[str, int]:
        engine = self.engine
        return {
            "cl_entry": sum(cl.entry_stalls for cl in engine.cl_lists),
            "cl_slot": sum(cl.slot_stalls for cl in engine.cl_lists),
            "dep_entry": sum(dl.entry_stalls for dl in engine.dep_lists),
            "dep_slot": sum(dl.dep_stalls for dl in engine.dep_lists),
            "lh_wpq": sum(lh.stalls for lh in engine.lh_wpqs),
        }

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        engine_thread = self.engine.register_thread(thread_id, core_id)
        return _AsapSchemeThread(thread_id, core_id, engine_thread)

    # The engine keeps region nesting in the thread-state registers, as
    # the hardware does, so ASAP replaces the template's begin/end.

    def begin(self, thread: _AsapSchemeThread, done: Callable[[], None]) -> None:
        self.engine.begin(thread.engine_thread, done)

    def end(self, thread: _AsapSchemeThread, done: Callable[[], None]) -> None:
        self.engine.end(thread.engine_thread, done)

    def write(self, thread: _AsapSchemeThread, addr: int, values, done: Callable[[], None]) -> None:
        self.engine.write(thread.engine_thread, addr, values, done)

    def read(self, thread: _AsapSchemeThread, addr: int, nwords: int, done: Callable[[list], None]) -> None:
        self.engine.read(thread.engine_thread, addr, nwords, done)

    def fence(self, thread: _AsapSchemeThread, done: Callable[[], None]) -> None:
        self.engine.fence(thread.engine_thread, done)

    def migrate(self, thread: _AsapSchemeThread, new_core: int, done: Callable[[], None]) -> None:
        def switched() -> None:
            thread.core_id = new_core
            done()

        self.engine.context_switch(thread.engine_thread, new_core, switched)

    def when_quiescent(self, done: Callable[[], None]) -> None:
        self.engine.when_quiescent(done)

    # -- crash support (Sec. 5.5) ------------------------------------------

    def crash_flush(self, image: MemoryImage) -> None:
        """Flush the LH-WPQs into ``image`` (the ADR crash path)."""
        for lh in self.engine.lh_wpqs:
            lh.flush_to_pm(image)

    def dependence_snapshot(self) -> List[dict]:
        """The persisted Dependence List contents used by recovery."""
        snap: List[dict] = []
        for dl in self.engine.dep_lists:
            snap.extend(dl.snapshot())
        return snap

    def thread_logs(self) -> Dict[int, object]:
        """Thread-id -> UndoLog (recovery scans their record slots)."""
        return {tid: t.log for tid, t in self.engine.threads.items()}
