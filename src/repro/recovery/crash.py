"""Crash injection: stop the machine and flush the persistence domain.

What survives a crash (Sec. 4.1, Sec. 5.5):

* persistent memory contents (the PM image),
* the WPQs (ADR flushes them to PM),
* the LH-WPQs (partially-filled log record headers reach PM),
* the active Dependence List entries (flushed so recovery can order the
  uncommitted regions).

What does not: caches, the volatile image, thread state registers, the CL
Lists, and the DRAM OwnerRID buffer (execution-time metadata only).
Persist ops still *backpressured at the controller* (not yet accepted
into a WPQ) are also lost - the asymmetry behind the incomplete-undo-
chain bug the per-line LPO ordering rule prevents (docs/RECOVERY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mem.image import MemoryImage
from repro.sim.machine import Machine


@dataclass
class CrashState:
    """Everything recovery may look at after power is lost."""

    #: deep copy of persistent memory after the persistence-domain flush
    pm_image: MemoryImage
    #: persisted Dependence List entries: [{rid, state, deps}, ...]
    dependence_entries: List[dict]
    #: thread id -> list of (segment base, num records, record stride)
    log_directory: Dict[int, List[tuple]]
    entries_per_record: int
    #: cycle at which the crash hit (diagnostics only)
    crash_cycle: int = 0
    #: WPQ entries flushed by ADR (diagnostics only)
    flushed_wpq_entries: int = 0
    #: "undo" (ASAP) or "redo" (the asap_redo extension): selects the
    #: recovery procedure
    log_kind: str = "undo"
    #: redo only: thread id -> [(marker base, slots, stride)]
    marker_directory: Dict[int, List[tuple]] = field(default_factory=dict)


def crash_machine(machine: Machine, at_cycle: Optional[int] = None) -> CrashState:
    """Run ``machine`` until ``at_cycle`` (or from its current state) and
    pull the plug.

    Returns the :class:`CrashState` recovery operates on. The machine is
    marked crashed; executors stop issuing ops.
    """
    if at_cycle is not None:
        machine.run(until=at_cycle)
    machine.crashed = True
    flushed = machine.memory.flush_persistence_domain()
    machine.scheme.crash_flush()

    dependence_entries: List[dict] = []
    log_directory: Dict[int, List[tuple]] = {}
    marker_directory: Dict[int, List[tuple]] = {}
    entries_per_record = machine.config.asap.log_data_entries_per_record
    scheme = machine.scheme
    if hasattr(scheme, "dependence_snapshot"):
        dependence_entries = scheme.dependence_snapshot()
    if hasattr(scheme, "thread_logs"):
        for tid, log in scheme.thread_logs().items():
            log_directory[tid] = [
                (base, num, log.record_stride) for base, num in log.segments
            ]
            entries_per_record = log.entries_per_record
    if hasattr(scheme, "marker_directory"):
        marker_directory = scheme.marker_directory()

    return CrashState(
        pm_image=machine.pm_image.copy(),
        dependence_entries=dependence_entries,
        log_directory=log_directory,
        entries_per_record=entries_per_record,
        crash_cycle=machine.scheduler.now,
        flushed_wpq_entries=flushed,
        log_kind="redo" if marker_directory else "undo",
        marker_directory=marker_directory,
    )
