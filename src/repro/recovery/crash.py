"""Crash injection: a non-destructive snapshot of what survives power loss.

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

The snapshot leaves the machine untouched: the persistence-domain flush
is applied to a copy of the PM image, so one machine can be advanced
through ascending crash points, snapshotted at each, and run to the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.mem.image import MemoryImage
from repro.sim.machine import Machine


@dataclass
class CrashState:
    """Everything recovery may look at after power is lost."""

    #: copy of persistent memory with the persistence-domain flush applied
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
    #: the scheme's declared ``RECOVERY`` ("undo" when it declares none):
    #: selects the recovery procedure
    log_kind: str = "undo"
    #: redo only: thread id -> [(marker base, slots, stride)]
    marker_directory: Dict[int, List[tuple]] = field(default_factory=dict)


def require_inspected(machine: Machine, action: str) -> None:
    """Refuse to ``action`` an uninspected machine: it keeps neither the
    PM image a crash flushes into nor the oracle recovery is checked by."""
    if machine.oracle is None:
        raise SimulationError(
            f"cannot {action} this machine: it has no PM image or commit "
            "oracle; call machine.inspect() before the first "
            "bootstrap_write, observe and run"
        )


def crash_machine(machine: Machine, at_cycle: Optional[int] = None) -> CrashState:
    """Advance ``machine`` to ``at_cycle`` (or keep its current state) and
    snapshot what a power failure there would leave behind.

    Returns the :class:`CrashState` recovery operates on. Its PM image is
    a copy with the persistence-domain flush applied: queued WPQ entries
    in FIFO order, then the scheme's own flush. The machine itself is not
    modified, so it can be resumed to a later crash point or to the end.
    """
    require_inspected(machine, "crash")
    if at_cycle is not None:
        if at_cycle < machine.scheduler.now:
            raise SimulationError(
                f"cannot crash at cycle {at_cycle}: the machine is already "
                f"at cycle {machine.scheduler.now}"
            )
        machine.run(until=at_cycle)
    scheme = machine.scheme
    image = machine.pm_image.copy()
    flushed = machine.memory.flush_persistence_domain(image)
    scheme.crash_flush(image)

    log_directory: Dict[int, List[tuple]] = {}
    entries_per_record = machine.config.asap.log_data_entries_per_record
    for tid, log in scheme.thread_logs().items():
        log_directory[tid] = [
            (base, num, log.record_stride) for base, num in log.segments
        ]
        entries_per_record = log.entries_per_record

    return CrashState(
        pm_image=image,
        dependence_entries=scheme.dependence_snapshot(),
        log_directory=log_directory,
        entries_per_record=entries_per_record,
        crash_cycle=machine.scheduler.now,
        flushed_wpq_entries=flushed,
        log_kind=scheme.RECOVERY or "undo",
        marker_directory=scheme.marker_directory(),
    )
