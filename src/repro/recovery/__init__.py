"""Crash injection and post-crash recovery (Sec. 5.5).

:func:`~repro.recovery.crash.crash_machine` advances a run to an
arbitrary cycle and snapshots what a power failure there leaves behind:
the persistence-domain flush (WPQs, LH-WPQs, active Dependence List
entries) is applied to a copy of the PM image, and the machine itself is
neither stopped nor flushed, so it can be resumed to a later crash point
or to the end. :func:`~repro.recovery.recover.recover` then
replays the paper's recovery procedure on the surviving PM image: build
the dependence DAG from the persisted Dependence List, derive the reverse
happens-before order, locate every uncommitted region's log records, and
restore the old values.

:mod:`repro.recovery.verify` checks the result against the run's commit
oracle: atomicity (no partial regions), durability (committed regions
survive), and ordering (no dependent region survives its dependency's
rollback).

:mod:`repro.recovery.explain` renders what one recovery decided
(``asap-repro recover --explain``): the persisted Dependence List, the
matched log records, the undo (or replay) order, and each restore
applied, all read back from the :class:`RecoveryReport` - as a narrative
and a schema-validated JSON trace (docs/RECOVERY.md).
"""

from repro.recovery.crash import CrashState, crash_machine
from repro.recovery.explain import explain_recovery, validate_trace
from repro.recovery.recover import RecoveryReport, recover
from repro.recovery.verify import verify_recovery

__all__ = [
    "CrashState",
    "crash_machine",
    "explain_recovery",
    "RecoveryReport",
    "recover",
    "validate_trace",
    "verify_recovery",
]
