"""The observer bus: the one way to watch a simulated machine.

Each structure that reports events (WPQs, cache hierarchy, the scheme,
Dependence Lists, locks, thread executors) is a *hook point*: it
lists the events it fires in ``OBSERVED`` and holds one ``observer``
slot, which only :meth:`repro.sim.machine.Machine.observe` fills. The
slot holds ``None`` when no subscriber handles one of those events, the
subscriber itself when one does, and a fan-out when several do, so the
hot paths pay one ``is not None`` test when nobody listens.

:class:`SimObserver` is the no-op base every subscriber extends. It
lives in :mod:`repro.common` so that :mod:`repro.core`,
:mod:`repro.mem` and :mod:`repro.persist` can reference it without
importing the analysis package (which imports them).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional, Sequence


class SimObserver:
    """No-op base class for machine-event observers.

    Subclass and override the events of interest. Handlers must not mutate
    the structures they are handed; they exist to *check* and *account*.
    """

    # -- write pending queue (mem/wpq.py) ---------------------------------

    def wpq_submitted(self, wpq, op) -> None:
        """``op`` arrived at ``wpq`` (may be backpressured before entry).

        Submission order per channel is the arrival order the FIFO
        admission guarantee turns into an acceptance order; the race
        detector keys its per-channel happens-before edges off this
        event."""

    def wpq_accepted(self, wpq, op) -> None:
        """``op`` entered ``wpq`` (the ADR durability point)."""

    def wpq_drained(self, wpq, op) -> None:
        """``op`` reached the persistent medium."""

    def wpq_dropped(self, wpq, op) -> None:
        """``op`` was removed before drain (LPO/DPO dropping, Sec. 5.1)."""

    # -- cache hierarchy (mem/hierarchy.py) -------------------------------

    def line_evicted(self, meta, wb_op) -> None:
        """A persistent line left the LLC; ``wb_op`` is its writeback
        persist op (None when the line was clean)."""

    def mshr_allocated(self, hierarchy, line, core_id) -> None:
        """A primary LLC miss allocated an MSHR and started a memory
        fetch for ``line`` on behalf of ``core_id``."""

    def mshr_merged(self, hierarchy, line, core_id) -> None:
        """A secondary miss from ``core_id`` merged into the in-flight
        fetch for ``line`` (no second memory read is issued)."""

    def mshr_filled(self, hierarchy, line, waiters) -> None:
        """The fetch for ``line`` completed: the line was installed and
        the ``waiters`` queued requesters' completions replayed."""

    def mshr_stalled(self, hierarchy, line, core_id) -> None:
        """A primary miss found the LLC MSHR file full; ``core_id``
        stalls until an in-flight fill frees a register."""

    # -- dependence list (core/dependence.py) -----------------------------

    def dep_entry_opened(self, dep_list, entry) -> None:
        """A Dependence List entry was created for a new region."""

    def dep_entry_removed(self, dep_list, rid) -> None:
        """A Dependence List entry was cleared (region committed)."""

    # -- asynchronous-commit schemes (persist/asap.py, asap_redo.py) ------

    def region_begun(self, scheme, thread, rid) -> None:
        """A top-level ``asap_begin`` allocated CL/Dependence entries."""

    def region_ended(self, scheme, thread, rid) -> None:
        """A top-level ``asap_end`` retired (commit is still pending)."""

    def dep_captured(self, scheme, rid, owner) -> None:
        """Region ``rid`` recorded a dependence on region ``owner``."""

    def slot_opened(self, scheme, entry, line) -> None:
        """A CLPtr slot started tracking ``line`` for ``entry``'s region."""

    def lpo_initiated(self, scheme, rid, line, entry_addr) -> None:
        """A Log Persist Operation for ``line`` was sent towards a WPQ."""

    def lpo_deferred(self, scheme, rid, line) -> None:
        """An LPO was held at the controller behind an earlier uncommitted
        writer's in-flight LPO for the same line (the per-line
        chain-ordering rule, :class:`~repro.persist.base.LineChainGate`)."""

    def lpo_chained(self, scheme, rid, line, prev_owner) -> None:
        """Region ``rid``'s log entry for ``line`` is mid-chain: its
        logged "old value" is uncommitted data of ``prev_owner``. Fired at
        LPO initiation, before the chain-ordering rule orders the two
        entries' durability - the race detector uses it to enumerate
        conflicting same-line log persists."""

    def lpo_logged(self, scheme, rid, line) -> None:
        """The WPQ accepted the LPO: ``line``'s old value is durable."""

    def dpo_initiated(self, scheme, rid, line) -> None:
        """A Data Persist Operation for ``line`` was sent towards a WPQ."""

    def region_committed(self, scheme, rid) -> None:
        """Fig. 4 transition (4): the region became durable. The only commit
        event; every scheme fires it."""

    def log_freed(self, scheme, rid, records) -> None:
        """The committed region's log records returned to the free pool."""

    # -- redo commit markers (persist/asap_redo.py) ------------------------

    def marker_issued(self, scheme, rid, seq, op) -> None:
        """Region ``rid``'s durable commit marker (commit sequence ``seq``)
        was sent towards a WPQ; ``op`` is the marker persist op."""

    def marker_accepted(self, scheme, rid, seq, op) -> None:
        """The WPQ accepted region ``rid``'s commit marker: the region is
        durably committed and redo recovery will replay it."""

    # -- locks (runtime/locks.py) ------------------------------------------

    def lock_acquired(self, lock, thread_id) -> None:
        """``thread_id`` now holds ``lock`` (uncontended grant or FIFO
        hand-off). Together with :meth:`lock_released` this reconstructs
        the synchronizes-with order the race detector attributes
        cross-thread execution ordering to."""

    def lock_released(self, lock, thread_id) -> None:
        """``thread_id`` released ``lock``."""

    # -- thread executor (sim/executor.py) ---------------------------------

    def begin_retired(self, executor, rid) -> None:
        """A top-level ``Begin`` of ``executor``'s thread retired."""

    def end_retired(self, executor, rid) -> None:
        """A top-level ``End`` retired: execution proceeds past region
        ``rid``, which under an asynchronous scheme is not yet durable."""

    def region_stored(self, executor, rid, addr, values) -> None:
        """Region ``rid`` stored ``values`` to the PM words from ``addr``
        (the commit oracle's write-sets)."""


#: every event a hook point may fire
EVENTS = frozenset(name for name in vars(SimObserver) if not name.startswith("_"))


@lru_cache(maxsize=None)
def handled(cls: type) -> frozenset:
    """The events subscriber class ``cls`` overrides (no-ops do not count)."""
    return frozenset(e for e in EVENTS if getattr(cls, e) is not vars(SimObserver)[e])


def slot_for(events: Sequence[str], subscribers: Sequence) -> Optional[SimObserver]:
    """What the slot of a hook point firing ``events`` holds."""
    interested = [s for s in subscribers if not handled(type(s)).isdisjoint(events)]
    if len(interested) <= 1:
        return interested[0] if interested else None
    fan_out = SimObserver()
    for event in events:
        handlers = [getattr(s, event) for s in interested if event in handled(type(s))]
        if handlers:
            setattr(fan_out, event, partial(_broadcast, handlers))
    return fan_out


def _broadcast(handlers, *args) -> None:
    for handler in handlers:
        handler(*args)
