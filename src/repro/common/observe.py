"""Lightweight observation hooks for the simulated machine.

The core and memory layers each expose an optional ``observer`` attribute
(default ``None``) and notify it at a handful of well-defined event points.
:class:`SimObserver` is the no-op base: every method does nothing, so the
hot paths pay one ``is not None`` test when observation is off and a plain
method call when it is on.

The runtime invariant sanitizer (:mod:`repro.analysis.sanitizer`) is the
primary consumer; tests may subclass this to record event traces. This
module lives in :mod:`repro.common` so that :mod:`repro.core` and
:mod:`repro.mem` can reference the protocol without importing the analysis
package (which imports them).
"""

from __future__ import annotations


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
        """A primary miss found every needed MSHR file full; ``core_id``
        stalls until an in-flight fill frees a register."""

    # -- dependence list (core/dependence.py) -----------------------------

    def dep_entry_opened(self, dep_list, entry) -> None:
        """A Dependence List entry was created for a new region."""

    def dep_entry_removed(self, dep_list, rid) -> None:
        """A Dependence List entry was cleared (region committed)."""

    # -- ASAP engine (core/engine.py) -------------------------------------

    def region_begun(self, engine, thread, rid) -> None:
        """A top-level ``asap_begin`` allocated CL/Dependence entries."""

    def region_ended(self, engine, thread, rid) -> None:
        """A top-level ``asap_end`` retired (commit is still pending)."""

    def dep_captured(self, engine, rid, owner) -> None:
        """Region ``rid`` recorded a dependence on region ``owner``."""

    def slot_opened(self, engine, entry, line) -> None:
        """A CLPtr slot started tracking ``line`` for ``entry``'s region."""

    def lpo_initiated(self, engine, rid, line, entry_addr) -> None:
        """A Log Persist Operation for ``line`` was sent towards a WPQ."""

    def lpo_deferred(self, engine, rid, line) -> None:
        """An LPO was held at the controller behind an earlier uncommitted
        writer's in-flight LPO for the same line (the per-line
        chain-ordering rule, ``AsapEngine._submit_lpo_ordered``)."""

    def lpo_chained(self, engine, rid, line, prev_owner) -> None:
        """Region ``rid``'s log entry for ``line`` is mid-chain: its
        logged "old value" is uncommitted data of ``prev_owner``. Fired at
        LPO initiation, before the chain-ordering rule orders the two
        entries' durability - the race detector uses it to enumerate
        conflicting same-line log persists."""

    def lpo_logged(self, engine, rid, line) -> None:
        """The WPQ accepted the LPO: ``line``'s old value is durable."""

    def dpo_initiated(self, engine, rid, line) -> None:
        """A Data Persist Operation for ``line`` was sent towards a WPQ."""

    def region_committed(self, engine, rid) -> None:
        """Fig. 4 transition (4): the region became durable."""

    def log_freed(self, engine, rid, records) -> None:
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
