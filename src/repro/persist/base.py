"""The persistence-scheme interface.

A scheme interprets the five persistence-relevant ops (begin, end, read,
write, fence) in continuation-passing style: the ``done`` callback fires
when the instruction may retire. Synchronous-commit schemes delay ``End``'s
``done``; ASAP never does.

Schemes also fire the ``region_committed`` observer event (the commit
oracle subscribes to it) and expose a ``crash_flush(image)`` hook that
flushes their share of the persistence domain into a crash snapshot's
copy of PM.
"""

from __future__ import annotations

import abc
from typing import Callable, FrozenSet, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mem.image import MemoryImage
    from repro.sim.machine import Machine

#: The ordering-edge kinds a scheme may guarantee between persist
#: operations (docs/RACES.md has the full semantics):
#:
#: - ``"wpq-fifo"``: same-channel persists are accepted in submission
#:   order (the WPQ's FIFO backpressure admission).
#: - ``"line-chain"``: chained same-line log persists are accepted in
#:   chain order (the engines' per-line LPO ordering).
#: - ``"lockbit-gate"``: a line's LPO is accepted before any DPO/WB of
#:   that line is submitted (the LockBit log-before-data protocol).
#: - ``"dep-commit-gate"``: a region commits only after all its persists
#:   are accepted and every Dependence-List predecessor has committed.
#: - ``"marker-gate"``: a durable commit marker is submitted only after
#:   the region's LPOs are accepted and predecessors' markers accepted.
#: - ``"sync-commit"``: ``end`` blocks until the region is durable, so
#:   program order fully orders each thread's persists across regions.
EDGE_KINDS = frozenset(
    {
        "wpq-fifo",
        "line-chain",
        "lockbit-gate",
        "dep-commit-gate",
        "marker-gate",
        "sync-commit",
    }
)


class SchemeThread:
    """Base per-thread scheme state; schemes subclass or use as-is."""

    def __init__(self, thread_id: int, core_id: int):
        self.thread_id = thread_id
        self.core_id = core_id
        #: region nesting depth (all schemes flatten nested regions)
        self.nest_depth = 0
        #: regions begun by this thread (used as a LocalRID for oracle ids)
        self.regions_begun = 0


class PersistenceScheme(abc.ABC):
    """Interface implemented by NP, SW, HWUndo, HWRedo, and ASAP."""

    #: evaluation name ("np", "sw", "hwundo", "hwredo", "asap")
    name: str = "abstract"

    #: the durability-ordering guarantees this scheme provides between
    #: persist operations, as a subset of :data:`EDGE_KINDS`. This is the
    #: scheme's self-description for the happens-before race detector
    #: (:mod:`repro.analysis.races`) - and the first concrete piece of the
    #: pluggable-scheme interface: a new scheme declares what it orders,
    #: and the detector checks that declaration against observed traces.
    ORDERING_EDGES: FrozenSet[str] = frozenset()

    #: the observer events this scheme fires (see :meth:`hook_points`)
    OBSERVED = ("region_committed",)

    def __init__(self):
        self.machine: Optional["Machine"] = None
        self.observer = None  # wired by Machine.observe
        #: mirrors ``machine.fast_path`` after attach: schemes elide
        #: persist-op payloads and undo snapshots when set (docs/PERF.md)
        self.fast = False

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Bind the scheme to a machine (images, hierarchy, controllers)."""
        self.machine = machine
        self.fast = getattr(machine, "fast_path", False)

    def hook_points(self) -> list:
        """The scheme's structures that fire observer events; each class
        declares them in ``OBSERVED``."""
        return [self]

    @abc.abstractmethod
    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        """``asap_init`` equivalent: create per-thread scheme state."""

    # -- the five ops ----------------------------------------------------------

    @abc.abstractmethod
    def begin(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Open an atomic region."""

    @abc.abstractmethod
    def end(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Close the current atomic region; ``done`` fires when execution
        may proceed past the region (NOT necessarily when it commits)."""

    @abc.abstractmethod
    def write(self, thread: SchemeThread, addr: int, values, done: Callable[[], None]) -> None:
        """Store words at ``addr`` (all within one cache line)."""

    @abc.abstractmethod
    def read(self, thread: SchemeThread, addr: int, nwords: int, done: Callable[[list], None]) -> None:
        """Load ``nwords`` words at ``addr``; ``done`` receives the values."""

    def fence(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Block until the thread's last region is durable.

        Synchronous-commit schemes are already durable at ``end``; the
        default is therefore a no-op.
        """
        done()

    def migrate(self, thread: SchemeThread, new_core: int, done: Callable[[], None]) -> None:
        """Context-switch the thread to ``new_core`` (Sec. 5.7).

        The default just repoints the thread; ASAP additionally drains the
        suspended thread's CL List entries first.
        """
        thread.core_id = new_core
        done()

    # -- quiescence and crash ----------------------------------------------------

    def when_quiescent(self, done: Callable[[], None]) -> None:
        """Run ``done`` once no region's persistence work is outstanding.

        The default assumes synchronous commit (nothing outstanding after
        the last ``end`` retires).
        """
        done()

    def crash_flush(self, image: MemoryImage) -> None:
        """Flush scheme-private persistence-domain state into ``image``,
        a copy of PM that already holds the flushed WPQs; the scheme's
        own state is left untouched."""

    # -- helpers -----------------------------------------------------------------

    def _notify_commit(self, rid: int) -> None:
        if self.observer is not None:
            self.observer.region_committed(self, rid)
