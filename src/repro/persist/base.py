"""The persistence-scheme interface.

A scheme interprets the five persistence-relevant ops (begin, end, read,
write, fence) in continuation-passing style: the ``done`` callback fires
when the instruction may retire. Synchronous-commit schemes delay ``End``'s
``done``; ASAP never does.

:class:`PersistenceScheme` is a template: it owns region nesting and rid
assignment, and calls the scheme's ``begin_region``/``end_region`` only
for top-level regions. Schemes also fire the ``region_committed``
observer event through their :class:`CommitHook` (the commit oracle
subscribes to it), expose a ``crash_flush(image)`` hook that flushes
their share of the persistence domain into a crash snapshot's copy of
PM, and declare the recovery procedure their crash images need in
``RECOVERY``.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.core.log import UndoLog
from repro.core.rid import pack_rid
from repro.mem.wpq import DPO, LOGHDR, PersistOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.log import LogRecord
    from repro.mem.controller import MemorySystem
    from repro.mem.image import MemoryImage
    from repro.sim.machine import Machine

#: The ordering-edge kinds a scheme may guarantee between persist
#: operations (docs/RACES.md has the full semantics):
#:
#: - ``"wpq-fifo"``: same-channel persists are accepted in submission
#:   order (the WPQ's FIFO backpressure admission).
#: - ``"line-chain"``: chained same-line log persists are accepted in
#:   chain order (the asap and hwundo per-line LPO ordering).
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

#: Redo-logging model parameters shared by ``hwredo`` and ``asap_redo``:
#: cycles a committed region's data may linger in DRAM/cache before its
#: in-place writeback is attempted (the commit-time DPO lazy window) ...
REDO_DPO_DELAY = 1500
#: ... and extra cycles when a read inside a region targets a line the
#: region has already logged: redo logging redirects such reads to the
#: log (Sec. 2.3), adding an indirection on the load path.
READ_REDIRECT_PENALTY = 12


class LineChainGate:
    """The ``"line-chain"`` edge: at most one log persist per line in flight.

    Two regions that write the same line may log it in different records,
    possibly on different channels, so nothing in the memory system orders
    the two log entries' durability. If the later entry became durable
    alone, its logged "old value" would be data that was never durable,
    and undo recovery would restore it (docs/RECOVERY.md). So a later
    same-line op waits here until the in-flight one resolves. The scheme calls :meth:`advance` from
    the op's durability callback (acceptance for asap, drain for hwundo),
    which also fires for dropped ops, so the chain always moves on. Only
    the log write waits; execution never stalls.

    With ``ride_same_channel`` a follower on the in-flight op's channel
    issues at once and joins the in-flight group: one channel's FIFO
    admission (equal MC hop, FIFO scheduler ties) already orders their
    acceptance. Only chains whose entries cross channels wait.
    """

    def __init__(self, memory: "MemorySystem", ride_same_channel: bool):
        self.memory = memory
        self.ride_same_channel = ride_same_channel
        #: line -> [target line of the group's first op, ops in flight]
        self._inflight: Dict[int, list] = {}
        #: line -> FIFO of held ops, released oldest first
        self._waiters: Dict[int, Deque[PersistOp]] = {}

    def submit(self, op: PersistOp, line: int) -> bool:
        """Issue ``op`` for ``line``, or hold it behind the in-flight op;
        returns whether it was held."""
        inflight = self._inflight.get(line)
        if inflight is None:
            self._inflight[line] = [op.target_line, 1]
        elif (
            self.ride_same_channel
            and line not in self._waiters
            and self.memory.channel_for_line(inflight[0])
            is self.memory.channel_for_line(op.target_line)
        ):
            inflight[1] += 1
        else:
            self._waiters.setdefault(line, deque()).append(op)
            return True
        self.memory.issue_persist(op)
        return False

    def advance(self, line: int) -> None:
        """One of ``line``'s in-flight ops is durable or dropped; once the
        whole group is, issue the oldest held op."""
        inflight = self._inflight.get(line)
        if inflight is None:
            return
        inflight[1] -= 1
        if inflight[1] > 0:
            return
        waiters = self._waiters.get(line)
        if waiters:
            nxt = waiters.popleft()
            if not waiters:
                del self._waiters[line]
            self._inflight[line] = [nxt.target_line, 1]
            self.memory.issue_persist(nxt)
        else:
            del self._inflight[line]


class SchemeThread:
    """Base per-thread scheme state; schemes subclass or use as-is.

    The Thread State Registers (Sec. 4.5): only the
    :class:`PersistenceScheme` template writes ``nest_depth``,
    ``regions_begun`` and ``rid``; the executor reads them to name the
    region a store, an observer event or a service request belongs to.
    """

    def __init__(self, thread_id: int, core_id: int):
        self.thread_id = thread_id
        self.core_id = core_id
        #: region nesting depth (all schemes flatten nested regions)
        self.nest_depth = 0
        #: top-level regions begun by this thread (the last LocalRID issued)
        self.regions_begun = 0
        #: packed rid of the current (or last) top-level region
        self.rid: Optional[int] = None

    @property
    def next_rid(self) -> int:
        """Packed rid the thread's next top-level region will get."""
        return pack_rid(self.thread_id, self.regions_begun + 1)


class CommitHook:
    """The hook point of ``region_committed``, which every scheme fires.
    A commits-only subscriber (the commit oracle, the service recorder)
    fills this slot and leaves the scheme's own slot empty."""

    OBSERVED = ("region_committed",)

    def __init__(self, scheme: "PersistenceScheme"):
        self.scheme = scheme
        self.observer = None  # wired by Machine.observe

    def fire(self, rid: int) -> None:
        if self.observer is not None:
            self.observer.region_committed(self.scheme, rid)


class PersistenceScheme(abc.ABC):
    """Template for every scheme (Sec. 6.3 baselines, ASAP, extensions).

    A scheme overrides :meth:`write` and the top-level region hooks
    :meth:`begin_region`/:meth:`end_region`; :meth:`read`, :meth:`fence`,
    :meth:`migrate` and :meth:`crash_flush` have plain defaults. It
    declares ``ORDERING_EDGES``, ``OBSERVED`` and ``RECOVERY``, and
    overrides :meth:`hook_points` when other structures fire its events.
    """

    #: evaluation name ("np", "sw", "hwundo", "hwredo", "asap")
    name: str = "abstract"

    #: the durability-ordering guarantees this scheme provides between
    #: persist operations, as a subset of :data:`EDGE_KINDS`. This is the
    #: scheme's self-description for the happens-before race detector
    #: (:mod:`repro.analysis.races`): a new scheme declares what it
    #: orders, and the detector checks that declaration against observed
    #: traces.
    ORDERING_EDGES: FrozenSet[str] = frozenset()

    #: the observer events this scheme fires itself (see
    #: :meth:`hook_points`); ``region_committed`` goes through ``commits``
    OBSERVED = ()

    #: the recovery procedure this scheme's crash images need: ``"undo"``
    #: (roll uncommitted regions back), ``"redo"`` (replay marked
    #: regions), or None when crash recovery is not modelled. Crash
    #: snapshots, the crash fuzzer and the crash sweep key off it.
    RECOVERY: Optional[str] = None

    #: scheme-internal counters carried into ``RunResult.scheme_stats``
    stats = None

    def __init__(self):
        self.machine: Optional["Machine"] = None
        self.observer = None  # wired by Machine.observe
        self.commits = CommitHook(self)

    # -- lifecycle -----------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Bind the scheme to a machine (images, hierarchy, controllers)."""
        self.machine = machine

    def hook_points(self) -> list:
        """The scheme's structures that fire observer events; each class
        declares them in ``OBSERVED``."""
        return [self, self.commits]

    def wait_queues(self) -> list:
        """``(name, WaitQueue)`` of the scheme's structures that park
        threads, for the deadlock report."""
        return []

    def register_thread(self, thread_id: int, core_id: int) -> SchemeThread:
        """``asap_init`` equivalent: create per-thread scheme state."""
        return SchemeThread(thread_id, core_id)

    # -- the five ops ----------------------------------------------------------

    def begin(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Open an atomic region; nested regions flatten into the
        outermost one (Sec. 4.5)."""
        thread.nest_depth += 1
        if thread.nest_depth > 1:
            done()
            return
        thread.rid = thread.next_rid
        thread.regions_begun += 1
        self.begin_region(thread, done)

    def end(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Close the current atomic region; ``done`` fires when execution
        may proceed past the region (NOT necessarily when it commits)."""
        if thread.nest_depth <= 0:
            raise SimulationError(f"thread {thread.thread_id}: End without Begin")
        thread.nest_depth -= 1
        if thread.nest_depth > 0:
            done()
            return
        self.end_region(thread, done)

    def begin_region(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Open a top-level region; ``thread.rid`` already names it."""
        done()

    def end_region(self, thread: SchemeThread, done: Callable[[], None]) -> None:
        """Close a top-level region. The default commits it at once."""
        self.commits.fire(thread.rid)
        done()

    @abc.abstractmethod
    def write(self, thread: SchemeThread, addr: int, values, done: Callable[[], None]) -> None:
        """Store words at ``addr`` (all within one cache line)."""

    def read(self, thread: SchemeThread, addr: int, nwords: int, done: Callable[[list], None]) -> None:
        """Load ``nwords`` words at ``addr``; ``done`` receives the values."""

        def after(meta) -> None:
            done(self.machine.volatile.read_words(addr, nwords))

        self.machine.hierarchy.access(thread.core_id, addr, False, after)

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

    # -- crash and recovery --------------------------------------------------------

    def crash_flush(self, image: MemoryImage) -> None:
        """Flush scheme-private persistence-domain state into ``image``,
        a copy of PM that already holds the flushed WPQs; the scheme's
        own state is left untouched."""

    def dependence_snapshot(self) -> List[dict]:
        """The persisted Dependence List entries recovery orders by."""
        return []

    def thread_logs(self) -> Dict[int, UndoLog]:
        """Thread id -> the log whose record slots recovery scans."""
        return {}

    def marker_directory(self) -> Dict[int, List[tuple]]:
        """Redo only: thread id -> [(marker base, slots, stride)]."""
        return {}

    def stall_counts(self) -> Dict[str, int]:
        """Structural-stall counters for ``RunResult.stall_breakdown``."""
        return {}

    # -- helpers -----------------------------------------------------------------

    def _new_log(self, thread_id: int) -> UndoLog:
        """``asap_init``'s log area for ``thread_id``, from the PM heap."""
        return UndoLog.allocate(
            thread_id, self.machine.config.asap, self.machine.heap.alloc
        )

    def _persist_line(
        self, line: int, rid: int, on_complete=None, on_drain=None
    ) -> None:
        """Write ``line``'s current value in place (a DPO, no wait) with the
        op's callbacks. The cached copy is clean from here on: the
        writeback is on its way."""
        machine = self.machine
        meta = machine.hierarchy.tags.get(line)
        if meta is not None:
            meta.dirty = False
        payload = ((line, machine.volatile.line(line)),)
        machine.memory.issue_persist(
            PersistOp(DPO, line, line, payload, rid, on_complete, on_drain)
        )

    def _persist_header(self, sealed: "LogRecord", rid: int, payload) -> None:
        """Persist a sealed log record's header line (no wait). ``payload``
        is the caller's: the header runs, or the record's bound
        ``header_payload`` to read the header when the op is flushed."""
        self.machine.memory.issue_persist(
            PersistOp(
                LOGHDR, sealed.header_addr, sealed.header_addr, payload, rid
            )
        )
