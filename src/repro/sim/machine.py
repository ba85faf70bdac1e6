"""Machine assembly: one simulated system under one persistence scheme."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver, slot_for
from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.controller import MemorySystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.image import MemoryImage
from repro.mem.wpq import DrainToImage
from repro.persist.base import PersistenceScheme
from repro.runtime.heap import PageTable, PersistentHeap, VolatileHeap
from repro.runtime.locks import SimLock
from repro.sim.executor import ThreadExecutor
from repro.sim.oracle import CommitOracle
from repro.sim.stats import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.base import Workload


class Machine:
    """A full simulated system.

    Construction order matters: images -> memory system -> hierarchy ->
    scheme attach. Workload threads are added with :meth:`spawn` and the
    whole run is driven by :meth:`run`.
    """

    def __init__(self, config: SystemConfig, scheme: PersistenceScheme):
        """``pm_image`` and ``oracle`` stay None until :meth:`inspect`."""
        self.config = config
        self.scheduler = Scheduler()
        self.volatile = MemoryImage("volatile")
        self.pm_image: Optional[MemoryImage] = None
        self.page_table = PageTable()
        self.heap = PersistentHeap(config.address_space, self.page_table)
        self.dram_heap = VolatileHeap(config.address_space)
        self.memory = MemorySystem(config, self.scheduler)
        self.hierarchy = CacheHierarchy(
            config,
            self.scheduler,
            self.memory,
            self.volatile,
            self.page_table.is_persistent,
        )
        self.scheme = scheme
        self.oracle: Optional[CommitOracle] = None
        scheme.attach(self)
        self.executors: List[ThreadExecutor] = []
        self.locks: List[SimLock] = []
        #: the workloads :meth:`install` put on this machine, in order
        self.workloads: List["Workload"] = []
        self.observers: List[SimObserver] = []
        self._next_thread_id = 0
        self._started = False
        #: the images that hold the pre-run durable state beside the
        #: volatile one (none until :meth:`inspect`); taken once, as no
        #: commit is pending before the run
        self._durable_images = ()

    def inspect(self) -> "Machine":
        """Attach the PM image and the commit oracle, which crash, verify
        and explain read, as the first two subscribers, in one wiring
        pass: the image first, so each payload (a log header's as of its
        drain cycle) lands before anyone else sees the drain. Raises
        :class:`SimulationError` after a bootstrap write, an adopted
        image, a subscription or a run, so also when called twice."""
        # every bootstrap write or adopted image lands in the volatile one
        if self.observers or self._started or len(self.volatile):
            raise SimulationError(
                "inspect() must come once, before the first bootstrap_write, "
                "adopt_image, observe and run"
            )
        self.pm_image = MemoryImage("pm")
        self.oracle = CommitOracle()
        self.observers.append(DrainToImage(self.pm_image))
        self._durable_images = (self.pm_image, self.oracle.committed)
        self.observe(self.oracle)
        return self

    def observe(self, subscriber: SimObserver) -> SimObserver:
        """Subscribe ``subscriber`` to every hook point, now and later;
        subscribers share the run in subscription order."""
        self.observers.append(subscriber)
        points = [ch.wpq for ch in self.memory.channels] + [self.hierarchy]
        for point in points + self.scheme.hook_points() + self.locks + self.executors:
            self._wire(point)
        return subscriber

    def _wire(self, point) -> None:
        point.observer = slot_for(type(point).OBSERVED, self.observers)

    # -- workload wiring -----------------------------------------------------

    def install(self, workload: "Workload") -> None:
        """Bootstrap ``workload``'s structure, spawn its threads and record
        it in :attr:`workloads` (the crash check runs their validators)."""
        workload.install(self)
        self.workloads.append(workload)

    def new_lock(self, name: Optional[str] = None) -> SimLock:
        lock = SimLock(self.scheduler, name)
        self.locks.append(lock)
        self._wire(lock)
        return lock

    def spawn(self, gen_fn: Callable, core_id: Optional[int] = None) -> ThreadExecutor:
        """Add a workload thread.

        Args:
            gen_fn: called with the executor's :class:`ThreadExecutor` env;
                must return a generator yielding ops.
            core_id: defaults to round-robin over cores.
        """
        thread_id = self._next_thread_id
        self._next_thread_id += 1
        if core_id is None:
            core_id = thread_id % self.config.num_cores
        executor = ThreadExecutor(self, thread_id, core_id, gen_fn)
        self.executors.append(executor)
        self._wire(executor)
        return executor

    def bootstrap_write(self, addr: int, values) -> None:
        """Zero-cost initialisation write, as if persisted before the run.

        Only allowed before the first :meth:`run`: raises
        :class:`SimulationError` once the run has started. Until then the
        volatile image, the PM image and the commit oracle's committed
        image hold the same lines (modelling a data structure that was
        built and made durable before the measured and crash-injected
        phase begins), so the write is applied to the volatile image once
        and, on an inspected machine, the other two store the resulting
        line tuples as they are.
        """
        if self._started:
            raise SimulationError(
                f"bootstrap_write at {addr:#x} after the run started; "
                "bootstrap state must be written before the first run()"
            )
        self.volatile.write_range(addr, values)
        if self._durable_images:
            pm, committed = self._durable_images  # unpacked: a star-call costs more
            self.volatile.share_lines(addr, len(values), pm, committed)

    def adopt_image(self, image) -> None:
        """Resume from a recovered PM image (the restart-after-crash flow).

        Overwrites the volatile view and, on an inspected machine, the
        PM and oracle-committed views with the image's lines - call
        after installing the workload (so its address layout matches;
        heap allocation is deterministic) and before :meth:`run`. The
        continuing run then operates on exactly the durable state the
        crashed machine left behind.
        """
        lines = image.lines()  # whole-line runs; the tuples are shared
        self.volatile.apply(lines)
        for durable in self._durable_images:
            durable.apply(lines)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        until: Optional[int] = None,
        max_events: int = 200_000_000,
    ) -> RunResult:
        """Run the event queue up to ``until`` (default: until it drains).

        The first call starts every thread; later calls resume from the
        current clock, so ``run(until=a)`` then ``run()`` is one ``run()``
        cut in two. Returns the :class:`RunResult` as of the stop. Raises
        on deadlock (threads unfinished, no events left).
        """
        if not self._started:
            self._started = True
            for executor in self.executors:
                executor.start()
        self.scheduler.run(until=until, max_events=max_events)
        if until is None:
            unfinished = [e.thread_id for e in self.executors if not e.finished]
            if unfinished:
                raise SimulationError(self._deadlock_message(unfinished))
        return self.result()

    def _deadlock_message(self, unfinished: List[int]) -> str:
        """Name what each stuck thread waits on, read from the lock queues
        and the hardware wait queues as they stand."""
        queued_on = {t: lock for lock in self.locks for t in lock.queued_threads()}
        queues = [("MSHR", self.hierarchy.mshr_waiters)] + self.scheme.wait_queues()
        parked = ", ".join(f"{name} ({len(q)})" for name, q in queues if q) or "none"
        lines = [f"deadlock: threads {unfinished} never finished and the event queue is empty"]
        for tid in unfinished:
            lock = queued_on.get(tid)
            lines.append(
                f"  thread {tid}: queued on {lock.name}, held by thread {lock.holder}"
                if lock is not None
                else f"  thread {tid}: parked on an internal resource; "
                f"non-empty wait queues: {parked}"
            )
        return "\n".join(lines)

    def result(self) -> RunResult:
        return RunResult.collect(self)
