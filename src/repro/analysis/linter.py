"""Static workload linter: persistency anti-patterns without timing.

The linter executes a workload's op streams *functionally*: generators are
advanced round-robin over a plain word-granular memory image, locks are
honoured as FIFO mutexes, and no cycle accounting, cache hierarchy, or
persistence machinery runs. This is enough to evaluate every data-dependent
branch in the workload (reads return real values) while staying orders of
magnitude faster than a timed run - and it lets the rules in
:data:`~repro.analysis.rules.LINT_RULES` judge the stream op by op:

* PM stores outside an ``asap_begin``/``asap_end`` region (ASAP-L001),
* unbalanced or unterminated regions (ASAP-L002),
* lock acquire/release mismatches (ASAP-L003),
* ``asap_fence`` inside a region - a guaranteed deadlock (ASAP-L004),
* reads of another thread's uncommitted PM state (ASAP-L005),
* context switches inside regions (ASAP-L006),
* critical sections that straddle region boundaries (ASAP-L007).

Round-robin interleaving is one legal serialization of the workload, so
shadow-model consistency checks inside the generators hold exactly as they
do under the timed simulator.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.address import line_base
from repro.common.errors import AnalysisError
from repro.common.params import SystemConfig
from repro.common.units import WORD_BYTES
from repro.engine import Scheduler
from repro.mem.image import MemoryImage
from repro.runtime.heap import PageTable, PersistentHeap, VolatileHeap
from repro.runtime.locks import SimLock
from repro.sim import ops as op_types
from repro.analysis.rules import Violation

#: safety valve against runaway generators (far above any bundled workload)
_MAX_LINT_OPS = 5_000_000


class LintMachine:
    """The slice of :class:`~repro.sim.machine.Machine` workloads install
    against, with no simulation behind it.

    Provides ``heap``, ``dram_heap``, ``page_table``, ``new_lock``,
    ``bootstrap_write``, ``spawn`` and ``install``; spawned generators are
    collected for the linter to drive instead of being scheduled.
    """

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.scheduler = Scheduler()  # only so SimLock can be constructed
        self.page_table = PageTable()
        self.heap = PersistentHeap(self.config.address_space, self.page_table)
        self.dram_heap = VolatileHeap(self.config.address_space)
        self.image = MemoryImage("lint")
        self.spawned: List[Callable] = []

    def new_lock(self, name: Optional[str] = None) -> SimLock:
        return SimLock(self.scheduler, name)

    def bootstrap_write(self, addr: int, values) -> None:
        self.image.write_range(addr, values)

    def spawn(self, gen_fn: Callable, core_id: Optional[int] = None) -> None:
        self.spawned.append(gen_fn)

    def install(self, workload) -> None:
        workload.install(self)


@dataclass
class LintResult:
    """Findings of one lint run."""

    source: str
    violations: List[Violation] = field(default_factory=list)
    threads: int = 0
    ops_checked: int = 0

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity violation was found."""
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "threads": self.threads,
            "ops_checked": self.ops_checked,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "violations": [v.to_dict() for v in self.violations],
        }


class _LintThread:
    """Lint-time state of one workload thread."""

    def __init__(self, index: int, gen_fn: Callable):
        self.index = index
        self.gen_fn = gen_fn
        self.gen = None
        self.op_index = -1  # index of the op currently being judged
        self.region_depth = 0
        #: unique serial of the open top-level region, None outside regions
        self.region_serial: Optional[int] = None
        #: lock -> region serial current when it was acquired
        self.held: Dict[SimLock, Optional[int]] = {}
        self.blocked_on: Optional[SimLock] = None
        self.pending_result = None
        self.finished = False


class WorkloadLinter:
    """Drives a :class:`LintMachine`'s threads and applies the L-rules."""

    def __init__(self, machine: LintMachine, source: str = "<ops>"):
        self.machine = machine
        self.result = LintResult(source=source)
        self._region_serials = itertools.count(1)
        self._open_regions: set = set()
        #: PM word -> (writer thread index, writer region serial)
        self._writer: Dict[int, Tuple[int, int]] = {}
        #: lock -> (holder thread index, FIFO of waiting threads)
        self._locks: Dict[SimLock, Tuple[int, Deque[_LintThread]]] = {}

    # -- reporting ---------------------------------------------------------

    def _report(self, thread: _LintThread, rule_id: str, message: str, **details) -> None:
        self.result.violations.append(
            Violation(
                rule_id=rule_id,
                message=message,
                thread_id=thread.index,
                op_index=max(thread.op_index, 0),
                source=self.result.source,
                details=details,
            )
        )

    # -- driving -----------------------------------------------------------

    def run(self) -> LintResult:
        threads = [_LintThread(i, fn) for i, fn in enumerate(self.machine.spawned)]
        self.result.threads = len(threads)
        for t in threads:
            t.gen = t.gen_fn(t)
        budget = _MAX_LINT_OPS
        while True:
            progressed = False
            for t in threads:
                if t.finished or t.blocked_on is not None:
                    continue
                self._step(t)
                progressed = True
                budget -= 1
                if budget <= 0:
                    raise AnalysisError(
                        f"lint op budget exhausted ({_MAX_LINT_OPS} ops); "
                        "the workload does not terminate under lint execution"
                    )
            if all(t.finished for t in threads):
                break
            if not progressed:
                blocked = sorted(t.index for t in threads if not t.finished)
                raise AnalysisError(
                    f"lint deadlock: threads {blocked} are all blocked on locks"
                )
        return self.result

    def _step(self, thread: _LintThread) -> None:
        result, thread.pending_result = thread.pending_result, None
        try:
            op = thread.gen.send(result)
        except StopIteration:
            self._finish_thread(thread)
            return
        thread.op_index += 1
        self.result.ops_checked += 1
        self._dispatch(thread, op)

    def _finish_thread(self, thread: _LintThread) -> None:
        thread.finished = True
        if thread.region_depth > 0:
            self._report(
                thread,
                "ASAP-L002",
                f"thread finished with {thread.region_depth} atomic "
                "region(s) still open",
            )
            self._open_regions.discard(thread.region_serial)
        for lock in list(thread.held):
            self._report(
                thread,
                "ASAP-L003",
                f"thread finished still holding lock {lock.name!r}",
                lock=lock.name,
            )
            self._release(thread, lock)

    # -- op semantics ------------------------------------------------------

    def _dispatch(self, thread: _LintThread, op) -> None:
        if isinstance(op, op_types.Begin):
            self._do_begin(thread)
        elif isinstance(op, op_types.End):
            self._do_end(thread)
        elif isinstance(op, op_types.Write):
            self._do_write(thread, op.addr, list(op.values))
        elif isinstance(op, op_types.Read):
            self._do_read(thread, op.addr, op.nwords)
        elif isinstance(op, op_types.Compute):
            pass
        elif isinstance(op, op_types.Fence):
            if thread.region_depth > 0:
                self._report(
                    thread,
                    "ASAP-L004",
                    "asap_fence inside an open atomic region waits for a "
                    "commit that cannot happen before the region ends",
                )
        elif isinstance(op, op_types.Migrate):
            if thread.region_depth > 0:
                self._report(
                    thread,
                    "ASAP-L006",
                    f"context switch to core {op.core_id} inside an open "
                    "atomic region",
                )
        elif isinstance(op, op_types.Lock):
            self._do_lock(thread, op.lock)
        elif isinstance(op, op_types.Unlock):
            self._do_unlock(thread, op.lock)
        else:
            raise AnalysisError(f"linter cannot interpret op {op!r}")

    def _do_begin(self, thread: _LintThread) -> None:
        thread.region_depth += 1
        if thread.region_depth == 1:
            thread.region_serial = next(self._region_serials)
            self._open_regions.add(thread.region_serial)

    def _do_end(self, thread: _LintThread) -> None:
        if thread.region_depth == 0:
            self._report(thread, "ASAP-L002", "asap_end without a matching asap_begin")
            return
        thread.region_depth -= 1
        if thread.region_depth == 0:
            self._open_regions.discard(thread.region_serial)
            thread.region_serial = None

    def _do_write(self, thread: _LintThread, addr: int, values: List[int]) -> None:
        persistent = self.machine.page_table.is_persistent(addr)
        if persistent and thread.region_depth == 0:
            self._report(
                thread,
                "ASAP-L001",
                f"store of {len(values)} word(s) to persistent address "
                f"{addr:#x} outside any atomic region",
                addr=addr,
                line=line_base(addr),
            )
        self.machine.image.write_range(addr, values)
        if persistent and thread.region_depth > 0:
            base = addr & ~(WORD_BYTES - 1)
            for i in range(len(values)):
                self._writer[base + i * WORD_BYTES] = (
                    thread.index,
                    thread.region_serial,
                )

    def _do_read(self, thread: _LintThread, addr: int, nwords: int) -> None:
        base = addr & ~(WORD_BYTES - 1)
        values = []
        flagged = False
        for i in range(nwords):
            word = base + i * WORD_BYTES
            values.append(self.machine.image.read_word(word))
            writer = self._writer.get(word)
            if (
                not flagged
                and writer is not None
                and writer[0] != thread.index
                and writer[1] in self._open_regions
            ):
                flagged = True
                self._report(
                    thread,
                    "ASAP-L005",
                    f"read of persistent word {word:#x} last written by "
                    f"thread {writer[0]}'s still-open atomic region; a "
                    "crash here may roll the observed value back",
                    addr=word,
                    writer_thread=writer[0],
                )
        thread.pending_result = values

    # -- locks -------------------------------------------------------------

    def _do_lock(self, thread: _LintThread, lock: SimLock) -> None:
        state = self._locks.get(lock)
        if state is None:
            self._acquired(thread, lock)
            return
        holder, waiters = state
        if holder == thread.index:
            self._report(
                thread,
                "ASAP-L003",
                f"re-acquiring lock {lock.name!r} already held by this thread",
                lock=lock.name,
            )
            return
        thread.blocked_on = lock
        waiters.append(thread)

    def _acquired(self, thread: _LintThread, lock: SimLock) -> None:
        existing = self._locks.get(lock)
        waiters = existing[1] if existing is not None else deque()
        self._locks[lock] = (thread.index, waiters)
        thread.held[lock] = thread.region_serial

    def _do_unlock(self, thread: _LintThread, lock: SimLock) -> None:
        state = self._locks.get(lock)
        if state is None or state[0] != thread.index:
            holder = None if state is None else state[0]
            self._report(
                thread,
                "ASAP-L003",
                f"releasing lock {lock.name!r} held by "
                f"{'nobody' if holder is None else f'thread {holder}'}",
                lock=lock.name,
            )
            return
        acquire_serial = thread.held.get(lock)
        if acquire_serial != thread.region_serial:
            self._report(
                thread,
                "ASAP-L007",
                f"lock {lock.name!r} acquired and released on different "
                "sides of an atomic-region boundary; critical section and "
                "region must nest cleanly",
                lock=lock.name,
            )
        self._release(thread, lock)

    def _release(self, thread: _LintThread, lock: SimLock) -> None:
        thread.held.pop(lock, None)
        _, waiters = self._locks.pop(lock)
        while waiters:
            successor = waiters.popleft()
            if successor.finished:
                continue
            self._locks[lock] = (successor.index, waiters)
            successor.held[lock] = successor.region_serial
            successor.blocked_on = None
            break


# -- public entry points ---------------------------------------------------


def lint_machine(machine: LintMachine, source: str = "<ops>") -> LintResult:
    """Lint the op streams spawned on ``machine``."""
    return WorkloadLinter(machine, source=source).run()


def lint_threads(
    gen_fns,
    machine: Optional[LintMachine] = None,
    source: str = "<ops>",
) -> LintResult:
    """Lint raw generator functions (each called with a thread env)."""
    machine = machine or LintMachine()
    for fn in gen_fns:
        machine.spawn(fn)
    return lint_machine(machine, source=source)


def lint_workload(name: str, params=None, config: Optional[SystemConfig] = None) -> LintResult:
    """Install one bundled workload on a :class:`LintMachine` and lint it."""
    from repro.workloads import WorkloadParams, get_workload

    params = params or WorkloadParams(
        num_threads=2, ops_per_thread=24, setup_items=24
    )
    machine = LintMachine(config)
    machine.install(get_workload(name, params))
    return lint_machine(machine, source=name)
