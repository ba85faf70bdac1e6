"""Trace-driven execution of one workload thread.

The executor advances its workload generator one op at a time, dispatching
each op to the persistence scheme (memory/region ops), the lock (isolation
ops), or the scheduler (compute). A fixed ``base_op_cost`` is charged per
op, playing the role of the instructions between memory references.

Region latency accounting (Fig. 8's metric) spans from the cycle a
top-level ``Begin`` is issued to the cycle its ``End`` *retires* - for
synchronous-commit schemes that includes the end-of-region persist wait;
for ASAP it does not, because ``End`` retires immediately.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional, TYPE_CHECKING

from repro.common.address import line_base
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES
from repro.sim import ops as op_types

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


class ThreadExecutor:
    """Drives one generator of ops through the machine."""

    OBSERVED = ("begin_retired", "end_retired", "region_stored")

    def __init__(self, machine: "Machine", thread_id: int, core_id: int, gen_fn):
        self.machine = machine
        self.thread_id = thread_id
        self.core_id = core_id
        self._gen_fn = gen_fn
        self._gen: Optional[Iterator] = None
        self._scheduler = machine.scheduler
        # ints, as Scheduler.after expects, whatever the config holds
        self._op_cost = int(machine.config.core.base_op_cost)
        self.scheme_thread = machine.scheme.register_thread(thread_id, core_id)
        self.finished = False
        self.observer = None  # wired by Machine.observe
        # region latency accounting (the scheme thread owns region identity)
        self._region_start: Optional[int] = None
        self.regions_completed = 0
        self.region_cycles_total = 0
        self.ops_executed = 0
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None

    # -- identity ------------------------------------------------------------

    @property
    def current_rid(self) -> Optional[int]:
        """Packed id of the region currently executing, as the scheme
        template assigned it (None between regions)."""
        thread = self.scheme_thread
        return thread.rid if thread.nest_depth else None

    @property
    def next_rid(self) -> int:
        """Packed id the next top-level ``Begin`` on this thread will open.

        Service workloads register a request's arrival cycle under this id
        *before* yielding the region, so the durable-commit notification
        (``region_committed``) can be matched back to the request.
        """
        return self.scheme_thread.next_rid

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self._gen = self._gen_fn(self)
        self.start_cycle = self._scheduler.now
        self._scheduler.after(0, partial(self._step, None))

    def _step(self, result) -> None:
        if self.finished:
            return
        try:
            op = self._gen.send(result)
        except StopIteration:
            self.finished = True
            self.finish_cycle = self._scheduler.now
            return
        self.ops_executed += 1
        self._dispatch(op)

    def _charge_and_step(self, result=None) -> None:
        self._scheduler.after(self._op_cost, partial(self._step, result))

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, op) -> None:
        scheme = self.machine.scheme
        if isinstance(op, op_types.Write):
            # one copy: the volatile image and subscribers keep this tuple
            self._do_write(op.addr, tuple(op.values))
        elif isinstance(op, op_types.Read):
            self._do_read(op.addr, op.nwords)
        elif isinstance(op, op_types.Compute):
            self._scheduler.after(max(0, int(op.cycles)), partial(self._step, None))
        elif isinstance(op, op_types.Begin):
            self._do_begin()
        elif isinstance(op, op_types.End):
            self._do_end()
        elif isinstance(op, op_types.Lock):
            op.lock.acquire(self.thread_id, self._charge_and_step)
        elif isinstance(op, op_types.Unlock):
            op.lock.release(self.thread_id, self._charge_and_step)
        elif isinstance(op, op_types.Fence):
            scheme.fence(self.scheme_thread, self._charge_and_step)
        elif isinstance(op, op_types.Migrate):
            self._do_migrate(op.core_id)
        else:
            raise SimulationError(f"unknown op {op!r}")

    def _do_migrate(self, new_core: int) -> None:
        if not 0 <= new_core < self.machine.config.num_cores:
            raise SimulationError(f"migrate to nonexistent core {new_core}")

        def switched() -> None:
            self.core_id = new_core
            self._charge_and_step()

        self.machine.scheme.migrate(self.scheme_thread, new_core, switched)

    # -- memory ops (split per cache line) -----------------------------------------

    def _do_write(self, addr: int, values) -> None:
        observer = self.observer
        if observer is not None:
            rid = self.current_rid
            if rid is not None and self.machine.page_table.is_persistent(addr):
                observer.region_stored(self, rid, addr, values)
        base = addr & ~(WORD_BYTES - 1)
        if values and _fits_line(base, len(values)):
            # one line: the scheme's completion steps the thread directly
            self.machine.scheme.write(
                self.scheme_thread, base, values, self._charge_and_step
            )
            return
        chunks = [
            (start, values[lo:hi])
            for start, lo, hi in _split_by_line(addr, len(values))
        ]

        def issue(index: int) -> None:
            if index >= len(chunks):
                self._charge_and_step()
                return
            chunk_addr, chunk_values = chunks[index]
            self.machine.scheme.write(
                self.scheme_thread,
                chunk_addr,
                chunk_values,
                lambda: issue(index + 1),
            )

        issue(0)

    def _do_read(self, addr: int, nwords: int) -> None:
        base = addr & ~(WORD_BYTES - 1)
        if nwords > 0 and _fits_line(base, nwords):
            # one line: the scheme's (fresh) value list is the op's result
            self.machine.scheme.read(
                self.scheme_thread, base, nwords, self._charge_and_step
            )
            return
        chunks = [(start, hi - lo) for start, lo, hi in _split_by_line(addr, nwords)]
        collected: list = []

        def issue(index: int) -> None:
            if index >= len(chunks):
                self._charge_and_step(collected)
                return
            chunk_addr, chunk_words = chunks[index]

            def got(values) -> None:
                collected.extend(values)
                issue(index + 1)

            self.machine.scheme.read(self.scheme_thread, chunk_addr, chunk_words, got)

        issue(0)

    # -- region ops -------------------------------------------------------------------

    def _do_begin(self) -> None:
        opening_top_level = not self.scheme_thread.nest_depth
        if opening_top_level:
            self._region_start = self._scheduler.now

        def after_begin() -> None:
            if opening_top_level and self.observer is not None:
                self.observer.begin_retired(self, self.current_rid)
            self._charge_and_step()

        self.machine.scheme.begin(self.scheme_thread, after_begin)

    def _do_end(self) -> None:
        rid = self.current_rid
        closing_top_level = self.scheme_thread.nest_depth == 1

        def after_end() -> None:
            if closing_top_level:
                if self.observer is not None:
                    self.observer.end_retired(self, rid)
                self.regions_completed += 1
                self.region_cycles_total += (
                    self._scheduler.now - self._region_start
                )
                self._region_start = None
            self._charge_and_step()

        self.machine.scheme.end(self.scheme_thread, after_end)


def _fits_line(base: int, nwords: int) -> bool:
    """Whether ``nwords`` words from word address ``base`` stay in one line."""
    return (base & (CACHE_LINE_BYTES - 1)) + nwords * WORD_BYTES <= CACHE_LINE_BYTES


def _split_by_line(addr: int, nwords: int):
    """Split the run of ``nwords`` words from ``addr`` at line boundaries
    into ``(start address, first word, end word)`` spans, one per line."""
    spans = []
    base = addr & ~(WORD_BYTES - 1)
    lo = 0
    while lo < nwords:
        start = base + lo * WORD_BYTES
        line_end = line_base(start) + CACHE_LINE_BYTES
        hi = min(nwords, lo + (line_end - start) // WORD_BYTES)
        spans.append((start, lo, hi))
        lo = hi
    return spans
