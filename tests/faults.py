"""Test-only fault hooks: re-open a fixed persist-ordering edge.

The simulator has one WPQ admission model and one LPO ordering model. The
two historical bugs they fix must still be *shown found* by the race
detector, the directed fuzzer and the shrinker (positive controls), so
:func:`reopen_edge` puts one pre-fix behaviour back for the duration of a
``with`` block:

* ``"wpq-fifo"``: a backpressured persist op parks a resubmission closure
  on a wait queue, woken one per freed entry, so a later submission that
  races a freed slot can overtake it, and parked ops are invisible to
  LPO/DPO dropping - the cross-thread commit-ordering hazard (ASAP-R001).
* ``"line-chain"``: LPOs go straight to the controller with no per-line
  chain ordering, so a dependent's log entry for a line can become durable
  before its predecessor's - the incomplete undo chain (ASAP-R002).

Each hook also removes the edge from every scheme's ``ORDERING_EDGES`` so
the race detector stops assuming the guarantee. Hooks patch classes, so
they reach only the current process: a subprocess never sees them.
"""

from contextlib import contextmanager

import pytest

from repro.engine import WaitQueue
from repro.mem.wpq import WritePendingQueue
from repro.persist import PersistenceScheme
from repro.persist.base import LineChainGate


def _parked(wpq) -> WaitQueue:
    queue = wpq.__dict__.get("_fault_parked")
    if queue is None:
        queue = wpq._fault_parked = WaitQueue(wpq._scheduler)
    return queue


def _reopen_wpq_fifo(mp) -> None:
    drain_one = WritePendingQueue._drain_one
    finish_drops = WritePendingQueue._finish_drops

    def submit(self, op):
        if op.submitted_at is None:
            op.submitted_at = self._scheduler.now
            if self.observer is not None:
                self.observer.wpq_submitted(self, op)
        if not self.full:
            self._accept(op)
        else:
            op.backpressured = True
            _parked(self).park(lambda: self.submit(op))

    def parked_drain_one(self):
        freed = bool(self._entries)
        drain_one(self)
        if freed:
            _parked(self).wake_one()

    def parked_finish_drops(self, victims, predicate):
        dropped = finish_drops(self, victims, predicate)
        for _ in range(dropped):
            _parked(self).wake_one()
        return dropped

    mp.setattr(WritePendingQueue, "submit", submit)
    mp.setattr(WritePendingQueue, "_drain_one", parked_drain_one)
    mp.setattr(WritePendingQueue, "_finish_drops", parked_finish_drops)


def _reopen_line_chain(mp) -> None:
    def submit(self, op, line):
        self.memory.issue_persist(op)
        return False  # never held

    mp.setattr(LineChainGate, "submit", submit)
    mp.setattr(LineChainGate, "advance", lambda self, line: None)


_HOOKS = {"wpq-fifo": _reopen_wpq_fifo, "line-chain": _reopen_line_chain}


def _drop_declared_edge(mp, edge: str) -> None:
    stack = [PersistenceScheme]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        edges = cls.__dict__.get("ORDERING_EDGES")
        if edges and edge in edges:
            mp.setattr(cls, "ORDERING_EDGES", edges - {edge})


@contextmanager
def reopen_edge(edge: str):
    """Disable ``edge`` ("wpq-fifo" | "line-chain") at its enforcement site
    and in every scheme's declared ``ORDERING_EDGES`` inside the block."""
    if edge not in _HOOKS:
        raise ValueError(f"no fault hook for edge {edge!r}; use {sorted(_HOOKS)}")
    with pytest.MonkeyPatch.context() as mp:
        _HOOKS[edge](mp)
        _drop_declared_edge(mp, edge)
        yield
