"""Optional event tracing: a timeline of what the machine did.

A :class:`Tracer` subscribes to a machine before it runs and records,
under any scheme, region lifecycles (begin / end retired / committed)
and persist-op acceptances and drains, with cycle stamps. Used by the
timeline tests to assert *when* things happen (e.g. End retires before
commit under ASAP, at commit under HWUndo), by ``examples/timeline.py``,
and handy when debugging a scheme. Overhead is one list append per
event; leave it off for benchmarks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.common.observe import SimObserver
from repro.core.rid import unpack_rid

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

#: event kinds
BEGIN = "begin"
END = "end"
COMMIT = "commit"
PERSIST_ACCEPT = "persist_accept"
PERSIST_DRAIN = "persist_drain"


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    kind: str
    thread_id: Optional[int] = None
    rid: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        rid = f" {unpack_rid(self.rid)}" if self.rid is not None else ""
        return f"@{self.cycle:>8} {self.kind:<14}{rid} {self.detail}".rstrip()


class Tracer(SimObserver):
    """Records a machine's timeline. Attach before :meth:`Machine.run`."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.events: List[TraceEvent] = []
        machine.observe(self)

    # -- events --------------------------------------------------------------

    def begin_retired(self, executor, rid) -> None:
        self._record(BEGIN, thread_id=executor.thread_id, rid=rid)

    def end_retired(self, executor, rid) -> None:
        # The instruction stream proceeds past the region here, which is
        # what makes synchronous vs asynchronous commit visible as a
        # commit-minus-end lag of zero vs positive.
        self._record(END, thread_id=executor.thread_id, rid=rid)

    def region_committed(self, source, rid) -> None:
        self._record(COMMIT, rid=rid)

    def wpq_accepted(self, wpq, op) -> None:
        self._persist(PERSIST_ACCEPT, wpq, op)

    def wpq_drained(self, wpq, op) -> None:
        self._persist(PERSIST_DRAIN, wpq, op)

    @cached_property
    def _channel_of_wpq(self) -> Dict[int, int]:
        return {id(ch.wpq): ch.index for ch in self.machine.memory.channels}

    def _persist(self, kind: str, wpq, op) -> None:
        detail = f"{op.kind} ch{self._channel_of_wpq[id(wpq)]}"
        self._record(kind, rid=op.rid, detail=detail)

    def _record(self, kind: str, thread_id=None, rid=None, detail="") -> None:
        now = self.machine.scheduler.now
        self.events.append(TraceEvent(now, kind, thread_id, rid, detail))

    # -- queries -----------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def region_timeline(self, rid: int) -> dict:
        """{end: cycle, commit: cycle} for one region (None if absent)."""
        out = {"end": None, "commit": None}
        for e in self.events:
            if e.rid == rid and e.kind in (END, COMMIT):
                out[e.kind] = e.cycle
        return out

    def commit_lags(self) -> List[int]:
        """Commit-minus-end-retire per region: the asynchrony the paper
        buys (zero everywhere would mean synchronous commit)."""
        ends = {e.rid: e.cycle for e in self.of_kind(END) if e.rid is not None}
        return [
            e.cycle - ends[e.rid]
            for e in self.of_kind(COMMIT)
            if e.rid in ends
        ]

    # -- export -----------------------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["cycle", "kind", "thread", "rid", "detail"])
        for e in self.events:
            writer.writerow(
                [e.cycle, e.kind, e.thread_id if e.thread_id is not None else "",
                 e.rid if e.rid is not None else "", e.detail]
            )
        return buf.getvalue()

    def dump(self, limit: int = 50) -> str:
        return "\n".join(str(e) for e in self.events[:limit])
