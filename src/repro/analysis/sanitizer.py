"""Runtime invariant sanitizer: checks ASAP's WAL contract on live events.

The sanitizer is a :class:`~repro.common.SimObserver` subscribed to every
hook point of the machine (``Machine.observe``), under any scheme. It
keeps a small mirror of the protocol state - which regions are active,
which (region, line) pairs have durable log entries, which regions each
region depends on - and raises :class:`~repro.common.errors.SanitizerError`
(or collects a :class:`~repro.analysis.rules.Violation`) the moment an
event breaks one of the S-rules:

* ASAP-S001 log-before-data: a DPO/WB for an uncommitted region's line is
  accepted into a WPQ although the line's log entry is not durable yet,
* ASAP-S002 commit-order: a region commits before a recorded Dependence
  List predecessor,
* ASAP-S003 capacity: CL List / CLPtr / Dependence List / Dep slot /
  LH-WPQ / WPQ / MSHR occupancy exceeds its configured capacity,
* ASAP-S004 freed-log-use: a log persist operation is issued for a region
  whose log records were already freed by commit,
* ASAP-S005 mshr-consistency: the non-blocking hierarchy's miss tracking
  breaks its contract - a second fetch is allocated for a line already
  in flight, a merge or fill finds no in-flight fetch, or a fetch
  completes with no queued requester.

Attach with :meth:`Sanitizer.attach`; enable on harness runs with the
``--sanitize`` flag (see :mod:`repro.harness.cli`) or
``run_once(..., sanitize=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import SanitizerError
from repro.common.observe import SimObserver
from repro.analysis.rules import Violation
from repro.mem.wpq import DPO, LPO, WB


class Sanitizer(SimObserver):
    """Collects (or raises on) runtime persistency-invariant violations."""

    def __init__(self, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self.events_checked = 0
        self._machine = None
        #: rids begun and not yet committed
        self._active: Set[int] = set()
        #: rids committed (log freed)
        self._committed: Set[int] = set()
        #: (rid, data line) pairs whose log entry is durable
        self._logged: Set[Tuple[int, int]] = set()
        #: rid -> set of rids it depends on (mirror of Dep slots over time)
        self._deps: Dict[int, Set[int]] = {}
        #: lines with an in-flight MSHR fetch (mirror of the LLC file)
        self._mshr_inflight: Set[int] = set()

    # -- bookkeeping -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def _now(self) -> Optional[int]:
        if self._machine is not None:
            return self._machine.scheduler.now
        return None

    def _flag(self, rule_id: str, message: str, source: Optional[str] = None, **details) -> None:
        violation = Violation(
            rule_id=rule_id,
            message=message,
            cycle=self._now(),
            source=source,
            details=details,
        )
        self.violations.append(violation)
        if self.raise_on_violation:
            raise SanitizerError(violation)

    # -- wiring ------------------------------------------------------------

    def attach(self, machine) -> "Sanitizer":
        """Keep ``machine`` for the clock and subscribe to it."""
        self._machine = machine
        machine.observe(self)
        return self

    # -- engine events -----------------------------------------------------

    def region_begun(self, engine, thread, rid) -> None:
        self.events_checked += 1
        self._active.add(rid)
        self._deps.setdefault(rid, set())
        if not hasattr(engine, "cl_lists"):  # asap_redo keeps no CL Lists
            return
        cl = engine.cl_lists[thread.core_id]
        if len(cl) > cl.max_entries:
            self._flag(
                "ASAP-S003",
                f"CL List of core {thread.core_id} holds {len(cl)} entries "
                f"(capacity {cl.max_entries})",
                source=f"cl-list[{thread.core_id}]",
                occupancy=len(cl),
                capacity=cl.max_entries,
            )

    def dep_captured(self, engine, rid, owner) -> None:
        self.events_checked += 1
        self._deps.setdefault(rid, set()).add(owner)
        entry = engine.dep_list_for(rid).entry(rid)
        if entry is not None and len(entry.deps) > entry.max_deps:
            self._flag(
                "ASAP-S003",
                f"region {rid:#x} tracks {len(entry.deps)} dependencies "
                f"(Dep slot capacity {entry.max_deps})",
                source="dep-slots",
                rid=rid,
                occupancy=len(entry.deps),
                capacity=entry.max_deps,
            )

    def slot_opened(self, engine, entry, line) -> None:
        self.events_checked += 1
        if len(entry.slots) > entry.max_slots:
            self._flag(
                "ASAP-S003",
                f"CL entry of region {entry.rid:#x} tracks "
                f"{len(entry.slots)} lines (CLPtr capacity {entry.max_slots})",
                source="clptr-slots",
                rid=entry.rid,
                occupancy=len(entry.slots),
                capacity=entry.max_slots,
            )

    def lpo_initiated(self, engine, rid, line, entry_addr) -> None:
        self.events_checked += 1
        if rid in self._committed:
            self._flag(
                "ASAP-S004",
                f"LPO initiated for line {line:#x} of region {rid:#x}, "
                "which already committed and freed its log records",
                source="undo-log",
                rid=rid,
                line=line,
            )
        for lh in getattr(engine, "lh_wpqs", ()):  # nor LH-WPQs
            if len(lh) > lh.capacity:
                self._flag(
                    "ASAP-S003",
                    f"{lh.name} holds {len(lh)} headers "
                    f"(capacity {lh.capacity})",
                    source=lh.name,
                    occupancy=len(lh),
                    capacity=lh.capacity,
                )

    def lpo_logged(self, engine, rid, line) -> None:
        self.events_checked += 1
        self._logged.add((rid, line))

    def region_committed(self, source, rid) -> None:
        self.events_checked += 1
        outstanding = {
            dep for dep in self._deps.get(rid, ()) if dep not in self._committed
        }
        self._active.discard(rid)
        self._committed.add(rid)
        self._deps.pop(rid, None)
        if outstanding:
            pretty = ", ".join(f"{dep:#x}" for dep in sorted(outstanding))
            self._flag(
                "ASAP-S002",
                f"region {rid:#x} committed before its Dependence List "
                f"predecessor(s) {pretty}",
                source="dependence-list",
                rid=rid,
                outstanding=sorted(outstanding),
            )

    # -- dependence list events -------------------------------------------

    def dep_entry_opened(self, dep_list, entry) -> None:
        self.events_checked += 1
        if len(dep_list) > dep_list.max_entries:
            self._flag(
                "ASAP-S003",
                f"Dependence List of channel {dep_list.channel_index} holds "
                f"{len(dep_list)} entries (capacity {dep_list.max_entries})",
                source=f"dep-list[{dep_list.channel_index}]",
                occupancy=len(dep_list),
                capacity=dep_list.max_entries,
            )

    # -- WPQ events --------------------------------------------------------

    def wpq_accepted(self, wpq, op) -> None:
        self.events_checked += 1
        if len(wpq) > wpq.capacity:
            self._flag(
                "ASAP-S003",
                f"{wpq.name} holds {len(wpq)} entries "
                f"(capacity {wpq.capacity})",
                source=wpq.name,
                occupancy=len(wpq),
                capacity=wpq.capacity,
            )
        rid = op.rid
        if rid is None:
            return
        if op.kind in (DPO, WB) and rid in self._active:
            if (rid, op.target_line) not in self._logged:
                self._flag(
                    "ASAP-S001",
                    f"{op.kind.upper()} for line {op.target_line:#x} of "
                    f"uncommitted region {rid:#x} accepted into {wpq.name} "
                    "before the line's log entry was durable",
                    source=wpq.name,
                    rid=rid,
                    line=op.target_line,
                    kind=op.kind,
                )
        elif op.kind == LPO and rid in self._committed:
            self._flag(
                "ASAP-S004",
                f"LPO for line {op.data_line:#x} of committed region "
                f"{rid:#x} accepted into {wpq.name} after its log records "
                "were freed",
                source=wpq.name,
                rid=rid,
                line=op.data_line,
            )

    # -- cache hierarchy events -------------------------------------------

    def line_evicted(self, meta, wb_op) -> None:
        self.events_checked += 1
        if meta.lock_bit:
            self._flag(
                "ASAP-S001",
                f"line {meta.line:#x} evicted from the LLC while its "
                "LockBit is set (an LPO is still in flight, so its log "
                "entry cannot be durable yet)",
                source="llc",
                line=meta.line,
                owner=meta.owner_rid,
            )

    def mshr_allocated(self, hierarchy, line, core_id) -> None:
        self.events_checked += 1
        if line in self._mshr_inflight:
            self._flag(
                "ASAP-S005",
                f"a second memory fetch was allocated for line {line:#x} "
                "while one is already in flight (secondary misses must "
                "merge, not refetch)",
                source="mshr",
                line=line,
                core=core_id,
            )
        self._mshr_inflight.add(line)
        mshrs = hierarchy.llc_mshrs
        if len(mshrs) > mshrs.capacity:
            self._flag(
                "ASAP-S003",
                f"{mshrs.name} holds {len(mshrs)} outstanding misses "
                f"(capacity {mshrs.capacity}): an exhaustion stall was "
                "bypassed",
                source="mshr",
                occupancy=len(mshrs),
                capacity=mshrs.capacity,
            )

    def mshr_merged(self, hierarchy, line, core_id) -> None:
        self.events_checked += 1
        if line not in self._mshr_inflight:
            self._flag(
                "ASAP-S005",
                f"a miss for line {line:#x} merged into a fetch that is "
                "not in flight",
                source="mshr",
                line=line,
                core=core_id,
            )

    def mshr_filled(self, hierarchy, line, waiters) -> None:
        self.events_checked += 1
        if line not in self._mshr_inflight:
            self._flag(
                "ASAP-S005",
                f"a fill completed for line {line:#x} with no in-flight "
                "fetch",
                source="mshr",
                line=line,
            )
        self._mshr_inflight.discard(line)
        if waiters <= 0:
            self._flag(
                "ASAP-S005",
                f"the fetch for line {line:#x} completed with no queued "
                "requester (every fetch starts with its primary miss's "
                "completion queued)",
                source="mshr",
                line=line,
            )

    def mshr_stalled(self, hierarchy, line, core_id) -> None:
        self.events_checked += 1

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "events_checked": self.events_checked,
            "violations": [v.to_dict() for v in self.violations],
            "active_regions": len(self._active),
            "committed_regions": len(self._committed),
        }
