"""The paper's recovery procedure (Sec. 5.5, "Crash and Recovery").

Steps, exactly as described:

1. Read the persisted Dependence List: every entry is an uncommitted
   atomic region, with its outstanding dependencies.
2. Construct the directed acyclic graph of dependencies and traverse it to
   extract the happens-before order of the uncommitted regions.
3. Find each uncommitted region's log records (scanning the per-thread log
   areas for headers whose RID matches) and restore the old data values -
   dependents first, so that a line written by a chain of uncommitted
   regions unwinds to the value the last *committed* region gave it.

Invariants this module relies on (docs/RECOVERY.md):

* **Confirmed-entry rule**: a durable header never names an entry whose
  logged value is not itself durable (the LH-WPQ seals headers lazily and
  only over confirmed slots), so every ``(header word, entry line)`` pair
  recovery reads is internally consistent.
* **Per-line chain completeness** (the engines' per-line LPO ordering):
  if a region's log entry for line L is durable, every earlier
  *uncommitted* writer of L in the dependence chain has a durable entry
  for L too. Step 3 is only correct under this invariant - the entry
  restored last for L (the chain's earliest uncommitted writer's) is the
  only one whose "old value" predates the whole uncommitted chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.common.errors import RecoveryError
from repro.common.units import CACHE_LINE_BYTES
from repro.core.log import decode_slot_word
from repro.mem.image import MemoryImage
from repro.recovery.crash import CrashState


@dataclass
class RecoveryReport:
    """What recovery decided and did (asserted on by the test suite, and
    read back by :mod:`repro.recovery.explain` to build its trace)."""

    #: regions processed, in undo (or redo replay) order
    undone_rids: List[int] = field(default_factory=list)
    restored_lines: int = 0
    records_scanned: int = 0
    #: every matched log record, in scan order:
    #: ``(rid, header_addr, [(data_line, entry_addr, chained), ...])``
    records: List[Tuple[int, int, List[Tuple[int, int, bool]]]] = field(
        default_factory=list
    )
    #: redo only: the durable commit markers, ``(commit_seq, rid)`` in
    #: replay order
    markers: List[Tuple[int, int]] = field(default_factory=list)

    #: simple cost model for the software recovery pass (cycles): one PM
    #: line read per scanned record header, one read + one write per
    #: restored line. Recovery time is not a paper figure, but related
    #: work (Anubis et al.) makes it a standard reporting axis.
    HEADER_READ_COST = 150
    LINE_RESTORE_COST = 150 + 60

    @property
    def records_matched(self) -> int:
        return len(self.records)

    @property
    def undone_count(self) -> int:
        return len(self.undone_rids)

    @property
    def estimated_cycles(self) -> int:
        """Estimated recovery time under the cost model above."""
        return (
            self.records_scanned * self.HEADER_READ_COST
            + self.restored_lines * self.LINE_RESTORE_COST
        )


def _undo_order(entries: List[dict]) -> List[int]:
    """Reverse happens-before order: every region before its dependencies.

    ``entries[i]['deps']`` lists regions that must commit *before* entry i;
    undoing must therefore process entry i before any of its deps.
    """
    uncommitted: Set[int] = {e["rid"] for e in entries}
    # live_deps[rid] = rid's uncommitted deps, in entry order; pending[d] =
    # how many regions still to be undone depend on d.
    live_deps: Dict[int, List[int]] = {rid: [] for rid in uncommitted}
    pending: Dict[int, int] = dict.fromkeys(uncommitted, 0)
    for entry in entries:
        deps = [d for d in entry["deps"] if d in uncommitted]
        live_deps[entry["rid"]].extend(deps)
        for dep in deps:
            pending[dep] += 1
    # Kahn's algorithm: start from regions nothing depends on.
    ready = deque(sorted(rid for rid, n in pending.items() if n == 0))
    order: List[int] = []
    while ready:
        rid = ready.popleft()
        order.append(rid)
        for dep in live_deps[rid]:
            pending[dep] -= 1
            if pending[dep] == 0:
                ready.append(dep)
    if len(order) != len(uncommitted):
        raise RecoveryError(
            "dependence cycle among uncommitted regions; the program "
            "violated the isolation discipline (Sec. 2.1)"
        )
    return order


def _scan_logs(state: CrashState, uncommitted: Set[int], report: RecoveryReport):
    """Find every uncommitted region's log records in the PM image.

    Returns {rid: [(data_line, entry_addr, chained), ...]} in record-slot
    order; ``chained`` is the durable CHAIN_BIT flag (the entry's line had
    an uncommitted previous writer when it was logged). RIDs are unique
    for the lifetime of a run (monotonic LocalRIDs), so a stale header
    from a committed region can never alias an uncommitted one.
    """
    found: Dict[int, List[Tuple[int, int, bool]]] = {rid: [] for rid in uncommitted}
    pm = state.pm_image
    entry_words = slice(1, 1 + state.entries_per_record)
    for segments in state.log_directory.values():
        for base, num_records, stride in segments:
            # The modelled scan reads every record header of the segment;
            # the host visits only the durable ones. Skipping the rest is
            # exact: an unwritten header reads RID 0, and no region is 0.
            report.records_scanned += num_records
            for header, words in pm.strided_lines(base, num_records, stride):
                rid = words[0]
                if rid not in uncommitted:
                    continue
                entries: List[Tuple[int, int, bool]] = []
                for slot, word in enumerate(words[entry_words]):
                    if word == 0:
                        # Unused slot - or an entry whose LPO never reached
                        # the persistence domain. Skipping is safe: the
                        # LockBit guarantees such a line's new data never
                        # persisted either (no DPO, no eviction writeback).
                        continue
                    data_line, chained = decode_slot_word(word)
                    entry_addr = header + (1 + slot) * CACHE_LINE_BYTES
                    entries.append((data_line, entry_addr, chained))
                found[rid].extend(entries)
                report.records.append((rid, header, entries))
    return found


def _restore_region(
    image: MemoryImage, rid: int, entries, report: RecoveryReport
) -> None:
    """Install each of ``rid``'s logged lines in place (the old values
    for undo, the new ones for redo) and count the region as processed
    in ``report.undone_rids``."""
    for data_line, entry_addr, _chained in entries:
        image.apply(((data_line, image.line(entry_addr)),))
        report.restored_lines += 1
    report.undone_rids.append(rid)


def recover(state: CrashState) -> Tuple[MemoryImage, RecoveryReport]:
    """Run recovery; returns the repaired PM image and a report.

    Dispatches on the crash state's log kind: the paper's undo procedure
    (Sec. 5.5) or the replay procedure of the asap_redo extension. The
    input image is not modified; recovery works on a copy, as a real
    implementation would only write whole restored lines.
    """
    if state.log_kind == "redo":
        return recover_redo(state)
    report = RecoveryReport()
    image = state.pm_image.copy()
    if not state.dependence_entries:
        return image, report
    uncommitted = {e["rid"] for e in state.dependence_entries}
    order = _undo_order(state.dependence_entries)
    logs = _scan_logs(state, uncommitted, report)
    for rid in order:
        # Undo this region: restore each logged line's old value. Within a
        # region a line is logged at most once (first write), so record
        # order is irrelevant.
        _restore_region(image, rid, logs.get(rid, ()), report)
    return image, report


def recover_redo(state: CrashState) -> Tuple[MemoryImage, RecoveryReport]:
    """Recovery for asynchronous-commit *redo* logging (the Fig. 2c
    extension implemented by ``asap_redo``).

    A region is durable iff its commit marker ``[rid, commit_seq]``
    persisted. Recovery replays every marked region's surviving log
    records in marker order (the total commit order), installing the
    logged new values in place; unmarked regions - including everything
    still in the persisted Dependence List - are simply ignored, since
    redo logging never let their data reach its home addresses. A marked
    region with no surviving records already completed its in-place
    updates before reclaiming its log, so the replay is a no-op for it.

    Per-line chain validation is not needed here: a marker is issued only
    after every LPO of its region was accepted, so every replayed value is
    durable by construction (see :mod:`repro.persist.asap_redo`).
    """
    report = RecoveryReport()
    image = state.pm_image.copy()
    uncommitted = {e["rid"] for e in state.dependence_entries}
    # 1. Collect durable commit markers, newest-last.
    markers = report.markers
    for areas in state.marker_directory.values():
        for base, slots, stride in areas:
            # an unwritten marker slot reads [0, 0]: skipping it is exact
            for _addr, words in image.strided_lines(base, slots, stride):
                rid, seq = words[0], words[1]
                if rid != 0 and seq != 0 and rid not in uncommitted:
                    markers.append((seq, rid))
    markers.sort()
    committed = {rid for _seq, rid in markers}
    # 2. Locate surviving log records of the marked regions.
    logs = _scan_logs(state, committed, report)
    # 3. Replay in commit order: later regions' values overwrite earlier.
    for _seq, rid in markers:
        _restore_region(image, rid, logs.get(rid, ()), report)
    return image, report
