"""The commit oracle: ground truth for crash-recovery verification.

The oracle shadows what *should* be durable: it records every region's
write-set as the region executes, and applies a region's writes to the
``committed`` image at the instant the scheme reports that the region
committed. After a crash, a correct recovery must produce a PM image whose
data words match ``committed`` exactly:

* regions that committed are fully present (durability),
* regions that did not commit leave no trace (atomicity),
* and because schemes only commit in dependence order, the committed image
  is always a dependence-consistent prefix (ordering).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.common.observe import SimObserver
from repro.mem.image import MemoryImage


class CommitOracle(SimObserver):
    """Tracks per-region write-sets and the durable ("committed") image.

    The reference machine subscribes it to its own commit events."""

    def __init__(self):
        self.committed = MemoryImage("oracle-committed")
        #: rid -> the region's stores as ``(word addr, values)`` runs, in
        #: program order (a payload: later runs overwrite earlier ones)
        self._region_writes: Dict[int, List[tuple]] = {}
        self.committed_rids: Set[int] = set()
        #: every PM data word any region ever wrote (the comparison domain)
        self.tracked_words: Set[int] = set()

    def record_write(self, rid: int, addr: int, values) -> None:
        """Called by the executor for every in-region PM store."""
        base = addr & ~7
        self._region_writes.setdefault(rid, []).append((base, tuple(values)))
        self.tracked_words.update(range(base, base + 8 * len(values), 8))

    def region_committed(self, source, rid: int) -> None:
        """The scheme reports ``rid`` durable: fold its writes in."""
        self.committed.apply(self._region_writes.get(rid, ()))
        self.committed_rids.add(rid)

    def region_write_set(self, rid: int) -> Dict[int, int]:
        """``rid``'s writes as {word addr: last value written}."""
        writes = self._region_writes.get(rid, ())
        return {base + 8 * i: v for base, values in writes for i, v in enumerate(values)}

    def uncommitted_rids(self):
        return [r for r in self._region_writes if r not in self.committed_rids]

    def mismatches(self, image: MemoryImage, limit: int = 10):
        """Words where ``image`` disagrees with the committed image."""
        diffs = []
        for word in sorted(self.tracked_words):
            expect = self.committed.read_word(word)
            got = image.read_word(word)
            if expect != got:
                diffs.append((word, expect, got))
                if len(diffs) >= limit:
                    break
        return diffs
