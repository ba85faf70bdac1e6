"""The commit oracle: ground truth for crash-recovery verification.

The oracle shadows what *should* be durable. As the run goes it only
records: every in-region PM store is appended to its region's write log,
and every commit the scheme reports is appended to a commit log. The
``committed`` image and the ``tracked_words`` comparison domain are built
from those logs when a check reads them, so a run that is never checked
pays for the logs alone. Reading ``committed`` folds the pending commits
in commit order, exactly as applying each region's writes at the instant
it committed would. After a crash, a correct recovery must produce a PM
image whose data words match ``committed`` exactly:

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
    """Logs per-region write-sets and commits; folds them into the durable
    ("committed") image and the checked-word set when they are read.

    ``Machine.inspect`` subscribes it to the stores and commits."""

    def __init__(self):
        self._committed = MemoryImage("oracle-committed")
        #: rid -> the region's stores as ``(word addr, values)`` runs, in
        #: program order (a payload: later runs overwrite earlier ones);
        #: a region's runs move to ``_unfolded`` when it commits
        self._region_writes: Dict[int, List[tuple]] = {}
        self.committed_rids: Set[int] = set()
        #: committed regions' runs, in commit order, not yet in the image
        self._unfolded: List[List[tuple]] = []
        self._tracked: Set[int] = set()
        #: runs whose words are not yet in ``_tracked``
        self._untracked: List[tuple] = []

    def region_stored(self, executor, rid: int, addr: int, values) -> None:
        """Log one in-region PM store into ``rid``'s write-set."""
        run = (addr & ~7, tuple(values))
        self._region_writes.setdefault(rid, []).append(run)
        self._untracked.append(run)

    def region_committed(self, source, rid: int) -> None:
        """The scheme reports ``rid`` durable: its writes join the image
        at the next read, in this commit's turn."""
        self.committed_rids.add(rid)
        self._unfolded.append(self._region_writes.pop(rid, ()))

    @property
    def committed(self) -> MemoryImage:
        """The durable image: every committed region's writes, applied in
        commit order. Before the run it is the bootstrap state, which the
        machine writes straight into the image it returns."""
        if self._unfolded:
            for runs in self._unfolded:
                self._committed.apply(runs)
            self._unfolded.clear()
        return self._committed

    @property
    def tracked_words(self) -> Set[int]:
        """Every PM data word any region ever wrote (the comparison domain)."""
        if self._untracked:
            words = self._tracked
            for base, values in self._untracked:
                words.update(range(base, base + 8 * len(values), 8))
            self._untracked.clear()
        return self._tracked

    def uncommitted_rids(self):
        return [r for r in self._region_writes if r not in self.committed_rids]

    def mismatches(self, image: MemoryImage, limit: int = 10):
        """Words where ``image`` disagrees with the committed image."""
        committed = self.committed
        diffs = []
        for word in sorted(self.tracked_words):
            expect = committed.read_word(word)
            got = image.read_word(word)
            if expect != got:
                diffs.append((word, expect, got))
                if len(diffs) >= limit:
                    break
        return diffs
