"""Hierarchy-global cache-line metadata: the ASAP tag extensions.

The paper extends every cache line's tag with three fields (Fig. 3 (2)):

* **PBit** - the line maps to persistent memory,
* **LockBit** - an LPO for this line is still in flight; the line must not
  be evicted or written back until the LPO completes (Sec. 4.6.1),
* **OwnerRID** - the atomic region that last wrote the line (Sec. 4.6.3).

A real implementation replicates these bits per cache level and migrates
them with coherence messages. We model them once, hierarchy-wide: the
:class:`TagStore` is the line -> :class:`LineMeta` dict itself, holding an
entry while the line is cached anywhere; the entry is handed to the
eviction hooks when the line leaves the LLC (Sec. 5.3 spill path). Besides
the paper's fields a line keeps one ``dirty`` bit, meaning "dirty somewhere
in the hierarchy".

The store also keeps ``locked``, the lines whose LockBit is set. Every
cache array's victim selection tests it, so the ``lock_count`` setter keeps
it current at each lock and unlock instead of each victim choice reading
the lines' counts (``tests/unit/test_tagstore_ops.py`` cross-checks the
index against a scan under generated op sequences and real workloads).
"""

from __future__ import annotations

from typing import Dict, Optional


class LineMeta:
    """Metadata for one cached line (keyed by line base address).

    ``lock_count`` generalises the paper's LockBit to a counter: when a new
    region takes ownership of a line whose previous owner's LPO is still in
    flight, both LPOs hold the line; it unlocks when the count drains to
    zero. With a single bit the first completion would unlock the line
    while the second LPO is still outstanding. It is a property whose
    setter keeps the owning store's ``locked`` index current.
    """

    __slots__ = ("line", "pbit", "dirty", "owner_rid", "_lock_count", "_locked")

    def __init__(self, line: int, pbit: bool = False):
        self.line = line
        self.pbit = pbit
        self.dirty = False
        self.owner_rid: Optional[int] = None
        self._lock_count = 0
        #: the owning store's ``locked`` index; None while unowned
        self._locked: Optional[Dict[int, "LineMeta"]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LineMeta(line={self.line:#x}, pbit={self.pbit}, "
            f"lock_count={self._lock_count}, owner_rid={self.owner_rid}, "
            f"dirty={self.dirty})"
        )

    @property
    def lock_count(self) -> int:
        return self._lock_count

    @lock_count.setter
    def lock_count(self, value: int) -> None:
        was_locked = self._lock_count > 0
        self._lock_count = value
        locked = self._locked
        if locked is not None and was_locked != (value > 0):
            if value > 0:
                locked[self.line] = self
            else:
                locked.pop(self.line, None)

    @property
    def lock_bit(self) -> bool:
        """The architectural LockBit: an LPO for this line is in flight."""
        return self._lock_count > 0


class TagStore(dict):
    """Line -> :class:`LineMeta` for every currently cached line, plus
    ``locked``, the lines whose LockBit is set."""

    __slots__ = ("locked",)

    def __init__(self):
        super().__init__()
        self.locked: Dict[int, LineMeta] = {}

    def ensure(self, line: int, pbit: bool) -> LineMeta:
        """Return metadata for ``line``, creating it on first caching."""
        meta = self.get(line)
        if meta is None:
            meta = self[line] = LineMeta(line, pbit)
            meta._locked = self.locked
        return meta

    def drop(self, line: int) -> Optional[LineMeta]:
        """Remove and return metadata when a line leaves the hierarchy."""
        meta = self.pop(line, None)
        if meta is not None:
            self.locked.pop(line, None)
            meta._locked = None
        return meta
