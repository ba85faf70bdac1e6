"""A set-associative cache array with LRU and locked-line-aware victims.

The array tracks only which lines are present (tags + recency); values live
in the functional images and per-line metadata lives in the
:class:`~repro.mem.tagstore.TagStore`. Victim selection skips lines whose
LockBit is set (an LPO is in flight; Sec. 4.6.1 forbids evicting them).

A set is created by the first fill into it: until then its slot holds the
shared, read-only :data:`EMPTY_SET`, so building an array costs one list
and a run pays only for the sets it fills.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Container, Dict, List, Mapping, Optional

from repro.common.errors import SimulationError
from repro.common.params import CacheParams

#: the slot of every set nothing has been filled into; read-only, so a
#: stray write raises instead of filling every untouched set at once
EMPTY_SET: Mapping[int, bool] = MappingProxyType({})


class CacheArray:
    """Presence/recency state of one cache level (or one core's slice)."""

    def __init__(
        self,
        name: str,
        params: CacheParams,
        locked: Container[int] = (),
    ):
        """
        Args:
            name: for diagnostics ("L1[3]", "LLC"...).
            params: geometry and latency.
            locked: the currently locked lines (a live view, e.g. the tag
                store's locked index), tested during victim selection;
                locked lines are never evicted.
        """
        self.name = name
        self.params = params
        self._locked = locked
        # num_sets and assoc are derived properties on the frozen params;
        # cache them - _set_of runs on every lookup/insert/invalidate.
        self._num_sets = params.num_sets
        self._assoc = params.assoc
        #: one LRU-ordered set per index, or EMPTY_SET until its first fill;
        #: probes work on either (``in`` never hits EMPTY_SET, and only a
        #: hit calls ``move_to_end``)
        self._sets: List[Mapping[int, bool]] = [EMPTY_SET] * self._num_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def latency(self) -> int:
        return self.params.latency

    def _set_of(self, line: int) -> Mapping[int, bool]:
        return self._sets[(line >> 6) % self._num_sets]

    def lookup(self, line: int, touch: bool = True) -> bool:
        """Return True on hit; updates LRU recency when ``touch``."""
        s = self._set_of(line)
        if line in s:
            if touch:
                s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check with no statistics or recency side effects."""
        return line in self._set_of(line)

    def touch(self, line: int) -> None:
        """Bump ``line``'s recency without hit/miss accounting.

        Used when an access re-probes after a structural stall (MSHR
        exhaustion): the logical access was already classified and
        counted, so the replay must not count again.
        """
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)

    def insert(self, line: int) -> Optional[int]:
        """Insert ``line``; returns the evicted victim line, if any.

        Raises:
            SimulationError: every candidate victim is locked. Callers must
                treat this as a transient structural stall and retry (the
                lock clears when the in-flight LPO is accepted by the WPQ).
        """
        index = (line >> 6) % self._num_sets  # _set_of, inline
        s = self._sets[index]
        if line in s:
            s.move_to_end(line)
            return None
        if s is EMPTY_SET:
            s = self._sets[index] = OrderedDict()
        if len(s) < self._assoc:
            s[line] = True
            return None
        locked = self._locked
        for victim in s:  # iteration order = LRU -> MRU
            if victim not in locked:
                break
        else:
            raise SimulationError(
                f"{self.name}: all ways locked in set of line {line:#x}"
            )
        del s[victim]
        self.evictions += 1
        s[line] = True
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present; returns whether it was."""
        s = self._set_of(line)
        if line in s:
            del s[line]
            return True
        return False

    def lines(self):
        """Iterate over all resident line addresses (test/debug helper)."""
        for s in self._sets:
            yield from s.keys()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class MSHRFile:
    """Miss Status Holding Registers of the LLC.

    The registers are what make the hierarchy non-blocking: a primary
    miss allocates one and starts the (single) memory fetch, secondary
    misses for the same line merge into it, and the fill releases it.
    ``entries`` maps each line in flight to its ``(core_id, done)``
    waiters, replayed in arrival order when the fill lands.
    The file raises on oversubscription - callers must check :attr:`full`
    first and treat a full file as a structural stall (the hierarchy
    parks the requesting core until a fill frees a register).
    """

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise SimulationError(
                f"{name}: MSHR file needs at least one register"
            )
        self.name = name
        self.capacity = capacity
        self.entries: Dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    def allocate(self, line: int) -> list:
        """Track a new outstanding miss for ``line``; returns its waiters.

        Raises:
            SimulationError: the file is full (callers must stall instead)
                or the line already has an entry (merge instead).
        """
        if line in self.entries:
            raise SimulationError(
                f"{self.name}: line {line:#x} already has an MSHR"
            )
        if len(self.entries) >= self.capacity:
            raise SimulationError(
                f"{self.name}: all {self.capacity} registers busy"
            )
        waiters = self.entries[line] = []
        return waiters
