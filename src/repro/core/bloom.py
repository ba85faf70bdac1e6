"""Dependence tracking across LLC evictions (Sec. 5.3).

When a persistent line owned by an uncommitted region is evicted from the
LLC, its OwnerRID is saved in a small DRAM buffer so the dependence can
still be detected when the line is reloaded. A per-channel non-counting
Bloom filter tells the memory controller whether a reload needs to consult
the buffer at all; the filter is cleared whenever the channel's Dependence
List becomes empty (no uncommitted regions means no spilled dependences can
matter).
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import SimulationError


class BloomFilter:
    """A non-counting Bloom filter over line addresses."""

    def __init__(self, num_bits: int, num_hashes: int = 4):
        if num_bits <= 0 or num_hashes <= 0:
            raise SimulationError("bloom filter needs positive geometry")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self.clears = 0

    @staticmethod
    def _mix(x: int) -> int:
        """splitmix64 finalizer: breaks the linearity of line addresses."""
        x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return x ^ (x >> 31)

    def _positions(self, line: int):
        # Double hashing over two independently mixed words.
        h1 = self._mix(line)
        h2 = self._mix(h1) | 1
        for i in range(self.num_hashes):
            yield ((h1 + i * h2) & 0xFFFFFFFFFFFFFFFF) % self.num_bits

    def insert(self, line: int) -> None:
        for pos in self._positions(line):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def maybe_contains(self, line: int) -> bool:
        """False = definitely absent; True = must check the DRAM buffer."""
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(line)
        )

    def clear(self) -> None:
        self._bits[:] = bytes(len(self._bits))
        self.clears += 1


class OwnerSpillBuffer:
    """The DRAM-resident OwnerRID save area plus its Bloom filters.

    The buffer lives in DRAM (not PM) because OwnerRIDs are execution-time
    metadata only - they are never needed by recovery (Sec. 5.3).
    ``lookup`` reports whether the extra concurrent DRAM access was needed
    (a Bloom hit), which the hierarchy charges as added reload latency.
    """

    #: extra cycles for the concurrent DRAM buffer check on a Bloom hit
    LOOKUP_PENALTY = 30

    def __init__(self, num_channels: int, bits_per_channel: int, num_hashes: int):
        self._filters = [
            BloomFilter(bits_per_channel, num_hashes) for _ in range(num_channels)
        ]
        self._saved: Dict[int, int] = {}  # line -> owner rid
        self.spills = 0
        self.hits = 0
        self.false_positives = 0

    def _filter_for(self, line: int) -> BloomFilter:
        return self._filters[(line >> 6) % len(self._filters)]

    def spill(self, line: int, owner_rid: int) -> None:
        """Save an evicted line's OwnerRID (owner still uncommitted)."""
        self._saved[line] = owner_rid
        self._filter_for(line).insert(line)
        self.spills += 1

    def lookup(self, line: int):
        """Return ``(owner_rid_or_None, extra_latency_cycles)`` for a reload."""
        if not self._filter_for(line).maybe_contains(line):
            return None, 0
        owner = self._saved.get(line)
        if owner is None:
            self.false_positives += 1
        else:
            self.hits += 1
        return owner, self.LOOKUP_PENALTY

    def discard(self, line: int) -> None:
        """Drop a saved OwnerRID (owner turned out to be committed)."""
        self._saved.pop(line, None)

    def clear_channel(self, channel_index: int) -> None:
        """Clear one channel's filter (its Dependence List became empty).

        Saved entries whose owner committed are dead weight; dropping the
        filter bits makes future reloads skip the buffer check entirely.
        """
        self._filters[channel_index].clear()
        # Garbage-collect saved entries that map to this channel.
        dead = [
            line
            for line in self._saved
            if (line >> 6) % len(self._filters) == channel_index
        ]
        for line in dead:
            del self._saved[line]
