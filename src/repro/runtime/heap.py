"""Simulated heaps and the page table's persistent bit.

``asap_malloc()`` sets a page-table bit for the allocated data (Sec. 4.6);
when a line from such a page is cached, its PBit is set and accesses get
the full ASAP treatment. The heap is a simple bump allocator with a
free-list by size class - allocation performance is not part of any
reproduced experiment, but ``asap_free`` must exist and recycle space so
long workloads do not exhaust the simulated address range.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List

from repro.common.address import AddressSpace, page_base
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, PAGE_BYTES

_PAGE_MASK = ~(PAGE_BYTES - 1)


class PageTable:
    """Tracks which pages carry the persistent bit."""

    def __init__(self):
        self._persistent_pages = set()

    def mark_persistent(self, addr: int, nbytes: int) -> None:
        self._persistent_pages.update(
            range(page_base(addr), addr + max(nbytes, 1), PAGE_BYTES)
        )

    def is_persistent(self, addr: int) -> bool:
        return (addr & _PAGE_MASK) in self._persistent_pages  # page_base, inline


class _BumpHeap:
    """Shared bump-allocator core with size-class free lists."""

    def __init__(self, base: int, size: int, name: str):
        self.name = name
        self._base = base
        self._limit = base + size
        self._brk = base
        self._free: DefaultDict[int, List[int]] = defaultdict(list)
        self.allocated_bytes = 0
        self._sizes: Dict[int, int] = {}

    @staticmethod
    def _round(nbytes: int, align: int) -> int:
        nbytes = max(nbytes, 1)
        return (nbytes + align - 1) & ~(align - 1)

    def alloc(self, nbytes: int, align: int = CACHE_LINE_BYTES) -> int:
        """Allocate ``nbytes`` aligned to ``align`` (line-aligned by default
        so unrelated allocations never share a cache line)."""
        size = self._round(nbytes, align)
        bucket = self._free.get(size)
        if bucket:
            addr = bucket.pop()
        else:
            addr = self._round(self._brk, align)
            new_brk = addr + size
            if new_brk > self._limit:
                raise SimulationError(f"{self.name} heap exhausted")
            self._brk = new_brk
        self._sizes[addr] = size
        self.allocated_bytes += size
        return addr

    def free(self, addr: int) -> None:
        size = self._sizes.pop(addr, None)
        if size is None:
            raise SimulationError(f"{self.name}: free of unallocated {addr:#x}")
        self._free[size].append(addr)


class PersistentHeap(_BumpHeap):
    """``asap_malloc`` / ``asap_free`` over the PM address range."""

    def __init__(self, address_space: AddressSpace, page_table: PageTable):
        super().__init__(address_space.pm_base, address_space.pm_size, "PM")
        self._page_table = page_table

    def alloc(self, nbytes: int, align: int = CACHE_LINE_BYTES) -> int:
        addr = super().alloc(nbytes, align)
        self._page_table.mark_persistent(addr, nbytes)
        return addr


class VolatileHeap(_BumpHeap):
    """Ordinary DRAM allocation (intermediate, non-persistent data)."""

    def __init__(self, address_space: AddressSpace):
        # Skip the first page so address 0 is never handed out.
        super().__init__(
            address_space.dram_base + PAGE_BYTES,
            address_space.dram_size - PAGE_BYTES,
            "DRAM",
        )
