"""The cache hierarchy: per-core L1/L2, a shared inclusive LLC.

Functional contents live in the images; the hierarchy provides hit/miss
latencies, evictions, and the ASAP metadata lifecycle:

* on first caching, a line's PBit is set from the page table,
* LLC victim selection never picks locked lines (in-flight LPO),
* an LLC eviction of a dirty persistent line produces a writeback persist
  op, and the scheme's ``evict_hook`` runs so ASAP can spill the OwnerRID
  to the DRAM buffer and update the Bloom filter (Sec. 5.3),
* an LLC miss consults the scheme's ``reload_hook`` so a previously spilled
  OwnerRID can be reattached to the line (Sec. 5.3).

The hierarchy is inclusive: a line leaving the LLC is invalidated in every
upper level, which is what lets one hierarchy-global tag store stand in for
per-level replicated metadata.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.engine import Scheduler, WaitQueue
from repro.mem.cache import CacheArray, MSHRFile
from repro.mem.controller import MemorySystem
from repro.mem.image import MemoryImage
from repro.mem.tagstore import LineMeta, TagStore
from repro.mem.wpq import WB, PersistOp

#: cycles between retries when every way of a set is LPO-locked
_LOCKED_SET_RETRY = 16

#: fill depth of a classified access: how far down the hierarchy the probe
#: went before hitting (every level above the hit level is filled).
_L1, _L2, _LLC = 0, 1, 2

#: evict_hook(meta, wb_op): wb_op is the eviction writeback persist op when
#: the line was dirty (the hook may attach completion callbacks to it before
#: it reaches the WPQ) or None when the line was clean.
EvictHook = Callable[[LineMeta, Optional["PersistOp"]], None]
ReloadHook = Callable[[int], Tuple[Optional[int], int]]


class CacheHierarchy:
    """Timing and metadata lifecycle for all cache levels."""

    OBSERVED = (
        "line_evicted", "mshr_allocated", "mshr_merged", "mshr_filled",
        "mshr_stalled",
    )

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Scheduler,
        memory: MemorySystem,
        volatile_image: MemoryImage,
        is_persistent: Callable[[int], bool],
    ):
        self.config = config
        self.scheduler = scheduler
        self.memory = memory
        self.timing = memory.timing
        self.volatile = volatile_image
        self.is_persistent = is_persistent
        self.tags = TagStore()

        locked = self.tags.locked
        self.l1: List[CacheArray] = [
            CacheArray(f"L1[{i}]", config.l1, locked)
            for i in range(config.num_cores)
        ]
        self.l2: List[CacheArray] = [
            CacheArray(f"L2[{i}]", config.l2, locked)
            for i in range(config.num_cores)
        ]
        self.llc = CacheArray("LLC", config.l3, locked)

        # The LLC MSHR file owns the outstanding fetches (one per line,
        # with the merged waiters) and is the one bound on them. A core's
        # in-flight lines are a subset of its entries, so a per-core bound
        # of the same size could never park an access on its own.
        self.llc_mshrs = MSHRFile("MSHR-LLC", config.memory.mshrs_per_cache)
        self.mshr_waiters = WaitQueue(scheduler)

        #: the private arrays, every L1 then every L2: array ``k`` (core
        #: ``c``'s L1 is ``c``, its L2 ``num_cores + c``) owns bit ``1 << k``
        self._private: List[CacheArray] = self.l1 + self.l2
        self._num_cores = config.num_cores
        #: line -> bit mask of the private arrays holding it, so an LLC
        #: eviction invalidates just those instead of probing all
        #: 2 x num_cores arrays. Keyed by line: presence belongs to the
        #: arrays, not to the line's tag-store entry.
        self._private_holders: Dict[int, int] = {}
        # Latencies are constant for the machine's lifetime (the
        # TimingModel precomputes them from the frozen config), so the
        # access path reads plain attributes.
        self._lat_l1 = self.timing.l1_latency()
        self._lat_l2 = self.timing.l2_latency()
        self._lat_llc = self.timing.llc_latency()
        self._lat_mem = (
            self.timing.memory_read_latency(False),
            self.timing.memory_read_latency(True),
        )

        #: scheme hooks (Sec. 5.3); set by the asap and asap_redo schemes.
        self.evict_hook: Optional[EvictHook] = None
        self.reload_hook: Optional[ReloadHook] = None
        #: optional :class:`SimObserver` notified on persistent evictions
        self.observer: Optional[SimObserver] = None

        # statistics
        self.accesses = 0
        self.llc_misses = 0
        self.locked_set_stalls = 0
        #: secondary misses that merged into an in-flight fetch (one fetch
        #: answers them all, so they are *not* counted in ``llc_misses``)
        self.mshr_merges = 0
        #: structural stalls: a primary miss found the LLC MSHR file full
        #: and parked until a fill freed a register (re-parks count)
        self.mshr_stalls = 0

    # -- main access path ----------------------------------------------------

    def access(
        self,
        core_id: int,
        addr: int,
        is_write: bool,
        done: Callable[[LineMeta], None],
    ) -> None:
        """Perform a load/store.

        On a hit functional presence state is updated immediately and only
        ``done(meta)`` is delayed by the access latency. An LLC miss
        instead allocates an MSHR, the line is installed when the memory
        fill lands, and every requester that merged into the fetch
        completes at that point.

        The logical access is classified and counted exactly once here;
        structural stalls (locked sets, MSHR exhaustion) retry internally
        without re-counting. The pre-fix model re-entered ``access`` on a
        locked-set stall and inflated ``accesses`` plus the per-level
        hit/miss counters once per retry.

        The L1 probe is inlined (one frame for the whole hit path); the
        array's hit/miss counters move exactly as ``CacheArray.lookup``
        would move them.
        """
        line = addr & ~63
        self.accesses += 1
        l1 = self.l1[core_id]
        s1 = l1._sets[(line >> 6) % l1._num_sets]
        if line in s1:
            s1.move_to_end(line)
            l1.hits += 1
            meta = self.tags.get(line)
            if meta is None:
                meta = self.tags.ensure(line, self.is_persistent(line))
            if is_write:
                meta.dirty = True
            self.scheduler.after(self._lat_l1, partial(done, meta))
            return
        l1.misses += 1
        self._miss(core_id, line, is_write, done)

    def _miss(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        done: Callable[[LineMeta], None],
    ) -> None:
        """L1-missed remainder of :meth:`access`: inlined L2/LLC probes,
        then the shared miss/fill machinery. A hit reads the PBit from
        the line's metadata, which exists while the line is cached; only
        a memory miss consults the page table."""
        l2 = self.l2[core_id]
        s2 = l2._sets[(line >> 6) % l2._num_sets]
        if line in s2:
            s2.move_to_end(line)
            l2.hits += 1
            level, latency = _L2, self._lat_l2
        else:
            l2.misses += 1
            llc = self.llc
            s3 = llc._sets[(line >> 6) % llc._num_sets]
            if line in s3:
                s3.move_to_end(line)
                llc.hits += 1
                level, latency = _LLC, self._lat_llc
            else:
                llc.misses += 1
                self._miss_to_memory(core_id, line, is_write, done)
                return
        meta = self.tags.get(line)
        if meta is None:
            meta = self.tags.ensure(line, self.is_persistent(line))
        if is_write:
            meta.dirty = True
        self._fill_and_finish(level, core_id, line, is_write, latency, meta, done)

    def _fill_and_finish(
        self,
        level: int,
        core_id: int,
        line: int,
        is_write: bool,
        latency: int,
        meta: LineMeta,
        done: Callable[[LineMeta], None],
    ) -> None:
        """Install ``line`` at every level it missed in, then schedule the
        completion. The access was already classified and counted, and
        fills are the only step a fully LPO-locked set can stall.

        A stalled fill installs at no level and re-probes shortly, never
        re-counting: the lock clears as soon as the in-flight LPO is
        accepted by the WPQ, and meanwhile the line may move or leave the
        LLC, taking ``meta`` out of the tag store with it."""
        l2k = self._num_cores + core_id
        try:
            if level >= _LLC:
                self._fill(l2k, line)
            if level >= _L2:
                self._fill(core_id, line)
        except SimulationError:
            if level >= _LLC:
                # the L2 missed this very probe: take back its copy
                self._invalidate_private(line, 1 << l2k)
            self.locked_set_stalls += 1
            self.scheduler.after(
                _LOCKED_SET_RETRY,
                partial(self._reprobe, core_id, line, is_write, done),
            )
            return
        self.scheduler.after(latency, partial(done, meta))

    # -- non-blocking misses (MSHRs) -------------------------------------------

    def _miss_to_memory(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        done: Callable[[LineMeta], None],
    ) -> None:
        """LLC miss: the hierarchy's only path to memory.

        Primary miss: allocate the LLC MSHR and start the memory fetch.
        Secondary miss: merge - the one in-flight fetch answers every
        requester, so no second ``llc_misses`` count, PM read, or
        reload-hook consultation. No free register: the requesting core
        parks until a fill completes.
        """
        pbit = self.is_persistent(line)
        llcm = self.llc_mshrs
        waiters = llcm.entries.get(line)
        if waiters is not None:
            meta = self.tags.ensure(line, pbit)
            if is_write:
                meta.dirty = True
            self.mshr_merges += 1
            waiters.append((core_id, done))
            if self.observer is not None:
                self.observer.mshr_merged(self, line, core_id)
            return
        if len(llcm.entries) >= llcm.capacity:
            self._stall_on_mshrs(core_id, line, is_write, done)
            return
        self.llc_misses += 1
        latency = self._lat_mem[pbit]
        if pbit:
            self.memory.count_pm_read(line)
        meta = self.tags.ensure(line, pbit)
        if pbit and self.reload_hook is not None:
            owner, extra = self.reload_hook(line)
            latency += extra
            if owner is not None:
                meta.owner_rid = owner
        if is_write:
            meta.dirty = True
        waiters = llcm.allocate(line)
        waiters.append((core_id, done))
        if self.observer is not None:
            self.observer.mshr_allocated(self, line, core_id)
        self.scheduler.after(latency, partial(self._complete_fill, line, meta))

    def _stall_on_mshrs(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        done: Callable[[LineMeta], None],
    ) -> None:
        self.mshr_stalls += 1
        if self.observer is not None:
            self.observer.mshr_stalled(self, line, core_id)
        self.mshr_waiters.park(
            partial(self._reprobe, core_id, line, is_write, done)
        )

    def _reprobe(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        done: Callable[[LineMeta], None],
    ) -> None:
        """Replay a stalled access: woken after a fill freed registers, or
        after a locked-set stall. The world may have moved on while the
        access waited: the line may have landed (late hit), still be in
        flight (merge), or need a fresh fetch. Re-probe silently - the
        access was classified and counted when it first entered the
        hierarchy."""
        if self.l1[core_id].contains(line):
            self.l1[core_id].touch(line)
            level, latency = _L1, self._lat_l1
        elif self.l2[core_id].contains(line):
            self.l2[core_id].touch(line)
            level, latency = _L2, self._lat_l2
        elif self.llc.contains(line):
            self.llc.touch(line)
            level, latency = _LLC, self._lat_llc
        else:
            self._miss_to_memory(core_id, line, is_write, done)
            return
        meta = self.tags.get(line)
        if meta is None:
            meta = self.tags.ensure(line, self.is_persistent(line))
        if is_write:
            meta.dirty = True
        self._fill_and_finish(level, core_id, line, is_write, latency, meta, done)

    def _complete_fill(self, line: int, meta: LineMeta) -> None:
        """The memory fetch for ``line`` arrived: install the line at the
        LLC and in every waiter's private levels, release the LLC MSHR, and
        replay the queued completions in arrival order.

        A fully LPO-locked set retries the whole installation shortly. The
        stalled attempt installs at no level: the line was cached nowhere
        before it, so everything it installed is taken back. Left in the
        LLC, the line could be evicted before the retry, which would drop
        ``meta`` from the tag store while the waiters still hold it."""
        fetches = self.llc_mshrs.entries
        waiters = fetches[line]
        l2_base = self._num_cores
        try:
            victim = self.llc.insert(line)
            if victim is not None:
                self._evict_from_llc(victim)
            for core_id, _done in waiters:
                self._fill(l2_base + core_id, line)
                self._fill(core_id, line)
        except SimulationError:
            self.llc.invalidate(line)
            self._invalidate_private(line)
            self.locked_set_stalls += 1
            self.scheduler.after(
                _LOCKED_SET_RETRY, partial(self._complete_fill, line, meta)
            )
            return
        del fetches[line]
        if self.observer is not None:
            self.observer.mshr_filled(self, line, len(waiters))
        for _core_id, waiter_done in waiters:
            waiter_done(meta)
        # Exactly one LLC register was freed; give it to the oldest
        # parked miss, if any (it re-probes, and re-parks if a miss woken
        # or issued earlier in this cycle took the register first).
        if self.mshr_waiters._waiters:  # a deque: no __len__ frame
            self.mshr_waiters.wake_one()

    # -- fills and evictions ---------------------------------------------------

    def _fill(self, k: int, line: int) -> None:
        """Insert into private array ``k``; victims just lose presence
        there."""
        victim = self._private[k].insert(line)
        holders = self._private_holders
        bit = 1 << k
        if victim is not None:
            rest = holders[victim] & ~bit
            if rest:
                holders[victim] = rest
            else:
                del holders[victim]
        holders[line] = holders.get(line, 0) | bit

    def _invalidate_private(self, line: int, bits: int = -1) -> None:
        """Drop ``line`` from the private arrays among ``bits`` (all, by
        default) that hold it. Invalidations on distinct arrays commute,
        so the order the bits are visited in cannot change an outcome."""
        holders = self._private_holders
        held = holders.pop(line, 0)
        if held & ~bits:
            holders[line] = held & ~bits
        mask = held & bits
        private = self._private
        while mask:
            low = mask & -mask
            private[low.bit_length() - 1].invalidate(line)
            mask ^= low

    def _evict_from_llc(self, victim: int) -> None:
        """A line leaves the hierarchy: enforce inclusion, write back, spill."""
        self._invalidate_private(victim)
        meta = self.tags.drop(victim)
        if meta is None:
            return
        wb_op = self._writeback(victim, meta.owner_rid) if meta.dirty and meta.pbit else None
        if meta.pbit and self.observer is not None:
            self.observer.line_evicted(meta, wb_op)
        if self.evict_hook is not None and meta.pbit:
            # The hook may mark wb_op dropped: redo-style schemes must not
            # let uncommitted data reach its in-place address (the log
            # already holds it; Sec. 2.3's no-force discipline).
            self.evict_hook(meta, wb_op)
        if wb_op is not None and not wb_op.dropped:
            self.memory.issue_persist(wb_op)
        elif meta.dirty and not meta.pbit:
            self.memory.issue_dram_write(victim)

    def _writeback(self, line: int, rid: Optional[int]) -> PersistOp:
        """A WB persist op carrying ``line``'s current value."""
        payload = ((line, self.volatile.line(line)),)
        return PersistOp(WB, line, line, payload, rid)
