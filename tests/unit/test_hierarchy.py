"""Unit tests for the cache hierarchy (fills, evictions, hooks, timing)."""

from dataclasses import replace

import pytest

from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.harness.runner import build_machine
from repro.mem.controller import MemorySystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.image import MemoryImage
from repro.mem.wpq import DrainToImage
from repro.workloads import WorkloadParams
from tests.conftest import locked_set_config


def build(num_lines_pm=True, cfg=None):
    cfg = cfg or SystemConfig.small(num_cores=2)
    s = Scheduler()
    pm = MemoryImage("pm")
    vol = MemoryImage("vol")
    mem = MemorySystem(cfg, s)
    for ch in mem.channels:
        ch.wpq.observer = DrainToImage(pm)
    persistent = set()
    h = CacheHierarchy(cfg, s, mem, vol, lambda a: (a in persistent) or num_lines_pm)
    return cfg, s, vol, pm, mem, h


PM_BASE = 0x1000_0000_0000


def access(h, s, core, addr, is_write):
    """Synchronous wrapper: run until the access completes."""
    out = {}

    def done(meta):
        out["meta"] = meta
        out["time"] = s.now

    start = s.now
    h.access(core, addr, is_write, done)
    s.run()
    return out["meta"], out["time"] - start


def test_miss_then_hit_latencies():
    cfg, s, vol, pm, mem, h = build()
    _, t_miss = access(h, s, 0, PM_BASE, False)
    _, t_hit = access(h, s, 0, PM_BASE, False)
    assert t_miss == mem.timing.memory_read_latency(True)
    assert t_hit == cfg.l1.latency


def test_write_sets_dirty():
    _, s, vol, pm, mem, h = build()
    meta, _ = access(h, s, 0, PM_BASE, False)
    assert not meta.dirty
    meta, _ = access(h, s, 0, PM_BASE, True)  # an L1 hit
    assert meta.dirty and h.tags.get(PM_BASE) is meta


def test_pbit_set_from_page_table():
    _, s, vol, pm, mem, h = build()
    meta, _ = access(h, s, 0, PM_BASE, False)
    assert meta.pbit


def test_only_a_memory_miss_reads_the_page_table():
    cfg, s, vol, pm, mem, _ = build()
    lookups = []

    def is_persistent(addr):
        lookups.append(addr)
        return True

    h = CacheHierarchy(cfg, s, mem, vol, is_persistent)
    access(h, s, 0, PM_BASE, False)  # memory miss
    assert lookups == [PM_BASE]
    h.l1[0].invalidate(PM_BASE)
    meta, t = access(h, s, 0, PM_BASE, True)  # L2 hit
    access(h, s, 1, PM_BASE, False)  # LLC hit from the other core
    # the hits read the PBit from the cached line's metadata
    assert lookups == [PM_BASE]
    assert meta.pbit and meta.dirty and t == mem.timing.l2_latency()


def test_remote_core_hit_costs_llc_latency():
    cfg, s, vol, pm, mem, h = build()
    access(h, s, 0, PM_BASE, False)
    _, t = access(h, s, 1, PM_BASE, False)
    assert t == mem.timing.llc_latency()


def test_llc_eviction_writes_back_dirty_persistent_line():
    cfg, s, vol, pm, mem, h = build()
    vol.write_word(PM_BASE, 99)
    access(h, s, 0, PM_BASE, True)
    # stream enough conflicting lines through the LLC to evict the victim
    llc_lines = cfg.l3.size_bytes // 64
    for i in range(1, 4 * llc_lines):
        access(h, s, 0, PM_BASE + i * 64, False)
    s.run()
    assert pm.read_word(PM_BASE) == 99
    kinds = mem.pm_writes_by_kind()
    assert kinds["wb"] >= 1


def test_evict_hook_sees_meta_and_wb_op():
    cfg, s, vol, pm, mem, h = build()
    seen = []
    h.evict_hook = lambda meta, wb: seen.append((meta.line, wb is not None))
    access(h, s, 0, PM_BASE, True)
    llc_lines = cfg.l3.size_bytes // 64
    for i in range(1, 4 * llc_lines):
        access(h, s, 0, PM_BASE + i * 64, False)
    assert (PM_BASE, True) in seen


def test_reload_hook_reattaches_owner():
    cfg, s, vol, pm, mem, h = build()
    h.reload_hook = lambda line: (555, 30) if line == PM_BASE else (None, 0)
    meta, t = access(h, s, 0, PM_BASE, False)
    assert meta.owner_rid == 555
    assert t == mem.timing.memory_read_latency(True) + 30


def test_inclusive_invalidation_on_llc_eviction():
    cfg, s, vol, pm, mem, h = build()
    # core 1 holds the line; core 0's conflicting stream evicts it from the
    # LLC, which must invalidate core 1's private copies too
    access(h, s, 1, PM_BASE, False)
    llc_lines = cfg.l3.size_bytes // 64
    for i in range(1, 4 * llc_lines):
        access(h, s, 0, PM_BASE + i * 64, False)
    assert not h.llc.contains(PM_BASE)
    assert not h.l1[1].contains(PM_BASE)
    assert not h.l2[1].contains(PM_BASE)
    assert h.tags.get(PM_BASE) is None


# -- fills stalled on fully LPO-locked sets ------------------------------------


def build_one_way_l1():
    """A hierarchy whose one-way L1s make one locked line block its set.
    Returns it with two lines, ``a`` and ``b``, that share an L1 set."""
    cfg = SystemConfig.small(num_cores=2)
    cfg = replace(cfg, l1=replace(cfg.l1, size_bytes=1024, assoc=1))
    _, s, _, _, _, h = build(cfg=cfg)
    return s, h, PM_BASE, PM_BASE + cfg.l1.size_bytes


def test_stalled_memory_fill_installs_at_no_level():
    s, h, a, b = build_one_way_l1()
    access(h, s, 0, a, False)
    h.tags[a].lock_count = 1  # an LPO for ``a`` is in flight
    got = []
    h.access(0, b, False, got.append)
    s.run(until=s.now + 1000)
    assert not got and h.locked_set_stalls > 0
    # the fill waits in its MSHR with its tag-store entry, cached nowhere,
    # so no eviction can take the entry away before the retry
    assert not any(array.contains(b) for array in (h.llc, h.l2[0], h.l1[0]))
    meta = h.tags[b]
    h.tags[a].lock_count = 0
    s.run()
    assert got == [meta] and h.tags[b] is meta
    assert h.llc.contains(b) and h.l2[0].contains(b) and h.l1[0].contains(b)


def test_stalled_hit_fill_reprobes_after_its_line_left_the_llc():
    s, h, a, b = build_one_way_l1()
    access(h, s, 1, b, False)  # ``b`` is in the LLC
    access(h, s, 0, a, False)
    h.tags[a].lock_count = 1
    got = []
    h.access(0, b, True, got.append)  # an LLC hit whose L1 fill stalls
    s.run(until=s.now + 100)
    assert not got and not h.l2[0].contains(b)  # installed at no level
    stale = h.tags[b]
    h.llc.invalidate(b)  # ``b`` leaves the LLC while the fill waits
    h._evict_from_llc(b)
    h.tags[a].lock_count = 0
    s.run()
    # the retry fetched the line again instead of reinstalling it with
    # the entry its eviction dropped
    assert got and got[0] is h.tags[b] is not stale
    assert got[0].dirty and h.llc_misses == 3
    assert h.llc.contains(b) and h.l1[0].contains(b)


def cached_line_faults(h):
    """Cached lines with no tag-store entry, and private lines the
    inclusive LLC does not hold."""
    faults = [
        (array.name, line)
        for array in (h.llc, *h.l1, *h.l2)
        for line in array.lines()
        if line not in h.tags
    ]
    faults += [
        (array.name, line)
        for array in (*h.l1, *h.l2)
        for line in array.lines()
        if not h.llc.contains(line)
    ]
    return faults


def test_locked_set_stalls_leave_every_cached_line_with_its_tag_entry():
    """Every cached line has its tag-store entry, after every event.

    A fill that stalled on a locked set used to leave its line in the
    LLC; evicted before the retry, the line lost its entry, and the
    retry reinstalled it with the dropped one, so a LockBit set on it
    never reached the tag store's locked index (Sec. 4.6.1)."""
    params = WorkloadParams(
        num_threads=4, ops_per_thread=16, value_bytes=256, setup_items=24
    )
    machine = build_machine("HM", "asap", locked_set_config(), params)
    for executor in machine.executors:
        executor.start()
    h = machine.hierarchy
    while machine.scheduler.step():
        faults = cached_line_faults(h)
        assert not faults, f"cycle {machine.scheduler.now}: {faults[:4]}"
    assert h.locked_set_stalls > 1000
