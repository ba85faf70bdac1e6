"""Unit tests for the cache hierarchy (fills, evictions, hooks, timing)."""

import pytest

from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.controller import MemorySystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.image import MemoryImage


def build(num_lines_pm=True):
    cfg = SystemConfig.small(num_cores=2)
    s = Scheduler()
    pm = MemoryImage("pm")
    vol = MemoryImage("vol")
    mem = MemorySystem(cfg, s, pm)
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
