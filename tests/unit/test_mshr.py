"""Unit tests for the non-blocking hierarchy: MSHR allocate/merge/replay/
exhaustion, the LLC file as the one bound, the legacy blocking model,
the locked-set single-count fix, and the serialized-drain arbiter."""

from dataclasses import replace as dc_replace

import pytest

from repro.common.errors import SimulationError
from repro.common.params import SystemConfig
from repro.engine import Scheduler
from repro.mem.cache import MSHRFile
from repro.mem.controller import MemorySystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.image import MemoryImage
from repro.mem.wpq import DrainArbiter

PM_BASE = 0x1000_0000_0000


def build(mshrs=None, overlapped=None, assoc1=False):
    cfg = SystemConfig.small(num_cores=2)
    overrides = {}
    if mshrs is not None:
        overrides["mshrs_per_cache"] = mshrs
    if overlapped is not None:
        overrides["overlapped_drains"] = overlapped
    if overrides:
        cfg = dc_replace(cfg, memory=dc_replace(cfg.memory, **overrides))
    if assoc1:
        cfg = dc_replace(
            cfg,
            l1=dc_replace(cfg.l1, assoc=1),
            l2=dc_replace(cfg.l2, assoc=1),
            l3=dc_replace(cfg.l3, assoc=1),
        )
    s = Scheduler()
    vol = MemoryImage("vol")
    mem = MemorySystem(cfg, s)
    h = CacheHierarchy(cfg, s, mem, vol, lambda a: True)
    return cfg, s, mem, h


def start_access(h, s, core, addr, is_write=False):
    """Issue an access and return a dict filled in at completion."""
    out = {}

    def done(meta):
        out["meta"] = meta
        out["time"] = s.now

    h.access(core, addr, is_write, done)
    return out


# -- MSHRFile mechanics ------------------------------------------------------


def test_mshr_file_allocate_merge_free():
    f = MSHRFile("mshr-test", 2)
    waiters = f.allocate(0x40)
    assert f.entries[0x40] is waiters == []
    assert len(f) == 1 and not f.full
    # a merge joins the tracked line's waiters (no new register)
    f.entries[0x40].append((1, None))
    assert waiters == [(1, None)] and len(f) == 1
    f.allocate(0x80)
    assert f.full and len(f) == 2
    del f.entries[0x40]  # the fill frees the register
    assert len(f) == 1 and not f.full
    assert f.allocate(0x40) == []  # a later miss fetches afresh


def test_mshr_file_raises_on_oversubscription_and_duplicates():
    f = MSHRFile("mshr-test", 1)
    f.allocate(0x40)
    with pytest.raises(SimulationError):
        f.allocate(0x40)  # duplicate: must merge, not refetch
    with pytest.raises(SimulationError):
        f.allocate(0x80)  # full: caller must stall
    with pytest.raises(SimulationError):
        MSHRFile("empty", 0)


# -- merge: one fetch answers every requester --------------------------------


def test_same_line_misses_from_two_cores_produce_one_fill():
    cfg, s, mem, h = build()
    first = start_access(h, s, 0, PM_BASE)
    second = start_access(h, s, 1, PM_BASE)  # in flight: must merge
    assert PM_BASE in h.llc_mshrs.entries
    s.run()
    t_mem = mem.timing.memory_read_latency(True)
    assert h.llc_misses == 1
    assert h.mshr_merges == 1
    assert mem.channel_for_line(PM_BASE).stats.pm_reads == 1
    # both requesters complete when the single fill lands
    assert first["time"] == second["time"] == t_mem
    assert h.l1[0].contains(PM_BASE) and h.l1[1].contains(PM_BASE)
    assert PM_BASE not in h.llc_mshrs.entries  # registers released


def test_merged_write_applies_effects_at_classification():
    cfg, s, mem, h = build()
    start_access(h, s, 0, PM_BASE)
    merged = start_access(h, s, 1, PM_BASE, is_write=True)
    # write effects land when the access is classified, not at fill time
    assert h.tags.get(PM_BASE).dirty
    s.run()
    assert merged["meta"].dirty


def test_fill_replays_waiters_in_arrival_order():
    cfg, s, mem, h = build()
    order = []
    h.access(0, PM_BASE, False, lambda meta: order.append("a"))
    h.access(1, PM_BASE, False, lambda meta: order.append("b"))
    h.access(0, PM_BASE, False, lambda meta: order.append("c"))
    assert h.mshr_merges == 2
    s.run()
    assert order == ["a", "b", "c"]


# -- exhaustion: the blocking comparator -------------------------------------


def test_single_mshr_serializes_distinct_line_misses():
    cfg, s, mem, h = build(mshrs=1)
    first = start_access(h, s, 0, PM_BASE)
    second = start_access(h, s, 1, PM_BASE + 64)  # no free register: parks
    assert h.mshr_stalls == 1
    s.run()
    t_mem = mem.timing.memory_read_latency(True)
    assert first["time"] == t_mem
    # the parked miss re-probes when the first fill frees the register,
    # then pays its own full fetch: the classic blocking-cache timeline
    assert second["time"] == 2 * t_mem
    assert h.llc_misses == 2


def test_parked_miss_that_finds_line_resident_completes_as_hit():
    cfg, s, mem, h = build(mshrs=1)
    start_access(h, s, 0, PM_BASE)
    # same line from the other core while the register file is busy with
    # a *different* line would park; same line merges instead - force the
    # park with a distinct line, then let the fetched line satisfy it
    parked = start_access(h, s, 1, PM_BASE + 64)
    resident = start_access(h, s, 0, PM_BASE)  # merges into the fetch
    assert h.mshr_merges == 1 and h.mshr_stalls == 1
    s.run()
    assert parked["time"] > resident["time"]
    assert h.l1[1].contains(PM_BASE + 64)


def test_nonblocking_default_makes_secondary_miss_wait_for_fill():
    cfg, s, mem, h = build()
    first = start_access(h, s, 0, PM_BASE)
    second = start_access(h, s, 1, PM_BASE)
    s.run()
    assert second["time"] == first["time"]


# -- the LLC file is the one bound -------------------------------------------


def test_full_file_stalls_a_new_line_and_merges_an_in_flight_one():
    cfg, s, mem, h = build(mshrs=2)
    a, b, c = PM_BASE, PM_BASE + 64, PM_BASE + 128
    first = start_access(h, s, 0, a)
    start_access(h, s, 0, b)
    assert set(h.llc_mshrs.entries) == {a, b} and h.llc_mshrs.full
    parked = start_access(h, s, 0, c)  # a new line: the core stalls
    assert h.mshr_stalls == 1 and c not in h.llc_mshrs.entries
    merged = start_access(h, s, 0, a)  # an in-flight line: merges
    assert h.mshr_merges == 1 and h.mshr_stalls == 1
    assert [core for core, _ in h.llc_mshrs.entries[a]] == [0, 0]
    s.run()
    t_mem = mem.timing.memory_read_latency(True)
    assert first["time"] == merged["time"] == t_mem
    assert parked["time"] == 2 * t_mem  # fetched once a fill freed a register
    assert h.llc_misses == 3
    assert len(h.llc_mshrs) == 0  # every fill released its register


def test_full_file_lets_another_core_merge_but_not_fetch():
    cfg, s, mem, h = build(mshrs=2)
    a, b, c = PM_BASE, PM_BASE + 64, PM_BASE + 128
    start_access(h, s, 0, a)
    start_access(h, s, 0, b)
    # core 0 filled the shared file; core 1 merges into both fetches...
    start_access(h, s, 1, a)
    start_access(h, s, 1, b)
    assert h.mshr_merges == 2 and h.mshr_stalls == 0
    assert [core for core, _ in h.llc_mshrs.entries[b]] == [0, 1]
    # ...but a line of its own must wait for a register like core 0's would
    parked = start_access(h, s, 1, c)
    assert h.mshr_stalls == 1
    s.run()
    t_mem = mem.timing.memory_read_latency(True)
    assert parked["time"] == 2 * t_mem
    assert all(h.l1[1].contains(x) for x in (a, b, c))
    assert h.llc_misses == 3 and len(h.llc_mshrs) == 0


# -- locked-set stalls count the logical access once -------------------------


def _same_set_distinct_line(cfg, base):
    """A line that conflicts with ``base`` in every (direct-mapped) level."""
    sets = max(cfg.l1.num_sets, cfg.l2.num_sets, cfg.l3.num_sets)
    return base + sets * 64


@pytest.mark.parametrize("mshrs", [None, 1])
def test_locked_set_retry_counts_access_once(mshrs):
    cfg, s, mem, h = build(mshrs=mshrs, assoc1=True)
    victim_line = PM_BASE
    start_access(h, s, 0, victim_line)
    s.run()
    h.tags.get(victim_line).lock_count = 1
    conflicting = _same_set_distinct_line(cfg, victim_line)
    out = start_access(h, s, 0, conflicting)
    # keep the set locked well past the fill attempt (the non-blocking
    # model only tries to fill once the fetch lands, t_mem from now)
    hold = mem.timing.memory_read_latency(True) + 10 * 16 + 1
    s.after(hold, lambda: setattr(h.tags.get(victim_line), "lock_count", 0))
    s.run()
    assert out["meta"] is not None
    assert h.locked_set_stalls >= 1
    # one logical access per call, however many times the fill retried -
    # the pre-fix model re-entered access() and recounted on every retry
    assert h.accesses == 2
    assert h.l1[0].hits + h.l1[0].misses == h.accesses
    assert h.llc.misses == h.llc_misses == 2


# -- serialized drains (DrainArbiter) ----------------------------------------


def test_drain_arbiter_grants_fifo_and_hands_off():
    arb = DrainArbiter()
    order = []
    arb.acquire(lambda: order.append("a"))  # free: granted immediately
    assert order == ["a"] and arb.held
    arb.acquire(lambda: order.append("b"))
    arb.acquire(lambda: order.append("c"))
    assert order == ["a"]  # held: queued
    arb.release()
    assert order == ["a", "b"]  # handed to the oldest waiter
    arb.release()
    assert order == ["a", "b", "c"]
    arb.release()
    assert not arb.held


def test_memory_system_builds_arbiter_only_for_serialized_mode():
    _, _, mem_overlapped, _ = build(overlapped=True)
    assert mem_overlapped.drain_arbiter is None
    _, _, mem_serialized, _ = build(overlapped=False)
    assert isinstance(mem_serialized.drain_arbiter, DrainArbiter)


def test_serialized_drains_persist_everything_but_never_earlier():
    from repro.harness.runner import run_once

    results = {}
    for overlapped in (True, False):
        config = SystemConfig.small(num_cores=4, wpq_entries=8)
        config = dc_replace(
            config, memory=dc_replace(config.memory, overlapped_drains=overlapped)
        )
        results[overlapped] = run_once("HM", "asap", config)
    # serializing write service reorders nothing functionally: the same
    # lines reach PM, just later - the event queue drains no earlier
    assert results[False].pm_writes > 0
    assert results[False].drain_cycles >= results[True].drain_cycles
