"""ASAP engine corner cases: structural limits, spills, overflow, misuse."""

from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.common.params import CacheParams, SystemConfig
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Fence, Lock, Read, Unlock, Write


def make(**small_kwargs):
    m = Machine(SystemConfig.small(**small_kwargs), make_scheme("asap")).inspect()
    return m, m.scheme


def test_log_overflow_grows_mid_run():
    """The Sec. 4.4 overflow exception: a tiny log grows transparently."""
    m, eng = make(initial_log_entries=4)
    a = m.heap.alloc(64 * 64)

    def worker(env):
        for i in range(20):
            yield Begin()
            for j in range(4):
                yield Write(a + 64 * ((4 * i + j) % 64), [i])
            yield End()

    m.spawn(worker)
    m.run()
    thread = eng.threads[0]
    assert thread.log.overflows >= 1
    assert len(thread.log.segments) >= 2
    assert eng.stats.commits == 20


def test_log_overflow_then_crash_recovers():
    def build():
        m = Machine(
            SystemConfig.small(initial_log_entries=4), make_scheme("asap")
        ).inspect()
        a = m.heap.alloc(64 * 64)

        def worker(env):
            for i in range(20):
                yield Begin()
                for j in range(4):
                    yield Write(a + 64 * ((4 * i + j) % 64), [i * 10 + j])
                yield End()

        m.spawn(worker)
        return m

    total = build().run().cycles
    for frac in (0.4, 0.75):
        m = build()
        state = crash_machine(m, at_cycle=int(total * frac))
        image, _ = recover(state)
        assert verify_recovery(m, image).ok


def test_clptr_slot_exhaustion_stalls_and_resolves():
    m, eng = make(clptr_slots=2)
    a = m.heap.alloc(64 * 16)

    def worker(env):
        yield Begin()
        for j in range(10):  # 10 distinct lines through 2 CLPtr slots
            yield Write(a + 64 * j, [j])
        yield End()

    m.spawn(worker)
    m.run()
    assert eng.cl_lists[0].slot_stalls > 0
    assert eng.stats.commits == 1
    assert m.oracle.mismatches(m.pm_image) == []


def test_dependence_list_exhaustion_stalls_begin():
    # warm lines -> ~40-cycle regions; a small backpressured WPQ makes
    # commits lag far behind, exhausting the 2-entry Dependence Lists
    m, eng = make(dependence_list_entries=2, wpq_entries=4)
    a = m.heap.alloc(64 * 4)
    m.bootstrap_write(a, [0])

    def worker(env):
        for i in range(40):
            yield Begin()
            yield Write(a + 64 * (i % 4), [i])
            yield End()

    m.spawn(worker)
    m.run()
    assert sum(dl.entry_stalls for dl in eng.dep_lists) > 0
    assert eng.stats.commits == 40


def test_lh_wpq_exhaustion_stalls_first_lpo():
    m, eng = make(lh_wpq_entries=1, wpq_entries=4)
    a = m.heap.alloc(64 * 40)

    def worker(env):
        for i in range(30):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()

    m.spawn(worker)
    m.run()
    assert sum(lh.stalls for lh in eng.lh_wpqs) > 0
    assert eng.stats.commits == 30


def test_owner_spill_and_reload_detects_dependence():
    """Sec. 5.3 end-to-end: evict an owned line, reload it from another
    thread, and still capture the data dependence."""
    cfg = SystemConfig.small(num_cores=2, wpq_entries=1)
    cfg = replace(cfg, l3=CacheParams(4 * 1024, 4, 42))
    m = Machine(cfg, make_scheme("asap")).inspect()
    eng = m.scheme
    a = m.heap.alloc(64 * 8)
    filler = m.heap.alloc(64 * 2048)
    lock = m.new_lock()

    def owner_thread(env):
        yield Lock(lock)
        yield Begin()
        for j in range(8):
            yield Write(a + 64 * j, [j + 1])
        # churn the tiny LLC so the owned lines get evicted while the
        # region is still uncommitted (WPQ=1 keeps it pending)
        for i in range(1200):
            yield Read(filler + 64 * i, 1)
        yield End()
        yield Unlock(lock)

    def reader_thread(env):
        yield Lock(lock)
        yield Begin()
        (v,) = yield Read(a, 1)
        yield Write(a + 64 * 7, [v])
        yield End()
        yield Unlock(lock)

    m.spawn(owner_thread, core_id=0)
    m.spawn(reader_thread, core_id=1)
    m.run()
    assert eng.spill.spills > 0
    assert eng.spill.hits + eng.spill.false_positives >= 0
    assert eng.stats.commits == 2
    assert m.oracle.mismatches(m.pm_image) == []


def test_writes_outside_regions_are_unlogged():
    m, eng = make()
    a = m.heap.alloc(64)

    def worker(env):
        yield Write(a, [9])  # plain PM store, no region

    m.spawn(worker)
    res = m.run()
    assert eng.stats.lpos_initiated == 0
    assert eng.stats.regions_begun == 0
    assert m.volatile.read_word(a) == 9


def test_fence_waits_for_whole_prior_chain():
    m, eng = make(wpq_entries=1)
    a = m.heap.alloc(64 * 16)
    t = {}

    def worker(env):
        for i in range(6):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()
        yield Fence()
        t["commits_at_fence"] = eng.stats.commits

    m.spawn(worker)
    m.run()
    # the fence waits on region 6, which (via control deps) implies 1..5
    assert t["commits_at_fence"] == 6


def test_unbalanced_end_raises():
    m, eng = make()

    def worker(env):
        yield End()

    m.spawn(worker)
    with pytest.raises(SimulationError):
        m.run()


def test_duplicate_thread_registration_rejected():
    m, eng = make()
    eng.register_thread(77, 0)
    with pytest.raises(SimulationError):
        eng.register_thread(77, 1)


def test_read_only_pm_access_outside_region():
    m, eng = make()
    a = m.heap.alloc(64)
    m.bootstrap_write(a, [5])
    got = {}

    def worker(env):
        got["v"] = (yield Read(a, 1))[0]

    m.spawn(worker)
    m.run()
    assert got["v"] == 5
    assert eng.stats.dep_captures == 0
