"""Tests for the asap_redo extension (Fig. 2c: asynchronous-commit redo)."""

import pytest

from repro.common.observe import SimObserver
from repro.common.params import SystemConfig
from repro.core.rid import pack_rid
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Fence, Lock, Read, Unlock, Write
from repro.sim.trace import COMMIT, Tracer
from repro.workloads import WorkloadParams, get_workload, workload_names


def make(**kwargs):
    m = Machine(SystemConfig.small(**kwargs), make_scheme("asap_redo")).inspect()
    return m, m.heap.alloc(64 * 16)


def test_end_is_asynchronous():
    m, a = make()
    t = {}
    tracer = Tracer(m)

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        t["commits_at_end"] = len(tracer.of_kind(COMMIT))

    m.spawn(worker)
    m.run()
    assert t["commits_at_end"] == 0
    assert len(tracer.of_kind(COMMIT)) == 1


def test_commit_order_follows_control_dependence():
    m, a = make()
    tracer = Tracer(m)

    def worker(env):
        for i in range(5):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()

    m.spawn(worker)
    m.run()
    commits = [e.rid for e in tracer.of_kind(COMMIT)]
    assert commits == sorted(commits)


def test_data_dependence_across_threads():
    m, a = make(wpq_entries=1)
    lock = m.new_lock()
    tracer = Tracer(m)

    def producer(env):
        yield Lock(lock)
        yield Begin()
        for j in range(1, 7):
            yield Write(a + 64 * j, [j])
        yield Write(a, [41])
        yield End()
        yield Unlock(lock)

    def consumer(env):
        yield Lock(lock)
        yield Begin()
        (x,) = yield Read(a, 1)
        yield Write(a, [x + 1])
        yield End()
        yield Unlock(lock)

    m.spawn(producer)
    m.spawn(consumer)
    m.run()
    assert m.volatile.read_word(a) == 42
    commits = [e.rid for e in tracer.of_kind(COMMIT)]
    p, c = pack_rid(0, 1), pack_rid(1, 1)
    assert commits.index(p) < commits.index(c)


def test_in_place_updates_carry_logged_values_only():
    """Redo's no-force rule: a committed region's writeback installs the
    values it logged, even if a later uncommitted region has already
    modified the cache line."""
    m, a = make(wpq_entries=1)
    lock = m.new_lock()

    def t1(env):
        yield Lock(lock)
        yield Begin()
        yield Write(a, [100])
        yield End()
        yield Unlock(lock)

    def t2(env):
        yield Lock(lock)
        yield Begin()
        (v,) = yield Read(a, 1)
        yield Write(a, [v + 1])
        yield End()
        yield Unlock(lock)

    m.spawn(t1)
    m.spawn(t2)
    m.run()
    assert m.pm_image.read_word(a) == 101
    assert m.oracle.mismatches(m.pm_image) == []


def test_fence_blocks_until_marker_durable():
    m, a = make()
    tracer = Tracer(m)
    t = {}

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        t["at_end"] = len(tracer.of_kind(COMMIT))
        yield Fence()
        t["at_fence"] = len(tracer.of_kind(COMMIT))

    m.spawn(worker)
    m.run()
    assert t["at_end"] == 0 and t["at_fence"] == 1


def test_rewritten_lines_relogged_with_final_values():
    m, a = make()

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield Write(a, [2])
        yield End()

    m.spawn(worker)
    res = m.run()
    assert res.pm_writes_by_kind["lpo"] >= 2  # initial + final-value re-log
    assert m.pm_image.read_word(a) == 2


def test_eviction_of_uncommitted_line_is_suppressed():
    """Uncommitted redo data must never reach its home address."""
    m, a = make(wpq_entries=1)
    filler = m.heap.alloc(64 * 4096)

    class Writebacks(SimObserver):
        def __init__(self):
            self.ops = []

        def line_evicted(self, meta, wb_op):
            if wb_op is not None:
                self.ops.append(wb_op)

    writebacks = m.observe(Writebacks())

    def writer(env):
        yield Begin()
        for j in range(8):
            yield Write(a + 64 * j, [j + 1])
        # stream the cache while the region is still open
        for i in range(3000):
            yield Read(filler + 64 * i, 1)
        yield End()

    m.spawn(writer)
    m.run()
    # the scheme's eviction hook drops the writeback after subscribers see it
    assert any(op.dropped for op in writebacks.ops)
    assert m.oracle.mismatches(m.pm_image) == []


@pytest.mark.parametrize("workload", workload_names())
def test_workloads_run_and_recover(workload):
    params = WorkloadParams(num_threads=3, ops_per_thread=10, setup_items=16)

    def build():
        machine = Machine(SystemConfig.small(), make_scheme("asap_redo")).inspect()
        machine.install(get_workload(workload, params))
        return machine

    total = build().run().cycles
    machine = build()
    state = crash_machine(machine, at_cycle=total // 2)
    assert state.log_kind == "redo"
    image, _report = recover(state)
    verdict = verify_recovery(machine, image)
    assert verdict.ok, verdict.explain()


def test_redo_recovery_dense_crash_scan():
    params = WorkloadParams(num_threads=2, ops_per_thread=10, setup_items=8)

    def build():
        machine = Machine(SystemConfig.small(wpq_entries=2), make_scheme("asap_redo")).inspect()
        machine.install(get_workload("Q", params))
        return machine

    total = build().run().cycles
    for i in range(8):
        machine = build()
        state = crash_machine(machine, at_cycle=150 + (i * total) // 9)
        image, _ = recover(state)
        verdict = verify_recovery(machine, image)
        assert verdict.ok, verdict.explain()
