"""Tests for the idealized eADR baseline (Sec. 8 contrast)."""

from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Read, Write
from repro.workloads import WorkloadParams, get_workload


def make():
    m = Machine(SystemConfig.small(), make_scheme("eadr")).inspect()
    return m, m.heap.alloc(64 * 8)


def test_eadr_matches_np_performance():
    def run(scheme):
        m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
        a = m.heap.alloc(64 * 4)

        def worker(env):
            for i in range(30):
                yield Begin()
                yield Write(a + 64 * (i % 4), [i])
                yield End()

        m.spawn(worker)
        return m.run()

    assert run("eadr").cycles == run("np").cycles


def test_eadr_generates_no_persist_ops():
    m, a = make()

    def worker(env):
        for i in range(10):
            yield Begin()
            yield Write(a + 64 * (i % 8), [i])
            yield End()

    m.spawn(worker)
    res = m.run()
    assert res.pm_writes_by_kind["lpo"] == 0
    assert res.pm_writes_by_kind["dpo"] == 0


def test_eadr_crash_is_durable_and_atomic():
    """The battery flush makes committed regions durable; the in-cache
    undo log rolls back the in-flight one."""
    m, a = make()
    m.bootstrap_write(a, [100])

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield Begin()  # this region will be in flight at the crash
        yield Write(a, [2])
        yield Write(a + 64, [3])
        # never ends: crash strikes first

    m.spawn(worker)
    m.run(until=2000)
    state = crash_machine(m)
    # battery flush: committed region 1's write is durable, region 2's
    # writes rolled back from the in-cache log
    assert state.pm_image.read_word(a) == 1
    assert state.pm_image.read_word(a + 64) == 0
    # the flush went into the snapshot; the live PM image is untouched
    assert m.pm_image.read_word(a) == 100
    image, _ = recover(state)  # no dependence entries: recovery is a no-op
    assert verify_recovery(m, image).ok


def test_eadr_battery_requirement_quantified():
    m, _ = make()
    cfg = m.config
    expected = cfg.num_cores * (cfg.l1.size_bytes + cfg.l2.size_bytes) + cfg.l3.size_bytes
    assert m.scheme.battery_backed_bytes() == expected


def test_eadr_workload_run():
    params = WorkloadParams(num_threads=3, ops_per_thread=10, setup_items=16)
    m = Machine(SystemConfig.small(), make_scheme("eadr")).inspect()
    wl = get_workload("HM", params)
    m.install(wl)
    res = m.run()
    assert res.regions_completed == 30
    assert m.oracle.mismatches(m.volatile) == []
