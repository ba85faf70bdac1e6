"""Context switching (Sec. 5.7): migrate threads between cores."""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Migrate, Read, Write


def make(scheme="asap", **kwargs):
    m = Machine(SystemConfig.small(**kwargs), make_scheme(scheme)).inspect()
    return m, m.heap.alloc(64 * 8)


@pytest.mark.parametrize("scheme", ["np", "sw", "hwundo", "hwredo", "asap"])
def test_migrate_between_regions(scheme):
    m, a = make(scheme)

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield Migrate(2)
        yield Begin()
        (v,) = yield Read(a, 1)
        yield Write(a + 64, [v + 1])
        yield End()

    m.spawn(worker, core_id=0)
    res = m.run()
    assert res.regions_completed == 2
    assert m.volatile.read_word(a + 64) == 2
    assert m.oracle.uncommitted_rids() == []


def test_asap_migrate_drains_cl_entries():
    m, a = make("asap")
    eng = m.scheme
    snapshots = {}

    def worker(env):
        for i in range(3):
            yield Begin()
            yield Write(a + 64 * i, [i])
            yield End()
        snapshots["before"] = len(m.scheme.cl_lists[0])
        yield Migrate(3)
        snapshots["after_old_core"] = len(m.scheme.cl_lists[0])
        yield Begin()
        yield Write(a + 64 * 5, [5])
        yield End()

    m.spawn(worker, core_id=0)
    m.run()
    # the old core's CL List was drained before the thread resumed
    assert snapshots["after_old_core"] == 0
    assert eng.stats.commits == 4
    assert eng.threads[0].core_id == 3


def test_asap_migrate_inside_region_rejected():
    m, a = make("asap")

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield Migrate(1)
        yield End()

    m.spawn(worker, core_id=0)
    with pytest.raises(SimulationError, match="context switch inside"):
        m.run()


def test_migrate_to_bad_core_rejected():
    m, a = make("np")

    def worker(env):
        yield Migrate(99)

    m.spawn(worker)
    with pytest.raises(SimulationError, match="nonexistent core"):
        m.run()


def test_migrate_preserves_thread_state_registers():
    m, a = make("asap")
    eng = m.scheme

    def worker(env):
        yield Begin()
        yield Write(a, [1])
        yield End()
        yield Migrate(2)

    m.spawn(worker, core_id=1)
    m.run()
    # the paper's thread state registers travel with the thread object
    thread = eng.threads[0]
    assert thread.core_id == 2
    assert thread.regions_begun == 1
    assert thread.nest_depth == 0


def test_crash_recovery_with_migrations():
    def build():
        m = Machine(SystemConfig.small(), make_scheme("asap")).inspect()
        a = m.heap.alloc(64 * 16)

        def worker(env, tid):
            for i in range(8):
                yield Begin()
                (v,) = yield Read(a + 64 * ((tid + i) % 16), 1)
                yield Write(a + 64 * ((tid + i) % 16), [v + 1])
                yield End()
                if i % 3 == 2:
                    yield Migrate((tid + i) % m.config.num_cores)

        for t in range(3):
            m.spawn(lambda env, t=t: worker(env, t))
        return m

    total = build().run().cycles
    for frac in (0.4, 0.8):
        m = build()
        state = crash_machine(m, at_cycle=int(total * frac))
        image, _ = recover(state)
        verdict = verify_recovery(m, image)
        assert verdict.ok, verdict.explain()
