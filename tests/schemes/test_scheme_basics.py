"""Behavioural tests shared across every registered persistence scheme."""

import pytest

from repro.common.params import SystemConfig
from repro.persist import make_scheme, scheme_names
from repro.recovery import crash_machine
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Fence, Read, Write

SCHEMES = scheme_names()


def run_counter(scheme, regions=10, lines=2):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    a = m.heap.alloc(64 * lines)

    def worker(env):
        for i in range(regions):
            yield Begin()
            for j in range(lines):
                (v,) = yield Read(a + 64 * j, 1)
                yield Write(a + 64 * j, [v + 1])
            yield End()

    m.spawn(worker)
    return m, m.run(), a


@pytest.mark.parametrize("scheme", SCHEMES)
def test_functional_correctness(scheme):
    m, res, a = run_counter(scheme, regions=10, lines=2)
    assert m.volatile.read_word(a) == 10
    assert m.volatile.read_word(a + 64) == 10
    assert res.regions_completed == 10


@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_regions_commit(scheme):
    m, res, a = run_counter(scheme)
    assert len(m.oracle.committed_rids) == 10
    assert m.oracle.uncommitted_rids() == []


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if s not in ("np",)])
def test_committed_data_reaches_pm_eventually(scheme):
    m, res, a = run_counter(scheme)
    # after the event queue drains, all WAL schemes' data is durable: the
    # WPQs are empty, so a crash snapshot is PM itself plus whatever the
    # scheme's own persistence domain holds (eADR's battery-backed caches)
    assert all(len(ch.wpq) == 0 for ch in m.memory.channels), scheme
    assert crash_machine(m).pm_image.read_word(a) == 10, scheme


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        make_scheme("nope")


def test_scheme_names_complete():
    assert set(SCHEMES) <= set(scheme_names())


def test_np_generates_no_persist_traffic():
    m, res, a = run_counter("np")
    assert res.pm_writes_by_kind["lpo"] == 0
    assert res.pm_writes_by_kind["dpo"] == 0


def test_sw_is_slowest_asap_close_to_np():
    results = {s: run_counter(s, regions=30)[1] for s in ("np", "sw", "hwundo", "asap")}
    assert results["sw"].cycles > results["hwundo"].cycles
    assert results["hwundo"].cycles > results["asap"].cycles
    # ASAP close to NP even on this write-dense microbenchmark (the only
    # ASAP overheads left are structural: CL-entry backpressure)
    assert results["asap"].cycles <= results["np"].cycles * 1.6


def test_region_latency_ordering_matches_fig8():
    results = {s: run_counter(s, regions=30)[1] for s in ("np", "sw", "hwundo", "asap")}
    cpr = {s: r.cycles_per_region for s, r in results.items()}
    assert cpr["sw"] > cpr["hwundo"] > cpr["asap"]
    assert cpr["asap"] <= cpr["np"] * 1.6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fence_after_region_completes(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    a = m.heap.alloc(64)
    marks = {}

    def worker(env):
        yield Begin()
        yield Write(a, [7])
        yield End()
        yield Fence()
        marks["after_fence_pm"] = m.pm_image.read_word(a)

    m.spawn(worker)
    m.run()
    if scheme in ("sw", "hwundo", "asap"):
        # undo schemes: after the fence the data itself is durable (in the
        # persistence domain); for asap the WPQ may still hold it, so check
        # committed status instead of the raw image.
        assert len(m.oracle.committed_rids) == 1
    assert "after_fence_pm" in marks
