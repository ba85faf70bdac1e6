"""Unit tests for RunResult metrics, the harness runner, and scheme base."""

import pytest

from repro.common.params import SystemConfig
from repro.harness.runner import default_config, default_params, run_once
from repro.mem.image import MemoryImage
from repro.persist.base import PersistenceScheme, SchemeThread
from repro.sim.machine import Machine
from repro.sim.stats import RunResult
from repro.sim.trace import COMMIT, Tracer


def make_result(**overrides):
    base = dict(
        scheme="x",
        cycles=1_000_000,
        drain_cycles=1_100_000,
        regions_completed=500,
        region_cycles_total=100_000,
        ops_executed=5000,
        pm_writes=100,
        pm_writes_by_kind={"lpo": 40, "dpo": 50, "wb": 5, "loghdr": 5},
        pm_reads=10,
        dram_writes=3,
        llc_misses=7,
        cache_accesses=1000,
        mshr_merges=2,
        wpq_peak_occupancy=12,
    )
    base.update(overrides)
    return RunResult(**base)


def test_throughput_regions_per_mcycle():
    r = make_result()
    assert r.throughput == pytest.approx(500.0)


def test_cycles_per_region():
    r = make_result()
    assert r.cycles_per_region == pytest.approx(200.0)


def test_zero_guards():
    r = make_result(cycles=0, regions_completed=0, region_cycles_total=0)
    assert r.throughput == 0.0
    assert r.cycles_per_region == 0.0


def test_speedup_and_traffic_ratio():
    fast = make_result(cycles=500_000)
    slow = make_result()
    assert fast.speedup_over(slow) == pytest.approx(2.0)
    heavy = make_result(pm_writes=300)
    assert heavy.traffic_ratio_over(slow) == pytest.approx(3.0)


def test_traffic_ratio_zero_baseline():
    r = make_result(pm_writes=5)
    zero = make_result(pm_writes=0)
    assert r.traffic_ratio_over(zero) == float("inf")
    none = make_result(pm_writes=0)
    assert none.traffic_ratio_over(zero) == 1.0


def test_run_once_end_to_end():
    res = run_once("HM", "np", default_config(True), default_params(True))
    assert res.scheme == "np"
    assert res.regions_completed > 0
    assert res.drain_cycles >= res.cycles


def test_default_config_quick_vs_full():
    quick = default_config(True)
    full = default_config(False)
    assert quick.num_cores < full.num_cores
    assert full.memory.wpq_entries == 128
    mult = default_config(True, pm_latency_multiplier=4)
    assert mult.memory.pm_latency_multiplier == 4


def test_default_config_asap_overrides():
    cfg = default_config(True, lh_wpq_entries=3)
    assert cfg.asap.lh_wpq_entries == 3
    cfg_full = default_config(False, lh_wpq_entries=16)
    assert cfg_full.asap.lh_wpq_entries == 16


def test_default_params_sizes():
    assert default_params(True, value_bytes=2048).value_bytes == 2048
    assert default_params(False).ops_per_thread > default_params(True).ops_per_thread


def test_scheme_base_defaults():
    class Dummy(PersistenceScheme):
        name = "dummy"

        def register_thread(self, thread_id, core_id):
            return SchemeThread(thread_id, core_id)

        def begin(self, thread, done):
            done()

        def end(self, thread, done):
            done()

        def write(self, thread, addr, values, done):
            done()

        def read(self, thread, addr, nwords, done):
            done([0] * nwords)

    scheme = Dummy()
    calls = []
    thread = scheme.register_thread(0, 0)
    scheme.fence(thread, lambda: calls.append("fence"))
    scheme.migrate(thread, 3, lambda: calls.append("migrate"))
    image = MemoryImage("pm")
    scheme.crash_flush(image)  # default no-op
    assert list(image.items()) == []
    assert calls == ["fence", "migrate"]
    assert thread.core_id == 3
    tracer = Tracer(Machine(SystemConfig.small(), scheme))
    scheme.commits.fire(42)
    assert [e.rid for e in tracer.of_kind(COMMIT)] == [42]


def test_stall_breakdown_reported_for_asap():
    res = run_once("HM", "asap", default_config(True), default_params(True))
    assert set(res.stall_breakdown) >= {
        "locked_set", "cl_entry", "cl_slot", "dep_entry", "dep_slot", "lh_wpq"
    }
    assert all(v >= 0 for v in res.stall_breakdown.values())


def test_stall_breakdown_minimal_for_baselines():
    # Baselines have no ASAP structures; only the hierarchy's own
    # structural stalls (locked sets, MSHR exhaustion) are reported.
    res = run_once("HM", "np", default_config(True), default_params(True))
    assert set(res.stall_breakdown) == {"locked_set", "mshr"}
