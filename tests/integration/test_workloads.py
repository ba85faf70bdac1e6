"""Every Table 3 workload under every scheme: functional consistency."""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload, workload_names

PARAMS = WorkloadParams(num_threads=3, ops_per_thread=12, value_bytes=64, setup_items=24)


def run(workload, scheme, params=PARAMS, **small_kwargs):
    m = Machine(SystemConfig.small(**small_kwargs), make_scheme(scheme)).inspect()
    m.install(get_workload(workload, params))
    return m, m.run()


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme", ["np", "sw", "hwundo", "hwredo", "asap"])
def test_workload_completes_and_commits(workload, scheme):
    m, res = run(workload, scheme)
    assert res.regions_completed == PARAMS.num_threads * PARAMS.ops_per_thread
    assert m.oracle.uncommitted_rids() == []


@pytest.mark.parametrize("workload", workload_names())
def test_bootstrap_state_is_the_same_in_all_three_images(workload):
    """Bootstrap writes land in the volatile image; before the run the PM
    image and the oracle's committed image hold the very same lines."""
    m = Machine(SystemConfig.small(), make_scheme("asap")).inspect()
    m.install(get_workload(workload, PARAMS))
    volatile = dict(m.volatile.lines())
    assert volatile
    assert dict(m.pm_image.lines()) == volatile
    assert dict(m.oracle.committed.lines()) == volatile


def test_bootstrap_write_after_the_run_started_raises():
    m = Machine(SystemConfig.small(), make_scheme("asap")).inspect()
    m.install(get_workload("Q", PARAMS))
    addr = m.heap.alloc(64)
    m.bootstrap_write(addr, [1])  # before the run: allowed
    m.run(until=50)
    with pytest.raises(SimulationError, match="after the run started"):
        m.bootstrap_write(addr, [2])
    assert m.volatile.read_word(addr) == 1 == m.pm_image.read_word(addr)


@pytest.mark.parametrize("workload", workload_names())
def test_committed_image_matches_volatile_at_quiescence(workload):
    """At quiescence every region has committed, so the oracle's durable
    image must agree with the volatile truth on all tracked words."""
    m, res = run(workload, "asap")
    assert m.oracle.mismatches(m.volatile) == []


@pytest.mark.parametrize("workload", workload_names())
def test_pm_image_matches_committed_after_drain(workload):
    """After the event queue drains (all DPOs issued and applied), the PM
    image itself must hold every committed value."""
    m, res = run(workload, "asap")
    diffs = m.oracle.mismatches(m.pm_image)
    assert diffs == [], diffs[:5]


@pytest.mark.parametrize("workload", workload_names())
def test_workload_2kb_payloads(workload):
    params = WorkloadParams(num_threads=2, ops_per_thread=6, value_bytes=2048, setup_items=12)
    m, res = run(workload, "asap", params)
    assert res.regions_completed == 12
    assert m.oracle.mismatches(m.pm_image) == []


@pytest.mark.parametrize("workload", workload_names())
def test_workload_deterministic(workload):
    _, res1 = run(workload, "asap")
    _, res2 = run(workload, "asap")
    assert res1.cycles == res2.cycles
    assert res1.pm_writes == res2.pm_writes


def test_workload_registry():
    assert workload_names() == ["BN", "BT", "CT", "EO", "HM", "Q", "RB", "SS", "TPCC"]
    with pytest.raises(Exception):
        get_workload("NOPE")


@pytest.mark.parametrize("workload", ["BN", "HM", "Q"])
def test_single_thread_variant(workload):
    params = WorkloadParams(num_threads=1, ops_per_thread=20, setup_items=16)
    m, res = run(workload, "asap", params)
    assert res.regions_completed == 20


@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_update_fraction_extremes(fraction):
    """update_fraction=0 -> pure inserts; =1 -> pure updates (where the
    structure has entries to update)."""
    params = WorkloadParams(
        num_threads=2, ops_per_thread=10, setup_items=16, update_fraction=fraction
    )
    m, res = run("BN", "asap", params)
    assert res.regions_completed == 20
    assert m.oracle.mismatches(m.pm_image) == []


def test_update_fraction_changes_footprint():
    """Pure updates allocate no new nodes; pure inserts allocate many."""
    def heap_use(fraction):
        params = WorkloadParams(
            num_threads=2, ops_per_thread=15, setup_items=16,
            update_fraction=fraction,
        )
        m, _ = run("HM", "asap", params)
        return m.heap.allocated_bytes

    assert heap_use(0.0) > heap_use(1.0)
