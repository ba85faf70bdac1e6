"""Unit tests for the tag store, op dataclasses, and error types."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConfigError,
    DeadlockError,
    LogOverflowError,
    RecoveryError,
    ReproError,
    SimulationError,
)
from repro.common.params import SystemConfig
from repro.mem.tagstore import LineMeta, TagStore
from repro.persist import make_scheme
from repro.sim import ops
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload, workload_names
from tests.conftest import locked_set_config


# -- tag store ---------------------------------------------------------------


def test_ensure_creates_once():
    tags = TagStore()
    a = tags.ensure(0x1000, pbit=True)
    b = tags.ensure(0x1000, pbit=False)  # second call ignores pbit arg
    assert a is b
    assert a.pbit is True
    assert len(tags) == 1


def test_drop_returns_meta():
    tags = TagStore()
    tags.ensure(0x1000, True)
    meta = tags.drop(0x1000)
    assert meta is not None and meta.line == 0x1000
    assert tags.drop(0x1000) is None
    assert tags.get(0x1000) is None


def test_lock_bit_is_counted():
    meta = LineMeta(line=0x1000)
    assert not meta.lock_bit
    meta.lock_count += 1
    meta.lock_count += 1
    assert meta.lock_bit
    meta.lock_count -= 1
    assert meta.lock_bit  # still one LPO outstanding
    meta.lock_count -= 1
    assert not meta.lock_bit


# -- locked index <-> metadata consistency --------------------------------------


def assert_locked_index_matches(tags: TagStore) -> None:
    """The locked index must agree with a scan of every line's lock count."""
    # LineMeta compares by identity, so equal maps hold the same objects
    assert tags.locked == {
        line: meta for line, meta in tags.items() if meta.lock_count > 0
    }


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["ensure", "lock", "unlock", "drop"]),
            st.integers(0, 7),  # line selector
        ),
        max_size=80,
    )
)
def test_index_consistency_under_random_ops(steps):
    tags = TagStore()
    for op, line_sel in steps:
        line = 0x1000 + line_sel * 64
        meta = tags.get(line)
        if op == "ensure" or meta is None:
            meta = tags.ensure(line, pbit=bool(line_sel % 2))
        if op == "lock":
            meta.lock_count += 1
        elif op == "unlock" and meta.lock_count > 0:
            meta.lock_count -= 1
        elif op == "drop":
            tags.drop(line)
        assert_locked_index_matches(tags)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=st.sampled_from(workload_names()),
    scheme=st.sampled_from(["asap", "asap_redo", "hwundo"]),
    seed=st.integers(0, 20),
)
def test_index_consistency_under_workloads(workload, scheme, seed):
    """The index stays consistent throughout real simulations, not just at rest."""
    params = WorkloadParams(num_threads=2, ops_per_thread=8, setup_items=12, seed=seed)
    machine = Machine(SystemConfig.small(), make_scheme(scheme))
    machine.install(get_workload(workload, params))
    for executor in machine.executors:
        executor.start()
    events = 0
    while machine.scheduler.step():
        events += 1
        if events % 64 == 0:
            assert_locked_index_matches(machine.hierarchy.tags)
    assert_locked_index_matches(machine.hierarchy.tags)


def assert_presence_masks_match(hierarchy) -> None:
    """Each line's presence mask must have exactly the bits of the private
    arrays holding it, and no mask may outlive the line's last copy."""
    expected = {}
    for k, array in enumerate(hierarchy._private):
        for line in array.lines():
            expected[line] = expected.get(line, 0) | 1 << k
    assert hierarchy._private_holders == expected


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=st.sampled_from(workload_names()),
    scheme=st.sampled_from(["asap", "asap_redo", "hwundo"]),
    seed=st.integers(0, 20),
    locked_sets=st.booleans(),
)
@example(workload="HM", scheme="asap", seed=0, locked_sets=True)
def test_presence_masks_under_workloads(workload, scheme, seed, locked_sets):
    """The private-presence masks agree with a scan of the private arrays
    throughout real simulations, including fills that stall on fully
    locked sets and take back what they installed."""
    params = WorkloadParams(num_threads=2, ops_per_thread=8, setup_items=12, seed=seed)
    config = locked_set_config() if locked_sets else SystemConfig.small()
    machine = Machine(config, make_scheme(scheme))
    machine.install(get_workload(workload, params))
    for executor in machine.executors:
        executor.start()
    events = 0
    while machine.scheduler.step():
        events += 1
        if events % 64 == 0:
            assert_presence_masks_match(machine.hierarchy)
    assert_presence_masks_match(machine.hierarchy)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=st.sampled_from(workload_names()),
    scheme=st.sampled_from(["asap", "asap_redo", "hwundo"]),
    seed=st.integers(0, 20),
    mshrs=st.sampled_from([1, 2, 16]),
)
def test_cache_accounting_under_workloads(workload, scheme, seed, mshrs):
    """Per-level hit/miss counters stay closed under merged secondary misses.

    Every logical access probes exactly one L1; each L1 miss probes that
    core's L2; each L2 miss probes the shared LLC - once, whether the LLC
    miss turns into a primary fetch, merges into an in-flight one, or
    parks on MSHR exhaustion. ``llc_misses`` (fetches actually sent to
    memory) plus ``mshr_merges`` can only fall short of ``llc.misses``
    when a parked access later finds its line resident (a late hit).
    """
    from dataclasses import replace as dc_replace

    params = WorkloadParams(num_threads=2, ops_per_thread=8, setup_items=12, seed=seed)
    config = SystemConfig.small()
    config = dc_replace(config, memory=dc_replace(config.memory, mshrs_per_cache=mshrs))
    machine = Machine(config, make_scheme(scheme))
    machine.install(get_workload(workload, params))
    machine.run()
    h = machine.hierarchy
    l1_probes = sum(c.hits + c.misses for c in h.l1)
    l2_probes = sum(c.hits + c.misses for c in h.l2)
    assert l1_probes == h.accesses
    assert l2_probes == sum(c.misses for c in h.l1)
    assert h.llc.hits + h.llc.misses == sum(c.misses for c in h.l2)
    assert h.llc_misses + h.mshr_merges <= h.llc.misses


# -- error hierarchy ------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    for exc in (ConfigError, SimulationError, RecoveryError, LogOverflowError):
        assert issubclass(exc, ReproError)
    assert issubclass(DeadlockError, SimulationError)


def test_log_overflow_carries_context():
    err = LogOverflowError(thread_id=3, capacity_entries=128)
    assert err.thread_id == 3
    assert err.capacity_entries == 128
    assert "thread 3" in str(err)


# -- op dataclasses ------------------------------------------------------------------


def test_ops_are_frozen():
    op = ops.Read(0x1000, 2)
    with pytest.raises(Exception):
        op.addr = 5


def test_write_holds_values():
    op = ops.Write(0x1000, [1, 2, 3])
    assert list(op.values) == [1, 2, 3]


def test_read_default_single_word():
    assert ops.Read(0x1000).nwords == 1


def test_migrate_target():
    assert ops.Migrate(3).core_id == 3
