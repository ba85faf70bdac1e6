"""Crash-recovery integration tests: the paper's Sec. 5.5 procedure.

The central invariant: after a crash at *any* cycle, recovery must produce
a PM image identical to the commit oracle's durable image - full regions
or nothing, in dependence order.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import SystemConfig
from repro.harness import runner
from repro.harness.fuzz import (
    FuzzCase,
    build_machine,
    case_workload,
    check_crash,
    clean_run,
    crash_cycles,
    crash_sweep,
)
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Lock, Read, Unlock, Write
from repro.workloads import workload_names

PARAMS = dict(num_threads=3, ops_per_thread=12, value_bytes=64, setup_items=16)


def workload_case(name, params=PARAMS, wpq_entries=16):
    return FuzzCase(
        "asap", [], wpq_entries=wpq_entries, workload=name, workload_params=params
    )


def assert_recovers(case, points=0, fracs=()):
    """The fuzzer's crash check at each point of one clean run: recovery
    matches the oracle, is deterministic and passes the validators."""
    failures, total = clean_run(case)
    assert failures == []
    for check in crash_sweep(case, sorted(set(crash_cycles(total, points, fracs)))):
        assert not check.problems, check.failures


@pytest.mark.parametrize("workload", workload_names())
def test_recovery_mid_run(workload):
    assert_recovers(workload_case(workload), fracs=(0.3, 0.6, 0.9))


@pytest.mark.parametrize("workload", ["BN", "Q", "TPCC"])
def test_recovery_dense_crash_points(workload):
    assert_recovers(workload_case(workload), points=10)


def test_recovery_before_any_region():
    check = check_crash(workload_case("HM"), 5)
    assert not check.problems and check.report.undone_count == 0


def test_recovery_after_quiescence_undoes_nothing():
    case = workload_case("HM")
    drained = build_machine(case).run().drain_cycles
    check = check_crash(case, drained + 100)
    assert not check.problems and check.report.undone_count == 0


def test_recovery_with_2kb_regions():
    params = dict(num_threads=2, ops_per_thread=6, value_bytes=2048, setup_items=8)
    assert_recovers(workload_case("SS", params), fracs=(0.4, 0.8))


def test_recovery_with_tiny_wpq_and_log():
    """Structural pressure (1-entry WPQ, small log forcing overflow growth)
    must not break recoverability."""
    params = dict(num_threads=2, ops_per_thread=10, setup_items=8)
    case = workload_case("Q", params, wpq_entries=1)

    def build():
        # the case's machine with a 16-entry initial log
        m = Machine(
            SystemConfig.small(wpq_entries=1, initial_log_entries=16),
            make_scheme("asap"),
        ).inspect()
        m.install(case_workload(case))
        return m

    total = build().run().cycles
    machine = build()
    for cycle in crash_cycles(total, fracs=(0.35, 0.7)):
        check = check_crash(case, cycle, machine)
        assert not check.problems, check.failures


def test_crash_check_validates_workloads_of_any_machine():
    # a runner-built machine records its workload like a fuzz-built one,
    # so the one crash check runs that workload's validators on it
    machine = runner.build_machine("Q", "asap")
    assert [w.name for w in machine.workloads] == ["Q"]
    check = check_crash(FuzzCase("asap", [], workload="Q"), 500, machine)
    assert check.verdict.ok and not check.problems, check.failures


def test_crash_check_refuses_a_machine_that_recorded_no_workload():
    # a workload-backed case on a machine with no recorded workload would
    # skip the validators; the check fails loudly instead
    machine = Machine(SystemConfig.small(), make_scheme("asap")).inspect()
    with pytest.raises(ConfigError, match="machine.install"):
        check_crash(workload_case("Q"), 500, machine)


def test_recovery_undoes_dependent_chain_in_order():
    """Hand-built chain: R1 <- R2 <- R3 all touching one line. Crash while
    all are uncommitted; recovery must unwind to the bootstrap value."""

    def build():
        m = Machine(SystemConfig.small(wpq_entries=1), make_scheme("asap")).inspect()
        a = m.heap.alloc(64 * 8)
        m.bootstrap_write(a, [1000])
        lock = m.new_lock()

        def worker(env, inc):
            yield Lock(lock)
            yield Begin()
            (v,) = yield Read(a, 1)
            yield Write(a, [v + inc])
            # keep the WPQ saturated so nothing commits before the crash
            for j in range(1, 6):
                yield Write(a + 64 * j, [inc * j])
            yield End()
            yield Unlock(lock)

        for t, inc in enumerate((1, 10, 100)):
            m.spawn(lambda env, inc=inc: worker(env, inc))
        m._test_addr = a
        return m

    # crash early enough that some regions are uncommitted (a hand-built
    # program with a bootstrap value: no fuzz case expresses it)
    total = build().run().cycles
    found_partial = False
    m = build()
    for cycle in crash_cycles(total, fracs=(0.2, 0.35, 0.5, 0.65, 0.8)):
        state = crash_machine(m, at_cycle=cycle)
        image, report = recover(state)
        verdict = verify_recovery(m, image)
        assert verdict.ok, verdict.explain()
        if 0 < report.undone_count:
            found_partial = True
    assert found_partial, "no crash point caught uncommitted regions"


def test_recovery_report_counts():
    case = workload_case("BN")
    _failures, total = clean_run(case)
    m = build_machine(case)
    state = crash_machine(m, at_cycle=crash_cycles(total, points=1)[0])
    image, report = recover(state)
    assert report.records_scanned > 0
    assert report.undone_count == len(state.dependence_entries)


def test_crash_state_contains_log_directory():
    m = build_machine(workload_case("BN"))
    state = crash_machine(m, at_cycle=500)
    assert set(state.log_directory) == {0, 1, 2}
    assert state.entries_per_record == 7
