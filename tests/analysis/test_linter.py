"""Static workload linter: clean bundled workloads, seeded anti-patterns."""

import pytest

from repro.analysis import (
    LINT_RULES,
    LintMachine,
    build_report,
    lint_machine,
    lint_threads,
    lint_workload,
)
from repro.common.errors import AnalysisError
from repro.sim.ops import Begin, Compute, End, Fence, Lock, Migrate, Read, Unlock, Write
from repro.workloads import WorkloadParams, workload_names

SMALL = WorkloadParams(num_threads=2, ops_per_thread=16, setup_items=16)


def rule_ids(result):
    return sorted({v.rule_id for v in result.violations})


def lint_one(gen_fn, machine=None):
    return lint_threads([gen_fn], machine=machine)


# -- bundled workloads are clean -------------------------------------------


@pytest.mark.parametrize("name", workload_names())
def test_bundled_workload_lints_clean(name):
    result = lint_workload(name, SMALL)
    assert result.violations == []
    assert result.ok
    assert result.ops_checked > 0
    assert result.threads == SMALL.num_threads


def test_lint_report_shape():
    report = build_report("lint", [lint_workload("Q", SMALL).to_dict()])
    assert report["pass"] == "lint"
    assert report["summary"]["ok"] is True
    assert report["summary"]["targets"] == 1
    assert {r["id"] for r in report["rules"]} == set(LINT_RULES)


# -- seeded violations: each fires its intended rule ID --------------------


def test_pm_store_outside_region_fires_L001():
    machine = LintMachine()
    addr = machine.heap.alloc(64)

    def worker(env):
        yield Write(addr, [1])

    result = lint_one(worker, machine)
    assert rule_ids(result) == ["ASAP-L001"]
    assert result.violations[0].severity == "error"
    assert result.violations[0].op_index == 0


def test_volatile_store_outside_region_is_fine():
    machine = LintMachine()
    addr = machine.dram_heap.alloc(64)

    def worker(env):
        yield Write(addr, [1])

    assert lint_one(worker, machine).violations == []


def test_end_without_begin_fires_L002():
    def worker(env):
        yield End()

    assert rule_ids(lint_one(worker)) == ["ASAP-L002"]


def test_unterminated_region_fires_L002():
    machine = LintMachine()
    addr = machine.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Write(addr, [1])

    result = lint_one(worker, machine)
    assert rule_ids(result) == ["ASAP-L002"]


def test_balanced_nested_regions_are_clean():
    machine = LintMachine()
    addr = machine.heap.alloc(64)

    def worker(env):
        yield Begin()
        yield Begin()
        yield Write(addr, [1])
        yield End()
        yield End()

    assert lint_one(worker, machine).violations == []


def test_unlock_without_lock_fires_L003():
    machine = LintMachine()
    lock = machine.new_lock("l")

    def worker(env):
        yield Unlock(lock)

    assert rule_ids(lint_one(worker, machine)) == ["ASAP-L003"]


def test_exit_holding_lock_fires_L003():
    machine = LintMachine()
    lock = machine.new_lock("l")

    def worker(env):
        yield Lock(lock)

    assert rule_ids(lint_one(worker, machine)) == ["ASAP-L003"]


def test_reacquire_held_lock_fires_L003():
    machine = LintMachine()
    lock = machine.new_lock("l")

    def worker(env):
        yield Lock(lock)
        yield Lock(lock)
        yield Unlock(lock)

    assert rule_ids(lint_one(worker, machine)) == ["ASAP-L003"]


def test_fence_inside_region_fires_L004():
    def worker(env):
        yield Begin()
        yield Fence()
        yield End()

    assert rule_ids(lint_one(worker)) == ["ASAP-L004"]


def test_fence_between_regions_is_clean():
    def worker(env):
        yield Begin()
        yield End()
        yield Fence()

    assert lint_one(worker).violations == []


def test_cross_thread_uncommitted_read_fires_L005():
    machine = LintMachine()
    addr = machine.heap.alloc(64)

    def writer(env):
        yield Begin()
        yield Write(addr, [7])
        yield Compute(1)
        yield Compute(1)
        yield End()

    def reader(env):
        yield Compute(1)
        yield Compute(1)
        (value,) = yield Read(addr, 1)

    machine.spawn(writer)
    machine.spawn(reader)
    result = lint_machine(machine, source="seeded")
    assert rule_ids(result) == ["ASAP-L005"]
    (violation,) = result.violations
    assert violation.severity == "warning"
    assert violation.thread_id == 1


def test_read_after_region_commit_is_clean():
    machine = LintMachine()
    addr = machine.heap.alloc(64)

    def writer(env):
        yield Begin()
        yield Write(addr, [7])
        yield End()

    def reader(env):
        yield Compute(1)
        yield Compute(1)
        yield Compute(1)
        yield Read(addr, 1)

    machine.spawn(writer)
    machine.spawn(reader)
    assert lint_machine(machine).violations == []


def test_migrate_inside_region_fires_L006():
    def worker(env):
        yield Begin()
        yield Migrate(1)
        yield End()

    assert rule_ids(lint_one(worker)) == ["ASAP-L006"]


def test_lock_region_overlap_fires_L007():
    machine = LintMachine()
    lock = machine.new_lock("l")

    def worker(env):
        yield Lock(lock)
        yield Begin()
        yield Unlock(lock)  # released inside the region it wrapped
        yield End()

    assert rule_ids(lint_one(worker, machine)) == ["ASAP-L007"]


def test_properly_nested_lock_region_is_clean():
    machine = LintMachine()
    lock = machine.new_lock("l")
    addr = machine.heap.alloc(64)

    def worker(env):
        yield Lock(lock)
        yield Begin()
        yield Write(addr, [1])
        yield End()
        yield Unlock(lock)

    assert lint_one(worker, machine).violations == []


# -- functional execution semantics ----------------------------------------


def test_reads_return_written_values():
    machine = LintMachine()
    addr = machine.heap.alloc(64)
    seen = []

    def worker(env):
        yield Begin()
        yield Write(addr, [11, 22])
        values = yield Read(addr, 2)
        seen.extend(values)
        yield End()

    lint_one(worker, machine)
    assert seen == [11, 22]


def test_locks_serialize_threads():
    machine = LintMachine()
    lock = machine.new_lock("l")
    addr = machine.heap.alloc(64)

    def worker(env):
        for _ in range(5):
            yield Lock(lock)
            yield Begin()
            (v,) = yield Read(addr, 1)
            yield Write(addr, [v + 1])
            yield End()
            yield Unlock(lock)

    machine.spawn(worker)
    machine.spawn(worker)
    result = lint_machine(machine)
    assert result.violations == []
    assert machine.image.read_word(addr) == 10


def test_lint_deadlock_raises_analysis_error():
    machine = LintMachine()
    a = machine.new_lock("a")
    b = machine.new_lock("b")

    def worker_ab(env):
        yield Lock(a)
        yield Lock(b)
        yield Unlock(b)
        yield Unlock(a)

    def worker_ba(env):
        yield Lock(b)
        yield Lock(a)
        yield Unlock(a)
        yield Unlock(b)

    machine.spawn(worker_ab)
    machine.spawn(worker_ba)
    with pytest.raises(AnalysisError, match="deadlock"):
        lint_machine(machine)
