"""Crash and recovery of a persistent key-value store.

Runs the Echo workload (Table 3's EO - a versioned KV store with a global
commit timestamp) under ASAP, pulls the plug mid-run, executes the paper's
Sec. 5.5 recovery procedure (dependence DAG -> reverse happens-before ->
undo from the per-thread logs), and verifies the recovered image is a
consistent prefix of the run.

Run:  python examples/kvstore_recovery.py
"""

from repro import Machine, SystemConfig, make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(num_threads=4, ops_per_thread=30, value_bytes=64, setup_items=32)


def build(inspect=True):
    machine = Machine(SystemConfig.small(), make_scheme("asap"))
    if inspect:  # attach the PM image and commit oracle a crash reads
        machine.inspect()
    machine.install(get_workload("EO", PARAMS))
    return machine


def main():
    # dry run to learn the total length, then crash at a third of it
    total = build(inspect=False).run().cycles
    crash_cycle = total // 3
    print(f"full run: {total} cycles; crashing a fresh run at {crash_cycle}")

    machine = build()
    state = crash_machine(machine, at_cycle=crash_cycle)
    print(
        f"crash: {state.flushed_wpq_entries} WPQ entries ADR-flushed, "
        f"{len(state.dependence_entries)} uncommitted regions in the "
        f"persisted Dependence List"
    )
    for entry in state.dependence_entries[:6]:
        print(f"  uncommitted rid={entry['rid']:#x} state={entry['state']} deps={entry['deps']}")

    image, report = recover(state)
    print(
        f"recovery: scanned {report.records_scanned} log record slots, "
        f"matched {report.records_matched}, undid {report.undone_count} "
        f"regions, restored {report.restored_lines} lines"
    )

    verdict = verify_recovery(machine, image)
    print(verdict.explain())
    assert verdict.ok

    committed = len(machine.oracle.committed_rids)
    started = committed + len(machine.oracle.uncommitted_rids())
    print(
        f"outcome: {committed} regions durable, "
        f"{started - committed} rolled back atomically - no partial updates"
    )


if __name__ == "__main__":
    main()
