"""Full crash lifecycle: run, crash, recover, restart, continue.

The end-to-end story persistent memory exists for: a string-swap array
(Table 3's SS) survives a power failure mid-run. We recover the PM image
with the paper's procedure, boot a fresh machine on the recovered state,
and keep working - verifying at every step that the string multiset is
intact (swaps move strings; a torn swap would duplicate or destroy one).

Run:  python examples/restart_after_crash.py
"""

from repro import Machine, SystemConfig, make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.workloads import WorkloadParams, get_workload

PARAMS = WorkloadParams(num_threads=4, ops_per_thread=25, value_bytes=256, setup_items=32)


def build(inspect=True):
    machine = Machine(SystemConfig.small(), make_scheme("asap"))
    if inspect:  # attach the PM image and commit oracle a crash reads
        machine.inspect()
    workload = get_workload("SS", PARAMS)
    machine.install(workload)
    return machine, workload


def main():
    # Phase 1: run until the lights go out.
    total = build(inspect=False)[0].run().cycles
    machine, workload = build()
    state = crash_machine(machine, at_cycle=total // 2)
    print(
        f"power failure at cycle {state.crash_cycle}: "
        f"{len(state.dependence_entries)} atomic regions in flight"
    )

    # Phase 2: recovery (Sec. 5.5).
    image, report = recover(state)
    verdict = verify_recovery(machine, image)
    assert verdict.ok, verdict.explain()
    errors = workload.validate_image(image)
    assert errors == [], errors
    print(
        f"recovered: {report.undone_count} regions rolled back, "
        f"{report.restored_lines} lines restored; string multiset intact"
    )

    # Phase 3: restart on the recovered state and keep swapping.
    machine2, workload2 = build()
    machine2.adopt_image(image)
    result = machine2.run()
    errors = workload2.validate_image(machine2.pm_image)
    assert errors == [], errors
    assert machine2.oracle.mismatches(machine2.pm_image) == []
    print(
        f"restarted and ran {result.regions_completed} more atomic swaps "
        f"({result.cycles} cycles); final durable state valid"
    )
    print("crash -> recover -> restart lifecycle complete")


if __name__ == "__main__":
    main()
