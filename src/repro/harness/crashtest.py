"""Crash-consistency validation as a harness command.

``asap-repro crashtest`` sweeps crash points over a workload run and
checks three things at every point:

1. the recovered PM image equals the commit oracle's durable image
   (atomicity + durability + ordering),
2. the workload's own structure validators accept the recovered image,
3. recovery is deterministic (running it twice yields the same image).

This is the library's answer to "how do I know the scheme is actually
crash consistent on *my* machine configuration?" - the same machinery the
test suite uses, exposed operationally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.params import SystemConfig
from repro.persist import make_scheme
from repro.recovery import crash_machine, recover, verify_recovery
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload


@dataclass
class CrashTestReport:
    workload: str
    scheme: str
    points_checked: int = 0
    points_with_rollback: int = 0
    regions_rolled_back: int = 0
    #: total cycles of the deterministic reference run the points divide
    total_cycles: int = 0
    #: the exact crash cycles swept, in order - the report is a repro
    #: recipe: ``crash_machine(m, at_cycle=c)`` for any listed ``c``
    crash_cycles: List[int] = field(default_factory=list)
    #: schedules exercised (the crashtest replays one deterministic
    #: interleaving; the fuzzer varies this axis - see docs/FUZZING.md)
    schedules_swept: int = 1
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "CONSISTENT" if self.ok else f"{len(self.failures)} FAILURES"
        if not self.crash_cycles:
            span = "no crash points"
        elif len(self.crash_cycles) <= 6:
            span = f"cycles {self.crash_cycles}"
        else:
            head = ", ".join(str(c) for c in self.crash_cycles[:3])
            span = (
                f"cycles [{head}, ... {self.crash_cycles[-1]}] "
                f"({len(self.crash_cycles)} points)"
            )
        return (
            f"{self.workload}/{self.scheme}: {status} over "
            f"{self.points_checked} crash points at {span} of a "
            f"{self.total_cycles}-cycle run, {self.schedules_swept} "
            f"deterministic schedule "
            f"({self.points_with_rollback} caught in-flight regions, "
            f"{self.regions_rolled_back} regions rolled back in total)"
        )


def run_crashtest(
    workload: str = "HM",
    scheme: str = "asap",
    points: int = 12,
    params: Optional[WorkloadParams] = None,
    config: Optional[SystemConfig] = None,
) -> CrashTestReport:
    """Sweep ``points`` evenly-spaced crash points over one workload run."""
    params = params or WorkloadParams(num_threads=3, ops_per_thread=12, setup_items=16)
    config = config or SystemConfig.small()

    def build():
        machine = Machine(config, make_scheme(scheme))
        wl = get_workload(workload, params)
        wl.install(machine)
        return machine, wl

    report = CrashTestReport(workload=workload, scheme=scheme)
    total = build()[0].run().cycles
    report.total_cycles = total
    # crash snapshots leave the machine resumable: one sweep machine
    # visits every (ascending) point
    machine, wl = build()
    for i in range(points):
        cycle = max(1, ((i + 1) * total) // (points + 1))
        report.crash_cycles.append(cycle)
        state = crash_machine(machine, at_cycle=cycle)
        image, rec_report = recover(state)
        image2, _ = recover(state)  # determinism probe
        report.points_checked += 1
        if state.log_kind == "undo" and rec_report.undone_count:
            report.points_with_rollback += 1
            report.regions_rolled_back += rec_report.undone_count
        verdict = verify_recovery(machine, image)
        if not verdict.ok:
            report.failures.append(f"@{cycle}: {verdict.explain()}")
            continue
        errors = wl.validate_image(image)
        if errors:
            report.failures.append(f"@{cycle}: structure invalid: {errors[:3]}")
        if sorted(image.lines()) != sorted(image2.lines()):
            report.failures.append(f"@{cycle}: recovery nondeterministic")
    return report
