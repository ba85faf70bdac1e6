"""Crash-consistency validation as a harness command.

``asap-repro crashtest`` runs one workload as a workload-backed fuzz case
and sweeps evenly spaced crash points over it with the fuzzer's checks
(:mod:`repro.harness.fuzz`): the no-crash run must leave PM equal to the
commit oracle's image, and every point must recover, deterministically,
to the oracle's durable image (atomicity + durability + ordering) and
pass the workload's own structure validators.

This is the library's answer to "how do I know the scheme is actually
crash consistent on *my* machine configuration?" - the same machinery the
test suite uses, exposed operationally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.harness.fuzz import FuzzCase, clean_run, crash_cycles, crash_sweep
from repro.persist import make_scheme


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
    workload: str = "HM", scheme: str = "asap", points: int = 12
) -> CrashTestReport:
    """Sweep ``points`` evenly-spaced crash points over one workload run."""
    case = FuzzCase(
        scheme,
        threads=[],
        wpq_entries=16,
        workload=workload,
        workload_params=dict(num_threads=3, ops_per_thread=12, setup_items=16),
    )
    report = CrashTestReport(workload=workload, scheme=scheme)
    report.failures, report.total_cycles = clean_run(case)
    report.crash_cycles = crash_cycles(report.total_cycles, points)
    # a redo log replays committed regions; only undo rolls regions back
    undo = make_scheme(scheme).RECOVERY != "redo"
    for check in crash_sweep(case, report.crash_cycles):
        report.points_checked += 1
        report.failures.extend(check.failures)
        if undo and check.report.undone_count:
            report.points_with_rollback += 1
            report.regions_rolled_back += check.report.undone_count
    return report
