"""Section 7.3's NUMA claim, quantified.

"ASAP's low sensitivity to the latency of persist operations also makes
it suitable for NUMA systems where the latency of persist operations may
vary." We mark half the channels as remote and sweep the remote persist
latency; ASAP - whose persist operations are entirely off the critical
path - should stay near NP while the synchronous-commit baselines pay
the remote hop and drain on every region.
"""

from __future__ import annotations

from dataclasses import replace

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params

REMOTE_MULTIPLIERS = [1, 4, 16]
SCHEMES = [("ASAP", "asap"), ("HWUndo", "hwundo"), ("HWRedo", "hwredo")]


def _numa_config(quick: bool, remote_multiplier: float):
    config = default_config(quick)
    num_channels = config.memory.num_channels
    remote = tuple(range(num_channels // 2, num_channels))
    return replace(
        config,
        memory=replace(
            config.memory,
            numa_remote_channels=remote,
            numa_remote_multiplier=remote_multiplier,
        ),
    )


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or ["BN", "HM", "Q"])
    params = default_params(quick)
    rows = [
        ((name, m), name, _numa_config(quick, m), params)
        for name in workloads
        for m in REMOTE_MULTIPLIERS
    ]
    specs = cell_matrix(rows, [("NP", "np")] + SCHEMES)

    def assemble(cells) -> ExperimentResult:
        columns = [f"{label}@{m}x" for m in REMOTE_MULTIPLIERS for label, _ in SCHEMES]
        result = ExperimentResult(
            exp_id="Ext. 2",
            title="NUMA (Sec. 7.3): half the channels remote, persist latency "
            "swept (throughput normalized to NP, higher is better)",
            columns=columns,
            notes="ASAP stays flat as the remote node slows; synchronous "
            "persist waits cross the interconnect on every region",
        )
        for name in workloads:
            row = {}
            for m in REMOTE_MULTIPLIERS:
                np_res = cells[(name, m, "NP")].result
                for label, _ in SCHEMES:
                    res = cells[(name, m, label)].result
                    row[f"{label}@{m}x"] = res.throughput / np_res.throughput
            result.add_row(name, **row)
        result.geomean_row()
        return result

    return Plan(specs, assemble)
