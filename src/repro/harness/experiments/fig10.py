"""Figure 10: sensitivity of throughput to persistent-memory latency.

Throughput normalized to NP at the same latency multiplier, for PM access
latencies of 1x, 2x, 4x, and 16x battery-backed DRAM.

The paper's shape: NP is flat at 1.0 by construction; ASAP stays close to
NP across the sweep; HWUndo degrades fastest (synchronous LPOs *and* DPOs
on the critical path); HWRedo degrades more slowly than HWUndo and
overtakes it at high latency.
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

MULTIPLIERS = [1, 2, 4, 16]
SCHEMES = [("ASAP", "asap"), ("HWUndo", "hwundo"), ("HWRedo", "hwredo")]


def plan(quick: bool = True, workloads=None, multipliers=None) -> Plan:
    workloads = list(workloads or workload_names())
    multipliers = list(multipliers or MULTIPLIERS)
    params = default_params(quick)
    rows = [
        ((name, m), name, default_config(quick, pm_latency_multiplier=m), params)
        for name in workloads
        for m in multipliers
    ]
    specs = cell_matrix(rows, [("NP", "np")] + SCHEMES)

    def assemble(cells) -> ExperimentResult:
        columns = [f"{label}@{m}x" for m in multipliers for label, _ in SCHEMES]
        result = ExperimentResult(
            exp_id="Fig. 10",
            title="Throughput normalized to NP vs PM latency (higher is better)",
            columns=columns,
            notes="paper shape: ASAP tracks NP; HWUndo degrades fastest; "
            "HWRedo crosses over HWUndo at high latency",
        )
        for name in workloads:
            row = {}
            for m in multipliers:
                np_res = cells[(name, m, "NP")].result
                for label, _ in SCHEMES:
                    res = cells[(name, m, label)].result
                    row[f"{label}@{m}x"] = res.throughput / np_res.throughput
            result.add_row(name, **row)
        result.geomean_row()
        return result

    return Plan(specs, assemble)
