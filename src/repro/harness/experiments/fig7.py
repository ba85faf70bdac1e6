"""Figure 7: performance comparison (speedup over SW, higher is better).

Every workload at 64 B and 2 KB data per atomic region, for HWRedo,
HWUndo, ASAP, and NP - all normalized to the SW baseline's throughput.

Paper geomeans (over all workloads and both sizes): HWRedo 1.49x,
HWUndo 1.60x, ASAP 2.25x, NP 2.34x (i.e. NP is only 1.04x over ASAP).
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

PAPER_GEOMEAN = {"HWRedo": 1.49, "HWUndo": 1.60, "ASAP": 2.25, "NP": 2.34}

SCHEMES = [("HWRedo", "hwredo"), ("HWUndo", "hwundo"), ("ASAP", "asap"), ("NP", "np")]
SIZES = [64, 2048]


def plan(quick: bool = True, workloads=None, sizes=None) -> Plan:
    workloads = list(workloads or workload_names())
    sizes = list(sizes or SIZES)
    config = default_config(quick)
    rows = [
        ((name, size), name, config, default_params(quick, value_bytes=size))
        for name in workloads
        for size in sizes
    ]
    specs = cell_matrix(rows, [("SW", "sw")] + SCHEMES)

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Fig. 7",
            title="Speedup over SW (higher is better)",
            columns=["SW"] + [label for label, _ in SCHEMES],
            paper={"GeoMean": PAPER_GEOMEAN},
        )
        for name in workloads:
            for size in sizes:
                sw = cells[(name, size, "SW")].result
                row = {"SW": 1.0}
                for label, _ in SCHEMES:
                    row[label] = cells[(name, size, label)].result.speedup_over(sw)
                result.add_row(f"{name}/{size}B", **row)
        result.geomean_row()
        return result

    return Plan(specs, assemble)
