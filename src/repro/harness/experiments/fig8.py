"""Figure 8: cycles per atomic region, normalized to NP (lower is better).

The latency an atomic region imposes on the instruction stream: from
``asap_begin`` issuing to ``asap_end`` retiring. Synchronous-commit
schemes pay their persist waits here; ASAP does not.

Paper geomeans: HWRedo 1.69x, HWUndo 1.61x, ASAP 1.08x (NP = 1).
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

PAPER_GEOMEAN = {"HWRedo": 1.69, "HWUndo": 1.61, "ASAP": 1.08}

SCHEMES = [("SW", "sw"), ("HWRedo", "hwredo"), ("HWUndo", "hwundo"), ("ASAP", "asap")]
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
    specs = cell_matrix(rows, [("NP", "np")] + SCHEMES)

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Fig. 8",
            title="Cycles per atomic region normalized to NP (lower is better)",
            columns=[label for label, _ in SCHEMES] + ["NP"],
            paper={"GeoMean": PAPER_GEOMEAN},
        )
        for name in workloads:
            for size in sizes:
                np_res = cells[(name, size, "NP")].result
                row = {"NP": 1.0}
                for label, _ in SCHEMES:
                    res = cells[(name, size, label)].result
                    row[label] = res.cycles_per_region / np_res.cycles_per_region
                result.add_row(f"{name}/{size}B", **row)
        result.geomean_row()
        return result

    return Plan(specs, assemble)
