"""Figure 1: overhead of LPOs and DPOs in a software approach.

Throughput of the software scheme normalized to no-persistency (NP), per
workload plus geomean. The paper (measured on a 4-socket Xeon server)
reports geomeans of 0.58x for "DPO Only" and 0.31x for "LPO & DPO".
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

PAPER_GEOMEAN = {"DPO Only": 0.58, "LPO & DPO": 0.31}

SCHEMES = [(scheme, scheme) for scheme in ("np", "sw_dpo_only", "sw")]


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or workload_names())
    config, params = default_config(quick), default_params(quick)
    rows = [((name,), name, config, params) for name in workloads]
    specs = cell_matrix(rows, SCHEMES)

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Fig. 1",
            title="Overhead of LPOs and DPOs in a software approach "
            "(throughput normalized to NP, higher is better)",
            columns=["NP", "DPO Only", "LPO & DPO"],
            paper={"GeoMean": PAPER_GEOMEAN},
            notes="paper numbers measured on a real Xeon server; ours on the "
            "simulator - shapes, not absolutes, are comparable",
        )
        for name in workloads:
            np_res = cells[(name, "np")].result
            dpo = cells[(name, "sw_dpo_only")].result
            full = cells[(name, "sw")].result
            result.add_row(
                name,
                **{
                    "NP": 1.0,
                    "DPO Only": dpo.throughput / np_res.throughput,
                    "LPO & DPO": full.throughput / np_res.throughput,
                },
            )
        result.geomean_row()
        return result

    return Plan(specs, assemble)
