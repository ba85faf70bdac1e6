"""Figure 9b: persistent-memory write traffic across schemes.

PM write traffic of SW, HWRedo, and HWUndo normalized to ASAP (lower is
better; ASAP = 1.0). The paper reports ASAP generating 0.39x / 0.62x /
0.52x the traffic of SW / HWRedo / HWUndo, i.e. normalized-to-ASAP bars of
about SW 2.56, HWRedo 1.61, HWUndo 1.92.
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

PAPER_GEOMEAN = {"SW": 1 / 0.39, "HWRedo": 1 / 0.62, "HWUndo": 1 / 0.52, "ASAP": 1.0}

SCHEMES = [("SW", "sw"), ("HWRedo", "hwredo"), ("HWUndo", "hwundo"), ("ASAP", "asap")]


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or workload_names())
    config, params = default_config(quick), default_params(quick)
    rows = [((name,), name, config, params) for name in workloads]
    specs = cell_matrix(rows, SCHEMES)

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Fig. 9b",
            title="PM write traffic normalized to ASAP (lower is better)",
            columns=[label for label, _ in SCHEMES],
            paper={"GeoMean": {k: round(v, 2) for k, v in PAPER_GEOMEAN.items()}},
        )
        for name in workloads:
            traffic = {
                label: cells[(name, label)].result.pm_writes
                for label, _ in SCHEMES
            }
            asap = traffic["ASAP"] or 1
            result.add_row(name, **{k: v / asap for k, v in traffic.items()})
        result.geomean_row()
        return result

    return Plan(specs, assemble)
