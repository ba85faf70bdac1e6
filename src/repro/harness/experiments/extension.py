"""Extension experiment: undo-ASAP vs redo-ASAP (Sec. 3's design choice).

The paper chooses undo logging for ASAP because, once commits are
asynchronous, redo's old advantage (asynchronous DPOs) vanishes, while
undo keeps two perks: more eager in-place updates and no read
redirection to the log. Having implemented the Fig. 2c redo variant
(``asap_redo``), this experiment measures that trade directly: throughput
and PM write traffic of both asynchronous-commit designs, normalized to
undo-ASAP.
"""

from __future__ import annotations

from dataclasses import replace

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or workload_names())
    config, params = default_config(quick), default_params(quick)
    rows = [((name,), name, config, params) for name in workloads]
    specs = [
        replace(spec, extras=(("reads_redirected", "scheme.reads_redirected"),))
        if spec.scheme == "asap_redo"
        else spec
        for spec in cell_matrix(rows, [("undo", "asap"), ("redo", "asap_redo")])
    ]

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Ext. 1",
            title="Asynchronous commit: undo (paper) vs redo (Fig. 2c variant), "
            "normalized to undo-ASAP",
            columns=["redo throughput", "redo traffic", "redirected reads"],
            notes="the paper predicts undo >= redo once commits are "
            "asynchronous (Sec. 3): redo pays read redirection and final-value "
            "re-logging, and its in-place updates are less eager",
        )
        for name in workloads:
            undo = cells[(name, "undo")].result
            redo_cell = cells[(name, "redo")]
            redo = redo_cell.result
            result.add_row(
                name,
                **{
                    "redo throughput": redo.throughput / undo.throughput,
                    "redo traffic": redo.pm_writes / max(1, undo.pm_writes),
                    "redirected reads": float(redo_cell.extras["reads_redirected"]),
                },
            )
        result.geomean_row()
        return result

    return Plan(specs, assemble)
