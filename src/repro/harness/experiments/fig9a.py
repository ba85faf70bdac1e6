"""Figure 9a: incremental benefit of ASAP's memory-traffic optimizations.

PM write traffic of each ablation point, normalized to full ASAP (lower
is better; full ASAP = 1.0 by construction):

* ``ASAP-No-Opt`` - no optimizations,
* ``ASAP+C`` - DPO coalescing (paper: ~8% traffic reduction over No-Opt),
* ``ASAP+C+LP`` - + LPO dropping (further ~33%),
* ``ASAP`` - + DPO dropping (further ~31%).
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, RunSpec
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

ABLATIONS = [
    ("ASAP-No-Opt", "no_opt"),
    ("ASAP+C", "+C"),
    ("ASAP+C+LP", "+C+LP"),
    ("ASAP", "full"),
]

#: successive reductions the paper reports (Sec. 7.2)
PAPER_INCREMENTS = {"+C over No-Opt": 0.08, "+LP over +C": 0.33, "+DP over +C+LP": 0.31}


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or workload_names())
    specs = []
    for name in workloads:
        params = default_params(quick)
        for label, ablation in ABLATIONS:
            config = default_config(quick)
            config = config.with_asap(config.asap.ablation(ablation))
            specs.append(
                RunSpec(
                    key=(name, label),
                    workload=name,
                    scheme="asap",
                    config=config,
                    params=params,
                )
            )

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Fig. 9a",
            title="ASAP traffic-optimization ablation "
            "(PM write traffic normalized to full ASAP, lower is better)",
            columns=[label for label, _ in ABLATIONS],
            paper={"successive reduction": PAPER_INCREMENTS},
        )
        for name in workloads:
            traffic = {
                label: cells[(name, label)].result.pm_writes
                for label, _ in ABLATIONS
            }
            full = traffic["ASAP"] or 1
            result.add_row(name, **{k: v / full for k, v in traffic.items()})
        result.geomean_row()
        return result

    return Plan(specs, assemble)
