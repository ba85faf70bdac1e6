"""The paper's co-run claim (Sec. 1), quantified.

"Although reducing persistent memory traffic does not significantly
improve performance of a single application because the persist
operations are asynchronous, it still benefits other metrics such as the
lifetime of the persistent memory or throughput of multiple co-running
memory-intensive applications."

Two workloads share one machine (disjoint heaps, disjoint locks) under
4x PM latency so the channels are bandwidth-bound. We compare full ASAP
against the no-optimization ablation: the saved traffic is the only
difference, and under contention it shows up as co-run throughput. The
same tables report total PM writes, whose reciprocal is the
lifetime-benefit proxy.

The multi-tenant mix cell co-runs an open-loop service tenant (SVC, see
docs/SERVICE.md) with a batch workload: the batch tenant's extra log
traffic under no-opt queues ahead of the service tenant's persists, so
the saved traffic also shows up as service tail latency (``svc p99``).
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, RunSpec
from repro.harness.runner import default_config, default_params, default_service_params

PAIRS = [("BN", "Q"), ("HM", "EO")]

#: service tenant + batch workload sharing the bandwidth-bound machine
MIX_PAIRS = [("SVC", "HM")]

#: past the quick-machine knee, so service requests queue behind the
#: batch tenant's traffic
MIX_OFFERED_LOAD = 8.0


def plan(quick: bool = True, workloads=None) -> Plan:
    params = default_params(quick)
    mix_params = default_service_params(
        quick,
        offered_load=MIX_OFFERED_LOAD,
        ops_per_thread=params.ops_per_thread,
    )
    specs = []
    for pair in PAIRS + MIX_PAIRS:
        for ablation in ("full", "no_opt"):
            config = default_config(quick, pm_latency_multiplier=4)
            config = config.with_asap(config.asap.ablation(ablation))
            specs.append(
                RunSpec(
                    key=("+".join(pair), ablation),
                    workload=tuple(pair),
                    scheme="asap",
                    config=config,
                    params=mix_params if pair in MIX_PAIRS else params,
                )
            )

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Ext. 3",
            title="Co-running applications at 4x PM latency: full ASAP vs the "
            "no-optimization ablation (normalized to full ASAP)",
            columns=["throughput", "PM writes", "lifetime proxy"],
            notes="the paper's Sec. 1 claim: traffic optimizations pay off in "
            "co-run throughput and device lifetime even though single-app "
            "latency is unaffected (persists are asynchronous); the SVC mix "
            "row additionally reports the service tenant's p99 "
            "arrival-to-durable latency (no-opt/full)",
        )
        for pair in PAIRS + MIX_PAIRS:
            label = "+".join(pair)
            full = cells[(label, "full")].result
            noopt = cells[(label, "no_opt")].result
            result.add_row(
                f"{label} no-opt",
                **{
                    "throughput": noopt.throughput / full.throughput,
                    "PM writes": noopt.pm_writes / max(1, full.pm_writes),
                    "lifetime proxy": full.pm_writes / max(1, noopt.pm_writes),
                },
            )
        result.geomean_row()
        # The service tail column only exists for mix rows (batch pairs
        # have no open-loop tenant); added after the geomean so missing
        # cells are rendered blank, not flagged as dropped.
        result.columns.append("svc p99")
        for pair in MIX_PAIRS:
            label = "+".join(pair)
            full = cells[(label, "full")].result
            noopt = cells[(label, "no_opt")].result
            result.rows[f"{label} no-opt"]["svc p99"] = (
                noopt.p99_cycles / max(1, full.p99_cycles)
            )
        return result

    return Plan(specs, assemble)
