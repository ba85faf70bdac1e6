"""serve-bench: throughput vs offered load with tail-latency percentiles.

The service-regime headline table (docs/SERVICE.md): each service
workload is driven at a ladder of offered loads under several
persistence schemes, and every cell reports both sides of the open-loop
contract - the load actually sustained (``achieved``, requests per
kilocycle) and the arrival-to-durable latency tail (p50/p90/p99/p999
cycles). The knee of the curve is the first row where ``achieved``
falls below ``offered``: beyond it the store is saturated and latency
explodes, which is exactly the regime the ROADMAP's production north
star cares about and the closed-loop figures cannot show.

One table per service workload; rows are ``load/scheme`` cells. All
cells flow through the cached parallel harness, so the table is
byte-identical for any ``--jobs`` value and cache state.
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_service_params
from repro.workloads import service_workload_names

SCHEMES = [("ASAP", "asap"), ("ASAP-Redo", "asap_redo"), ("SW", "sw")]

#: offered loads (requests per kilocycle) for the quick and full ladders;
#: chosen so the lowest rung is comfortably sustained and the highest is
#: past the knee for every store
LOADS_QUICK = [1.0, 4.0, 16.0]
LOADS_FULL = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]

#: per-workload load multiplier: New-Order regions are an order of
#: magnitude heavier than KV PUTs, so TPC-C's ladder is scaled down to
#: keep the knee inside the table instead of saturating every rung
LOAD_SCALE = {"SVC_TPCC": 1.0 / 16.0}

COLUMNS = ["offered", "achieved", "p50", "p90", "p99", "p999"]


def _service_workloads(workloads) -> list:
    """Filter a --workloads request down to the service family.

    ``asap-repro all --workloads HM SS`` reaches every experiment with the
    same list; batch names mean nothing here, so unknown/batch names are
    dropped and an empty result falls back to the full service family.
    """
    available = service_workload_names()
    picked = [w for w in (workloads or []) if w in available]
    return picked or available


def plan(quick: bool = True, workloads=None, loads=None) -> Plan:
    workloads = _service_workloads(workloads)
    loads = list(loads or (LOADS_QUICK if quick else LOADS_FULL))
    config = default_config(quick)
    rows = [
        (
            (name, load),
            name,
            config,
            default_service_params(
                quick, offered_load=load * LOAD_SCALE.get(name, 1.0)
            ),
        )
        for name in workloads
        for load in loads
    ]
    specs = cell_matrix(rows, SCHEMES)

    def assemble(cells) -> list:
        results = []
        for name in workloads:
            result = ExperimentResult(
                exp_id=f"serve-bench {name}",
                title="Throughput vs offered load (requests/kilocycle) with "
                "arrival-to-durable latency percentiles (cycles)",
                columns=list(COLUMNS),
                notes="open-loop Poisson arrivals; the knee is the first "
                "row where achieved < offered (saturation)",
            )
            for load in loads:
                scaled = load * LOAD_SCALE.get(name, 1.0)
                for label, _scheme in SCHEMES:
                    r = cells[(name, load, label)].result
                    offered, achieved = r.offered_vs_achieved
                    result.add_row(
                        f"{scaled:g}/{label}",
                        offered=offered,
                        achieved=achieved,
                        p50=float(r.p50_cycles),
                        p90=float(r.p90_cycles),
                        p99=float(r.p99_cycles),
                        p999=float(r.p999_cycles),
                    )
            results.append(result)
        return results

    return Plan(specs, assemble)
