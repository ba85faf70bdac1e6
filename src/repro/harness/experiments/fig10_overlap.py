"""Fig. 10 companion: what the non-blocking memory system is worth.

For each PM latency multiplier (the Fig. 10 x-axis) this experiment runs
ASAP and ASAP-Redo twice - once on the blocking comparator (one LLC MSHR,
so a second outstanding distinct-line miss stalls its core, plus lockstep
WPQ drains serialized across channels by the write-bus arbiter) and once
on the default non-blocking hierarchy (16 LLC MSHRs with secondary
same-line misses merging, channels draining concurrently). Each cell is
the blocking machine's cycles-per-region over the non-blocking machine's:
the latency recovered by miss- and drain-level memory parallelism.

Expected shape: the ratio grows with the PM multiplier. The longer a
fetch or a drain occupies the memory system, the more cycles serializing
behind it costs - exactly the overlap ASAP's asynchronous persistence
exists to exploit, which the old always-resident cache model silently
gave away for free (see docs/MEMORY.md).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names

MULTIPLIERS = [1, 2, 4, 16]
SCHEMES = [("ASAP", "asap"), ("ASAP-Redo", "asap_redo")]


def _variants(quick: bool, multiplier: float):
    """(label, config) pairs for one latency point: blocking vs default."""
    base = default_config(quick, pm_latency_multiplier=multiplier)
    blocking = dc_replace(
        base,
        memory=dc_replace(
            base.memory, mshrs_per_cache=1, overlapped_drains=False
        ),
    )
    return [("blk", blocking), ("ovl", base)]


def plan(quick: bool = True, workloads=None, multipliers=None) -> Plan:
    workloads = list(workloads or workload_names())
    multipliers = list(multipliers or MULTIPLIERS)
    params = default_params(quick)
    rows = [
        ((name, m, mode), name, config, params)
        for name in workloads
        for m in multipliers
        for mode, config in _variants(quick, m)
    ]
    specs = cell_matrix(rows, SCHEMES)

    def assemble(cells) -> ExperimentResult:
        columns = [f"{label}@{m}x" for m in multipliers for label, _ in SCHEMES]
        result = ExperimentResult(
            exp_id="Fig. 10 overlap",
            title="Blocking-over-non-blocking cycles per region "
            "(higher = more latency recovered by MLP)",
            columns=columns,
            notes="blocking = 1 MSHR/cache + serialized channel drains; "
            "non-blocking = 16 MSHRs + overlapped drains (default); "
            "the gap should widen as PM latency grows",
        )
        for name in workloads:
            row = {}
            for m in multipliers:
                for label, _ in SCHEMES:
                    blk = cells[(name, m, "blk", label)].result
                    ovl = cells[(name, m, "ovl", label)].result
                    row[f"{label}@{m}x"] = (
                        blk.cycles_per_region / ovl.cycles_per_region
                    )
            result.add_row(name, **row)
        result.geomean_row()
        return result

    return Plan(specs, assemble)
