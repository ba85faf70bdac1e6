"""Ext. 4: ASAP vs an idealized eADR design (the Sec. 8 argument).

"Intel eADR can make caches part of the persistence domain, which
overcomes the latency of persist operations. ... eADR also requires a
large battery, consuming high power. In contrast, ASAP can overcome the
latency of persist operations and achieve near-non-persistence
performance without this requirement."

Both sides of that sentence, measured: throughput of ASAP relative to the
eADR ideal (which is NP-speed by construction), and the battery-backed
SRAM each design needs - the whole cache hierarchy for eADR vs ASAP's
WPQ / LH-WPQ / Dependence List footprint.
"""

from __future__ import annotations

from repro.common.params import SystemConfig
from repro.common.units import CACHE_LINE_BYTES
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, cell_matrix
from repro.harness.runner import default_config, default_params
from repro.workloads import workload_names


def asap_persistence_domain_bytes(config: SystemConfig) -> int:
    """Bytes ASAP needs ADR/battery protection for: the WPQs, LH-WPQs,
    and Dependence Lists (Fig. 3's persistence-domain structures)."""
    mem, asap = config.memory, config.asap
    per_channel = (
        mem.wpq_entries * CACHE_LINE_BYTES
        + asap.lh_wpq_entries * 70
        + asap.dependence_list_entries * 21
    )
    return mem.num_channels * per_channel


def plan(quick: bool = True, workloads=None) -> Plan:
    workloads = list(workloads or workload_names())
    config, params = default_config(quick), default_params(quick)
    rows = [((name,), name, config, params) for name in workloads]
    specs = cell_matrix(rows, [("asap", "asap"), ("eadr", "eadr")])

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Ext. 4",
            title="ASAP vs idealized eADR (battery-backed caches): performance "
            "parity without the battery (Sec. 8)",
            columns=["ASAP/eADR throughput", "ASAP PM writes", "eADR PM writes"],
        )
        for name in workloads:
            asap = cells[(name, "asap")].result
            eadr = cells[(name, "eadr")].result
            result.add_row(
                name,
                **{
                    "ASAP/eADR throughput": asap.throughput / eadr.throughput,
                    # eADR holds nearly everything in the (battery-protected)
                    # caches; ASAP actually drains to the PM medium
                    "ASAP PM writes": float(asap.pm_writes),
                    "eADR PM writes": float(eadr.pm_writes),
                },
            )
        result.geomean_row()
        cfg = SystemConfig()  # the Table 2 machine for the battery comparison
        eadr_bytes = cfg.cache_hierarchy_bytes()
        asap_bytes = asap_persistence_domain_bytes(cfg)
        battery_note = (
            f"battery-backed SRAM on the Table 2 machine: eADR needs the whole "
            f"hierarchy ({eadr_bytes / 2**20:.1f} MiB); ASAP needs its "
            f"persistence-domain structures ({asap_bytes / 2**10:.0f} KiB) - "
            f"{eadr_bytes / asap_bytes:.0f}x less"
        )
        result.notes = (
            f"{result.notes}; {battery_note}" if result.notes else battery_note
        )
        return result

    return Plan(specs, assemble)
