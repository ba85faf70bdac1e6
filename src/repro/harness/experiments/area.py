"""Section 6.2 experiment wrapper: area overhead of ASAP's structures."""

from __future__ import annotations

from repro.area import estimate_area
from repro.common.params import SystemConfig
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan

PAPER = {"core %": 0.8, "uncore %": 1.7, "total %": 2.5}


def plan(quick: bool = True, workloads=None) -> Plan:
    # purely analytical - no simulation cells to fan out or cache
    def assemble(cells) -> ExperimentResult:
        report = estimate_area(SystemConfig())
        result = ExperimentResult(
            exp_id="Sec. 6.2",
            title="ASAP hardware area overhead (SRAM-byte proxy vs McPAT)",
            columns=["core %", "uncore %", "total %"],
            paper={"paper (McPAT)": PAPER},
            notes="structure byte counts match the paper exactly; the "
            "bytes-to-area conversion is a density proxy, not McPAT",
        )
        result.add_row(
            "measured",
            **{
                "core %": report.core_overhead * 100,
                "uncore %": report.uncore_overhead * 100,
                "total %": report.total_overhead * 100,
            },
        )
        return result

    return Plan([], assemble)
