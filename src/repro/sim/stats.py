"""Run-level statistics and derived metrics.

All the paper's evaluation metrics come from here:

* throughput (Figs. 1, 7, 10): committed regions per million cycles,
* cycles per atomic region (Fig. 8): mean Begin-to-End-retire latency,
* PM write traffic (Fig. 9): 64 B lines actually written to PM.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    scheme: str
    #: cycle at which the last workload thread finished - the denominator
    #: for throughput. Background activity (lazy WPQ drains) continues past
    #: this point and is captured by ``drain_cycles``.
    cycles: int
    #: cycle at which the event queue fully drained
    drain_cycles: int
    regions_completed: int
    region_cycles_total: int
    ops_executed: int
    pm_writes: int
    pm_writes_by_kind: Dict[str, int]
    pm_reads: int
    dram_writes: int
    llc_misses: int
    cache_accesses: int
    #: secondary misses merged into an in-flight MSHR fetch (one fetch
    #: answers them all, so merged misses are not in ``llc_misses``)
    mshr_merges: int
    wpq_peak_occupancy: int
    #: structural-stall counters (which capacity limits were hit and how
    #: often); keys depend on the scheme - ASAP reports its CL List,
    #: Dependence List, and LH-WPQ pressure here
    stall_breakdown: Dict[str, int] = field(default_factory=dict)
    #: the scheme's counters as of this result (a copy: a resumed run
    #: goes on counting in the scheme's own object)
    scheme_stats: Optional[object] = None
    #: service-workload tail-latency data (empty for batch workloads):
    #: fixed-bucket histogram of arrival-to-durable-commit latencies,
    #: keyed by bucket index (see ``repro.workloads.service``)
    latency_histogram: Dict[int, int] = field(default_factory=dict)
    requests_completed: int = 0
    p50_cycles: int = 0
    p90_cycles: int = 0
    p99_cycles: int = 0
    p999_cycles: int = 0
    #: (offered load, achieved load) in requests per kilocycle; the knee
    #: of the throughput-vs-load curve is where achieved < offered
    offered_vs_achieved: Tuple[float, float] = (0.0, 0.0)

    @staticmethod
    def collect(machine: "Machine") -> "RunResult":
        regions = sum(e.regions_completed for e in machine.executors)
        region_cycles = sum(e.region_cycles_total for e in machine.executors)
        ops = sum(e.ops_executed for e in machine.executors)
        finish_cycles = [
            e.finish_cycle for e in machine.executors if e.finish_cycle is not None
        ]
        stalls = {
            "locked_set": machine.hierarchy.locked_set_stalls,
            "mshr": machine.hierarchy.mshr_stalls,
            **machine.scheme.stall_counts(),
        }
        result = RunResult(
            scheme=machine.scheme.name,
            cycles=max(finish_cycles) if finish_cycles else machine.scheduler.now,
            drain_cycles=machine.scheduler.now,
            regions_completed=regions,
            region_cycles_total=region_cycles,
            ops_executed=ops,
            pm_writes=machine.memory.total_pm_writes(),
            pm_writes_by_kind=machine.memory.pm_writes_by_kind(),
            pm_reads=sum(ch.stats.pm_reads for ch in machine.memory.channels),
            dram_writes=sum(ch.stats.dram_writes for ch in machine.memory.channels),
            llc_misses=machine.hierarchy.llc_misses,
            cache_accesses=machine.hierarchy.accesses,
            mshr_merges=machine.hierarchy.mshr_merges,
            wpq_peak_occupancy=max(
                (ch.wpq.peak_occupancy for ch in machine.memory.channels), default=0
            ),
            stall_breakdown=stalls,
            scheme_stats=copy.copy(machine.scheme.stats),
        )
        recorder = getattr(machine, "service_recorder", None)
        if recorder is not None:
            recorder.fill(result)
        return result

    # -- derived metrics ------------------------------------------------------

    @property
    def throughput(self) -> float:
        """Committed regions per million cycles (the Fig. 7/10 metric)."""
        if self.cycles <= 0:
            return 0.0
        return self.regions_completed / self.cycles * 1e6

    @property
    def cycles_per_region(self) -> float:
        """Mean region latency as seen by the instruction stream (Fig. 8)."""
        if self.regions_completed <= 0:
            return 0.0
        return self.region_cycles_total / self.regions_completed

    def speedup_over(self, baseline: "RunResult") -> float:
        """Throughput ratio vs another run of the same workload."""
        if baseline.throughput <= 0:
            return float("inf")
        return self.throughput / baseline.throughput

    def traffic_ratio_over(self, baseline: "RunResult") -> float:
        """PM write-traffic ratio vs another run (Fig. 9's metric)."""
        if baseline.pm_writes <= 0:
            return float("inf") if self.pm_writes else 1.0
        return self.pm_writes / baseline.pm_writes
