"""Design-choice ablations beyond the paper's own figures.

The paper fixes several constants with one-line justifications; these
sweeps regenerate the evidence on a directed stress pattern (a
"hot-summary" workload: every region interleaves writes to a shared
summary line with writes to streaming data lines - the pattern coalescing
distance, WPQ capacity, and the eviction-spill path all react to):

* **DPO distance** (Sec. 4.6.2): "the number four is empirically
  determined, as no benefit has been observed [at] a distance larger than
  four" - sweep 1/2/4/8 and report DPO initiations and PM write traffic.
* **WPQ size**: Table 2 uses 128 entries/channel - sweep the queue under
  PM-latency pressure and report throughput (backpressure sensitivity).
* **Bloom filter + DRAM spill buffer** (Sec. 5.3): force LLC evictions of
  lines owned by uncommitted regions and verify the spill/reload path
  fires, with the filter screening reloads.

The bespoke machines are built by module-level factories so parallel
``RunSpec`` cells can carry them by reference into worker processes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.params import CacheParams, SystemConfig
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import Plan, RunSpec
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Fence, Read, Write

DISTANCES = [1, 2, 4, 8]
WPQ_SIZES = [2, 4, 8, 32]

_HOT_SUMMARY = "repro.harness.experiments.ablations:_hot_summary_machine"
_FENCE = "repro.harness.experiments.ablations:_fence_machine"


def _hot_summary_machine(
    dpo_distance: int = 4,
    wpq_entries: int = 16,
    pm_latency_multiplier: float = 1.0,
    llc_kb: int = 64,
    bloom_filter_bits: int = 8 * 1024,
    lines_per_region: int = 10,
    regions: int = 60,
    readers: int = 0,
    scheme: str = "asap",
):
    """Regions interleaving hot-summary-line and streaming-line writes."""
    cfg = SystemConfig.small(
        wpq_entries=wpq_entries,
        pm_latency_multiplier=pm_latency_multiplier,
        dpo_distance=dpo_distance,
        bloom_filter_bits=bloom_filter_bits,
    )
    cfg = replace(cfg, l3=CacheParams(llc_kb * 1024, 8, 42))
    machine = Machine(cfg, make_scheme(scheme))
    hot = machine.heap.alloc(64)
    data = machine.heap.alloc(64 * 4096)

    def writer(env):
        for r in range(regions):
            yield Begin()
            for i in range(lines_per_region):
                yield Write(data + 64 * ((r * lines_per_region + i) % 4096), [r, i])
                (v,) = yield Read(hot, 1)
                yield Write(hot, [v + 1])
            yield End()

    def reader(env):
        # stream reads to churn the LLC and reload recently-owned lines
        for r in range(regions * lines_per_region):
            yield Read(data + 64 * (r % 4096), 1)

    machine.spawn(writer, core_id=0)
    for k in range(readers):
        machine.spawn(reader, core_id=1 + k)
    return machine


def _fence_machine(batch: int = 0):
    """Sixty one-line regions with an ``asap_fence`` every ``batch`` of
    them (0 = never fence)."""
    cfg = SystemConfig.small(num_cores=2)
    machine = Machine(cfg, make_scheme("asap"))
    a = machine.heap.alloc(64 * 8)

    def worker(env):
        for i in range(60):
            yield Begin()
            yield Write(a + 64 * (i % 8), [i])
            yield End()
            if batch and (i + 1) % batch == 0:
                yield Fence()

    machine.spawn(worker)
    return machine


def plan_dpo_distance(quick: bool = True, workloads=None) -> Plan:
    """DPO initiations and PM traffic vs coalescing distance (d=4 = 1.0)."""
    specs = [
        RunSpec(
            key=("dpo", d),
            builder=_HOT_SUMMARY,
            builder_kwargs=(("dpo_distance", d),),
            extras=(("dpos_initiated", "scheme.stats.dpos_initiated"),),
        )
        for d in DISTANCES
    ]

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Abl. 1",
            title="DPO coalescing distance on the hot-summary stress "
            "(normalized to d=4, lower is better)",
            columns=[f"d={d}" for d in DISTANCES],
            notes='paper: "no benefit has been observed [at] a distance larger '
            'than four" (Sec. 4.6.2); the win is d=1 -> d=2..4, then flat',
        )
        dpos = {d: cells[("dpo", d)].extras["dpos_initiated"] for d in DISTANCES}
        traffic = {d: cells[("dpo", d)].result.pm_writes for d in DISTANCES}
        result.add_row(
            "DPOs initiated", **{f"d={d}": dpos[d] / dpos[4] for d in DISTANCES}
        )
        result.add_row(
            "PM writes", **{f"d={d}": traffic[d] / traffic[4] for d in DISTANCES}
        )
        return result

    return Plan(specs, assemble)


def plan_wpq_size(quick: bool = True, workloads=None) -> Plan:
    """Throughput vs ADR-protected WPQ capacity, per scheme, at 8x PM.

    The interesting finding is a *non*-finding: ASAP sustains its full
    throughput with as few as two persistence-domain entries per channel.
    Asynchronous commit needs no deep battery-backed buffering - the
    contrast the paper draws against eADR/BBB-style designs (Sec. 8),
    which buy the same latency hiding with large batteries.
    """
    schemes = ("asap", "hwundo", "sw")
    specs = [
        RunSpec(
            key=("wpq", scheme, n),
            builder=_HOT_SUMMARY,
            builder_kwargs=(
                ("pm_latency_multiplier", 8),
                ("scheme", scheme),
                ("wpq_entries", n),
            ),
        )
        for scheme in schemes
        for n in WPQ_SIZES
    ]

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Abl. 2",
            title="WPQ capacity at 8x PM latency (throughput normalized to "
            "ASAP at the largest queue; higher is better)",
            columns=[f"wpq={n}" for n in WPQ_SIZES],
            notes="ASAP is flat: asynchronous commit does not rely on deep "
            "ADR buffering (contrast eADR/BBB, Sec. 8)",
        )
        tp = {
            (scheme, n): cells[("wpq", scheme, n)].result.throughput
            for scheme in schemes
            for n in WPQ_SIZES
        }
        base = tp[("asap", WPQ_SIZES[-1])] or 1
        for scheme in schemes:
            result.add_row(
                scheme.upper(),
                **{f"wpq={n}": tp[(scheme, n)] / base for n in WPQ_SIZES},
            )
        return result

    return Plan(specs, assemble)


def plan_bloom(quick: bool = True, workloads=None) -> Plan:
    """The Sec. 5.3 spill path under LLC pressure.

    A tiny LLC plus a saturated WPQ keeps regions uncommitted while their
    lines are evicted; reloads must recover the OwnerRID via the Bloom
    filter + DRAM buffer. Reported: spills, buffer hits, false positives
    with the paper's 1 KB filter vs a degenerate 1-bit one.
    """
    points = [("1KB filter", 8 * 1024), ("1-bit filter", 1)]
    specs = [
        RunSpec(
            key=("bloom", label),
            builder=_HOT_SUMMARY,
            builder_kwargs=(
                ("wpq_entries", 1),
                ("llc_kb", 4),
                ("bloom_filter_bits", bits),
                ("readers", 1),
            ),
            extras=(
                ("spills", "scheme.spill.spills"),
                ("hits", "scheme.spill.hits"),
                ("false_positives", "scheme.spill.false_positives"),
            ),
        )
        for label, bits in points
    ]

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Abl. 3",
            title="OwnerRID spill/reload path under LLC pressure (Sec. 5.3)",
            columns=["spills", "hits", "false positives"],
        )
        for label, _ in points:
            extras = cells[("bloom", label)].extras
            result.add_row(
                label,
                **{
                    "spills": float(extras["spills"]),
                    "hits": float(extras["hits"]),
                    "false positives": float(extras["false_positives"]),
                },
            )
        return result

    return Plan(specs, assemble)


def plan_fence_batching(quick: bool = True, workloads=None) -> Plan:
    """Sec. 5.2's guidance, swept: fence per batch of K regions.

    The paper advises calling ``asap_fence()`` once per *batch* of updates
    (e.g. before printing a confirmation) rather than per update. Sweeping
    the batch size shows the cost curve: per-region fencing forfeits most
    of the asynchronous-commit win; even small batches recover it.
    """
    batch_sizes = [1, 4, 16, 0]  # 0 = never fence
    specs = [
        RunSpec(
            key=("fence", k),
            builder=_FENCE,
            builder_kwargs=(("batch", k),),
        )
        for k in batch_sizes
    ]

    def assemble(cells) -> ExperimentResult:
        result = ExperimentResult(
            exp_id="Abl. 4",
            title="asap_fence batching (throughput normalized to fence-free, "
            "higher is better)",
            columns=[("no fence" if k == 0 else f"every {k}") for k in batch_sizes],
            notes="Sec. 5.2: fence before the I/O that needs the guarantee, "
            "not after every region",
        )
        tp = {k: cells[("fence", k)].result.throughput for k in batch_sizes}
        base = tp[0] or 1
        result.add_row(
            "throughput",
            **{
                ("no fence" if k == 0 else f"every {k}"): tp[k] / base
                for k in batch_sizes
            },
        )
        return result

    return Plan(specs, assemble)


def plan(quick: bool = True, workloads=None) -> Plan:
    """All four ablations as one combined matrix (keys are prefixed per
    sub-experiment, so the cells can execute in one shared pool)."""
    subplans = [
        plan_dpo_distance(quick, workloads),
        plan_wpq_size(quick, workloads),
        plan_bloom(quick, workloads),
        plan_fence_batching(quick, workloads),
    ]
    specs = [spec for sub in subplans for spec in sub.specs]

    def assemble(cells):
        return [sub.assemble(cells) for sub in subplans]

    return Plan(specs, assemble)
