"""System configuration (Table 2 of the paper) and scheme parameters.

The defaults mirror the paper's evaluated system:

* 18 out-of-order cores (we model them as trace-driven in-order executors),
* 32 KB 8-way L1 (4 cycles), 1 MB 16-way L2 (14 cycles), 8 MB 16-way shared
  L3 (42 cycles),
* 2 memory controllers x 2 channels, 128 WPQ entries per channel,
* battery-backed-DRAM persistent memory by default, with a latency
  multiplier for the Fig. 10 sensitivity sweep,
* ASAP structures: 4-entry CL List per core (8 CLPtr slots each), 128-entry
  Dependence List per channel (4 Dep slots each), 128-entry LH-WPQ per
  channel, 1 KB Bloom filter per channel.

Scaled-down configurations for tests and pytest benchmarks are provided by
:func:`SystemConfig.small`.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Tuple

from repro.common.address import AddressSpace
from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    latency: int  # access latency in cycles

    def __post_init__(self):
        if self.size_bytes <= 0 or self.assoc <= 0 or self.latency < 0:
            raise ConfigError(f"invalid cache parameters: {self}")
        if self.size_bytes % (self.assoc * 64) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.assoc}-way 64B sets"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * 64)


@dataclass(frozen=True)
class MemoryParams:
    """Memory-controller and device timing parameters.

    ``pm_latency_multiplier`` scales both the PM read latency and the PM
    write service time, reproducing the Fig. 10 sweep (1x battery-backed
    DRAM up to 16x slower technologies).
    """

    num_controllers: int = 2
    channels_per_controller: int = 2
    wpq_entries: int = 128  # per channel
    dram_read_latency: int = 150  # cycles, row-buffer-agnostic service time
    pm_read_latency: int = 150  # battery-backed DRAM baseline
    pm_write_service: int = 60  # cycles per line drained from the WPQ to PM
    pm_latency_multiplier: float = 1.0
    #: one-way latency from the L1 to a memory controller, charged to persist
    #: operations travelling to the WPQ.
    mc_hop_latency: int = 40
    #: Memory controllers prioritise reads: queued writes drain at full rate
    #: only once WPQ occupancy reaches this watermark; below it, entries
    #: linger and drain lazily. The lingering window is what makes LPO/DPO
    #: dropping (Sec. 5.1) effective.
    wpq_drain_watermark: int = 8
    #: below the watermark, one entry drains every
    #: ``pm_write_service * wpq_lazy_drain_multiplier`` cycles
    wpq_lazy_drain_multiplier: int = 16
    #: NUMA (Sec. 7.3): channel indices on a remote node - their MC hop
    #: and PM write service are scaled by ``numa_remote_multiplier``
    numa_remote_channels: tuple = ()
    #: latency multiplier applied to remote channels' persist path
    numa_remote_multiplier: float = 1.0
    #: Miss Status Holding Registers per cache array (each core's L1 and
    #: L2, and the shared LLC). A primary LLC miss allocates a register at
    #: every level it missed in and starts one memory fetch; secondary
    #: misses to the same line merge into that fetch and are replayed, in
    #: arrival order, when the fill completes; a primary miss that finds
    #: no free register stalls the requesting core until a fill frees one.
    #: ``1`` reproduces a classic blocking cache (one outstanding fetch
    #: system-wide - the fig10-overlap experiment's comparator).
    mshrs_per_cache: int = 16
    #: Channels drain their WPQs concurrently - each PM device services
    #: writes independently. False serializes write service across all
    #: channels behind a single global bus token (the legacy lockstep
    #: drain model, kept as the fig10-overlap experiment's comparator).
    overlapped_drains: bool = True

    def __post_init__(self):
        if self.num_controllers <= 0 or self.channels_per_controller <= 0:
            raise ConfigError("need at least one controller and channel")
        if self.wpq_entries <= 0:
            raise ConfigError("WPQ must have at least one entry")
        if self.pm_latency_multiplier <= 0:
            raise ConfigError("pm_latency_multiplier must be positive")
        if self.mshrs_per_cache < 1:
            raise ConfigError(
                f"mshrs_per_cache must be >= 1, got {self.mshrs_per_cache} "
                "(1 is the blocking-cache comparator)"
            )

    @property
    def num_channels(self) -> int:
        return self.num_controllers * self.channels_per_controller

    @property
    def effective_pm_read_latency(self) -> int:
        return max(1, round(self.pm_read_latency * self.pm_latency_multiplier))

    @property
    def effective_pm_write_service(self) -> int:
        return max(1, round(self.pm_write_service * self.pm_latency_multiplier))


@dataclass(frozen=True)
class AsapParams:
    """Sizes of the ASAP hardware structures and optimization switches.

    The three optimization flags map to the Fig. 9a ablation:

    * ``ASAP-No-Opt``: all three off,
    * ``ASAP+C``: only ``dpo_coalescing``,
    * ``ASAP+C+LP``: ``dpo_coalescing`` + ``lpo_dropping``,
    * ``ASAP`` (full): all three on.
    """

    cl_list_entries: int = 4  # per core
    clptr_slots: int = 8  # per CL List entry
    dependence_list_entries: int = 128  # per channel
    dep_slots: int = 4  # per Dependence List entry
    lh_wpq_entries: int = 128  # per channel
    bloom_filter_bits: int = 8 * KIB  # 1 KB per channel
    bloom_hashes: int = 4
    #: DPO initiation distance: a DPO is initiated once this many *other*
    #: cache lines have been updated since the last write to the line
    #: (Sec. 4.6.2; "the number four is empirically determined").
    dpo_distance: int = 4
    log_data_entries_per_record: int = 7  # Fig. 5a: 1 header + 7 entries
    initial_log_entries: int = 4096  # per-thread circular buffer entries
    lpo_dropping: bool = True
    dpo_coalescing: bool = True
    dpo_dropping: bool = True

    def __post_init__(self):
        if self.cl_list_entries <= 0 or self.clptr_slots <= 0:
            raise ConfigError("CL List geometry must be positive")
        if self.dependence_list_entries <= 0 or self.dep_slots <= 0:
            raise ConfigError("Dependence List geometry must be positive")
        if self.lh_wpq_entries <= 0:
            raise ConfigError("LH-WPQ must have at least one entry")
        if self.dpo_distance < 1:
            raise ConfigError("dpo_distance must be >= 1")
        if self.log_data_entries_per_record < 1:
            raise ConfigError("log records need at least one data entry")

    def ablation(self, name: str) -> "AsapParams":
        """Return a copy configured for one of the Fig. 9a ablation points.

        Args:
            name: one of ``"no_opt"``, ``"+C"``, ``"+C+LP"``, ``"full"``.
        """
        table = {
            "no_opt": dict(lpo_dropping=False, dpo_coalescing=False, dpo_dropping=False),
            "+C": dict(lpo_dropping=False, dpo_coalescing=True, dpo_dropping=False),
            "+C+LP": dict(lpo_dropping=True, dpo_coalescing=True, dpo_dropping=False),
            "full": dict(lpo_dropping=True, dpo_coalescing=True, dpo_dropping=True),
        }
        if name not in table:
            raise ConfigError(f"unknown ablation {name!r}; use {sorted(table)}")
        return replace(self, **table[name])


@dataclass(frozen=True)
class CoreParams:
    """Trace-driven core model parameters.

    The paper's cores are 5-wide out-of-order; our executor is trace driven
    and charges every op serially, so ``base_op_cost`` plays the role of an
    effective CPI for the non-memory work between memory references.
    """

    base_op_cost: int = 1  # cycles charged per non-memory op bundle

    def __post_init__(self):
        if self.base_op_cost < 0:
            raise ConfigError(f"invalid core parameters: {self}")


@dataclass(frozen=True)
class SystemConfig:
    """Full machine description; the Table 2 configuration by default."""

    num_cores: int = 18
    l1: CacheParams = field(default_factory=lambda: CacheParams(32 * KIB, 8, 4))
    l2: CacheParams = field(default_factory=lambda: CacheParams(1 * MIB, 16, 14))
    l3: CacheParams = field(default_factory=lambda: CacheParams(8 * MIB, 16, 42))
    memory: MemoryParams = field(default_factory=MemoryParams)
    asap: AsapParams = field(default_factory=AsapParams)
    core: CoreParams = field(default_factory=CoreParams)
    address_space: AddressSpace = field(default_factory=AddressSpace)

    def __post_init__(self):
        if self.num_cores <= 0:
            raise ConfigError("need at least one core")

    @staticmethod
    def small(
        num_cores: int = 4,
        wpq_entries: int = 16,
        pm_latency_multiplier: float = 1.0,
        **asap_overrides,
    ) -> "SystemConfig":
        """A scaled-down configuration for tests and pytest benchmarks.

        Smaller caches make capacity effects visible with short workloads and
        a smaller WPQ makes persist-op backpressure visible without running
        millions of operations.
        """
        return SystemConfig(
            num_cores=num_cores,
            l1=CacheParams(4 * KIB, 4, 4),
            l2=CacheParams(16 * KIB, 8, 14),
            l3=CacheParams(64 * KIB, 8, 42),
            memory=MemoryParams(
                num_controllers=2,
                channels_per_controller=1,
                wpq_entries=wpq_entries,
                pm_latency_multiplier=pm_latency_multiplier,
            ),
            asap=replace(
                AsapParams(
                    dependence_list_entries=32,
                    lh_wpq_entries=32,
                    initial_log_entries=1024,
                ),
                **asap_overrides,
            ),
        )

    def with_pm_multiplier(self, multiplier: float) -> "SystemConfig":
        """Return a copy with a scaled persistent-memory latency (Fig. 10)."""
        return replace(
            self, memory=replace(self.memory, pm_latency_multiplier=multiplier)
        )

    def with_asap(self, asap: AsapParams) -> "SystemConfig":
        """Return a copy with different ASAP structure parameters."""
        return replace(self, asap=asap)

    def cache_hierarchy_bytes(self) -> int:
        """SRAM of the whole cache hierarchy (private L1 and L2 per core,
        the shared L3): what an eADR battery must be able to flush."""
        private = self.l1.size_bytes + self.l2.size_bytes
        return self.num_cores * private + self.l3.size_bytes


# -- sweepable axes ----------------------------------------------------------
#
# The design-space exploration subsystem (:mod:`repro.explore`) names
# configuration fields as *axes*. The registry below is derived from the
# real dataclasses, so an axis name that drifts from the parameter
# definitions fails at sweep-construction time, not after hours of runs.

#: evaluation shorthand accepted by sweep specs -> canonical "group.field"
AXIS_ALIASES: Dict[str, str] = {
    "dep_list_entries": "asap.dependence_list_entries",
    "pm_write_latency": "memory.pm_write_service",
    "bloom_bits": "asap.bloom_filter_bits",
    "cores": "system.num_cores",
    "threads": "workload.num_threads",
    "mshrs": "memory.mshrs_per_cache",
}


@dataclass(frozen=True)
class AxisTarget:
    """One sweepable configuration field."""

    name: str  # canonical "group.field" path
    group: str  # "asap" | "memory" | "core" | "workload" | "system"
    field: str  # attribute on the group's dataclass
    kind: type  # int, float, or bool
    default: object  # the dataclass default (documentation + baselines)


_AXIS_REGISTRY: Dict[str, AxisTarget] = {}


def _scalar_fields(cls, group: str, defaults) -> Dict[str, AxisTarget]:
    out = {}
    for f in dataclasses.fields(cls):
        default = getattr(defaults, f.name)
        if type(default) not in (int, float, bool):
            continue
        name = f"{group}.{f.name}"
        out[name] = AxisTarget(
            name=name,
            group=group,
            field=f.name,
            kind=type(default),
            default=default,
        )
    return out


def sweepable_axes() -> Dict[str, AxisTarget]:
    """Canonical axis name -> :class:`AxisTarget`, for every scalar field of
    :class:`AsapParams`, :class:`MemoryParams`, :class:`CoreParams`,
    ``WorkloadParams``, plus ``system.num_cores`` and the service-only
    fields of ``ServiceParams`` (group ``service``). Tuple- and
    object-valued fields (NUMA channel sets, the address space) are not
    sweepable."""
    if not _AXIS_REGISTRY:
        # WorkloadParams lives in repro.workloads.base, which imports the
        # simulator (and hence this module); resolve it lazily.
        from repro.workloads.base import WorkloadParams

        from repro.workloads.service import ServiceParams

        _AXIS_REGISTRY.update(_scalar_fields(AsapParams, "asap", AsapParams()))
        _AXIS_REGISTRY.update(_scalar_fields(MemoryParams, "memory", MemoryParams()))
        _AXIS_REGISTRY.update(_scalar_fields(CoreParams, "core", CoreParams()))
        _AXIS_REGISTRY.update(
            _scalar_fields(WorkloadParams, "workload", WorkloadParams())
        )
        # service-only knobs (offered_load, skew, ...) get their own group:
        # applying one to plain WorkloadParams upgrades them to ServiceParams
        shared = {f.name for f in dataclasses.fields(WorkloadParams)}
        _AXIS_REGISTRY.update(
            {
                name: target
                for name, target in _scalar_fields(
                    ServiceParams, "service", ServiceParams()
                ).items()
                if target.field not in shared
            }
        )
        _AXIS_REGISTRY["system.num_cores"] = AxisTarget(
            name="system.num_cores",
            group="system",
            field="num_cores",
            kind=int,
            default=SystemConfig.__dataclass_fields__["num_cores"].default,
        )
    return _AXIS_REGISTRY


def resolve_axis(name: str) -> AxisTarget:
    """Resolve an axis name - canonical ``group.field``, a bare field name
    (when unambiguous), or an :data:`AXIS_ALIASES` shorthand - to its
    target. Unknown or ambiguous names raise :class:`ConfigError` naming
    the nearest valid axes, so a sweep-spec typo fails fast."""
    registry = sweepable_axes()
    if name in registry:
        return registry[name]
    if name in AXIS_ALIASES:
        return registry[AXIS_ALIASES[name]]
    bare = [t for t in registry.values() if t.field == name]
    if len(bare) == 1:
        return bare[0]
    if len(bare) > 1:
        raise ConfigError(
            f"ambiguous axis {name!r}: could be "
            + " or ".join(sorted(t.name for t in bare))
        )
    candidates = sorted(set(registry) | set(AXIS_ALIASES))
    near = difflib.get_close_matches(name, candidates, n=3, cutoff=0.5)
    hint = f"; did you mean {', '.join(near)}?" if near else ""
    raise ConfigError(f"unknown axis {name!r}{hint}")


def apply_axis_values(
    config: "SystemConfig",
    params,
    values: Mapping[str, object],
) -> Tuple["SystemConfig", object]:
    """Return ``(config, params)`` copies with the given axis values applied.

    Keys are resolved through :func:`resolve_axis`; the rebuilt dataclasses
    re-run their ``__post_init__`` validation, so an out-of-range value
    (``lh_wpq_entries=0``) raises :class:`ConfigError` immediately.
    """
    by_group: Dict[str, Dict[str, object]] = {}
    for name, value in values.items():
        target = resolve_axis(name)
        if isinstance(value, bool):
            ok = target.kind is bool
        else:
            ok = not target.kind is bool and isinstance(value, (int, float))
        if not ok:
            raise ConfigError(
                f"axis {target.name} expects {target.kind.__name__}, "
                f"got {value!r}"
            )
        if target.kind is int and not isinstance(value, int):
            raise ConfigError(
                f"axis {target.name} expects int, got {value!r}"
            )
        by_group.setdefault(target.group, {})[target.field] = value
    if "asap" in by_group:
        config = replace(config, asap=replace(config.asap, **by_group["asap"]))
    if "memory" in by_group:
        config = replace(config, memory=replace(config.memory, **by_group["memory"]))
    if "core" in by_group:
        config = replace(config, core=replace(config.core, **by_group["core"]))
    if "system" in by_group:
        config = replace(config, **by_group["system"])
    if "workload" in by_group:
        if params is None:
            raise ConfigError(
                "sweep names workload axes but no WorkloadParams was given: "
                + ", ".join(sorted(by_group["workload"]))
            )
        params = replace(params, **by_group["workload"])
    if "service" in by_group:
        from repro.workloads.service import ServiceParams

        if params is None:
            raise ConfigError(
                "sweep names service axes but no WorkloadParams was given: "
                + ", ".join(sorted(by_group["service"]))
            )
        if isinstance(params, ServiceParams):
            params = replace(params, **by_group["service"])
        else:
            params = ServiceParams.from_base(params, **by_group["service"])
    return config, params
