"""The exploration engine: drive sweep points through the cell executor.

Every point a driver proposes becomes one :class:`RunSpec` per workload,
executed by :func:`repro.harness.parallel.execute` - so sweeps inherit the
``--jobs N`` process fan-out and the content-addressed result cache for
free. A warm cache turns a repeated sweep (or one whose grid overlaps an
earlier figure's cells) into pure cache reads.

The engine evaluates whole batches between driver calls: a grid driver's
single batch saturates the worker pool, and the adaptive refiner pays one
barrier per refinement round, not per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.area import estimate_area
from repro.common.errors import ConfigError
from repro.common.params import SystemConfig
from repro.explore.drivers import Driver
from repro.explore.space import Point, SweepSpace
from repro.harness.experiment import geomean
from repro.harness.parallel import ProgressFn, ResultCache, RunSpec, execute
from repro.harness.runner import default_config, default_params
from repro.sim.stats import RunResult

#: runaway-driver backstop: a driver that keeps proposing gets cut off here
MAX_ROUNDS = 100


@dataclass(frozen=True)
class Objective:
    """One optimisation target extracted from a :class:`RunResult`.

    ``maximize`` fixes the sign convention: the engine hands drivers
    *signed* values (higher always better), while reports show the raw
    metric.
    """

    name: str
    maximize: bool
    extract: Callable[[RunResult], float]

    def signed(self, raw: float) -> float:
        return raw if self.maximize else -raw


OBJECTIVES: Dict[str, Objective] = {
    o.name: o
    for o in (
        Objective("throughput", True, lambda r: r.throughput),
        Objective("cycles_per_region", False, lambda r: r.cycles_per_region),
        Objective("pm_writes", False, lambda r: float(r.pm_writes)),
        Objective("pm_reads", False, lambda r: float(r.pm_reads)),
        Objective("p99_cycles", False, lambda r: float(r.p99_cycles)),
    )
}


def get_objective(name: str) -> Objective:
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ConfigError(
            f"unknown objective {name!r}; choose from {sorted(OBJECTIVES)}"
        )


@dataclass
class PointOutcome:
    """One fully-evaluated sweep point."""

    point: Point
    #: workload name -> that workload's run at this point
    per_workload: Dict[str, RunResult]
    #: geomean of the objective metric across the space's workloads (raw,
    #: unsigned - "higher is better" only when the objective maximises)
    objective: float
    #: ASAP on-chip structure bytes at this point's configuration - the
    #: Pareto cost axis (Sec. 6.2 accounting via repro.area)
    area_bytes: float
    #: the same, relative to the baseline caches' SRAM-byte proxy
    area_overhead: float
    #: which driver round proposed this point (0-based)
    round_index: int = 0
    #: cells served from the result cache (runtime info; never serialised)
    cached_cells: int = 0


@dataclass
class ExplorationResult:
    """Everything one exploration produced, in evaluation order."""

    space: SweepSpace
    driver: str
    objective: Objective
    outcomes: List[PointOutcome] = field(default_factory=list)
    rounds: int = 0

    @property
    def evaluated(self) -> Dict[Point, float]:
        """point -> signed objective (the drivers' view)."""
        return {
            o.point: self.objective.signed(o.objective) for o in self.outcomes
        }

    def best(self) -> PointOutcome:
        if not self.outcomes:
            raise ConfigError("exploration evaluated no points")
        return max(
            self.outcomes, key=lambda o: self.objective.signed(o.objective)
        )


def point_specs(
    space: SweepSpace,
    points: List[Point],
    config: Optional[SystemConfig] = None,
    params=None,
) -> List[RunSpec]:
    """The ``RunSpec`` cells for ``points`` x ``space.workloads``.

    Cell keys are ``(point, workload)``; identical (config, params,
    scheme, workload) cells share cache entries with every experiment in
    :mod:`repro.harness.experiments`, since the cache is content-addressed
    and ignores keys.
    """
    config = config if config is not None else default_config(True)
    params = params if params is not None else default_params(True)
    specs = []
    for point in points:
        point_config, point_params = space.materialize(point, config, params)
        for workload in space.workloads:
            specs.append(
                RunSpec(
                    key=(point, workload),
                    workload=workload,
                    scheme=space.scheme,
                    config=point_config,
                    params=point_params,
                )
            )
    return specs


def explore(
    space: SweepSpace,
    driver: Driver,
    objective: str = "throughput",
    quick: bool = True,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    config: Optional[SystemConfig] = None,
    params=None,
    sanitize: bool = False,
) -> ExplorationResult:
    """Run one exploration to completion.

    The base machine is ``default_config(quick)`` /
    ``default_params(quick)`` unless an explicit ``config``/``params`` is
    given; every point overlays its axis values on that base. Results are
    deterministic for any ``jobs`` value and cache state, exactly like the
    figure experiments (see docs/HARNESS.md).
    """
    obj = get_objective(objective)
    base_config = config if config is not None else default_config(quick)
    base_params = params if params is not None else default_params(quick)
    result = ExplorationResult(space=space, driver=driver.name, objective=obj)
    evaluated: Dict[Point, float] = {}

    for round_index in range(MAX_ROUNDS):
        batch = [p for p in driver.propose(space, evaluated) if p not in evaluated]
        if not batch:
            break
        # drop in-batch duplicates, preserving first occurrence
        batch = list(dict.fromkeys(batch))
        specs = point_specs(space, batch, config=base_config, params=base_params)
        cells = execute(
            specs, jobs=jobs, cache=cache, progress=progress, sanitize=sanitize
        )
        for point in batch:
            per_workload = {
                wl: cells[(point, wl)].result for wl in space.workloads
            }
            raw = geomean([obj.extract(r) for r in per_workload.values()])
            point_config, _ = space.materialize(point, base_config, base_params)
            area = estimate_area(point_config)
            outcome = PointOutcome(
                point=point,
                per_workload=per_workload,
                objective=raw,
                area_bytes=area.core_added_bytes + area.uncore_added_bytes,
                area_overhead=area.total_overhead,
                round_index=round_index,
                cached_cells=sum(
                    1 for wl in space.workloads if cells[(point, wl)].cached
                ),
            )
            evaluated[point] = obj.signed(raw)
            result.outcomes.append(outcome)
        result.rounds = round_index + 1
    return result
