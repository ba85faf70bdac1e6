"""Analysis layer: sensitivity and area/throughput Pareto frontiers.

Operates purely on finished :class:`~repro.explore.engine.PointOutcome`
lists, so it is trivially unit-testable with synthetic outcomes and never
touches the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.explore.space import Point, SweepSpace

# engine imports drivers, which rank axes by sensitivity() from here
if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.explore.engine import ExplorationResult, Objective, PointOutcome

# -- Pareto frontier ---------------------------------------------------------


def dominates(a: PointOutcome, b: PointOutcome, maximize: bool) -> bool:
    """True when ``a`` is at least as good as ``b`` on both axes (objective
    and area) and strictly better on at least one. Equal points never
    dominate each other, so ties survive pruning together."""
    obj_a = a.objective if maximize else -a.objective
    obj_b = b.objective if maximize else -b.objective
    if obj_a < obj_b or a.area_bytes > b.area_bytes:
        return False
    return obj_a > obj_b or a.area_bytes < b.area_bytes


def pareto_frontier(
    outcomes: Sequence[PointOutcome], maximize: bool = True
) -> Tuple[List[PointOutcome], List[PointOutcome]]:
    """Split outcomes into (frontier, dominated).

    The frontier holds every point no other point dominates - cheaper
    *and* at-least-as-fast, or as-cheap and faster. Frontier order is by
    ascending area (then descending signed objective, then evaluation
    order), the natural reading for an area/throughput trade-off table;
    dominated points keep evaluation order.
    """
    frontier: List[PointOutcome] = []
    dominated: List[PointOutcome] = []
    for candidate in outcomes:
        if any(
            dominates(other, candidate, maximize)
            for other in outcomes
            if other is not candidate
        ):
            dominated.append(candidate)
        else:
            frontier.append(candidate)
    signed = (lambda o: o.objective) if maximize else (lambda o: -o.objective)
    order = {id(o): i for i, o in enumerate(outcomes)}
    frontier.sort(key=lambda o: (o.area_bytes, -signed(o), order[id(o)]))
    return frontier, dominated


# -- sensitivity -------------------------------------------------------------


@dataclass(frozen=True)
class AxisSensitivity:
    """Tornado bar for one axis: objective deltas off the baseline point.

    ``low``/``high`` are the most extreme *negative* and *positive*
    observed deltas among points differing from the baseline on exactly
    this axis (one-factor-at-a-time); ``low_value``/``high_value`` name
    the axis values that produced them. ``swing`` = high - low is the
    tornado bar length the report sorts by.
    """

    axis: str
    low: float
    high: float
    low_value: object
    high_value: object

    @property
    def swing(self) -> float:
        return self.high - self.low


def sensitivity(
    space: SweepSpace,
    evaluated: Mapping[Point, float],
    baseline: Optional[Point] = None,
) -> List[AxisSensitivity]:
    """One-factor-at-a-time sensitivity of the objective to every axis.

    ``evaluated`` maps points to the *raw* objective. The baseline
    defaults to the space's center point; when it was never evaluated,
    every axis reports zero deltas (the report states this). Axes are
    returned most-sensitive first (largest swing), ties by axis order.
    """
    baseline = baseline or space.center_point()
    base_obj = evaluated.get(baseline)
    base = dict(baseline)
    rows: Dict[str, AxisSensitivity] = {}
    axis_rank = {a.name: i for i, a in enumerate(space.axes)}
    for axis in space.axes:
        rows[axis.name] = AxisSensitivity(
            axis=axis.name,
            low=0.0,
            high=0.0,
            low_value=base[axis.name],
            high_value=base[axis.name],
        )
    if base_obj is None:
        return list(rows.values())
    for point, obj in evaluated.items():
        diff = [n for n, v in point if base.get(n) != v]
        if len(diff) != 1 or diff[0] not in rows:
            continue
        name = diff[0]
        delta = obj - base_obj
        value = dict(point)[name]
        row = rows[name]
        if delta < row.low:
            row = AxisSensitivity(name, delta, row.high, value, row.high_value)
        if delta > row.high:
            row = AxisSensitivity(name, row.low, delta, row.low_value, value)
        rows[name] = row
    return sorted(
        rows.values(), key=lambda r: (-r.swing, axis_rank[r.axis])
    )


# -- roll-up -----------------------------------------------------------------


@dataclass
class Analysis:
    """Everything the report renders: frontier, pruned points, tornado."""

    frontier: List[PointOutcome]
    dominated: List[PointOutcome]
    sensitivities: List[AxisSensitivity]
    baseline: Point
    baseline_objective: Optional[float]
    objective: Objective


def analyze(
    result: ExplorationResult, baseline: Optional[Point] = None
) -> Analysis:
    """Run the full analysis pass over a finished exploration."""
    raw = {o.point: o.objective for o in result.outcomes}
    baseline = baseline or result.space.center_point()
    frontier, dominated = pareto_frontier(
        result.outcomes, maximize=result.objective.maximize
    )
    return Analysis(
        frontier=frontier,
        dominated=dominated,
        sensitivities=sensitivity(result.space, raw, baseline),
        baseline=baseline,
        baseline_objective=raw.get(baseline),
        objective=result.objective,
    )
