"""Search drivers: which points of a sweep space get simulated, and when.

A driver is a small stateful strategy behind one method::

    propose(space, evaluated) -> [Point, ...]

``evaluated`` maps every already-simulated :data:`~repro.explore.space.Point`
to its (signed) objective value - higher is better; the engine negates
minimisation objectives before they reach a driver. An empty proposal ends
the exploration. Batches are deliberately coarse: every proposed point
fans out through :func:`repro.harness.parallel.execute`, so a driver that
proposes 32 points at once keeps ``--jobs N`` workers busy, while a
point-at-a-time driver would serialise the sweep.

Three strategies ship:

* :class:`GridDriver` - exhaustive cross product (the default),
* :class:`RandomDriver` - seeded uniform sampling without replacement,
* :class:`RefineDriver` - tornado bootstrap, then greedy bisection of the
  most sensitive axis around the incumbent best point.
"""

from __future__ import annotations

import random
from typing import List, Mapping

from repro.common.errors import ConfigError
from repro.explore.analysis import sensitivity
from repro.explore.space import Point, SweepSpace


class Driver:
    """Base class; subclasses implement :meth:`propose`."""

    name = "?"

    def propose(
        self, space: SweepSpace, evaluated: Mapping[Point, float]
    ) -> List[Point]:
        raise NotImplementedError


class GridDriver(Driver):
    """Every point of the cross product, in one batch."""

    name = "grid"

    def propose(self, space, evaluated):
        return [p for p in space.grid() if p not in evaluated]


class RandomDriver(Driver):
    """``samples`` distinct grid points, chosen by a seeded RNG.

    Deterministic for a given (space, samples, seed); sampling is without
    replacement and silently caps at the grid size.
    """

    name = "random"

    def __init__(self, samples: int = 16, seed: int = 0):
        if samples <= 0:
            raise ConfigError("random driver needs samples >= 1")
        self.samples = samples
        self.seed = seed

    def propose(self, space, evaluated):
        grid = space.grid()
        rng = random.Random(self.seed)
        picked = (
            grid
            if self.samples >= len(grid)
            else rng.sample(grid, self.samples)
        )
        # keep grid order so reports read row-major regardless of the draw
        order = {p: i for i, p in enumerate(grid)}
        picked.sort(key=order.__getitem__)
        return [p for p in picked if p not in evaluated]


class RefineDriver(Driver):
    """Greedy adaptive refinement.

    Round 0 proposes the tornado set: the space's center point plus, for
    each axis, the center with that axis pushed to its min and max. Each
    later round ranks axes by their largest one-factor |delta| off the
    center (:func:`~repro.explore.analysis.sensitivity`), takes the
    incumbent best point, and bisects the most sensitive axis around the
    best point's value (midpoints toward the nearest tried values on each
    side), falling back to less sensitive axes when a gap cannot be split
    further. Stops after ``rounds`` refinement rounds or when no axis
    yields a new point.
    """

    name = "refine"

    def __init__(self, rounds: int = 4):
        if rounds < 0:
            raise ConfigError("refine driver needs rounds >= 0")
        self.rounds = rounds
        self._rounds_done = 0

    def _tornado_set(self, space: SweepSpace) -> List[Point]:
        center = space.center_point()
        points = [center]
        for axis in space.axes:
            lo, hi = axis.span
            for value in (lo, hi):
                p = tuple(
                    (n, value if n == axis.name else v) for n, v in center
                )
                if p not in points:
                    points.append(p)
        return points

    def _bisect(self, space, evaluated, best: Point, axis_name: str):
        best_vals = dict(best)
        value = best_vals[axis_name]
        if isinstance(value, bool):
            return []
        # values already tried on this axis at the best point's coordinates
        tried = sorted(
            {
                dict(p)[axis_name]
                for p in evaluated
                if all(
                    n == axis_name or v == best_vals[n] for n, v in p
                )
            }
        )
        axis = space.axis(axis_name)
        idx = tried.index(value)
        proposals = []
        for neighbour in (
            tried[idx - 1] if idx > 0 else None,
            tried[idx + 1] if idx + 1 < len(tried) else None,
        ):
            if neighbour is None:
                continue
            mid = axis.midpoint(*sorted((value, neighbour)))
            if mid is None:
                continue
            p = tuple(
                (n, mid if n == axis_name else v) for n, v in best
            )
            if p not in evaluated and p not in proposals:
                proposals.append(p)
        return proposals

    def propose(self, space, evaluated):
        if not evaluated:
            return self._tornado_set(space)
        if self._rounds_done >= self.rounds:
            return []
        self._rounds_done += 1
        best = max(evaluated, key=lambda p: (evaluated[p],))
        sens = {r.axis: max(-r.low, r.high) for r in sensitivity(space, evaluated)}
        ranked = sorted(sens, key=lambda n: (-sens[n], n))
        for axis_name in ranked:
            proposals = self._bisect(space, evaluated, best, axis_name)
            if proposals:
                return proposals
        return []


DRIVERS = {"grid": GridDriver, "random": RandomDriver, "refine": RefineDriver}


def make_driver(name: str, **kwargs) -> Driver:
    """Instantiate a driver by name; unknown kwargs are rejected by the
    driver's constructor, unknown names here."""
    try:
        cls = DRIVERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown driver {name!r}; choose from {sorted(DRIVERS)}"
        )
    return cls(**kwargs)
