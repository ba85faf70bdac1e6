"""Search drivers: proposals, determinism, and refinement behaviour.

Drivers are pure strategy - no simulator involved - so these tests feed
them synthetic objective values and check which points they ask for.
"""

import pytest

from repro.common.errors import ConfigError
from repro.explore.drivers import (
    GridDriver,
    RandomDriver,
    RefineDriver,
    make_driver,
)
from repro.explore.analysis import sensitivity
from repro.explore.space import SweepSpace


def space_2x3():
    return SweepSpace.build(
        axes={"lh_wpq_entries": [2, 8, 32], "dep_list_entries": [4, 16]},
        workloads=["HM"],
    )


def evaluate(points, objective):
    """Synthetic evaluation: objective(dict of axis values) -> float."""
    return {p: objective(dict(p)) for p in points}


# -- grid --------------------------------------------------------------------


def test_grid_proposes_every_point_once_then_stops():
    space = space_2x3()
    driver = GridDriver()
    batch = driver.propose(space, {})
    assert batch == space.grid()
    done = evaluate(batch, lambda v: 0.0)
    assert driver.propose(space, done) == []


# -- random ------------------------------------------------------------------


def test_random_is_seeded_distinct_and_within_the_grid():
    space = space_2x3()
    a = RandomDriver(samples=4, seed=9).propose(space, {})
    b = RandomDriver(samples=4, seed=9).propose(space, {})
    assert a == b  # same seed, same draw
    assert len(a) == len(set(a)) == 4
    grid = set(space.grid())
    assert all(p in grid for p in a)
    c = RandomDriver(samples=4, seed=10).propose(space, {})
    assert set(c) != set(a) or c == a  # different seed may differ; never invalid
    assert all(p in grid for p in c)


def test_random_caps_at_grid_size_and_preserves_grid_order():
    space = space_2x3()
    batch = RandomDriver(samples=99, seed=0).propose(space, {})
    assert batch == space.grid()
    with pytest.raises(ConfigError):
        RandomDriver(samples=0)


def test_random_second_round_proposes_nothing_new():
    space = space_2x3()
    driver = RandomDriver(samples=3, seed=1)
    batch = driver.propose(space, {})
    assert driver.propose(space, evaluate(batch, lambda v: 1.0)) == []


# -- the sensitivity refine ranks axes by ----------------------------------

LH, DEP = "asap.lh_wpq_entries", "asap.dependence_list_entries"


def lh_dep_point(space, lh, dep):
    return tuple((n, {LH: lh, DEP: dep}[n]) for n, _ in space.center_point())


def test_axis_sensitivities_reads_one_factor_deltas():
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [2, 16, 32], "dep_list_entries": [2, 16, 32]},
        workloads=["HM"],
    )

    def p(lh, dep):
        return lh_dep_point(space, lh, dep)

    # the LH-WPQ swings wider (-10..+10), the dep list moves the objective
    # furthest off the center (+15)
    done = {
        p(16, 16): 0.0,
        p(2, 16): -10.0,
        p(32, 16): 10.0,
        p(16, 2): 0.0,
        p(16, 32): 15.0,
        # two-factor points: not one-factor deltas, but they make the
        # LH-WPQ bisectable at the best point too
        p(2, 32): 1.0,
        p(32, 32): 2.0,
    }
    rows = {
        r.axis: (r.low, r.high, r.low_value, r.high_value)
        for r in sensitivity(space, done)
    }
    assert rows == {LH: (-10.0, 10.0, 2, 32), DEP: (0.0, 15.0, 16, 32)}
    # refine ranks by the largest one-factor |delta| (dep list, 15), not by
    # swing (LH-WPQ, 20): it bisects the dep list at the best point
    assert RefineDriver(rounds=1).propose(space, done) == [p(16, 24)]


def test_axis_sensitivities_without_baseline_point_is_zero():
    space = space_2x3()
    some = evaluate([space.grid()[0]], lambda v: 5.0)
    center = space.center_point()
    assert center not in some
    rows = sensitivity(space, some)
    assert {r.axis for r in rows} == {LH, DEP}
    assert all(r.low == r.high == 0.0 for r in rows)


# -- refine ------------------------------------------------------------------


def test_refine_round0_is_the_tornado_set():
    space = space_2x3()
    batch = RefineDriver().propose(space, {})
    center = space.center_point()
    assert batch[0] == center
    # center + (min,max) per axis, deduplicated; center has dep=4 = min
    assert len(batch) == 4
    assert all(len(p) == 2 for p in batch)


def test_refine_bisects_the_most_sensitive_axis_around_the_best_point():
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [2, 64], "dep_list_entries": [2, 32]},
        workloads=["HM"],
    )
    driver = RefineDriver(rounds=2)
    tornado = driver.propose(space, {})
    # dep list dominates the objective; best point has dep=32
    done = evaluate(tornado, lambda v: v["asap.dependence_list_entries"] * 100.0)
    batch = driver.propose(space, done)
    assert batch, "refiner should bisect"
    for p in batch:
        values = dict(p)
        assert values["asap.dependence_list_entries"] == 17  # mid(2, 32)
    done.update(evaluate(batch, lambda v: v["asap.dependence_list_entries"] * 100.0))
    batch2 = driver.propose(space, done)
    # next bisection narrows toward 32: mid(17, 32) = 24 (or falls back)
    assert all(dict(p)["asap.dependence_list_entries"] == 24 for p in batch2)


def test_refine_respects_round_budget_and_unsplittable_gaps():
    space = SweepSpace.build(
        axes={"lh_wpq_entries": [2, 3]}, workloads=["HM"]
    )
    driver = RefineDriver(rounds=5)
    tornado = driver.propose(space, {})
    done = evaluate(tornado, lambda v: float(v["asap.lh_wpq_entries"]))
    # adjacent integers cannot be bisected: the driver must stop cleanly
    assert driver.propose(space, done) == []
    with pytest.raises(ConfigError):
        RefineDriver(rounds=-1)


def test_refine_never_reproposes_an_evaluated_point():
    space = space_2x3()
    driver = RefineDriver(rounds=10)
    evaluated = {}
    seen = set()
    for _ in range(12):
        batch = driver.propose(space, evaluated)
        if not batch:
            break
        for p in batch:
            assert p not in seen
            seen.add(p)
        evaluated.update(
            evaluate(batch, lambda v: float(v["asap.lh_wpq_entries"]))
        )
    else:
        pytest.fail("refiner never terminated")


# -- registry ----------------------------------------------------------------


def test_make_driver_dispatch_and_unknown_name():
    assert isinstance(make_driver("grid"), GridDriver)
    assert isinstance(make_driver("random", samples=2, seed=1), RandomDriver)
    assert isinstance(make_driver("refine", rounds=1), RefineDriver)
    with pytest.raises(ConfigError, match="unknown driver"):
        make_driver("anneal")
