"""Nested-region flattening across every scheme (Sec. 4.2/4.5)."""

import pytest

from repro.common.params import SystemConfig
from repro.persist import make_scheme, scheme_names
from repro.sim.machine import Machine
from repro.sim.ops import Begin, End, Read, Write
from repro.sim.trace import COMMIT, Tracer

SCHEMES = scheme_names()


def run_nested(scheme, depth=3):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    a = m.heap.alloc(64 * depth)

    def worker(env):
        for _ in range(depth):
            yield Begin()
        for j in range(depth):
            yield Write(a + 64 * j, [j + 1])
        for _ in range(depth):
            yield End()

    m.spawn(worker)
    res = m.run()
    return m, res, a


@pytest.mark.parametrize("scheme", SCHEMES)
def test_nested_regions_flatten_to_one(scheme):
    m, res, a = run_nested(scheme)
    assert res.regions_completed == 1
    assert len(m.oracle.committed_rids) == 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_nested_region_is_atomic_as_a_whole(scheme):
    """All writes of the flattened region belong to one atomic unit."""
    m, res, a = run_nested(scheme)
    words = [a, a + 64, a + 128]  # one word per depth level
    assert len(m.oracle.committed_rids) == 1 and m.oracle.uncommitted_rids() == []
    assert sorted(m.oracle.tracked_words) == words
    assert [m.oracle.committed.read_word(w) for w in words] == [1, 2, 3]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_inner_end_does_not_trigger_commit(scheme):
    m = Machine(SystemConfig.small(), make_scheme(scheme)).inspect()
    a = m.heap.alloc(128)
    seen = {}
    tracer = Tracer(m)

    def worker(env):
        yield Begin()
        yield Begin()
        yield Write(a, [1])
        yield End()  # inner end: no commit machinery
        seen["after_inner"] = len(tracer.of_kind(COMMIT))
        yield Write(a + 64, [2])
        yield End()

    m.spawn(worker)
    m.run()
    assert seen["after_inner"] == 0
    assert len(tracer.of_kind(COMMIT)) == 1


def test_deeply_nested_regions():
    m, res, a = run_nested("asap", depth=6)
    assert res.regions_completed == 1
    assert m.oracle.mismatches(m.pm_image) == []
