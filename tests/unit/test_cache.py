"""Unit tests for the set-associative cache array."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.common.params import CacheParams, SystemConfig
from repro.mem.cache import EMPTY_SET, CacheArray
from repro.persist import make_scheme
from repro.sim.machine import Machine
from repro.workloads import WorkloadParams, get_workload


def small_cache(assoc=2, sets=4, locked=()):
    params = CacheParams(size_bytes=assoc * sets * 64, assoc=assoc, latency=4)
    return CacheArray("t", params, locked)


def line(i, sets=4):
    """i-th line mapping to set i % sets."""
    return i * 64


def test_miss_then_hit():
    c = small_cache()
    assert not c.lookup(line(0))
    c.insert(line(0))
    assert c.lookup(line(0))
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    c = small_cache(assoc=2, sets=1)
    a, b, d = 0, 64, 128  # all map to the single set
    c.insert(a)
    c.insert(b)
    c.lookup(a)  # a becomes MRU
    victim = c.insert(d)
    assert victim == b


def test_insert_existing_refreshes_without_eviction():
    c = small_cache(assoc=2, sets=1)
    c.insert(0)
    c.insert(64)
    assert c.insert(0) is None  # refresh
    assert c.insert(128) == 64  # 0 was refreshed, so 64 is LRU


def test_locked_lines_skipped_as_victims():
    locked = set()
    c = small_cache(assoc=2, sets=1, locked=locked)
    c.insert(0)
    c.insert(64)
    locked.add(0)  # 0 is LRU but locked
    victim = c.insert(128)
    assert victim == 64


def test_all_ways_locked_raises():
    locked = {0, 64}
    c = small_cache(assoc=2, sets=1, locked=locked)
    c.insert(0)
    c.insert(64)
    with pytest.raises(SimulationError):
        c.insert(128)


def test_invalidate():
    c = small_cache()
    c.insert(0)
    assert c.invalidate(0)
    assert not c.invalidate(0)
    assert not c.contains(0)


def test_occupancy_and_lines():
    c = small_cache()
    for i in range(3):
        c.insert(line(i))
    assert c.occupancy() == 3
    assert sorted(c.lines()) == [0, 64, 128]


def test_sets_are_independent():
    c = small_cache(assoc=1, sets=4)
    # lines 0..3 map to distinct sets: no evictions
    for i in range(4):
        assert c.insert(i * 64) is None
    # line 4 maps to set 0: evicts line 0
    assert c.insert(4 * 64) == 0


# -- lazily created sets ------------------------------------------------------


class _ReferenceArray:
    """Every set built up front as a plain OrderedDict: the array's
    behaviour before sets were created on first fill."""

    def __init__(self, sets, assoc, locked):
        self.sets = [OrderedDict() for _ in range(sets)]
        self.assoc = assoc
        self.locked = locked
        self.hits = self.misses = self.evictions = 0

    def set_of(self, line):
        return self.sets[(line >> 6) % len(self.sets)]

    def lookup(self, line, touch):
        s = self.set_of(line)
        if line in s:
            if touch:
                s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def touch(self, line):
        s = self.set_of(line)
        if line in s:
            s.move_to_end(line)

    def insert(self, line):
        s = self.set_of(line)
        if line in s:
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim = next((c for c in s if c not in self.locked), None)
            if victim is None:
                raise SimulationError("all ways locked")
            del s[victim]
            self.evictions += 1
        s[line] = True
        return victim

    def invalidate(self, line):
        s = self.set_of(line)
        if line in s:
            del s[line]
            return True
        return False

    def lines(self):
        return [line for s in self.sets for line in s]


SETS, ASSOC = 4, 2
#: three lines per way of every set, so sets fill, evict and lock up
_line = st.integers(0, 3 * SETS * ASSOC - 1).map(lambda i: i * 64)
_ops = st.tuples(
    st.sampled_from(
        ["insert", "lookup", "probe", "touch", "invalidate", "lock", "unlock"]
    ),
    _line,
)


def _step(target, op, line, locked):
    """Apply one op; returns what the caller can observe."""
    if op == "lock":
        locked.add(line)
        return None
    if op == "unlock":
        locked.discard(line)
        return None
    if op == "insert":
        try:
            return target.insert(line)
        except SimulationError:
            return "stall"
    if op in ("lookup", "probe"):
        return target.lookup(line, touch=op == "lookup")
    if op == "touch":
        return target.touch(line)
    return target.invalidate(line)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=60))
def test_lazy_sets_match_eager_reference(ops):
    locked, ref_locked = set(), set()
    c = small_cache(assoc=ASSOC, sets=SETS, locked=locked)
    ref = _ReferenceArray(SETS, ASSOC, ref_locked)
    for op, line in ops:
        assert _step(c, op, line, locked) == _step(ref, op, line, ref_locked), (op, line)
        assert list(c.lines()) == ref.lines()
        assert c.occupancy() == len(ref.lines())
        assert (c.hits, c.misses, c.evictions) == (ref.hits, ref.misses, ref.evictions)
    # a set exists only where a line was filled
    filled = {(line >> 6) % SETS for op, line in ops if op == "insert"}
    untouched = [i for i, s in enumerate(c._sets) if s is EMPTY_SET]
    assert set(untouched) == set(range(SETS)) - filled


def _arrays(machine):
    h = machine.hierarchy
    return h.l1 + h.l2 + [h.llc]


@pytest.mark.parametrize("config", [SystemConfig.small(), SystemConfig()], ids=["small", "table2"])
def test_fresh_machine_creates_no_sets(config):
    m = Machine(config, make_scheme("asap"))
    for array in _arrays(m):
        assert all(s is EMPTY_SET for s in array._sets), array.name


def test_shared_empty_set_stays_empty_through_a_run():
    m = Machine(SystemConfig.small(), make_scheme("asap"))
    m.install(get_workload("HM", WorkloadParams(num_threads=2, ops_per_thread=8)))
    m.run()
    assert len(EMPTY_SET) == 0 and dict(EMPTY_SET) == {}
    slots = [s for array in _arrays(m) for s in array._sets]
    assert any(s is EMPTY_SET for s in slots)  # the run left some sets unfilled
    assert any(s is not EMPTY_SET for s in slots)


def test_shared_empty_set_rejects_mutation():
    with pytest.raises(TypeError):
        EMPTY_SET[0] = True
    with pytest.raises(TypeError):
        del EMPTY_SET[0]
    for method in ("move_to_end", "pop", "popitem", "clear", "update", "setdefault"):
        with pytest.raises(AttributeError):
            getattr(EMPTY_SET, method)
    assert len(EMPTY_SET) == 0
