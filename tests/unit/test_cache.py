"""Unit tests for the set-associative cache array."""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import CacheParams
from repro.mem.cache import CacheArray


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
